// Anonymous Gossip wire messages (paper section 4.1 and 4.4).
#ifndef AG_GOSSIP_MESSAGES_H
#define AG_GOSSIP_MESSAGES_H

#include <cstdint>
#include <vector>

#include "net/data.h"
#include "net/ids.h"

namespace ag::gossip {

// Next message the initiator expects from one sender; anything older that
// is not in the lost buffer has been received.
struct SenderExpectation {
  net::NodeId sender;
  std::uint32_t expected_seq{0};
};

// The gossip message of section 4.1: group address, source address, lost
// buffer, number lost (the vector's size) and expected sequence numbers.
// `hops_walked` counts random-walk steps (tree propagation) and doubles as
// the distance estimate stored in the acceptor's member cache.
struct GossipMsg {
  net::GroupId group;
  net::NodeId initiator;
  std::vector<net::MsgId> lost;  // bounded by kMaxLostInMessage
  std::vector<SenderExpectation> expected;
  // Push / push-pull modes only: recent messages shipped proactively
  // (empty under the paper's pull protocol).
  std::vector<net::MulticastData> pushed;
  std::uint8_t hops_walked{0};
  bool cached{false};  // true: unicast straight to a cached member (section 4.3)
  bool pull{true};     // false: pure push round — acceptor must not answer
};

// Pull-mode reply (section 4.4): one recovered data message, unicast back
// to the gossip initiator.
struct GossipReplyMsg {
  net::GroupId group;
  net::NodeId responder;
  net::MulticastData data;
};

// Nearest-member MODIFY message (section 4.2): advertises, to one tree
// neighbor, the distance from the sender to the nearest group member
// reachable away from that neighbor.
struct NearestMemberMsg {
  net::GroupId group;
  std::uint16_t distance_hops{0};
};

}  // namespace ag::gossip

#endif  // AG_GOSSIP_MESSAGES_H
