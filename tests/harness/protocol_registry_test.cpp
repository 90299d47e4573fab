// The protocol-stack plugin API: enum and string lookup, the unknown-name
// error path, and — the paper's portability claim made executable — one
// generic delivery scenario iterated over every registered protocol,
// built through the same factories the harness uses.
#include <gtest/gtest.h>

#include <stdexcept>

#include "harness/protocol_registry.h"
#include "testutil/stack_fixture.h"

namespace ag::harness {
namespace {

TEST(ProtocolRegistry, EnumLookupReturnsEntries) {
  const ProtocolRegistry& reg = ProtocolRegistry::instance();
  EXPECT_EQ(reg.entry(Protocol::maodv).name, "maodv");
  EXPECT_EQ(reg.entry(Protocol::maodv_gossip).name, "maodv_gossip");
  EXPECT_EQ(reg.entry(Protocol::flooding).name, "flooding");
  EXPECT_EQ(reg.entry(Protocol::odmrp).name, "odmrp");
  EXPECT_EQ(reg.entry(Protocol::odmrp_gossip).name, "odmrp_gossip");
  EXPECT_FALSE(reg.entry(Protocol::maodv).gossip_capable);
  EXPECT_TRUE(reg.entry(Protocol::maodv_gossip).gossip_capable);
  EXPECT_TRUE(reg.entry(Protocol::odmrp_gossip).gossip_capable);
}

TEST(ProtocolRegistry, StringLookupRoundTrips) {
  const ProtocolRegistry& reg = ProtocolRegistry::instance();
  for (Protocol p : reg.all()) {
    EXPECT_EQ(reg.parse(reg.name_of(p)), p);
  }
  EXPECT_GE(reg.all().size(), 5u);
}

TEST(ProtocolRegistry, ParseListSplitsAndSkipsEmptySegments) {
  const ProtocolRegistry& reg = ProtocolRegistry::instance();
  const std::vector<Protocol> both = reg.parse_list("maodv_gossip,flooding");
  ASSERT_EQ(both.size(), 2u);
  EXPECT_EQ(both[0], Protocol::maodv_gossip);
  EXPECT_EQ(both[1], Protocol::flooding);
  // Stray commas (trailing, doubled) are tolerated, as the CLI always has.
  const std::vector<Protocol> one = reg.parse_list(",odmrp,");
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], Protocol::odmrp);
}

TEST(ProtocolRegistry, ParseListRejectsUnknownNamesWithTheRegisteredList) {
  const ProtocolRegistry& reg = ProtocolRegistry::instance();
  try {
    (void)reg.parse_list("maodv,no_such_protocol");
    FAIL() << "parse_list must throw on unknown names";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no_such_protocol"), std::string::npos);
    // Every registered name must be in the message — that is what makes
    // the bench CLI failure actionable.
    for (const Protocol p : reg.all()) {
      EXPECT_NE(what.find(reg.name_of(p)), std::string::npos) << reg.name_of(p);
    }
  }
}

TEST(ProtocolRegistry, ParseListRejectsRepeatedNames) {
  const ProtocolRegistry& reg = ProtocolRegistry::instance();
  // A repeated name would run and report the same series twice. Stray
  // commas between the copies do not hide the repeat.
  for (const char* list : {"maodv,maodv", "maodv,,maodv"}) {
    try {
      (void)reg.parse_list(list);
      FAIL() << "parse_list must throw on a repeated name: " << list;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("\"maodv\" is listed twice"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ProtocolRegistry, ParseListRejectsEmptyLists) {
  const ProtocolRegistry& reg = ProtocolRegistry::instance();
  EXPECT_THROW((void)reg.parse_list(""), std::invalid_argument);
  EXPECT_THROW((void)reg.parse_list(",,"), std::invalid_argument);
}

TEST(ProtocolRegistry, UnknownNameIsAnError) {
  const ProtocolRegistry& reg = ProtocolRegistry::instance();
  EXPECT_EQ(reg.find("no_such_protocol"), nullptr);
  try {
    (void)reg.parse("no_such_protocol");
    FAIL() << "parse must throw on unknown names";
  } catch (const std::invalid_argument& e) {
    // The error must name the offender and list the alternatives.
    EXPECT_NE(std::string(e.what()).find("no_such_protocol"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("maodv_gossip"), std::string::npos);
  }
}

TEST(ProtocolRegistry, FactoriesBuildWorkingRouters) {
  const ProtocolRegistry& reg = ProtocolRegistry::instance();
  for (Protocol p : reg.all()) {
    testutil::StackOptions opts;
    opts.protocol = p;
    testutil::StaticNetwork net{testutil::line_positions(3, 80.0), opts};
    EXPECT_EQ(net.multicast_router(1).self(), net::NodeId{1})
        << reg.name_of(p);
  }
}

// The same three-node line scenario, run once per registered protocol:
// members at both ends, source at node 0, five packets. Every substrate
// must deliver to the far member — that is what "pluggable" means.
class EveryProtocol : public ::testing::TestWithParam<Protocol> {};

TEST_P(EveryProtocol, DeliversAcrossALine) {
  testutil::StackOptions opts;
  opts.protocol = GetParam();
  testutil::StaticNetwork net{testutil::line_positions(3, 80.0), opts};
  net.join_all({0, 2}, 15.0);
  for (int i = 0; i < 5; ++i) {
    net.sim().schedule_after(sim::Duration::ms(500 * i), [&net] {
      net.multicast_router(0).send_multicast(testutil::kGroup, 64);
    });
  }
  net.run_for(15.0);
  EXPECT_GE(net.agent(2).counters().delivered_unique, 4u)
      << ProtocolRegistry::instance().name_of(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Registry, EveryProtocol,
    ::testing::ValuesIn(ProtocolRegistry::instance().all()),
    [](const ::testing::TestParamInfo<Protocol>& param_info) {
      return ProtocolRegistry::instance().name_of(param_info.param);
    });

}  // namespace
}  // namespace ag::harness
