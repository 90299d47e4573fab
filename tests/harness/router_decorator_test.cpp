// harness::RouterDecorator passes every call on unchanged: with every
// node's router wrapped in a bare decorator, each substrate's golden cell
// (testutil/run_digest.h) reproduces its committed digests. A base that
// dropped or altered any one forwarded call on a seam the run exercises
// moves the digest.
#include <gtest/gtest.h>

#include <memory>
#include <string_view>
#include <utility>

#include "harness/network.h"
#include "harness/protocol_registry.h"
#include "harness/router_decorator.h"
#include "testutil/run_digest.h"

namespace ag::harness {
namespace {

// Shadows one protocol's factory (as ProtocolRegistry::add lets tests do)
// with one that wraps the router in a bare RouterDecorator; the original
// entry is restored on destruction.
class DecoratedProtocol {
 public:
  explicit DecoratedProtocol(Protocol p) : saved_{ProtocolRegistry::instance().entry(p)} {
    ProtocolEntry shadow = saved_;
    shadow.factory = [original = saved_.factory](const RouterContext& ctx) {
      return std::make_unique<RouterDecorator>(ctx.mac, original(ctx));
    };
    ProtocolRegistry::instance().add(std::move(shadow));
  }
  ~DecoratedProtocol() { ProtocolRegistry::instance().add(saved_); }
  DecoratedProtocol(const DecoratedProtocol&) = delete;
  DecoratedProtocol& operator=(const DecoratedProtocol&) = delete;

 private:
  ProtocolEntry saved_;
};

TEST(RouterDecorator, BareDecoratorReproducesEveryProtocolGolden) {
  std::size_t cells = 0;
  for (const testutil::GoldenCell& cell : testutil::golden_matrix()) {
    if (!std::string_view{cell.name}.starts_with("protocol/")) continue;
    ++cells;
    DecoratedProtocol decorated{cell.config.protocol};
    Network net{cell.config};
    ASSERT_NE(net.router_as<RouterDecorator>(0), nullptr) << cell.name;
    net.run();
    EXPECT_EQ(testutil::digest_of(net.result()), cell.expected) << cell.name;
  }
  EXPECT_EQ(cells, 6u);
}

}  // namespace
}  // namespace ag::harness
