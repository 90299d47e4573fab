// Unit coverage for the shared AG_* knob parsers (sim/env.h): every
// degraded input class — unset, empty, whitespace, zero, negative,
// non-numeric, trailing garbage, overflow — must fall back instead of
// silently changing the run.
#include <gtest/gtest.h>

#include <cstdlib>

#include "sim/env.h"

namespace ag::sim {
namespace {

// RAII guard: the variable is unset on entry and on exit, so tests never
// leak state into each other (or into a developer's shell-inherited
// environment reads elsewhere in the binary).
class EnvVar {
 public:
  explicit EnvVar(const char* name) : name_{name} { ::unsetenv(name_); }
  ~EnvVar() { ::unsetenv(name_); }
  EnvVar(const EnvVar&) = delete;
  EnvVar& operator=(const EnvVar&) = delete;
  void set(const char* value) { ::setenv(name_, value, 1); }

 private:
  const char* name_;
};

constexpr char kVar[] = "AG_ENV_TEST_KNOB";

TEST(EnvPositiveU32, UnsetReturnsFallback) {
  EnvVar v{kVar};
  EXPECT_EQ(env_positive_u32(kVar, 7, 1000), 7u);
}

TEST(EnvPositiveU32, EmptyReturnsFallback) {
  EnvVar v{kVar};
  v.set("");
  EXPECT_EQ(env_positive_u32(kVar, 7, 1000), 7u);
}

TEST(EnvPositiveU32, ParsesPlainPositiveIntegers) {
  EnvVar v{kVar};
  v.set("1");
  EXPECT_EQ(env_positive_u32(kVar, 7, 1000), 1u);
  v.set("42");
  EXPECT_EQ(env_positive_u32(kVar, 7, 1000), 42u);
  v.set("1000");  // max_value itself is allowed
  EXPECT_EQ(env_positive_u32(kVar, 7, 1000), 1000u);
}

TEST(EnvPositiveU32, ZeroFallsBack) {
  EnvVar v{kVar};
  v.set("0");
  EXPECT_EQ(env_positive_u32(kVar, 7, 1000), 7u);
}

TEST(EnvPositiveU32, NegativeFallsBack) {
  EnvVar v{kVar};
  v.set("-3");
  EXPECT_EQ(env_positive_u32(kVar, 7, 1000), 7u);
}

TEST(EnvPositiveU32, WhitespaceFallsBack) {
  EnvVar v{kVar};
  for (const char* s : {" ", "\t", " 5", "5 ", " 5 "}) {
    v.set(s);
    EXPECT_EQ(env_positive_u32(kVar, 7, 1000), 7u) << "value \"" << s << "\"";
  }
}

TEST(EnvPositiveU32, NonNumericFallsBack) {
  EnvVar v{kVar};
  for (const char* s : {"abc", "5x", "x5", "1.5", "0x10", "+5", "--2"}) {
    v.set(s);
    EXPECT_EQ(env_positive_u32(kVar, 7, 1000), 7u) << "value \"" << s << "\"";
  }
}

TEST(EnvPositiveU32, AboveMaxFallsBack) {
  EnvVar v{kVar};
  v.set("1001");
  EXPECT_EQ(env_positive_u32(kVar, 7, 1000), 7u);
  // Far past long range: strtol saturates with ERANGE — still fallback.
  v.set("999999999999999999999999999");
  EXPECT_EQ(env_positive_u32(kVar, 7, 1000), 7u);
}

}  // namespace
}  // namespace ag::sim
