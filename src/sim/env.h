// Shared parser for the AG_* environment knobs (AG_SEEDS and the
// sharded-driver knobs AG_SHARDS/AG_SHARD_TIMEOUT/AG_SHARD_RETRIES/
// AG_SHARD_BACKOFF_MS/AG_SHARD_FAULT): the single place in the tree that
// reads AG_* variables, so knob spellings can never drift apart between
// call sites. Enforced by scripts/ag_lint.py rule `env` — getenv
// anywhere else must carry an allow annotation.
#ifndef AG_SIM_ENV_H
#define AG_SIM_ENV_H

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace ag::sim {

// Strictly-positive integer knob (e.g. AG_SEEDS): unset/empty returns
// `fallback`; a malformed or out-of-range value warns on stderr and
// returns `fallback` rather than silently changing the run.
[[nodiscard]] inline std::uint32_t env_positive_u32(const char* name,
                                                    std::uint32_t fallback,
                                                    long max_value) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  // strtol would accept leading whitespace and signs; the knob grammar
  // does not — a value must start with a digit.
  const bool digit_start = *env >= '0' && *env <= '9';
  const long v = std::strtol(env, &end, 10);
  if (!digit_start || errno != 0 || end == env || *end != '\0' || v <= 0 ||
      v > max_value) {
    std::fprintf(stderr,
                 "warning: ignoring invalid %s=\"%s\" (want a positive "
                 "integer); using %u\n",
                 name, env, fallback);
    return fallback;
  }
  return static_cast<std::uint32_t>(v);
}

// Raw string knob (e.g. AG_SHARD_FAULT's `<mode>@<shard>[x<times>]`
// grammar, parsed by harness::shard_fault_from_env): nullptr when unset.
// Exists so structured parsers elsewhere still route their one getenv
// through this file.
[[nodiscard]] inline const char* env_cstr(const char* name) {
  return std::getenv(name);
}

}  // namespace ag::sim

#endif  // AG_SIM_ENV_H
