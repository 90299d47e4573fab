// Per-shard checkpoint IO and the deterministic fault-injection hook for
// the crash-resumable sharded experiment driver (shard_driver.h).
//
// One shard = one (protocol, x, seed) cell of an ExperimentBuilder grid.
// A worker subprocess runs its cell and writes `shard_<index>.json`
// atomically (temp file + rename, see atomic_io.h), so any shard file
// that exists is complete: resume scans the shard directory, re-reads
// each file (a file that fails to read is treated as "not done" and
// re-run), and only missing or failed cells execute again.
//
// The layout is stated once in shard.cpp, walking the run-record schema
// (stats/run_schema.h); the writer and a strict reader both follow it.
// It round-trips every stats::RunResult field exactly — u64 counters as
// decimal text, doubles at 17 significant digits (the shortest form
// guaranteed to reproduce the same IEEE double) — so a merged sharded run
// aggregates bit-identically to the in-process serial run and the BENCH
// JSON byte-compares clean (the repo's established equivalence
// discipline).
#ifndef AG_HARNESS_SHARD_H
#define AG_HARNESS_SHARD_H

#include <cstdint>
#include <optional>
#include <string>

#include "harness/experiment_builder.h"
#include "stats/run_result.h"

namespace ag::harness {

// "shard_<index>.json" — the checkpoint file a worker writes into the
// shard directory.
[[nodiscard]] std::string shard_file_name(std::size_t index);

// Writes one completed cell as a self-describing JSON checkpoint
// (atomically). Its header records `experiment`, `index` and `cell`,
// and the reader checks all three, so a stale file from a different
// sweep or cell can never be merged.
[[nodiscard]] bool write_shard_json(const std::string& path,
                                    const std::string& experiment,
                                    std::size_t index, const CellId& cell,
                                    const stats::RunResult& result);

// Reads a shard checkpoint back into the RunResult it recorded. Returns
// nullopt — with a human-readable reason in *error when non-null — on an
// IO problem, on any byte outside a number literal that the writer would
// not have put there, on a number outside the checkpoint rule, or when
// the header is not the one write_shard_json gives `experiment`, `index`
// and `cell`.
[[nodiscard]] std::optional<stats::RunResult> read_shard_json(
    const std::string& path, const std::string& experiment, std::size_t index,
    const CellId& cell, std::string* error = nullptr);

// --- deterministic fault injection (AG_SHARD_FAULT) -----------------------
//
// AG_SHARD_FAULT=<mode>@<shard>[x<times>] makes the worker assigned to
// shard <shard> misbehave on attempts 1..<times> (default 1, so the
// first retry succeeds; use a large count to exhaust the retry budget):
//   crash    exit immediately with a nonzero status, work unwritten
//   hang     never finish (the supervisor's wall-clock timeout kills it)
//   corrupt  write a torn, unparseable shard file (deliberately
//            bypassing the atomic writer) and exit 0
// The hook is how tests and CI exercise every recovery path: retry with
// backoff, timeout kill, corrupt-output detection, graceful degradation
// to a failed_shards entry, and --resume after a crash.
struct ShardFault {
  enum class Mode : std::uint8_t { none, crash, hang, corrupt };
  Mode mode{Mode::none};
  std::size_t shard{0};
  std::uint32_t times{1};  // fires on attempts 1..times

  [[nodiscard]] bool matches(std::size_t index, std::uint32_t attempt) const {
    return mode != Mode::none && index == shard && attempt <= times;
  }
};

// Decimal digits only, without overflow (strtoull alone would take a
// sign and wrap "-1" around): the rule for every number a checkpoint or a
// shard flag carries.
[[nodiscard]] bool parse_decimal_u64(const std::string& text, std::uint64_t& v);

// Parses AG_SHARD_FAULT (warning on stderr + no fault for a malformed
// value, mirroring the AG_SEEDS contract).
[[nodiscard]] ShardFault shard_fault_from_env();

// Applies `fault` if it matches (crash/hang never return; corrupt writes
// the torn file at `shard_path` and exits 0); no-op otherwise. Called by
// the worker before it starts simulating, so a crash loses the whole
// attempt — exactly the failure resume must tolerate.
void maybe_inject_shard_fault(const ShardFault& fault, std::size_t index,
                              std::uint32_t attempt, const std::string& shard_path);

}  // namespace ag::harness

#endif  // AG_HARNESS_SHARD_H
