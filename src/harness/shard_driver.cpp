// Supervisor for the sharded experiment driver: spawns bench workers
// (`exe --shard=<i>`), enforces wall-clock timeouts, retries with
// exponential backoff, journals every transition into an append-only
// manifest, and degrades exhausted shards to failed_shards entries
// instead of aborting the sweep.
//
// ag-lint: allow-file(determinism, supervisor wall clock drives subprocess timeouts and retry backoff, never simulation state)
#include "harness/shard_driver.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/interrupt.h"
#include "harness/shard.h"
#include "sim/env.h"

namespace ag::harness {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kDefaultTimeoutS = 600;
constexpr std::uint32_t kDefaultMaxAttempts = 3;
constexpr std::uint32_t kDefaultBackoffMs = 250;
constexpr std::uint32_t kBackoffCapMs = 30'000;

// Append-only journal of shard lifecycle events: one JSON object per
// line, flushed per event, so a killed supervisor leaves an accurate
// history for --resume (and for the tests asserting recovery paths).
class Manifest {
 public:
  Manifest(const std::string& dir, bool truncate)
      : out_{dir + "/manifest.jsonl",
             truncate ? std::ios::trunc : std::ios::app} {}

  [[nodiscard]] bool ok() const { return static_cast<bool>(out_); }

  void line(const std::string& text) {
    out_ << text << '\n';
    out_.flush();
  }

 private:
  std::ofstream out_;
};

struct Attempt {
  std::size_t index{0};
  std::uint32_t attempt{1};          // 1-based
  Clock::time_point ready{};         // backoff gate (pending only)
};

struct Running {
  std::size_t index{0};
  std::uint32_t attempt{1};
  pid_t pid{-1};
  Clock::time_point deadline{};
  bool timed_out{false};
};

pid_t spawn_worker(const ShardDriverOptions& opts, std::size_t index,
                   std::uint32_t attempt) {
  std::vector<std::string> args;
  args.push_back(opts.exe);
  args.insert(args.end(), opts.worker_args.begin(), opts.worker_args.end());
  args.push_back("--shard=" + std::to_string(index));
  args.push_back("--shard-dir=" + opts.shard_dir);
  args.push_back("--shard-attempt=" + std::to_string(attempt));

  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    // execvp so a PATH-resolved argv[0] (no slash) still re-invokes the
    // same binary; with a slash it behaves exactly like execv.
    ::execvp(argv[0], argv.data());
    // exec only returns on failure; an exotic exe path must not fall
    // back into the supervisor's code.
    std::fprintf(stderr, "shard worker: cannot exec %s\n", argv[0]);
    std::_Exit(127);
  }
  return pid;
}

std::uint32_t resolved_or(std::uint32_t value, const char* env_name,
                          std::uint32_t fallback, long max_value) {
  if (value != 0) return value;
  return sim::env_positive_u32(env_name, fallback, max_value);
}

}  // namespace

ShardRunReport run_shards(const ExperimentBuilder& builder,
                          const ShardDriverOptions& options) {
  ShardDriverOptions opts = options;
  if (opts.shard_dir.empty()) {
    opts.shard_dir = "shards_" + builder.experiment_name();
  }
  opts.timeout_s =
      resolved_or(opts.timeout_s, "AG_SHARD_TIMEOUT", kDefaultTimeoutS, 86'400);
  opts.max_attempts =
      resolved_or(opts.max_attempts, "AG_SHARD_RETRIES", kDefaultMaxAttempts, 100);
  opts.backoff_ms =
      resolved_or(opts.backoff_ms, "AG_SHARD_BACKOFF_MS", kDefaultBackoffMs,
                  static_cast<long>(kBackoffCapMs));
  unsigned concurrency = opts.concurrency != 0
                             ? opts.concurrency
                             : sim::env_positive_u32("AG_SHARDS",
                                                     std::max(1u, std::thread::hardware_concurrency()),
                                                     4096);

  const std::size_t total = builder.cell_count();
  const std::string& experiment = builder.experiment_name();
  concurrency = static_cast<unsigned>(
      std::min<std::size_t>(std::max(1u, concurrency), std::max<std::size_t>(total, 1)));

  std::error_code ec;
  fs::create_directories(opts.shard_dir, ec);
  if (ec) {
    throw std::runtime_error("shard driver: cannot create shard dir " +
                             opts.shard_dir + ": " + ec.message());
  }
  if (!opts.resume && !opts.merge_only) {
    // Fresh run: stale checkpoints from an earlier (possibly different)
    // sweep must not be mistaken for completed work.
    for (const fs::directory_entry& entry : fs::directory_iterator(opts.shard_dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("shard_", 0) == 0 || name == "manifest.jsonl") {
        fs::remove(entry.path(), ec);
      }
    }
  }

  Manifest manifest{opts.shard_dir, /*truncate=*/!opts.resume && !opts.merge_only};
  if (!manifest.ok()) {
    throw std::runtime_error("shard driver: cannot open manifest in " + opts.shard_dir);
  }
  manifest.line("{\"event\": \"plan\", \"experiment\": \"" + json_escaped(experiment) +
                "\", \"shards\": " + std::to_string(total) +
                ", \"concurrency\": " + std::to_string(concurrency) +
                ", \"timeout_s\": " + std::to_string(opts.timeout_s) +
                ", \"max_attempts\": " + std::to_string(opts.max_attempts) +
                ", \"resume\": " + (opts.resume ? "true" : "false") +
                ", \"merge_only\": " + (opts.merge_only ? "true" : "false") + "}");

  ShardRunReport report;
  report.results.resize(total);
  report.sharding.shards = total;

  const auto record_failure = [&](std::size_t index, std::uint32_t attempts,
                                  const std::string& reason) {
    FailedShard failed;
    failed.shard = index;
    failed.cell = builder.cell_id(index);
    failed.attempts = attempts;
    failed.reason = reason;
    report.sharding.failed.push_back(std::move(failed));
    manifest.line("{\"event\": \"failed\", \"shard\": " + std::to_string(index) +
                  ", \"attempts\": " + std::to_string(attempts) +
                  ", \"reason\": \"" + json_escaped(reason) + "\"}");
    if (!opts.quiet) {
      std::fprintf(stderr, "  [shard %zu FAILED after %u attempt%s: %s]\n", index,
                   attempts, attempts == 1 ? "" : "s", reason.c_str());
    }
  };

  // Phase 1: satisfy cells from existing checkpoints (resume/merge).
  std::vector<Attempt> pending;
  pending.reserve(total);
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < total; ++i) {
    const std::string path = opts.shard_dir + "/" + shard_file_name(i);
    if (opts.resume || opts.merge_only) {
      std::string error;
      std::optional<stats::RunResult> prior =
          read_shard_json(path, experiment, i, builder.cell_id(i), &error);
      if (prior.has_value()) {
        report.results[i] = std::move(prior);
        ++report.reused;
        manifest.line("{\"event\": \"reused\", \"shard\": " + std::to_string(i) + "}");
        continue;
      }
      if (opts.merge_only) {
        record_failure(i, 0, "missing or unreadable checkpoint (merge-only): " + error);
        continue;
      }
      // Unreadable/torn checkpoint, or one of another cell, on resume:
      // treat as not done.
      std::error_code remove_ec;
      fs::remove(path, remove_ec);
    }
    pending.push_back(Attempt{i, 1, start});
  }
  if (!opts.quiet && (opts.resume || opts.merge_only) && report.reused > 0) {
    std::printf("  [shards: %llu/%zu reused from %s]\n",
                static_cast<unsigned long long>(report.reused), total,
                opts.shard_dir.c_str());
    std::fflush(stdout);
  }

  // Phase 2: drive workers. Backoff never blocks other shards — a shard
  // waiting out its backoff just isn't eligible for launch yet.
  std::vector<Running> running;
  std::size_t completed = report.reused;
  const auto timeout = std::chrono::seconds{opts.timeout_s};
  while (!pending.empty() || !running.empty()) {
    if (interrupt_requested()) {
      for (const Running& r : running) {
        ::kill(r.pid, SIGKILL);
        int status = 0;
        ::waitpid(r.pid, &status, 0);
        manifest.line("{\"event\": \"killed_on_interrupt\", \"shard\": " +
                      std::to_string(r.index) + "}");
      }
      running.clear();
      manifest.line("{\"event\": \"interrupted\"}");
      report.interrupted = true;
      return report;
    }

    // Launch every ready pending shard while worker slots are free.
    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < pending.size() && running.size() < concurrency;) {
      if (pending[i].ready > now) {
        ++i;
        continue;
      }
      const Attempt a = pending[i];
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
      const pid_t pid = spawn_worker(opts, a.index, a.attempt);
      if (pid < 0) {
        throw std::runtime_error("shard driver: fork failed");
      }
      manifest.line("{\"event\": \"start\", \"shard\": " + std::to_string(a.index) +
                    ", \"attempt\": " + std::to_string(a.attempt) +
                    ", \"pid\": " + std::to_string(pid) + "}");
      ++report.launched;
      running.push_back(Running{a.index, a.attempt, pid, Clock::now() + timeout, false});
    }

    // Reap exited workers.
    bool reaped = false;
    for (std::size_t i = 0; i < running.size();) {
      int status = 0;
      const pid_t r = ::waitpid(running[i].pid, &status, WNOHANG);
      if (r == 0) {
        ++i;
        continue;
      }
      reaped = true;
      const Running worker = running[i];
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));

      const std::string path = opts.shard_dir + "/" + shard_file_name(worker.index);
      std::string reason;
      if (worker.timed_out) {
        reason = "timeout after " + std::to_string(opts.timeout_s) + " s";
      } else if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        std::string parse_error;
        std::optional<stats::RunResult> result = read_shard_json(
            path, experiment, worker.index, builder.cell_id(worker.index), &parse_error);
        if (result.has_value()) {
          report.results[worker.index] = std::move(result);
          ++completed;
          manifest.line("{\"event\": \"done\", \"shard\": " +
                        std::to_string(worker.index) +
                        ", \"attempt\": " + std::to_string(worker.attempt) + "}");
          if (!opts.quiet) {
            std::printf("  [shard %zu done (attempt %u) %zu/%zu]\n", worker.index,
                        worker.attempt, completed, total);
            std::fflush(stdout);
          }
          continue;
        }
        reason = "corrupt output: " + parse_error;
      } else if (WIFEXITED(status)) {
        reason = "exit " + std::to_string(WEXITSTATUS(status));
      } else if (WIFSIGNALED(status)) {
        reason = "killed by signal " + std::to_string(WTERMSIG(status));
      } else {
        reason = "unknown wait status " + std::to_string(status);
      }

      // A failed attempt may have left a torn checkpoint behind — drop
      // it so resume can never trust it (corrupt-mode writes bypass the
      // atomic writer on purpose).
      std::error_code remove_ec;
      fs::remove(path, remove_ec);

      if (worker.attempt < opts.max_attempts) {
        const std::uint32_t shift = std::min(worker.attempt - 1, 20u);
        const std::uint64_t delay_ms = std::min<std::uint64_t>(
            static_cast<std::uint64_t>(opts.backoff_ms) << shift, kBackoffCapMs);
        ++report.sharding.retried;
        manifest.line("{\"event\": \"retry\", \"shard\": " +
                      std::to_string(worker.index) +
                      ", \"attempt\": " + std::to_string(worker.attempt) +
                      ", \"reason\": \"" + json_escaped(reason) +
                      "\", \"backoff_ms\": " + std::to_string(delay_ms) + "}");
        if (!opts.quiet) {
          std::fprintf(stderr, "  [shard %zu attempt %u failed (%s); retrying in %llu ms]\n",
                       worker.index, worker.attempt, reason.c_str(),
                       static_cast<unsigned long long>(delay_ms));
        }
        pending.push_back(Attempt{worker.index, worker.attempt + 1,
                                  Clock::now() + std::chrono::milliseconds{delay_ms}});
      } else {
        record_failure(worker.index, worker.attempt, reason);
      }
    }

    // Enforce wall-clock timeouts: SIGKILL now, reap on the next pass.
    const Clock::time_point deadline_check = Clock::now();
    for (Running& r : running) {
      if (!r.timed_out && deadline_check >= r.deadline) {
        r.timed_out = true;
        ::kill(r.pid, SIGKILL);
        manifest.line("{\"event\": \"timeout_kill\", \"shard\": " +
                      std::to_string(r.index) +
                      ", \"attempt\": " + std::to_string(r.attempt) + "}");
      }
    }

    if (!reaped && !running.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds{5});
    } else if (running.empty() && !pending.empty()) {
      // Everything alive is waiting out a backoff window.
      std::this_thread::sleep_for(std::chrono::milliseconds{2});
    }
  }

  manifest.line("{\"event\": \"complete\", \"done\": " + std::to_string(completed) +
                ", \"retried\": " + std::to_string(report.sharding.retried) +
                ", \"failed\": " + std::to_string(report.sharding.failed.size()) + "}");
  return report;
}

}  // namespace ag::harness
