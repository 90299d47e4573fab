// Shared plumbing for the per-figure reproduction benches: the paper's
// base configuration (section 5.1) and the sweep helper producing the
// Gossip-vs-MAODV series every figure plots, built on the fluent
// ExperimentBuilder (seeds run in parallel; results land as a table, a
// CSV, and a machine-readable BENCH_<fig>.json).
//
// The benches that finish through finish_figure (fig2-fig7, figure_churn)
// also speak the sharded-driver CLI (see harness/shard_driver.h):
// `--shards[=N]` supervises one worker subprocess per (protocol, x, seed)
// cell with checkpoints, timeouts and retries; `--resume` reuses
// checkpoints from a crashed/killed run; `--shard=<i>` is the internal
// worker mode the supervisor re-invokes the binary with. A fully-completed
// sharded run merges byte-identically to the serial one.
#ifndef AG_BENCH_FIGURE_COMMON_H
#define AG_BENCH_FIGURE_COMMON_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <iostream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "harness/atomic_io.h"
#include "harness/experiment_builder.h"
#include "harness/figure.h"
#include "harness/interrupt.h"
#include "harness/protocol_registry.h"
#include "harness/scenario.h"
#include "harness/shard.h"
#include "harness/shard_driver.h"
#include "sim/event_category.h"

namespace ag::bench {

// The paper's headline comparison pair.
inline std::vector<harness::Protocol> headline_protocols() {
  return {harness::Protocol::maodv_gossip, harness::Protocol::maodv};
}

// Parses a `--protocols=name,name` flag (registry string names, see
// `quickstart` for the list) anywhere in argv; returns `fallback` when
// absent. Validation lives in ProtocolRegistry::parse_list (unit-tested):
// an unknown name or an empty list fails fast with exit(2) and the
// registry's message naming every registered protocol.
inline std::vector<harness::Protocol> protocols_from_cli(
    int argc, char** argv, std::vector<harness::Protocol> fallback) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--protocols=", 12) != 0) continue;
    try {
      return harness::ProtocolRegistry::instance().parse_list(arg + 12);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      std::exit(2);
    }
  }
  return fallback;
}

// True when `flag` (e.g. "--smoke") appears in argv.
inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

// --- cell figures: scale_smoke, figure_dtn, figure_adversary -------------
//
// A cell figure runs a grid of cells, each a one-value sweep over the
// protocols, timed. Its BENCH json holds the file-level keys, then per
// cell the cell-level keys, a `timing` object and one object per series.
// Everything host- or engine-dependent sits in `timing`, so outside it a
// cell file is identical across hosts and across the AG_BATCHED_* modes.
struct TimedCell {
  std::string keys;  // cell-level JSON keys, rendered by the bench
  double wall_s{0.0};
  harness::ExperimentResult result;
};

// Runs `builder` as one cell; the wall clock covers all its parallel jobs.
inline TimedCell run_timed_cell(std::string keys, const harness::ExperimentBuilder& builder) {
  // ag-lint: allow(determinism, wall-clock measures the harness itself)
  const auto t0 = std::chrono::steady_clock::now();
  harness::ExperimentResult result = builder.run();
  const double wall_s =
      // ag-lint: allow(determinism, wall-clock measures the harness itself)
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return {std::move(keys), wall_s, std::move(result)};
}

// Events a cell's runs executed, per category and in total, plus the
// events the batched MAC and phy engines represented without executing
// them. Executed plus elided, the effective count, comes close to what the
// reference engines execute but can differ from it by a few hundred
// events, which is why it stays in `timing` too.
struct EventWork {
  std::uint64_t scheduled[sim::kEventCategoryCount]{};
  std::uint64_t executed[sim::kEventCategoryCount]{};
  std::uint64_t sim_events{0};
  std::uint64_t slots_elided{0};
  std::uint64_t difs_elided{0};
  std::uint64_t rx_elided{0};
  std::uint64_t rx_coalesced{0};

  [[nodiscard]] std::uint64_t effective() const {
    return sim_events + slots_elided + difs_elided + rx_elided + rx_coalesced;
  }
};

inline EventWork event_work(const harness::ExperimentResult& result) {
  EventWork w;
  for (const harness::FigureSeries& s : result.series) {
    for (const harness::SeriesPoint& p : s.points) {
      for (const stats::RunResult& r : p.runs) {
        for (std::size_t c = 0; c < sim::kEventCategoryCount; ++c) {
          w.scheduled[c] += r.totals.ev_scheduled[c];
          w.executed[c] += r.totals.ev_executed[c];
        }
        w.sim_events += r.totals.sim_events;
        w.slots_elided += r.totals.mac_slots_elided();
        w.difs_elided += r.totals.mac_difs_elided;
        w.rx_elided += r.totals.phy_rx_elided;
        w.rx_coalesced += r.totals.phy_rx_coalesced;
      }
    }
  }
  return w;
}

// `"timing": {...}`: the cell's wall clock, its event work and the rates.
inline void write_timing(std::ostream& out, const TimedCell& cell) {
  const EventWork w = event_work(cell.result);
  const auto per_sec = [&cell](std::uint64_t events) {
    return cell.wall_s > 0.0 ? static_cast<double>(events) / cell.wall_s : 0.0;
  };
  out << "\"timing\": {\"wall_clock_s\": " << cell.wall_s
      << ", \"sim_events\": " << w.sim_events
      << ", \"events_per_sec\": " << per_sec(w.sim_events)
      << ", \"mac_slots_elided\": " << w.slots_elided
      << ", \"mac_difs_elided\": " << w.difs_elided
      << ", \"phy_rx_elided\": " << w.rx_elided
      << ", \"phy_rx_coalesced\": " << w.rx_coalesced
      << ", \"effective_events\": " << w.effective()
      << ", \"effective_events_per_sec\": " << per_sec(w.effective())
      << ", \"event_mix\": {";
  for (std::size_t c = 0; c < sim::kEventCategoryCount; ++c) {
    out << (c > 0 ? ", " : "") << "\"" << sim::event_category_name(c)
        << "\": {\"scheduled\": " << w.scheduled[c]
        << ", \"executed\": " << w.executed[c] << "}";
  }
  out << "}}";
}

// One series of a cell as `{"name": ..., <fields of groups>}`.
inline void write_series_line(std::ostream& out, const harness::FigureSeries& s,
                              stats::Groups groups) {
  out << "{\"name\": \"" << harness::json_escaped(s.name) << "\"";
  harness::write_point_fields(out, s.points.front(), groups);
  out << "}";
}

// A cell's progress output: its series lines as the BENCH json has them.
inline void print_series_lines(const harness::ExperimentResult& result,
                               stats::Groups groups) {
  for (const harness::FigureSeries& s : result.series) {
    std::cout << "  ";
    write_series_line(std::cout, s, groups);
    std::cout << "\n";
  }
  std::cout.flush();
}

// Writes a cell figure's BENCH json (atomically): the file-level `keys`,
// then every cell's keys, timing and series fields of `groups`.
inline bool write_cells_json(const std::string& path, const std::string& keys,
                             const std::vector<TimedCell>& cells, stats::Groups groups) {
  harness::AtomicFile file{path};
  if (!file.ok()) return false;
  std::ostream& out = file.stream();
  out << "{\n" << keys << "  \"points\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out << "    {" << cells[i].keys << ", ";
    write_timing(out, cells[i]);
    out << ", \"series\": [\n";
    const std::vector<harness::FigureSeries>& series = cells[i].result.series;
    for (std::size_t s = 0; s < series.size(); ++s) {
      out << "      ";
      write_series_line(out, series[s], groups);
      out << (s + 1 < series.size() ? "," : "") << "\n";
    }
    out << "    ]}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return file.commit();
}

// Shared --help/-h implementation for every bench: one place lists the
// common flags and environment knobs, each binary passes its one-line
// description, its swept axes, and any bench-specific flags. `sharded`
// adds the shard flags and knobs; only benches that reach finish_figure,
// which parses them, pass true. Prints and exits 0 when the flag is
// present; returns otherwise.
inline void handle_help_flag(int argc, char** argv, const char* description,
                             const char* axes, const char* extra_flags = nullptr,
                             bool sharded = true) {
  if (!has_flag(argc, argv, "--help") && !has_flag(argc, argv, "-h")) return;
  std::printf("usage: %s [flags]\n\n%s\n\nSwept axes:\n%s\n\nFlags:\n", argv[0],
              description, axes);
  if (extra_flags != nullptr) std::printf("%s", extra_flags);
  std::printf(
      "  --protocols=a,b   protocol series to run (registry names; see error\n"
      "                    message of an unknown name for the full list)\n");
  if (sharded) {
    std::printf(
        "  --shards[=N]      sharded run: one worker subprocess per\n"
        "                    (protocol, x, seed) cell, N concurrent (default\n"
        "                    AG_SHARDS, else hardware threads), with per-shard\n"
        "                    checkpoints, timeouts, and retry with backoff\n"
        "  --resume          sharded run reusing checkpoints left by an\n"
        "                    earlier crashed/killed invocation\n"
        "  --merge           merge existing checkpoints only; never launches\n"
        "                    workers (missing cells land in failed_shards)\n"
        "  --shard-dir=<d>   checkpoint directory (default shards_<name>/)\n");
  }
  std::printf(
      "  --help, -h        this text\n"
      "\nEnvironment knobs (see README \"Environment variables\"):\n"
      "  AG_SEEDS=<n>            seeds per point (overrides the default)\n");
  if (sharded) {
    std::printf(
        "  AG_SHARDS=<n>           concurrent shard workers for --shards\n"
        "  AG_SHARD_TIMEOUT=<s>    per-shard wall-clock kill timeout (600)\n"
        "  AG_SHARD_RETRIES=<n>    attempts per shard before failing it (3)\n"
        "  AG_SHARD_BACKOFF_MS=<n> retry backoff base, doubled per retry (250)\n"
        "  AG_SHARD_FAULT=m@i[xT]  inject crash|hang|corrupt at shard i on\n"
        "                          attempts 1..T (self-test hook)\n");
  }
  std::exit(0);
}

// The node counts of a `--nodes=250,500` flag anywhere in argv, or
// `fallback` when absent. Each comma-separated count is a decimal integer
// by the checkpoint rule (harness::parse_decimal_u64) within [2, 1000000];
// an empty list or any other token (an empty element, a sign, whitespace,
// overflow) names itself on stderr and exits 2, so a bench never silently
// runs a different sweep than the one typed.
inline std::vector<std::size_t> nodes_from_cli(int argc, char** argv,
                                               std::vector<std::size_t> fallback) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--nodes=", 8) != 0) continue;
    const std::string list = arg + 8;
    if (list.empty()) {
      std::fprintf(stderr,
                   "%s: --nodes= is empty — expected --nodes=N[,N...] with "
                   "each N an integer in [2, 1000000]\n",
                   argv[0]);
      std::exit(2);
    }
    std::vector<std::size_t> out;
    std::size_t start = 0;
    while (true) {
      const std::size_t comma = list.find(',', start);
      const std::string token = list.substr(start, comma - start);
      std::uint64_t v = 0;
      if (!harness::parse_decimal_u64(token, v) || v < 2 || v > 1'000'000) {
        std::fprintf(stderr,
                     "%s: bad --nodes= count \"%s\" in \"%s\" — expected "
                     "--nodes=N[,N...] with each N an integer in [2, 1000000]\n",
                     argv[0], token.c_str(), arg);
        std::exit(2);
      }
      out.push_back(static_cast<std::size_t>(v));
      if (comma == std::string::npos) return out;
      start = comma + 1;
    }
  }
  return fallback;
}

// Shard-control flags shared by the benches that reach finish_figure.
// Everything not recognized here is forwarded verbatim to worker
// subprocesses so they rebuild the identical sweep (--smoke,
// --protocols=..., ...).
struct ShardCli {
  bool worker{false};           // --shard=<i>: run one cell, write checkpoint
  std::size_t shard_index{0};
  std::uint32_t shard_attempt{1};
  bool supervise{false};        // --shards[=N] / --resume / --merge
  unsigned concurrency{0};      // explicit N from --shards=N (0 = env/default)
  bool resume{false};
  bool merge_only{false};
  std::string shard_dir;        // --shard-dir= (empty = shards_<name>/)
  std::vector<std::string> forwarded;  // bench args minus shard-control flags
};

// The number after a shard flag's '=', by the checkpoint rule
// (harness::parse_decimal_u64) and within [min, max]. Anything else names
// the argument and exits 2.
inline std::uint64_t shard_flag_number(const char* exe, const char* arg, std::uint64_t min,
                                       std::uint64_t max) {
  std::uint64_t v = 0;
  if (!harness::parse_decimal_u64(std::strchr(arg, '=') + 1, v) || v < min || v > max) {
    std::fprintf(stderr, "%s: bad \"%s\" — expected a decimal integer in [%llu, %llu]\n",
                 exe, arg, static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max));
    std::exit(2);
  }
  return v;
}

inline ShardCli parse_shard_cli(int argc, char** argv) {
  constexpr std::uint64_t kU32Max = 0xffffffffu;
  ShardCli cli;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--shard=", 8) == 0) {
      cli.worker = true;
      cli.shard_index = shard_flag_number(argv[0], arg, 0, kU32Max);
    } else if (std::strncmp(arg, "--shard-attempt=", 16) == 0) {
      cli.shard_attempt = static_cast<std::uint32_t>(shard_flag_number(argv[0], arg, 1, kU32Max));
    } else if (std::strncmp(arg, "--shard-dir=", 12) == 0) {
      cli.shard_dir = arg + 12;
    } else if (std::strcmp(arg, "--shards") == 0) {
      cli.supervise = true;
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      // Same bounds as the AG_SHARDS knob.
      cli.supervise = true;
      cli.concurrency = static_cast<unsigned>(shard_flag_number(argv[0], arg, 1, 4096));
    } else if (std::strcmp(arg, "--resume") == 0) {
      cli.supervise = true;
      cli.resume = true;
    } else if (std::strcmp(arg, "--merge") == 0) {
      cli.supervise = true;
      cli.merge_only = true;
    } else {
      cli.forwarded.emplace_back(arg);
    }
  }
  return cli;
}

// Shared tail for the sharded benches: dispatches on the shard
// CLI (worker cell / sharded supervisor / plain in-process run), prints
// the table, and writes the CSV + BENCH JSON atomically. Returns the
// process exit code; on SIGINT/SIGTERM no merged outputs are written and
// the code is 128+signo (shard checkpoints are kept for --resume).
inline int finish_figure(const harness::ExperimentBuilder& builder,
                         const ShardCli& cli, const char* exe,
                         const std::string& title, const std::string& x_label,
                         const std::string& csv_name, const std::string& json_name,
                         std::uint32_t seeds) {
  harness::install_interrupt_handlers();

  if (cli.worker) {
    if (cli.shard_index >= builder.cell_count()) {
      std::fprintf(stderr, "%s: --shard=%zu out of range (%zu cells)\n", exe,
                   cli.shard_index, builder.cell_count());
      return 2;
    }
    const std::string dir = cli.shard_dir.empty()
                                ? "shards_" + builder.experiment_name()
                                : cli.shard_dir;
    const std::string path = dir + "/" + harness::shard_file_name(cli.shard_index);
    harness::maybe_inject_shard_fault(harness::shard_fault_from_env(),
                                      cli.shard_index, cli.shard_attempt, path);
    const stats::RunResult result = builder.run_cell(cli.shard_index);
    if (harness::interrupt_requested()) return harness::interrupt_exit_code();
    if (!harness::write_shard_json(path, builder.experiment_name(), cli.shard_index,
                                   builder.cell_id(cli.shard_index), result)) {
      std::fprintf(stderr, "%s: failed to write %s\n", exe, path.c_str());
      return 1;
    }
    return 0;
  }

  harness::ExperimentResult result;
  if (cli.supervise) {
    harness::ShardDriverOptions opts;
    opts.exe = exe;
    opts.worker_args = cli.forwarded;
    opts.shard_dir = cli.shard_dir;
    opts.concurrency = cli.concurrency;
    opts.resume = cli.resume;
    opts.merge_only = cli.merge_only;
    harness::ShardRunReport report;
    try {
      report = harness::run_shards(builder, opts);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", exe, e.what());
      return 1;
    }
    if (report.interrupted) {
      std::fprintf(stderr,
                   "%s: interrupted; checkpoints kept, rerun with --resume\n", exe);
      return harness::interrupt_exit_code();
    }
    result = builder.assemble(std::move(report.results), std::move(report.sharding));
  } else {
    result = builder.run();
    if (harness::interrupt_requested()) {
      std::fprintf(stderr, "%s: interrupted; no outputs written\n", exe);
      return harness::interrupt_exit_code();
    }
  }

  result.print(title, x_label);
  for (const harness::FailedShard& f : result.sharding.failed) {
    std::fprintf(stderr,
                 "warning: shard %zu (%s, %s=%g, seed %u) failed after %u "
                 "attempt%s: %s — its seed is missing from the aggregate\n",
                 f.shard, f.cell.protocol.c_str(), result.param.c_str(), f.cell.x,
                 f.cell.seed, f.attempts, f.attempts == 1 ? "" : "s",
                 f.reason.c_str());
  }
  const bool csv_ok = result.write_csv(csv_name);
  const bool json_ok = result.write_json(json_name);
  if (!csv_ok || !json_ok) {
    std::fprintf(stderr, "error: failed to write %s\n",
                 (!csv_ok ? csv_name : json_name).c_str());
    return 1;
  }
  std::printf("(csv written to %s, json to %s; %u seeds — set AG_SEEDS to "
              "change)\n\n",
              csv_name.c_str(), json_name.c_str(), seeds);
  return 0;
}

// Paper section 5.1 defaults: 200x200 m, 40 nodes, 1/3 members, 600 s,
// 2201 packets from t=120 s, gossip 1 msg/s. Range/speed set per figure.
inline harness::ScenarioConfig paper_base() {
  harness::ScenarioConfig c;
  return c;
}

// Strips a trailing extension: "fig2.csv" -> "fig2".
inline std::string stem_of(const std::string& file_name) {
  const std::size_t dot = file_name.rfind('.');
  return dot == std::string::npos ? file_name : file_name.substr(0, dot);
}

// Runs one x-sweep over `protocols` (default: the headline pair; benches
// pass protocols_from_cli so `--protocols=` selects any registered set)
// and emits the figure as a table, a CSV, and BENCH_<stem>.json. `apply`
// mutates the config for a given x value. argc/argv select the run mode
// (serial, `--shards`, `--resume`, worker `--shard=`); the return value
// is the process exit code.
inline int run_two_series_figure(
    int argc, char** argv, const std::string& title, const std::string& x_label,
    const std::string& csv_name, const std::vector<double>& xs,
    const std::function<void(harness::ScenarioConfig&, double)>& apply,
    std::uint32_t seeds, harness::ScenarioConfig base = paper_base(),
    std::vector<harness::Protocol> protocols = headline_protocols()) {
  const std::string stem = stem_of(csv_name);
  const std::string json_name = "BENCH_" + stem + ".json";
  harness::ExperimentBuilder builder =
      harness::Experiment::sweep(x_label, xs, apply)
          .base(base)
          .protocols(std::move(protocols))
          .seeds(seeds)
          .parallel()
          .name(stem)
          .on_progress([&title](std::size_t done, std::size_t total) {
            std::printf("  [%s %zu/%zu runs]\n", title.c_str(), done, total);
            std::fflush(stdout);
          });
  return finish_figure(builder, parse_shard_cli(argc, argv), argv[0], title,
                       x_label, csv_name, json_name, seeds);
}

}  // namespace ag::bench

#endif  // AG_BENCH_FIGURE_COMMON_H
