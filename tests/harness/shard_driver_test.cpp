// Self-tests for the crash-resumable sharded driver: checkpoint
// round-trip exactness, atomic-write semantics, the AG_SHARD_FAULT
// grammar, the benches' shard flags, and — driving the real shard_probe worker binary through
// fork/exec — every recovery path: crash + retry, hang + timeout,
// corrupt-output detection, retry exhaustion degrading to failed_shards,
// resume-after-crash, merge-only, and interrupt. The headline invariant
// throughout: a sharded run that completes merges byte-identically to
// the in-process serial run.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "figure_common.h"
#include "harness/experiment_builder.h"
#include "harness/atomic_io.h"
#include "harness/interrupt.h"
#include "harness/shard.h"
#include "harness/shard_driver.h"
#include "harness/shard_probe_config.h"

namespace fs = std::filesystem;
using namespace ag;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class ShardDriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ag_shard_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    ::unsetenv("AG_SHARD_FAULT");
    ::unsetenv("AG_SHARDS");
    ::unsetenv("AG_SHARD_TIMEOUT");
    ::unsetenv("AG_SHARD_RETRIES");
    ::unsetenv("AG_SHARD_BACKOFF_MS");
    harness::clear_interrupt_for_test();
  }

  void TearDown() override {
    ::unsetenv("AG_SHARD_FAULT");
    harness::clear_interrupt_for_test();
    fs::remove_all(dir_);
  }

  [[nodiscard]] std::string path_in(const std::string& name) const {
    return (dir_ / name).string();
  }

  // Driver options every subprocess test shares: the probe worker binary,
  // fast backoff, quiet output.
  [[nodiscard]] harness::ShardDriverOptions probe_options() const {
    harness::ShardDriverOptions opts;
    opts.exe = AG_SHARD_PROBE_EXE;
    opts.shard_dir = path_in("shards");
    opts.concurrency = 2;
    opts.timeout_s = 120;
    opts.max_attempts = 3;
    opts.backoff_ms = 1;
    opts.quiet = true;
    return opts;
  }

  // The serial reference: the in-process run every merged sharded run
  // must reproduce byte-for-byte.
  [[nodiscard]] std::string serial_json() {
    const harness::ExperimentBuilder builder = tests::make_probe_builder();
    const harness::ExperimentResult result = builder.run();
    const std::string path = path_in("serial.json");
    EXPECT_TRUE(result.write_json(path));
    return read_file(path);
  }

  [[nodiscard]] std::string merged_json(const harness::ShardRunReport& report) {
    const harness::ExperimentBuilder builder = tests::make_probe_builder();
    const harness::ExperimentResult result =
        builder.assemble(report.results, report.sharding);
    const std::string path = path_in("merged.json");
    EXPECT_TRUE(result.write_json(path));
    return read_file(path);
  }

  fs::path dir_;
};

TEST_F(ShardDriverTest, CellDecompositionMatchesSlotOrder) {
  const harness::ExperimentBuilder builder = tests::make_probe_builder();
  ASSERT_EQ(builder.cell_count(), 4u);  // 2 values x 1 protocol x 2 seeds
  const harness::CellId c0 = builder.cell_id(0);
  const harness::CellId c1 = builder.cell_id(1);
  const harness::CellId c2 = builder.cell_id(2);
  EXPECT_EQ(c0.protocol, "maodv_gossip");
  EXPECT_DOUBLE_EQ(c0.x, 60.0);
  EXPECT_EQ(c0.seed, 1u);
  EXPECT_EQ(c1.seed, 2u);
  EXPECT_DOUBLE_EQ(c2.x, 80.0);
  EXPECT_EQ(c2.seed, 1u);
}

TEST_F(ShardDriverTest, CheckpointRoundTripIsExact) {
  const harness::ExperimentBuilder builder = tests::make_probe_builder();
  const stats::RunResult original = builder.run_cell(0);

  const std::string path = path_in("shard_0.json");
  ASSERT_TRUE(harness::write_shard_json(path, builder.experiment_name(), 0,
                                        builder.cell_id(0), original));
  std::string error;
  const std::optional<stats::RunResult> reread =
      harness::read_shard_json(path, builder.experiment_name(), 0, builder.cell_id(0), &error);
  ASSERT_TRUE(reread.has_value()) << error;

  // Exactness check without an operator==: re-serialize and byte-compare.
  const std::string again = path_in("shard_0_again.json");
  ASSERT_TRUE(harness::write_shard_json(again, builder.experiment_name(), 0,
                                        builder.cell_id(0), *reread));
  EXPECT_EQ(read_file(path), read_file(again));
}

TEST_F(ShardDriverTest, CheckpointRejectsMismatchAndCorruption) {
  const harness::ExperimentBuilder builder = tests::make_probe_builder();
  const harness::CellId cell = builder.cell_id(0);
  const std::string path = path_in("shard_0.json");
  ASSERT_TRUE(harness::write_shard_json(path, builder.experiment_name(), 0, cell,
                                        builder.run_cell(0)));

  std::string error;
  EXPECT_FALSE(harness::read_shard_json(path, builder.experiment_name(), 1, cell, &error)
                   .has_value());
  EXPECT_FALSE(harness::read_shard_json(path, "other_experiment", 0, cell, &error)
                   .has_value());
  EXPECT_FALSE(harness::read_shard_json(path_in("absent.json"),
                                        builder.experiment_name(), 0, cell, &error)
                   .has_value());
  // A header records its cell: a file of another protocol, x or seed is
  // not this cell's result.
  harness::CellId other_protocol = cell;
  other_protocol.protocol = "maodv";
  harness::CellId other_x = cell;
  other_x.x = 80.0;
  harness::CellId other_seed = cell;
  other_seed.seed = 2;
  for (const harness::CellId& other : {other_protocol, other_x, other_seed}) {
    EXPECT_FALSE(harness::read_shard_json(path, builder.experiment_name(), 0, other, &error)
                     .has_value())
        << other.protocol << " x " << other.x << " seed " << other.seed;
  }

  // Truncate mid-file: must read as corrupt, not as a zeroed result.
  const std::string whole = read_file(path);
  std::ofstream torn{path, std::ios::trunc | std::ios::binary};
  torn << whole.substr(0, whole.size() / 2);
  torn.close();
  EXPECT_FALSE(harness::read_shard_json(path, builder.experiment_name(), 0, cell, &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
}

// `text` with the value of its first `"key": value` pair replaced.
std::string with_value(std::string text, const std::string& key, const std::string& value) {
  const std::string tag = "\"" + key + "\": ";
  const std::size_t at = text.find(tag);
  if (at == std::string::npos) return text;
  const std::size_t begin = at + tag.size();
  return text.replace(begin, text.find_first_of(",}\n", begin) - begin, value);
}

// Values the parser once accepted and then wrapped, clamped or took the
// first of: each must now read as corrupt, naming the field.
TEST_F(ShardDriverTest, CheckpointRejectsSignsOverflowDuplicatesAndInfinity) {
  const harness::ExperimentBuilder builder = tests::make_probe_builder();
  const std::string path = path_in("shard_0.json");
  ASSERT_TRUE(harness::write_shard_json(path, builder.experiment_name(), 0,
                                        builder.cell_id(0), builder.run_cell(0)));
  const std::string good = read_file(path);
  struct Case {
    const char* key;
    const char* bad_value;
    const char* error;  // expected in the reader's message
  };
  const Case cases[] = {
      {"crashes", "-1", "bad u64 in crashes"},
      {"packets_sent", "4294967396", "u32 out of range in packets_sent"},
      {"node", "4294967303", "u32 out of range in node"},
      {"sessions", "1, \"sessions\": 2", "found '\"sessions\""},
      {"node_down_s", "1e999", "bad double in node_down_s"},
  };
  for (const Case& c : cases) {
    const std::string bad = with_value(good, c.key, c.bad_value);
    ASSERT_NE(bad, good) << c.key;
    std::ofstream{path, std::ios::trunc | std::ios::binary} << bad;
    std::string error;
    EXPECT_FALSE(
        harness::read_shard_json(path, builder.experiment_name(), 0, builder.cell_id(0), &error)
            .has_value())
        << c.key << ": " << c.bad_value;
    EXPECT_NE(error.find(c.error), std::string::npos) << c.key << ": " << error;
  }
}

// Seeded mutations of a real checkpoint. The parser must never crash (the
// ASan+UBSan job runs this too) and never accept a file cut short at any
// length or carrying a key twice; a flipped byte may still parse when it
// lands inside a digit.
TEST_F(ShardDriverTest, CheckpointParserSurvivesMutations) {
  const harness::ExperimentBuilder builder = tests::make_probe_builder();
  const std::string path = path_in("shard_0.json");
  ASSERT_TRUE(harness::write_shard_json(path, builder.experiment_name(), 0,
                                        builder.cell_id(0), builder.run_cell(0)));
  const std::string good = read_file(path);
  const auto accepts = [&](const std::string& text) {
    std::ofstream{path, std::ios::trunc | std::ios::binary} << text;
    return harness::read_shard_json(path, builder.experiment_name(), 0, builder.cell_id(0))
        .has_value();
  };
  ASSERT_TRUE(accepts(good));

  for (std::size_t n = 0; n < good.size(); ++n) {
    EXPECT_FALSE(accepts(good.substr(0, n))) << "truncated to " << n << " bytes";
  }

  // Every `"key": <scalar>` pair, repeated in place.
  std::size_t duplicated = 0;
  for (std::size_t colon = good.find("\": "); colon != std::string::npos;
       colon = good.find("\": ", colon + 1)) {
    const std::size_t value = colon + 3;
    if (good[value] == '[' || good[value] == '{') continue;
    const std::size_t key = good.rfind('"', colon - 1);
    const std::string pair = good.substr(key, good.find_first_of(",}\n", value) - key);
    std::string twice = good;
    twice.insert(key, pair + ", ");
    EXPECT_FALSE(accepts(twice)) << "duplicated " << pair;
    ++duplicated;
  }
  EXPECT_GT(duplicated, 60u);

  // Layouts a JSON tree parser takes but the writer never prints.
  const auto pair_of = [&good](const std::string& key) {
    const std::size_t at = good.find("\"" + key + "\": ");
    return good.substr(at, good.find_first_of(",}\n", at) - at);
  };
  const auto replaced = [&good](const std::string& from, const std::string& to) {
    std::string text = good;
    return text.replace(text.find(from), from.size(), to);
  };
  const std::string crashes = pair_of("crashes");
  const std::string reboots = pair_of("reboots");
  const std::pair<const char*, std::string> layouts[] = {
      {"swapped keys", replaced(crashes + ", " + reboots, reboots + ", " + crashes)},
      {"unknown key", replaced("\"totals\": {", "\"totals\": {\"bogus\": 1, ")},
      {"space after a colon", replaced("\"crashes\": ", "\"crashes\":  ")},
  };
  for (const auto& [what, text] : layouts) {
    ASSERT_NE(text, good) << what;
    EXPECT_FALSE(accepts(text)) << what;
  }

  std::mt19937_64 rng{20261017};
  for (int i = 0; i < 4000; ++i) {
    std::string flipped = good;
    const std::size_t at = rng() % flipped.size();
    flipped[at] = static_cast<char>(flipped[at] ^ (1 << (rng() % 8)));
    (void)accepts(flipped);
  }
}

TEST_F(ShardDriverTest, AtomicFileCommitsOrLeavesNothing) {
  const std::string path = path_in("out.txt");
  ASSERT_TRUE(harness::write_file_atomic(path, [](std::ostream& out) {
    out << "payload";
  }));
  EXPECT_EQ(read_file(path), "payload");

  const std::string dropped = path_in("dropped.txt");
  {
    harness::AtomicFile file{dropped};
    file.stream() << "never visible";
    // no commit: destructor must remove the temp file
  }
  EXPECT_FALSE(fs::exists(dropped));
  std::size_t residue = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().filename().string().find(".tmp.") != std::string::npos) {
      ++residue;
    }
  }
  EXPECT_EQ(residue, 0u);
}

TEST_F(ShardDriverTest, FaultGrammarParsesAndRejects) {
  ::setenv("AG_SHARD_FAULT", "crash@3", 1);
  harness::ShardFault fault = harness::shard_fault_from_env();
  EXPECT_EQ(fault.mode, harness::ShardFault::Mode::crash);
  EXPECT_EQ(fault.shard, 3u);
  EXPECT_EQ(fault.times, 1u);
  EXPECT_TRUE(fault.matches(3, 1));
  EXPECT_FALSE(fault.matches(3, 2));
  EXPECT_FALSE(fault.matches(2, 1));

  ::setenv("AG_SHARD_FAULT", "hang@0x99", 1);
  fault = harness::shard_fault_from_env();
  EXPECT_EQ(fault.mode, harness::ShardFault::Mode::hang);
  EXPECT_EQ(fault.times, 99u);
  EXPECT_TRUE(fault.matches(0, 99));
  EXPECT_FALSE(fault.matches(0, 100));

  ::setenv("AG_SHARD_FAULT", "corrupt@1x2", 1);
  fault = harness::shard_fault_from_env();
  EXPECT_EQ(fault.mode, harness::ShardFault::Mode::corrupt);

  for (const char* bad : {"", "crash", "crash@", "crash@x2", "melt@1", "crash@1x",
                          "crash@1x0", "crash@-1", "crash@1y2", "crash@18446744073709551616",
                          "crash@1x4294967296", "crash@+1", "crash@ 1", "crash@1x+2"}) {
    ::setenv("AG_SHARD_FAULT", bad, 1);
    EXPECT_EQ(harness::shard_fault_from_env().mode,
              harness::ShardFault::Mode::none)
        << "accepted malformed AG_SHARD_FAULT=\"" << bad << "\"";
  }
  ::unsetenv("AG_SHARD_FAULT");
  EXPECT_EQ(harness::shard_fault_from_env().mode, harness::ShardFault::Mode::none);
}

bench::ShardCli parse_shard_args(std::vector<std::string> args) {
  std::vector<char*> argv{const_cast<char*>("figure")};
  for (std::string& a : args) argv.push_back(a.data());
  return bench::parse_shard_cli(static_cast<int>(argv.size()), argv.data());
}

TEST(ShardCli, ParsesDecimalShardFlags) {
  const bench::ShardCli worker =
      parse_shard_args({"--shard=7", "--shard-attempt=3", "--smoke"});
  EXPECT_TRUE(worker.worker);
  EXPECT_EQ(worker.shard_index, 7u);
  EXPECT_EQ(worker.shard_attempt, 3u);
  EXPECT_EQ(worker.forwarded, std::vector<std::string>{"--smoke"});
  const bench::ShardCli supervisor = parse_shard_args({"--shards=4"});
  EXPECT_TRUE(supervisor.supervise);
  EXPECT_EQ(supervisor.concurrency, 4u);
}

// `text` as a death-test regex matching it literally.
std::string regex_quoted(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (std::strchr(".^$|()[]{}*+?\\", c) != nullptr) out += '\\';
    out += c;
  }
  return out;
}

TEST(ShardCliDeathTest, RejectsMalformedShardNumbers) {
  // Bare strtoul would run "--shard=abc" as shard 0, ask "--shards=-1"
  // for 4294967295 workers, make "--shard-attempt=-3" attempt 4294967293
  // and let "--shards=abc" fall back silently.
  for (const char* bad :
       {"--shard=abc", "--shard=-1", "--shard=", "--shard=+2", "--shard= 2", "--shard=2x",
        "--shard=4294967296", "--shard=99999999999999999999", "--shards=-1",
        "--shards=abc", "--shards=0", "--shards=4097", "--shard-attempt=-3",
        "--shard-attempt=0", "--shard-attempt=abc"}) {
    // The message names the argument verbatim.
    EXPECT_EXIT(parse_shard_args({bad}), ::testing::ExitedWithCode(2),
                "bad \"" + regex_quoted(bad) + "\"")
        << bad;
  }
}

std::vector<std::size_t> parse_nodes_arg(std::string arg) {
  std::vector<char*> argv{const_cast<char*>("scale"), arg.data()};
  return bench::nodes_from_cli(static_cast<int>(argv.size()), argv.data(), {40});
}

TEST(NodesCli, ParsesCountLists) {
  EXPECT_EQ(parse_nodes_arg("--nodes=250,500"), (std::vector<std::size_t>{250, 500}));
  EXPECT_EQ(parse_nodes_arg("--nodes=2,1000000"), (std::vector<std::size_t>{2, 1000000}));
  EXPECT_EQ(parse_nodes_arg("--protocols=maodv"), std::vector<std::size_t>{40});
}

TEST(NodesCliDeathTest, RejectsMalformedCounts) {
  EXPECT_EXIT(parse_nodes_arg("--nodes="), ::testing::ExitedWithCode(2), "--nodes= is empty");
  // Each bad count is named, together with the whole flag.
  const std::pair<const char*, const char*> cases[] = {
      {"--nodes=250,,500", ""},
      {"--nodes=250,", ""},
      {"--nodes=0", "0"},
      {"--nodes=-5", "-5"},
      {"--nodes=+5", "+5"},
      {"--nodes= 5", " 5"},
      {"--nodes=abc", "abc"},
      {"--nodes=250,5x,500", "5x"},
      {"--nodes=1000001", "1000001"},
      {"--nodes=99999999999999999999", "99999999999999999999"},
  };
  for (const auto& [bad, token] : cases) {
    EXPECT_EXIT(parse_nodes_arg(bad), ::testing::ExitedWithCode(2),
                "bad --nodes= count \"" + regex_quoted(token) + "\" in \"" +
                    regex_quoted(bad) + "\"")
        << bad;
  }
}

std::vector<harness::Protocol> parse_protocols_arg(std::string arg) {
  std::vector<char*> argv{const_cast<char*>("figure"), arg.data()};
  return bench::protocols_from_cli(static_cast<int>(argv.size()), argv.data(),
                                   {harness::Protocol::maodv});
}

TEST(ProtocolsCli, ParsesNameLists) {
  EXPECT_EQ(parse_protocols_arg("--protocols=odmrp,flooding"),
            (std::vector<harness::Protocol>{harness::Protocol::odmrp,
                                            harness::Protocol::flooding}));
  EXPECT_EQ(parse_protocols_arg("--nodes=40"),
            std::vector<harness::Protocol>{harness::Protocol::maodv});
}

TEST(ProtocolsCliDeathTest, RejectsUnknownEmptyAndRepeatedNames) {
  // Each rejected list exits 2 and names what is wrong with it.
  const std::pair<const char*, const char*> cases[] = {
      {"--protocols=maodv,nope", "unknown protocol \"nope\""},
      {"--protocols=", "empty protocol list"},
      {"--protocols=,,", "empty protocol list"},
      {"--protocols=maodv,maodv", "protocol \"maodv\" is listed twice"},
      {"--protocols=odmrp,maodv,,odmrp", "protocol \"odmrp\" is listed twice"},
  };
  for (const auto& [bad, message] : cases) {
    EXPECT_EXIT(parse_protocols_arg(bad), ::testing::ExitedWithCode(2),
                regex_quoted(message))
        << bad;
  }
}

TEST_F(ShardDriverTest, ShardedRunMergesByteIdenticalToSerial) {
  const std::string serial = serial_json();
  const harness::ExperimentBuilder builder = tests::make_probe_builder();
  const harness::ShardRunReport report = run_shards(builder, probe_options());
  ASSERT_FALSE(report.interrupted);
  EXPECT_EQ(report.launched, 4u);
  EXPECT_EQ(report.reused, 0u);
  EXPECT_EQ(report.sharding.retried, 0u);
  ASSERT_TRUE(report.sharding.failed.empty());
  EXPECT_EQ(merged_json(report), serial);
  // Healthy runs must not carry a sharding section — that would break
  // byte-identity with pre-shard BENCH files.
  EXPECT_EQ(merged_json(report).find("\"sharding\""), std::string::npos);
}

TEST_F(ShardDriverTest, CrashedShardIsRetriedAndStillMergesClean) {
  const std::string serial = serial_json();
  ::setenv("AG_SHARD_FAULT", "crash@1", 1);  // first attempt of shard 1 dies
  const harness::ExperimentBuilder builder = tests::make_probe_builder();
  const harness::ShardRunReport report = run_shards(builder, probe_options());
  ASSERT_FALSE(report.interrupted);
  EXPECT_EQ(report.sharding.retried, 1u);
  ASSERT_TRUE(report.sharding.failed.empty());
  EXPECT_EQ(merged_json(report), serial);
}

TEST_F(ShardDriverTest, HangingShardIsKilledByTimeoutAndRetried) {
  const std::string serial = serial_json();
  ::setenv("AG_SHARD_FAULT", "hang@2", 1);
  harness::ShardDriverOptions opts = probe_options();
  opts.timeout_s = 1;
  const harness::ExperimentBuilder builder = tests::make_probe_builder();
  const harness::ShardRunReport report = run_shards(builder, opts);
  ASSERT_FALSE(report.interrupted);
  EXPECT_GE(report.sharding.retried, 1u);
  ASSERT_TRUE(report.sharding.failed.empty());
  EXPECT_EQ(merged_json(report), serial);
}

TEST_F(ShardDriverTest, CorruptOutputIsDetectedAndRetried) {
  const std::string serial = serial_json();
  ::setenv("AG_SHARD_FAULT", "corrupt@0", 1);
  const harness::ExperimentBuilder builder = tests::make_probe_builder();
  const harness::ShardRunReport report = run_shards(builder, probe_options());
  ASSERT_FALSE(report.interrupted);
  EXPECT_EQ(report.sharding.retried, 1u);
  ASSERT_TRUE(report.sharding.failed.empty());
  EXPECT_EQ(merged_json(report), serial);
}

TEST_F(ShardDriverTest, RetryExhaustionDegradesToFailedShards) {
  ::setenv("AG_SHARD_FAULT", "crash@1x99", 1);  // every attempt of shard 1 dies
  harness::ShardDriverOptions opts = probe_options();
  opts.max_attempts = 2;
  const harness::ExperimentBuilder builder = tests::make_probe_builder();
  const harness::ShardRunReport report = run_shards(builder, opts);
  ASSERT_FALSE(report.interrupted);
  ASSERT_EQ(report.sharding.failed.size(), 1u);
  EXPECT_EQ(report.sharding.failed[0].shard, 1u);
  EXPECT_EQ(report.sharding.failed[0].attempts, 2u);
  EXPECT_EQ(report.sharding.failed[0].cell.seed, 2u);
  EXPECT_FALSE(report.results[1].has_value());
  ASSERT_TRUE(report.results[0].has_value());

  // The sweep degrades instead of aborting: the merged JSON still has
  // every point, plus a failed_shards section naming the lost cell.
  const std::string merged = merged_json(report);
  EXPECT_NE(merged.find("\"failed_shards\""), std::string::npos);
  EXPECT_NE(merged.find("\"sharding\""), std::string::npos);
  EXPECT_NE(merged.find("\"series\""), std::string::npos);
}

TEST_F(ShardDriverTest, ResumeAfterCrashReusesCheckpointsAndMergesClean) {
  const std::string serial = serial_json();
  // Run 1: shard 2 fails every attempt — three checkpoints land, one hole.
  ::setenv("AG_SHARD_FAULT", "crash@2x99", 1);
  harness::ShardDriverOptions opts = probe_options();
  opts.max_attempts = 1;
  const harness::ExperimentBuilder builder = tests::make_probe_builder();
  const harness::ShardRunReport first = run_shards(builder, opts);
  ASSERT_EQ(first.sharding.failed.size(), 1u);

  // Run 2: fault gone, --resume. Only the missing cell re-runs.
  ::unsetenv("AG_SHARD_FAULT");
  opts = probe_options();
  opts.resume = true;
  const harness::ShardRunReport second = run_shards(builder, opts);
  ASSERT_FALSE(second.interrupted);
  EXPECT_EQ(second.reused, 3u);
  EXPECT_EQ(second.launched, 1u);
  ASSERT_TRUE(second.sharding.failed.empty());
  EXPECT_EQ(merged_json(second), serial);
}

TEST_F(ShardDriverTest, MergeOnlyDegradesMissingCells) {
  harness::ShardDriverOptions opts = probe_options();
  opts.merge_only = true;
  const harness::ExperimentBuilder builder = tests::make_probe_builder();
  const harness::ShardRunReport report = run_shards(builder, opts);
  ASSERT_FALSE(report.interrupted);
  EXPECT_EQ(report.launched, 0u);
  EXPECT_EQ(report.reused, 0u);
  EXPECT_EQ(report.sharding.failed.size(), 4u);
}

// The checkpoints of the 2-seed probe sweep, merged into a 3-seed one:
// cells 0 and 1 keep their x and seed and are reused, shards 2 and 3 now
// belong to other cells and fail as the missing 4 and 5 do.
TEST_F(ShardDriverTest, MergeReusesOnlyCheckpointsOfTheSameCell) {
  const harness::ExperimentBuilder two_seeds = tests::make_probe_builder();
  harness::ShardDriverOptions opts = probe_options();
  fs::create_directories(opts.shard_dir);
  for (std::size_t i = 0; i < two_seeds.cell_count(); ++i) {
    ASSERT_TRUE(harness::write_shard_json(opts.shard_dir + "/" + harness::shard_file_name(i),
                                          two_seeds.experiment_name(), i, two_seeds.cell_id(i),
                                          two_seeds.run_cell(i)));
  }
  opts.merge_only = true;
  const harness::ExperimentBuilder three_seeds = tests::make_probe_builder().seeds(3);
  const harness::ShardRunReport report = run_shards(three_seeds, opts);
  EXPECT_EQ(report.launched, 0u);
  EXPECT_EQ(report.reused, 2u);
  EXPECT_EQ(report.sharding.failed.size(), 4u);
  EXPECT_TRUE(report.results[0].has_value());
  EXPECT_TRUE(report.results[1].has_value());
}

TEST_F(ShardDriverTest, FreshRunClearsStaleCheckpoints) {
  // A checkpoint from some other sweep must not leak into a fresh run.
  fs::create_directories(path_in("shards"));
  std::ofstream stale{path_in("shards") + "/shard_0.json"};
  stale << "{\"format\": 1, \"experiment\": \"other\"}";
  stale.close();
  const std::string serial = serial_json();
  const harness::ExperimentBuilder builder = tests::make_probe_builder();
  const harness::ShardRunReport report = run_shards(builder, probe_options());
  EXPECT_EQ(report.reused, 0u);
  EXPECT_EQ(report.launched, 4u);
  EXPECT_EQ(merged_json(report), serial);
}

TEST_F(ShardDriverTest, InterruptStopsDriverWithoutResults) {
  harness::install_interrupt_handlers();
  ::raise(SIGTERM);
  ASSERT_TRUE(harness::interrupt_requested());
  const harness::ExperimentBuilder builder = tests::make_probe_builder();
  const harness::ShardRunReport report = run_shards(builder, probe_options());
  EXPECT_TRUE(report.interrupted);
  EXPECT_EQ(report.launched, 0u);
  EXPECT_EQ(harness::interrupt_exit_code(), 128 + SIGTERM);
  harness::clear_interrupt_for_test();
}

TEST_F(ShardDriverTest, ProbeBinaryEndToEndThroughItsOwnCli) {
  const std::string serial = serial_json();
  // Drive the probe exactly like a user: supervisor CLI with an injected
  // crash, then --resume, asserting the merged file matches serial bytes.
  const std::string cd = "cd '" + dir_.string() + "' && ";
  const std::string exe = "'" AG_SHARD_PROBE_EXE "'";
  int rc = std::system((cd + "AG_SHARD_FAULT=crash@0x99 AG_SHARD_RETRIES=2 "
                        "AG_SHARD_BACKOFF_MS=1 " +
                        exe + " --shards=2 > probe1.log 2>&1")
                           .c_str());
  ASSERT_EQ(rc, 0);  // degrades gracefully, still exits 0 with outputs
  std::string merged = read_file((dir_ / "BENCH_shard_probe.json").string());
  EXPECT_NE(merged.find("\"failed_shards\""), std::string::npos);

  rc = std::system((cd + exe + " --resume > probe2.log 2>&1").c_str());
  ASSERT_EQ(rc, 0);
  merged = read_file((dir_ / "BENCH_shard_probe.json").string());
  EXPECT_EQ(merged, serial);

  // The manifest journal recorded the whole story.
  const std::string manifest =
      read_file((dir_ / "shards_shard_probe" / "manifest.jsonl").string());
  EXPECT_NE(manifest.find("\"event\": \"plan\""), std::string::npos);
  EXPECT_NE(manifest.find("\"event\": \"failed\""), std::string::npos);
  EXPECT_NE(manifest.find("\"event\": \"reused\""), std::string::npos);
  EXPECT_NE(manifest.find("\"event\": \"done\""), std::string::npos);
}

}  // namespace
