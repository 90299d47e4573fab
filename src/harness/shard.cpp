#include "harness/shard.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include <unistd.h>

#include "harness/atomic_io.h"
#include "sim/env.h"
#include "stats/run_schema.h"

namespace ag::harness {

namespace {

// Checkpoint layout version; a file of any other version reads as corrupt
// and its shard re-runs. Format 2 spells every key as the BENCH files do.
constexpr std::uint64_t kShardFormat = 2;

// 17 significant digits reproduce any IEEE-754 double exactly through
// strtod, so the merged sharded run aggregates bit-identically to the
// serial one.
std::string f64_text(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// The checkpoint's opening lines, through `"result": {`. The reader
// compares them byte for byte, so a file of another format, sweep, shard
// index or cell is never merged.
std::string header_text(const std::string& experiment, std::size_t index, const CellId& cell) {
  return "{\n\"format\": " + std::to_string(kShardFormat) + ",\n\"experiment\": \"" +
         json_escaped(experiment) + "\",\n\"shard\": " + std::to_string(index) +
         ",\n\"protocol\": \"" + json_escaped(cell.protocol) + "\",\n\"x\": " +
         f64_text(cell.x) + ",\n\"seed\": " + std::to_string(cell.seed) +
         ",\n\"result\": {";
}

// The record after the header, written down once for both directions:
// `io` is a Writer or a Reader and `r` a const or a mutable RunResult.
// Within each run of `"key": value` pairs the visitor separates pairs by
// ", "; every text() call ends a run.
template <typename Io, typename Run>
void checkpoint_record(Io& io, Run& r) {
  stats::visit_header(r, io);
  io.text(",\n\"members\": [");
  io.list(r.members, [&io](auto& m) {
    io.text("{");
    stats::visit_member(m, io);
    io.text("}");
  });
  io.text("],\n\"totals\": {");
  stats::visit_totals(r.totals, io);
  io.text("},\n\"faults\": {");
  stats::visit_faults(r.faults, io);
  io.text("}\n}\n}\n");
}

// Appends a record as checkpoint_record lays it out.
class Writer {
 public:
  explicit Writer(std::string head) : out_{std::move(head)} {}

  void text(std::string_view lit) {
    out_ += lit;
    first_ = true;
  }
  template <typename Member, typename Each>
  void list(const std::vector<Member>& items, Each each) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      text(i > 0 ? ",\n" : "\n");
      each(items[i]);
    }
  }
  void field(const char* key, std::uint64_t v) { put(key, std::to_string(v)); }
  void field(const char* key, std::uint32_t v) { put(key, std::to_string(v)); }
  void field(const char* key, net::NodeId v) { put(key, std::to_string(v.value())); }
  void field(const char* key, double v) { put(key, f64_text(v)); }
  template <std::size_t N>
  void field(const char* key, const std::uint64_t (&v)[N]) {
    std::string value = "[";
    for (std::size_t i = 0; i < N; ++i) {
      if (i > 0) value += ',';
      value += std::to_string(v[i]);
    }
    put(key, value + "]");
  }
  template <typename T>
  void field(const char* key, const T& v, stats::Group /*group*/, stats::Fold /*fold*/) {
    field(key, v);
  }
  void gate(const char* key, bool v, stats::Groups /*gated*/) { put(key, v ? "true" : "false"); }
  void ratio(const char* /*key*/, double /*derived*/, stats::Group /*group*/) {}

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void put(const char* key, const std::string& value) {
    if (!first_) out_ += ", ";
    first_ = false;
    out_ += '"';
    out_ += key;
    out_ += "\": ";
    out_ += value;
  }

  std::string out_;
  bool first_{true};
};

// Reads a record back as checkpoint_record lays it out. Outside number
// literals it accepts only the byte the writer puts at each position, so
// a reordered, missing, repeated or unknown key, or any change of
// punctuation or whitespace, reads as corrupt. Numbers follow the
// checkpoint rule: parse_decimal_u64, a u32 range check, a finite strtod.
class Reader {
 public:
  Reader(std::string_view s, std::size_t pos) : s_{s}, pos_{pos} {}

  void text(std::string_view lit) {
    expect(lit);
    first_ = true;
  }
  template <typename Member, typename Each>
  void list(std::vector<Member>& items, Each each) {
    while (ok() && pos_ < s_.size() && s_[pos_] != ']') {
      text(items.empty() ? "\n" : ",\n");
      each(items.emplace_back());
    }
  }
  void field(const char* key, std::uint64_t& v) {
    if (open(key)) u64(key, v);
  }
  void field(const char* key, std::uint32_t& v) {
    std::uint64_t wide = 0;
    if (open(key)) u64(key, wide, 0xFFFFFFFFu);
    v = static_cast<std::uint32_t>(wide);
  }
  void field(const char* key, net::NodeId& v) {
    std::uint32_t raw = 0;
    field(key, raw);
    v = net::NodeId{raw};
  }
  void field(const char* key, double& v) {
    if (!open(key)) return;
    const std::size_t at = pos_;
    const std::string literal = number();
    char* end = nullptr;
    v = std::strtod(literal.c_str(), &end);
    if (literal.empty() || *end != '\0' || !std::isfinite(v)) {
      fail(std::string{"bad double in "} + key, at);
    }
  }
  template <std::size_t N>
  void field(const char* key, std::uint64_t (&v)[N]) {
    if (!open(key)) return;
    for (std::size_t i = 0; i < N; ++i) {
      expect(i > 0 ? "," : "[");
      u64(key, v[i]);
    }
    expect("]");
  }
  template <typename T>
  void field(const char* key, T& v, stats::Group /*group*/, stats::Fold /*fold*/) {
    field(key, v);
  }
  void gate(const char* key, bool& v, stats::Groups /*gated*/) {
    if (!open(key)) return;
    v = s_.substr(pos_).starts_with("true");
    expect(v ? "true" : "false");
  }
  void ratio(const char* /*key*/, double /*derived*/, stats::Group /*group*/) {}

  // The first error, or "" when the record ended exactly at the end of
  // the input.
  [[nodiscard]] std::string finish() {
    if (ok() && pos_ != s_.size()) fail("trailing bytes", pos_);
    return error_;
  }

 private:
  [[nodiscard]] bool ok() const { return error_.empty(); }

  // Records the first error, naming its offset and the bytes found there.
  void fail(const std::string& what, std::size_t at) {
    if (!ok()) return;
    const std::string_view found = s_.substr(at, 24);
    error_ = what + " at byte " + std::to_string(at) + ", found '" +
             std::string{found.substr(0, found.find('\n'))} + "'";
  }

  // Consumes `lit`, which must come next.
  void expect(std::string_view lit) {
    if (ok() && !s_.substr(pos_).starts_with(lit)) {
      fail("expected \"" + json_escaped(lit) + "\"", pos_);
    }
    if (ok()) pos_ += lit.size();
  }

  // Consumes the `"key": ` of the next pair, and before it the ", " that
  // separates it from the previous pair of its run.
  [[nodiscard]] bool open(const char* key) {
    if (!first_) expect(", ");
    first_ = false;
    const std::string tag = std::string{"\""} + key + "\": ";
    if (ok() && !s_.substr(pos_).starts_with(tag)) {
      fail(std::string{"expected key \""} + key + "\"", pos_);
    }
    if (ok()) pos_ += tag.size();
    return ok();
  }

  // The bytes at the read position that can form a number literal.
  [[nodiscard]] std::string number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() && std::string_view{"+-.eE0123456789"}.find(s_[pos_]) !=
                                   std::string_view::npos) {
      ++pos_;
    }
    return std::string{s_.substr(start, pos_ - start)};
  }

  // Reads a decimal u64; `max` below the u64 range marks a u32 field.
  void u64(const char* key, std::uint64_t& v, std::uint64_t max = UINT64_MAX) {
    const std::size_t at = pos_;
    if (!parse_decimal_u64(number(), v)) {
      fail(std::string{"bad u64 in "} + key, at);
    } else if (v > max) {
      fail(std::string{"u32 out of range in "} + key, at);
    }
  }

  std::string_view s_;
  std::size_t pos_{0};
  bool first_{true};
  std::string error_;
};

}  // namespace

bool parse_decimal_u64(const std::string& text, std::uint64_t& v) {
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  v = std::strtoull(text.c_str(), &end, 10);
  return errno == 0 && *end == '\0';
}

std::string shard_file_name(std::size_t index) {
  return "shard_" + std::to_string(index) + ".json";
}

bool write_shard_json(const std::string& path, const std::string& experiment,
                      std::size_t index, const CellId& cell,
                      const stats::RunResult& result) {
  Writer w{header_text(experiment, index, cell)};
  checkpoint_record(w, result);
  return write_file_atomic(path, [&w](std::ostream& out) { out << w.str(); });
}

std::optional<stats::RunResult> read_shard_json(const std::string& path,
                                                const std::string& experiment,
                                                std::size_t index, const CellId& cell,
                                                std::string* error) {
  const auto fail = [error](std::string what) -> std::optional<stats::RunResult> {
    if (error != nullptr) *error = std::move(what);
    return std::nullopt;
  };
  std::ifstream in{path};
  if (!in) return fail("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  const std::string head = header_text(experiment, index, cell);
  const auto differs = std::mismatch(head.begin(), head.end(), text.begin(), text.end());
  if (differs.first != head.end()) {
    return fail(path + ": not the checkpoint of shard " + std::to_string(index) + " (" +
                cell.protocol + ", x " + f64_text(cell.x) + ", seed " +
                std::to_string(cell.seed) + ") of \"" + experiment +
                "\": header differs at byte " +
                std::to_string(differs.first - head.begin()));
  }
  Reader r{text, head.size()};
  stats::RunResult out;
  checkpoint_record(r, out);
  const std::string what = r.finish();
  if (!what.empty()) return fail(path + ": " + what);
  return out;
}

ShardFault shard_fault_from_env() {
  const char* raw = sim::env_cstr("AG_SHARD_FAULT");
  ShardFault fault;
  if (raw == nullptr || *raw == '\0') return fault;
  const auto warn = [raw] {
    std::fprintf(stderr,
                 "warning: ignoring invalid AG_SHARD_FAULT=\"%s\" (want "
                 "crash|hang|corrupt@<shard>[x<times>])\n",
                 raw);
    return ShardFault{};
  };
  const std::string spec{raw};
  const std::size_t at = spec.find('@');
  if (at == std::string::npos) return warn();
  const std::string mode = spec.substr(0, at);
  if (mode == "crash") fault.mode = ShardFault::Mode::crash;
  else if (mode == "hang") fault.mode = ShardFault::Mode::hang;
  else if (mode == "corrupt") fault.mode = ShardFault::Mode::corrupt;
  else return warn();
  const std::size_t x = spec.find('x', at + 1);
  std::uint64_t shard = 0;
  std::uint64_t times = 1;
  if (!parse_decimal_u64(spec.substr(at + 1, x - (at + 1)), shard) ||
      (x != std::string::npos &&
       (!parse_decimal_u64(spec.substr(x + 1), times) || times == 0 || times > 0xFFFFFFFFu))) {
    return warn();
  }
  fault.shard = static_cast<std::size_t>(shard);
  fault.times = static_cast<std::uint32_t>(times);
  return fault;
}

void maybe_inject_shard_fault(const ShardFault& fault, std::size_t index,
                              std::uint32_t attempt, const std::string& shard_path) {
  if (!fault.matches(index, attempt)) return;
  switch (fault.mode) {
    case ShardFault::Mode::crash:
      std::fprintf(stderr, "[shard %zu] AG_SHARD_FAULT: crashing (attempt %u)\n",
                   index, attempt);
      std::_Exit(134);
    case ShardFault::Mode::hang:
      std::fprintf(stderr, "[shard %zu] AG_SHARD_FAULT: hanging (attempt %u)\n",
                   index, attempt);
      // Sleep until the supervisor's timeout kills us; pause() wakes only
      // on a signal, and SIGKILL needs no cooperation.
      while (true) pause();
    case ShardFault::Mode::corrupt: {
      std::fprintf(stderr,
                   "[shard %zu] AG_SHARD_FAULT: writing torn output (attempt %u)\n",
                   index, attempt);
      // Deliberately bypass the atomic writer: this simulates the torn
      // file a crash mid-write would have produced without it.
      std::ofstream torn{shard_path, std::ios::trunc};
      torn << "{\"format\": 1, \"experiment\": \"torn";
      torn.flush();
      std::_Exit(0);
    }
    case ShardFault::Mode::none: break;
  }
}

}  // namespace ag::harness
