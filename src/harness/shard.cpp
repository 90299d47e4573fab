#include "harness/shard.h"

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
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

// ---------------------------------------------------------------------------
// number formatting: exact round-trips
// ---------------------------------------------------------------------------

// 17 significant digits reproduce any IEEE-754 double exactly through
// strtod, so the merged sharded run aggregates bit-identically to the
// serial one.
std::string f64_text(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// minimal JSON value + recursive-descent parser (shard checkpoints and
// nothing else — trusted shape, but must reject truncation/corruption
// cleanly so a torn file reads as "not done", never as bad data)
// ---------------------------------------------------------------------------

struct Json {
  enum class Type : std::uint8_t { null, boolean, number, string, array, object };
  Type type{Type::null};
  bool b{false};
  std::string text;  // number literal (verbatim) or decoded string
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  [[nodiscard]] const Json* find(const std::string& key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& src) : s_{src} {}

  [[nodiscard]] std::optional<Json> parse(std::string* error) {
    std::optional<Json> v = value(0);
    if (!v) {
      if (error != nullptr) *error = error_;
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != s_.size()) {
      if (error != nullptr) *error = "trailing garbage at byte " + std::to_string(pos_);
      return std::nullopt;
    }
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool fail(const std::string& what) {
    if (error_.empty()) error_ = what + " at byte " + std::to_string(pos_);
    return false;
  }

  [[nodiscard]] bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return fail(std::string{"expected "} + word);
    pos_ += n;
    return true;
  }

  [[nodiscard]] std::optional<Json> value(int depth) {
    if (depth > 64) {
      (void)fail("nesting too deep");
      return std::nullopt;
    }
    skip_ws();
    if (pos_ >= s_.size()) {
      (void)fail("unexpected end of input");
      return std::nullopt;
    }
    Json out;
    const char c = s_[pos_];
    if (c == 'n') {
      if (!literal("null")) return std::nullopt;
      return out;
    }
    if (c == 't' || c == 'f') {
      out.type = Json::Type::boolean;
      out.b = c == 't';
      if (!literal(c == 't' ? "true" : "false")) return std::nullopt;
      return out;
    }
    if (c == '"') {
      out.type = Json::Type::string;
      if (!string_into(out.text)) return std::nullopt;
      return out;
    }
    if (c == '[') {
      out.type = Json::Type::array;
      ++pos_;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return out;
      }
      while (true) {
        std::optional<Json> item = value(depth + 1);
        if (!item) return std::nullopt;
        out.items.push_back(std::move(*item));
        skip_ws();
        if (pos_ >= s_.size()) {
          (void)fail("unterminated array");
          return std::nullopt;
        }
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (s_[pos_] == ']') {
          ++pos_;
          return out;
        }
        (void)fail("expected , or ] in array");
        return std::nullopt;
      }
    }
    if (c == '{') {
      out.type = Json::Type::object;
      ++pos_;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return out;
      }
      while (true) {
        skip_ws();
        std::string key;
        if (pos_ >= s_.size() || s_[pos_] != '"' || !string_into(key)) {
          (void)fail("expected object key");
          return std::nullopt;
        }
        skip_ws();
        if (pos_ >= s_.size() || s_[pos_] != ':') {
          (void)fail("expected : after key");
          return std::nullopt;
        }
        ++pos_;
        if (out.find(key) != nullptr) {
          (void)fail("duplicate key \"" + key + "\"");
          return std::nullopt;
        }
        std::optional<Json> item = value(depth + 1);
        if (!item) return std::nullopt;
        out.fields.emplace_back(std::move(key), std::move(*item));
        skip_ws();
        if (pos_ >= s_.size()) {
          (void)fail("unterminated object");
          return std::nullopt;
        }
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (s_[pos_] == '}') {
          ++pos_;
          return out;
        }
        (void)fail("expected , or } in object");
        return std::nullopt;
      }
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      out.type = Json::Type::number;
      const std::size_t start = pos_;
      while (pos_ < s_.size() &&
             (std::strchr("+-.eE", s_[pos_]) != nullptr ||
              (s_[pos_] >= '0' && s_[pos_] <= '9'))) {
        ++pos_;
      }
      out.text = s_.substr(start, pos_ - start);
      return out;
    }
    (void)fail(std::string{"unexpected character '"} + c + "'");
    return std::nullopt;
  }

  [[nodiscard]] bool string_into(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) return fail("dangling escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // Only control characters are emitted this way by our writer.
          out += static_cast<char>(code);
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  const std::string& s_;
  std::size_t pos_{0};
  std::string error_;
};

// ---------------------------------------------------------------------------
// RunResult <-> JSON through the run-record schema (stats/run_schema.h)
// ---------------------------------------------------------------------------

// Serializer visitor: appends `"key": value` pairs into an object body.
class FieldWriter {
 public:
  void field(const char* key, std::uint64_t v) { put(key, std::to_string(v)); }
  void field(const char* key, std::uint32_t v) { put(key, std::to_string(v)); }
  void field(const char* key, net::NodeId v) { put(key, std::to_string(v.value())); }
  void field(const char* key, double v) { put(key, f64_text(v)); }
  template <std::size_t N>
  void field(const char* key, const std::uint64_t (&v)[N]) {
    std::string text = "[";
    for (std::size_t i = 0; i < N; ++i) {
      if (i > 0) text += ',';
      text += std::to_string(v[i]);
    }
    put(key, text + "]");
  }
  template <typename T>
  void field(const char* key, const T& v, stats::Group /*group*/, stats::Fold /*fold*/) {
    field(key, v);
  }
  void gate(const char* key, bool v, stats::Groups /*gated*/) {
    put(key, v ? "true" : "false");
  }
  void ratio(const char* /*key*/, double /*derived*/, stats::Group /*group*/) {}

  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  void put(const char* key, const std::string& text) {
    if (!out_.empty()) out_ += ", ";
    out_ += '"';
    out_ += key;
    out_ += "\": ";
    out_ += text;
  }
  std::string out_;
};

// Deserializer visitor over a parsed object: every field is mandatory,
// so a checkpoint from a different schema version reads as corrupt (and
// the shard simply re-runs) instead of merging half-garbage.
class FieldReader {
 public:
  explicit FieldReader(const Json& obj) : obj_{obj} {}

  void field(const char* key, std::uint64_t& v) {
    const Json* j = need(key, Json::Type::number);
    if (j != nullptr && !parse_decimal_u64(j->text, v)) fail(std::string{"bad u64 in "} + key);
  }
  void field(const char* key, std::uint32_t& v) {
    std::uint64_t wide = 0;
    field(key, wide);
    if (wide > 0xFFFFFFFFu) fail(std::string{"u32 out of range in "} + key);
    v = static_cast<std::uint32_t>(wide);
  }
  void field(const char* key, net::NodeId& v) {
    std::uint32_t raw = 0;
    field(key, raw);
    v = net::NodeId{raw};
  }
  void field(const char* key, double& v) {
    const Json* j = need(key, Json::Type::number);
    if (j == nullptr) return;
    char* end = nullptr;
    v = std::strtod(j->text.c_str(), &end);
    if (end == j->text.c_str() || *end != '\0' || !std::isfinite(v)) {
      fail(std::string{"bad double in "} + key);
    }
  }
  template <std::size_t N>
  void field(const char* key, std::uint64_t (&v)[N]) {
    const Json* j = need(key, Json::Type::array);
    if (j == nullptr) return;
    if (j->items.size() != N) {
      fail(std::string{key} + " length " + std::to_string(j->items.size()) +
           " != " + std::to_string(N));
      return;
    }
    for (std::size_t i = 0; i < N; ++i) {
      if (j->items[i].type != Json::Type::number || !parse_decimal_u64(j->items[i].text, v[i])) {
        fail(std::string{"bad u64 in "} + key);
        return;
      }
    }
  }
  template <typename T>
  void field(const char* key, T& v, stats::Group /*group*/, stats::Fold /*fold*/) {
    field(key, v);
  }
  void gate(const char* key, bool& v, stats::Groups /*gated*/) {
    const Json* j = need(key, Json::Type::boolean);
    if (j != nullptr) v = j->b;
  }
  void ratio(const char* /*key*/, double /*derived*/, stats::Group /*group*/) {}

  [[nodiscard]] bool ok() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  const Json* need(const char* key, Json::Type type) {
    if (!error_.empty()) return nullptr;
    const Json* j = obj_.find(key);
    if (j == nullptr) {
      fail(std::string{"missing field "} + key);
      return nullptr;
    }
    if (j->type != type) {
      fail(std::string{"wrong type for "} + key);
      return nullptr;
    }
    return j;
  }
  void fail(std::string what) {
    if (error_.empty()) error_ = std::move(what);
  }

  const Json& obj_;
  std::string error_;
};

// The `"key": value, ...` pairs of one record, `visit` walking it through a
// writer.
template <typename Visit>
std::string json_fields(Visit visit) {
  FieldWriter w;
  visit(w);
  return w.take();
}

// Reads the record `visit` walks out of `obj`; on failure sets `error`,
// prefixed with `what`.
template <typename Visit>
bool read_object(const Json* obj, const char* what, Visit visit, std::string& error) {
  if (obj == nullptr || obj->type != Json::Type::object) {
    error = std::string{"missing "} + what + " object";
    return false;
  }
  FieldReader r{*obj};
  visit(r);
  if (!r.ok()) error = std::string{what} + ": " + r.error();
  return r.ok();
}

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
  std::ostringstream body;
  body << "{\n\"format\": " << kShardFormat << ",\n";
  body << "\"experiment\": \"" << json_escaped(experiment) << "\",\n";
  body << "\"shard\": " << index << ",\n";
  body << "\"protocol\": \"" << json_escaped(cell.protocol) << "\",\n";
  body << "\"x\": " << f64_text(cell.x) << ",\n";
  body << "\"seed\": " << cell.seed << ",\n";
  body << "\"result\": {"
       << json_fields([&](FieldWriter& w) { stats::visit_header(result, w); }) << ",\n";
  body << "\"members\": [";
  for (std::size_t i = 0; i < result.members.size(); ++i) {
    body << (i > 0 ? ",\n" : "\n") << "{"
         << json_fields([&](FieldWriter& w) { stats::visit_member(result.members[i], w); })
         << "}";
  }
  body << "],\n";
  body << "\"totals\": {"
       << json_fields([&](FieldWriter& w) { stats::visit_totals(result.totals, w); })
       << "},\n";
  body << "\"faults\": {"
       << json_fields([&](FieldWriter& w) { stats::visit_faults(result.faults, w); })
       << "}\n";
  body << "}\n}\n";
  const std::string text = body.str();
  return write_file_atomic(path, [&text](std::ostream& out) { out << text; });
}

std::optional<stats::RunResult> read_shard_json(const std::string& path,
                                                const std::string& experiment,
                                                std::size_t index,
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
  // The writer ends every checkpoint with a newline, so a file without one
  // was cut short, even where the cut leaves complete JSON.
  if (text.empty() || text.back() != '\n') return fail(path + ": truncated");
  std::string parse_error;
  JsonParser parser{text};
  std::optional<Json> root = parser.parse(&parse_error);
  if (!root || root->type != Json::Type::object) {
    return fail("parse error in " + path + ": " +
                (parse_error.empty() ? "not an object" : parse_error));
  }

  // Identity checks: the file must belong to this sweep and this cell.
  {
    FieldReader r{*root};
    std::uint64_t format = 0;
    std::uint64_t shard = 0;
    r.field("format", format);
    r.field("shard", shard);
    if (!r.ok()) return fail(path + ": " + r.error());
    if (format != kShardFormat) {
      return fail(path + ": unknown format " + std::to_string(format));
    }
    if (shard != index) {
      return fail(path + ": records shard " + std::to_string(shard) +
                  ", expected " + std::to_string(index));
    }
    const Json* exp = root->find("experiment");
    if (exp == nullptr || exp->type != Json::Type::string || exp->text != experiment) {
      return fail(path + ": experiment mismatch (want \"" + experiment + "\")");
    }
  }

  const Json* res = root->find("result");
  stats::RunResult out;
  std::string what;
  if (!read_object(res, "result", [&](FieldReader& r) { stats::visit_header(out, r); },
                   what)) {
    return fail(path + ": " + what);
  }
  const Json* members = res->find("members");
  if (members == nullptr || members->type != Json::Type::array) {
    return fail(path + ": missing members array");
  }
  out.members.resize(members->items.size());
  for (std::size_t i = 0; i < out.members.size(); ++i) {
    if (!read_object(&members->items[i], "member",
                     [&](FieldReader& r) { stats::visit_member(out.members[i], r); }, what)) {
      return fail(path + ": " + what);
    }
  }
  if (!read_object(res->find("totals"), "totals",
                   [&](FieldReader& r) { stats::visit_totals(out.totals, r); }, what) ||
      !read_object(res->find("faults"), "faults",
                   [&](FieldReader& r) { stats::visit_faults(out.faults, r); }, what)) {
    return fail(path + ": " + what);
  }
  return out;
}

ShardFault shard_fault_from_env() {
  const char* raw = sim::env_cstr("AG_SHARD_FAULT");
  ShardFault fault;
  if (raw == nullptr || *raw == '\0') return fault;
  const char* at = std::strchr(raw, '@');
  const auto warn = [raw] {
    std::fprintf(stderr,
                 "warning: ignoring invalid AG_SHARD_FAULT=\"%s\" (want "
                 "crash|hang|corrupt@<shard>[x<times>])\n",
                 raw);
    return ShardFault{};
  };
  if (at == nullptr) return warn();
  const std::string mode{raw, static_cast<std::size_t>(at - raw)};
  if (mode == "crash") fault.mode = ShardFault::Mode::crash;
  else if (mode == "hang") fault.mode = ShardFault::Mode::hang;
  else if (mode == "corrupt") fault.mode = ShardFault::Mode::corrupt;
  else return warn();
  const char* p = at + 1;
  if (*p < '0' || *p > '9') return warn();
  char* end = nullptr;
  errno = 0;
  fault.shard = static_cast<std::size_t>(std::strtoull(p, &end, 10));
  if (errno != 0 || end == p) return warn();
  if (*end == 'x') {
    const char* times = end + 1;
    if (*times < '0' || *times > '9') return warn();
    errno = 0;
    const unsigned long long n = std::strtoull(times, &end, 10);
    if (errno != 0 || *end != '\0' || n == 0 || n > 0xFFFFFFFFull) return warn();
    fault.times = static_cast<std::uint32_t>(n);
  } else if (*end != '\0') {
    return warn();
  }
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
