#include "scenario/expand.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <utility>

#include "adt/counter_type.hpp"
#include "adt/deque_type.hpp"
#include "adt/fingerprint.hpp"
#include "adt/max_register_type.hpp"
#include "adt/pool_type.hpp"
#include "adt/pqueue_type.hpp"
#include "adt/queue_type.hpp"
#include "adt/register_type.hpp"
#include "adt/rmw_register_type.hpp"
#include "adt/set_type.hpp"
#include "adt/stack_type.hpp"
#include "adt/tree_type.hpp"
#include "campaign/grid.hpp"
#include "campaign/sink.hpp"
#include "harness/workload.hpp"
#include "sim/delay_model.hpp"
#include "sim/fault.hpp"

namespace lintime::scenario {

namespace {

using campaign::fmt_double;

bool parse_full_int(const std::string& s, std::int64_t& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtoll(s.c_str(), &end, 10);
  return end == s.c_str() + s.size();
}

bool parse_full_num(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

/// Canonicalizes one scalar exactly like campaign::Grid's axis overloads:
/// integers in decimal, floats via shortest round-trip formatting.
std::string canonical_scalar(const TomlDoc& doc, const TomlValue& v) {
  switch (v.kind) {
    case TomlValue::Kind::kInt: return std::to_string(v.i);
    case TomlValue::Kind::kFloat: return fmt_double(v.num);
    case TomlValue::Kind::kString: return v.str;
    default:
      toml_fail(doc.file, v.line, std::string("axis values must be numbers or strings, got ") +
                                      v.kind_name());
  }
}

/// Canonicalizes a raw CLI override string by the same rules.
std::string canonical_raw(const std::string& s) {
  std::int64_t i = 0;
  if (parse_full_int(s, i)) return std::to_string(i);
  double d = 0;
  if (parse_full_num(s, d)) return fmt_double(d);
  return s;
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' || c == '_';
}

/// One job's view of the document: the base sections with the enclosing
/// sweep's set.<section>.<key> overrides layered on top, plus the axis
/// environment ($axis values and the built-in $index).
struct JobView {
  const TomlDoc& doc;
  const TomlSection* sweep = nullptr;
  std::map<std::string, std::string> env;

  [[nodiscard]] const TomlValue* find(const std::string& section, const std::string& key) const {
    if (sweep != nullptr) {
      if (const TomlValue* v = sweep->find("set." + section + "." + key)) return v;
    }
    const TomlSection* s = doc.find(section);
    return s != nullptr ? s->find(key) : nullptr;
  }

  /// True if the section exists or any override targets it.
  [[nodiscard]] bool has_section(const std::string& section) const {
    if (doc.find(section) != nullptr) return true;
    if (sweep != nullptr) {
      const std::string prefix = "set." + section + ".";
      for (const auto& [k, v] : sweep->entries) {
        if (k.rfind(prefix, 0) == 0) return true;
      }
    }
    return false;
  }

  /// The effective keys of a section (base keys plus override keys), with
  /// the line each was set on -- for per-kind applicability checks.
  [[nodiscard]] std::vector<std::pair<std::string, int>> keys_of(
      const std::string& section) const {
    std::vector<std::pair<std::string, int>> out;
    if (const TomlSection* s = doc.find(section)) {
      for (const auto& [k, v] : s->entries) out.emplace_back(k, v.line);
    }
    if (sweep != nullptr) {
      const std::string prefix = "set." + section + ".";
      for (const auto& [k, v] : sweep->entries) {
        if (k.rfind(prefix, 0) == 0) out.emplace_back(k.substr(prefix.size()), v.line);
      }
    }
    return out;
  }

  [[nodiscard]] const std::string& env_get(int line, const std::string& name) const {
    const auto it = env.find(name);
    if (it == env.end()) {
      toml_fail(doc.file, line, "reference '$" + name + "' names no axis of this sweep");
    }
    return it->second;
  }
};

/// Resolves "$axis", "$axis*K" or "$axis/K" to its canonical string.
std::string resolve_ref(const JobView& jv, const TomlValue& v) {
  const std::string& s = v.str;
  std::size_t pos = 1;
  while (pos < s.size() && ident_char(s[pos])) ++pos;
  const std::string name = s.substr(1, pos - 1);
  const std::string& base = jv.env_get(v.line, name);
  if (pos == s.size()) return base;

  const char op = s[pos];
  std::int64_t k = 0;
  if ((op != '*' && op != '/') || !parse_full_int(s.substr(pos + 1), k) || k <= 0) {
    toml_fail(jv.doc.file, v.line,
              "bad reference '" + s + "' (expected $axis, $axis*K or $axis/K)");
  }
  std::int64_t value = 0;
  if (!parse_full_int(base, value)) {
    toml_fail(jv.doc.file, v.line,
              "reference '" + s + "': axis value '" + base + "' is not an integer");
  }
  if (op == '*') return std::to_string(value * k);
  if (value % k != 0) {
    toml_fail(jv.doc.file, v.line,
              "reference '" + s + "': " + base + " is not divisible by " + std::to_string(k));
  }
  return std::to_string(value / k);
}

/// A string value resolved: a whole-value "$..." reference, or the literal.
std::string resolve_str(const JobView& jv, const TomlValue& v, const char* key) {
  if (v.kind != TomlValue::Kind::kString) {
    toml_fail(jv.doc.file, v.line,
              std::string("key '") + key + "' must be a string, got " + v.kind_name());
  }
  if (!v.str.empty() && v.str.front() == '$') return resolve_ref(jv, v);
  return v.str;
}

std::int64_t resolve_int(const JobView& jv, const TomlValue& v, const char* key) {
  if (v.kind == TomlValue::Kind::kInt) return v.i;
  if (v.kind == TomlValue::Kind::kString && !v.str.empty() && v.str.front() == '$') {
    const std::string s = resolve_ref(jv, v);
    std::int64_t out = 0;
    if (parse_full_int(s, out)) return out;
    toml_fail(jv.doc.file, v.line,
              std::string("key '") + key + "': resolved value '" + s + "' is not an integer");
  }
  toml_fail(jv.doc.file, v.line,
            std::string("key '") + key + "' must be an integer or a $reference, got " +
                v.kind_name());
}

double resolve_num(const JobView& jv, const TomlValue& v, const char* key) {
  if (v.kind == TomlValue::Kind::kInt || v.kind == TomlValue::Kind::kFloat) return v.num;
  if (v.kind == TomlValue::Kind::kString && !v.str.empty() && v.str.front() == '$') {
    const std::string s = resolve_ref(jv, v);
    double out = 0;
    if (parse_full_num(s, out)) return out;
    toml_fail(jv.doc.file, v.line,
              std::string("key '") + key + "': resolved value '" + s + "' is not numeric");
  }
  toml_fail(jv.doc.file, v.line,
            std::string("key '") + key + "' must be a number or a $reference, got " +
                v.kind_name());
}

bool resolve_bool(const JobView& jv, const TomlValue& v, const char* key) {
  if (v.kind != TomlValue::Kind::kBool) {
    toml_fail(jv.doc.file, v.line,
              std::string("key '") + key + "' must be true or false, got " + v.kind_name());
  }
  return v.b;
}

// Getter helpers with defaults / required-ness against a JobView.
std::int64_t get_int(const JobView& jv, const char* sec, const char* key, std::int64_t def) {
  const TomlValue* v = jv.find(sec, key);
  return v != nullptr ? resolve_int(jv, *v, key) : def;
}
double get_num(const JobView& jv, const char* sec, const char* key, double def) {
  const TomlValue* v = jv.find(sec, key);
  return v != nullptr ? resolve_num(jv, *v, key) : def;
}
std::string get_str(const JobView& jv, const char* sec, const char* key, std::string def) {
  const TomlValue* v = jv.find(sec, key);
  return v != nullptr ? resolve_str(jv, *v, key) : std::move(def);
}
bool get_bool(const JobView& jv, const char* sec, const char* key, bool def) {
  const TomlValue* v = jv.find(sec, key);
  return v != nullptr ? resolve_bool(jv, *v, key) : def;
}

const TomlValue& require(const JobView& jv, const char* sec, const char* key) {
  const TomlValue* v = jv.find(sec, key);
  if (v == nullptr) {
    const TomlSection* s = jv.doc.find(sec);
    toml_fail(jv.doc.file, s != nullptr ? s->line : 0,
              "section [" + std::string(sec) + "] is missing required key '" + key + "'");
  }
  return *v;
}

/// Substitutes every "$ident" (axes of this sweep plus "$index") in a
/// name/tag template.
std::string substitute(const JobView& jv, const TomlValue& v) {
  const std::string& s = v.str;
  std::string out;
  for (std::size_t i = 0; i < s.size();) {
    if (s[i] != '$') {
      out += s[i++];
      continue;
    }
    std::size_t j = i + 1;
    while (j < s.size() && ident_char(s[j])) ++j;
    if (j == i + 1) toml_fail(jv.doc.file, v.line, "lone '$' in template '" + s + "'");
    out += jv.env_get(v.line, s.substr(i + 1, j - i - 1));
    i = j;
  }
  return out;
}

/// Verifies every effective key of `section` is applicable to the resolved
/// kind.  Strictness guard: a leftover `seed` on a constant-delay section is
/// an error, not dead weight.
void check_keys(const JobView& jv, const std::string& section, const std::string& kind,
                const std::set<std::string>& allowed) {
  for (const auto& [key, line] : jv.keys_of(section)) {
    if (key == "kind" || allowed.count(key) != 0) continue;
    toml_fail(jv.doc.file, line, "key '" + key + "' does not apply to [" + section +
                                     "] kind \"" + kind + "\"");
  }
}

adt::Value parse_arg(const JobView& jv, const TomlValue& v) {
  if (v.kind == TomlValue::Kind::kInt) return adt::Value{v.i};
  // The string "nil" is the no-argument marker (the paper's "-"), so sweeps
  // can override an integer base arg back to nil.
  if (v.kind == TomlValue::Kind::kString) {
    return v.str == "nil" ? adt::Value::nil() : adt::Value{v.str};
  }
  toml_fail(jv.doc.file, v.line,
            std::string("operation arguments must be integers, strings or \"nil\", got ") +
                v.kind_name());
}

/// Parses one "op" / "op:INT" script step.
harness::ScriptOp parse_script_op(const JobView& jv, const TomlValue& v) {
  if (v.kind != TomlValue::Kind::kString) {
    toml_fail(jv.doc.file, v.line,
              std::string("script steps must be \"op\" or \"op:arg\" strings, got ") +
                  v.kind_name());
  }
  const std::size_t colon = v.str.find(':');
  if (colon == std::string::npos) return harness::ScriptOp{v.str, adt::Value::nil()};
  std::int64_t arg = 0;
  if (colon == 0 || !parse_full_int(v.str.substr(colon + 1), arg)) {
    toml_fail(jv.doc.file, v.line, "bad script step '" + v.str + "' (expected op or op:INT)");
  }
  return harness::ScriptOp{v.str.substr(0, colon), adt::Value{arg}};
}

std::vector<double> num_array(const JobView& jv, const TomlValue& v, const char* key) {
  if (v.kind != TomlValue::Kind::kArray) {
    toml_fail(jv.doc.file, v.line,
              std::string("key '") + key + "' must be an array, got " + v.kind_name());
  }
  std::vector<double> out;
  out.reserve(v.items.size());
  for (const auto& item : v.items) out.push_back(resolve_num(jv, item, key));
  return out;
}

std::vector<int> int_array(const JobView& jv, const TomlValue& v, const char* key) {
  if (v.kind != TomlValue::Kind::kArray) {
    toml_fail(jv.doc.file, v.line,
              std::string("key '") + key + "' must be an array, got " + v.kind_name());
  }
  std::vector<int> out;
  out.reserve(v.items.size());
  for (const auto& item : v.items) {
    out.push_back(static_cast<int>(resolve_int(jv, item, key)));
  }
  return out;
}

harness::AlgoKind parse_algo(const JobView& jv, const TomlValue& v) {
  const std::string s = resolve_str(jv, v, "algo");
  if (s == "algorithm1") return harness::AlgoKind::kAlgorithmOne;
  if (s == "centralized") return harness::AlgoKind::kCentralized;
  if (s == "all-oop") return harness::AlgoKind::kAllOop;
  if (s == "zero-wait") return harness::AlgoKind::kZeroWait;
  if (s == "seq-consistent") return harness::AlgoKind::kSeqConsistent;
  if (s == "sharded-serving") return harness::AlgoKind::kShardedServing;
  toml_fail(jv.doc.file, v.line,
            "unknown algo \"" + s +
                "\" (expected algorithm1, centralized, all-oop, zero-wait, seq-consistent or "
                "sharded-serving)");
}

/// Fault-plane schedule strings: "P@T" crashes and "S>D@F..U" link windows
/// (S/D an integer process id or "*").
sim::CrashEvent parse_crash(const JobView& jv, const TomlValue& v, const std::string& s) {
  const std::size_t at = s.find('@');
  std::int64_t proc = 0;
  double when = 0;
  if (at == std::string::npos || !parse_full_int(s.substr(0, at), proc) ||
      !parse_full_num(s.substr(at + 1), when)) {
    toml_fail(jv.doc.file, v.line, "bad crash '" + s + "' (expected PROC@TIME, e.g. \"2@50\")");
  }
  return sim::CrashEvent{static_cast<int>(proc), when};
}

int parse_endpoint(const JobView& jv, const TomlValue& v, const std::string& s,
                   const std::string& whole) {
  if (s == "*") return sim::kAnyProc;
  std::int64_t p = 0;
  if (!parse_full_int(s, p)) {
    toml_fail(jv.doc.file, v.line, "bad link-drop '" + whole + "' (endpoint '" + s +
                                       "' is neither a process id nor *)");
  }
  return static_cast<int>(p);
}

sim::LinkWindow parse_link(const JobView& jv, const TomlValue& v, const std::string& s) {
  const std::size_t gt = s.find('>');
  const std::size_t at = s.find('@');
  const std::size_t dots = s.find("..");
  double from = 0;
  double until = 0;
  if (gt == std::string::npos || at == std::string::npos || dots == std::string::npos ||
      gt > at || at > dots || !parse_full_num(s.substr(at + 1, dots - at - 1), from) ||
      !parse_full_num(s.substr(dots + 2), until)) {
    toml_fail(jv.doc.file, v.line,
              "bad link-drop '" + s + "' (expected SRC>DST@FROM..UNTIL, e.g. \"0>1@10..20\")");
  }
  return sim::LinkWindow{parse_endpoint(jv, v, s.substr(0, gt), s),
                         parse_endpoint(jv, v, s.substr(gt + 1, at - gt - 1), s), from, until};
}

// ---------------------------------------------------------------------------
// Per-section builders.  Each also appends to `desc`, the canonical job
// description line the corpus digests pin.

sim::ModelParams build_model(const JobView& jv, std::string& desc) {
  sim::ModelParams params{static_cast<int>(resolve_int(jv, require(jv, "model", "n"), "n")),
                          resolve_num(jv, require(jv, "model", "d"), "d"),
                          resolve_num(jv, require(jv, "model", "u"), "u"), 0.0};
  const TomlValue& eps = require(jv, "model", "eps");
  if (eps.kind == TomlValue::Kind::kString && eps.str == "optimal") {
    params.eps = params.optimal_eps();
  } else {
    params.eps = resolve_num(jv, eps, "eps");
  }
  desc += "|n=" + std::to_string(params.n) + "|d=" + fmt_double(params.d) +
          "|u=" + fmt_double(params.u) + "|eps=" + fmt_double(params.eps);
  return params;
}

void build_run(const JobView& jv, const sim::ModelParams& params, harness::RunSpec& spec,
               std::string& desc) {
  const TomlValue* algo = jv.find("run", "algo");
  spec.algo = algo != nullptr ? parse_algo(jv, *algo) : harness::AlgoKind::kAlgorithmOne;

  const TomlValue* frac = jv.find("run", "x-frac");
  const TomlValue* abs = jv.find("run", "x-abs");
  if (frac != nullptr && abs != nullptr) {
    toml_fail(jv.doc.file, abs->line, "x-frac and x-abs are mutually exclusive");
  }
  // X is meaningful only for the Algorithm 1 family; other algorithms force
  // X = 0 so an axis-driven x-frac can ride along a $algo axis (the latency
  // grid shape) without erroring on the baseline's points.
  if (spec.algo == harness::AlgoKind::kAlgorithmOne || spec.algo == harness::AlgoKind::kAllOop) {
    if (abs != nullptr) {
      spec.X = resolve_num(jv, *abs, "x-abs");
    } else if (frac != nullptr) {
      spec.X = (params.d - params.eps) * resolve_num(jv, *frac, "x-frac");
    }
  }

  const std::string record = get_str(jv, "run", "record", "full");
  if (record == "full") {
    spec.record_detail = sim::RecordDetail::kFull;
  } else if (record == "ops-only") {
    spec.record_detail = sim::RecordDetail::kOpsOnly;
  } else {
    toml_fail(jv.doc.file, jv.find("run", "record")->line,
              "unknown record detail \"" + record + "\" (expected full or ops-only)");
  }

  const std::int64_t max_events = get_int(jv, "run", "max-events", 10'000'000);
  if (max_events < 1) {
    toml_fail(jv.doc.file, jv.find("run", "max-events")->line, "max-events must be >= 1");
  }
  spec.max_events = static_cast<std::uint64_t>(max_events);

  // "|sched=ring" names the only scheduler; it stays in the description so
  // the corpus digests keep their values.
  desc += std::string("|algo=") + harness::to_string(spec.algo) + "|X=" + fmt_double(spec.X) +
          "|sched=ring|record=" + record + "|max-events=" + std::to_string(max_events);
}

void build_delays(const JobView& jv, const sim::ModelParams& params, harness::RunSpec& spec,
                  std::string& desc) {
  if (!jv.has_section("delays")) {
    desc += "|delays=default";
    return;  // harness default: ConstantDelay(d)
  }
  const std::string kind = resolve_str(jv, require(jv, "delays", "kind"), "kind");
  if (kind == "constant") {
    check_keys(jv, "delays", kind, {"value"});
    const double value = get_num(jv, "delays", "value", params.d);
    spec.delays = std::make_shared<sim::ConstantDelay>(value);
    desc += "|delays=constant(" + fmt_double(value) + ")";
  } else if (kind == "uniform-random") {
    check_keys(jv, "delays", kind, {"lo", "hi", "seed"});
    const double lo = get_num(jv, "delays", "lo", params.min_delay());
    const double hi = get_num(jv, "delays", "hi", params.d);
    const auto seed =
        static_cast<std::uint64_t>(resolve_int(jv, require(jv, "delays", "seed"), "seed"));
    spec.delays = std::make_shared<sim::UniformRandomDelay>(lo, hi, seed);
    desc += "|delays=uniform-random(" + fmt_double(lo) + "," + fmt_double(hi) + "," +
            std::to_string(seed) + ")";
  } else if (kind == "matrix") {
    check_keys(jv, "delays", kind, {"matrix"});
    const TomlValue& m = require(jv, "delays", "matrix");
    const std::vector<double> flat = num_array(jv, m, "matrix");
    const auto n = static_cast<std::size_t>(params.n);
    if (flat.size() != n * n) {
      toml_fail(jv.doc.file, m.line, "matrix must have n*n = " + std::to_string(n * n) +
                                         " entries (row-major), got " +
                                         std::to_string(flat.size()));
    }
    std::vector<std::vector<sim::Time>> rows(n, std::vector<sim::Time>(n));
    desc += "|delays=matrix(";
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        rows[i][j] = flat[i * n + j];
        desc += fmt_double(flat[i * n + j]);
        desc += ',';
      }
    }
    desc += ')';
    spec.delays = std::make_shared<sim::MatrixDelay>(std::move(rows));
  } else {
    toml_fail(jv.doc.file, jv.find("delays", "kind")->line,
              "unknown delays kind \"" + kind +
                  "\" (expected constant, uniform-random or matrix)");
  }
}

void build_clocks(const JobView& jv, const sim::ModelParams& params, harness::RunSpec& spec,
                  std::string& desc) {
  if (!jv.has_section("clocks")) return;
  const TomlValue* drift = jv.find("clocks", "drift");
  const TomlValue* rates = jv.find("clocks", "rates");
  if (drift != nullptr && rates != nullptr) {
    toml_fail(jv.doc.file, rates->line, "clocks drift and rates are mutually exclusive");
  }
  if (drift != nullptr) {
    // Alternating +/- drift, the robustness-campaign shape.
    const double level = resolve_num(jv, *drift, "drift");
    spec.clock_rates.reserve(static_cast<std::size_t>(params.n));
    for (int p = 0; p < params.n; ++p) {
      spec.clock_rates.push_back(p % 2 == 0 ? 1.0 + level : 1.0 - level);
    }
    desc += "|drift=" + fmt_double(level);
  } else if (rates != nullptr) {
    spec.clock_rates = num_array(jv, *rates, "rates");
    if (spec.clock_rates.size() != static_cast<std::size_t>(params.n)) {
      toml_fail(jv.doc.file, rates->line, "rates must list one rate per process (n = " +
                                              std::to_string(params.n) + ")");
    }
    desc += "|rates=";
    for (const double r : spec.clock_rates) (desc += fmt_double(r)) += ',';
  }
  if (const TomlValue* offsets = jv.find("clocks", "offsets")) {
    spec.clock_offsets = num_array(jv, *offsets, "offsets");
    if (spec.clock_offsets.size() != static_cast<std::size_t>(params.n)) {
      toml_fail(jv.doc.file, offsets->line, "offsets must list one offset per process (n = " +
                                                std::to_string(params.n) + ")");
    }
    desc += "|offsets=";
    for (const double o : spec.clock_offsets) (desc += fmt_double(o)) += ',';
  }
}

void build_faults(const JobView& jv, const sim::ModelParams& params, harness::RunSpec& spec,
                  std::string& desc) {
  if (!jv.has_section("faults")) return;
  spec.drop_probability = get_num(jv, "faults", "drop", 0.0);
  spec.drop_seed = static_cast<std::uint64_t>(get_int(jv, "faults", "drop-seed", 0));
  if (spec.drop_probability != 0) {
    desc += "|drop=" + fmt_double(spec.drop_probability) + "|drop-seed=" +
            std::to_string(spec.drop_seed);
  }

  if (const TomlValue* crash = jv.find("faults", "crash")) {
    if (crash->kind != TomlValue::Kind::kArray) {
      toml_fail(jv.doc.file, crash->line, "crash must be an array of \"PROC@TIME\" strings");
    }
    desc += "|crash=";
    for (const auto& item : crash->items) {
      const std::string s = resolve_str(jv, item, "crash");
      spec.faults.crashes.push_back(parse_crash(jv, item, s));
      (desc += s) += ',';
    }
  }
  if (const TomlValue* links = jv.find("faults", "link-drop")) {
    if (links->kind != TomlValue::Kind::kArray) {
      toml_fail(jv.doc.file, links->line,
                "link-drop must be an array of \"SRC>DST@FROM..UNTIL\" strings");
    }
    desc += "|link-drop=";
    for (const auto& item : links->items) {
      const std::string s = resolve_str(jv, item, "link-drop");
      spec.faults.link_drops.push_back(parse_link(jv, item, s));
      (desc += s) += ',';
    }
  }

  const TomlValue* pa = jv.find("faults", "partition-a");
  const TomlValue* pb = jv.find("faults", "partition-b");
  if ((pa != nullptr) != (pb != nullptr)) {
    const TomlValue* present = pa != nullptr ? pa : pb;
    toml_fail(jv.doc.file, present->line, "partition-a and partition-b must both be present");
  }
  if (pa != nullptr) {
    const TomlValue& cut = require(jv, "faults", "partition-cut");
    const TomlValue& period = require(jv, "faults", "partition-period");
    const double start = get_num(jv, "faults", "partition-start", 0.0);
    const std::int64_t cycles = get_int(jv, "faults", "partition-cycles", 1);
    try {
      const auto windows = sim::partition_cycles(
          int_array(jv, *pa, "partition-a"), int_array(jv, *pb, "partition-b"), start,
          resolve_num(jv, cut, "partition-cut"), resolve_num(jv, period, "partition-period"),
          static_cast<int>(cycles));
      spec.faults.link_drops.insert(spec.faults.link_drops.end(), windows.begin(),
                                    windows.end());
    } catch (const std::exception& e) {
      toml_fail(jv.doc.file, pa->line, std::string("bad partition schedule: ") + e.what());
    }
    desc += "|partition=a" + std::to_string(pa->items.size()) + ":b" +
            std::to_string(pb->items.size()) + "@" + fmt_double(start) + "/" +
            fmt_double(resolve_num(jv, cut, "partition-cut")) + "/" +
            fmt_double(resolve_num(jv, period, "partition-period")) + "x" +
            std::to_string(cycles);
  } else {
    for (const char* key :
         {"partition-start", "partition-cut", "partition-period", "partition-cycles"}) {
      if (const TomlValue* v = jv.find("faults", key)) {
        toml_fail(jv.doc.file, v->line,
                  std::string("'") + key + "' requires partition-a and partition-b");
      }
    }
  }

  try {
    spec.faults.validate(params.n);
  } catch (const std::exception& e) {
    const TomlSection* sec = jv.doc.find("faults");
    toml_fail(jv.doc.file,
              sec != nullptr ? sec->line : (jv.sweep != nullptr ? jv.sweep->line : 0),
              std::string("bad fault schedule: ") + e.what());
  }
}

std::shared_ptr<const harness::WorkloadGen> build_workload(const JobView& jv,
                                                           std::string& desc) {
  const std::string kind = resolve_str(jv, require(jv, "workload", "kind"), "kind");
  std::shared_ptr<const harness::WorkloadGen> gen;
  if (kind == "random-scripts") {
    check_keys(jv, "workload", kind, {"ops-per-proc", "seed", "start", "gap"});
    gen = std::make_shared<harness::RandomScriptsGen>(
        static_cast<int>(resolve_int(jv, require(jv, "workload", "ops-per-proc"),
                                     "ops-per-proc")),
        static_cast<std::uint64_t>(resolve_int(jv, require(jv, "workload", "seed"), "seed")),
        get_num(jv, "workload", "start", 0.0), get_num(jv, "workload", "gap", 0.0));
  } else if (kind == "staggered-rounds") {
    check_keys(jv, "workload", kind, {"rounds", "seed", "stagger", "round-gap"});
    gen = std::make_shared<harness::StaggeredRoundsGen>(
        static_cast<int>(resolve_int(jv, require(jv, "workload", "rounds"), "rounds")),
        static_cast<std::uint64_t>(resolve_int(jv, require(jv, "workload", "seed"), "seed")),
        get_num(jv, "workload", "stagger", 0.25), get_num(jv, "workload", "round-gap", 40.0));
  } else if (kind == "sharded") {
    check_keys(jv, "workload", kind,
               {"ops-per-proc", "seed", "zipf-theta", "loop", "spacing", "think", "burst",
                "burst-gap"});
    harness::ShardedWorkloadGen::Options o;
    o.ops_per_proc = static_cast<int>(
        resolve_int(jv, require(jv, "workload", "ops-per-proc"), "ops-per-proc"));
    o.seed =
        static_cast<std::uint64_t>(resolve_int(jv, require(jv, "workload", "seed"), "seed"));
    o.zipf_theta = get_num(jv, "workload", "zipf-theta", 0.0);
    const std::string loop = get_str(jv, "workload", "loop", "open");
    if (loop != "open" && loop != "closed") {
      toml_fail(jv.doc.file, jv.find("workload", "loop")->line,
                "unknown loop \"" + loop + "\" (expected open or closed)");
    }
    o.closed_loop = loop == "closed";
    o.spacing = get_num(jv, "workload", "spacing", 20.0);
    o.think = get_num(jv, "workload", "think", 0.0);
    o.burst = static_cast<int>(get_int(jv, "workload", "burst", 0));
    o.burst_gap = get_num(jv, "workload", "burst-gap", 0.0);
    gen = std::make_shared<harness::ShardedWorkloadGen>(o);
  } else if (kind == "worst-latency") {
    check_keys(jv, "workload", kind, {"op", "arg", "rho"});
    const std::string op = resolve_str(jv, require(jv, "workload", "op"), "op");
    adt::Value arg = adt::Value::nil();
    if (const TomlValue* a = jv.find("workload", "arg")) arg = parse_arg(jv, *a);
    std::vector<harness::ScriptOp> rho;
    if (const TomlValue* r = jv.find("workload", "rho")) {
      if (r->kind != TomlValue::Kind::kArray) {
        toml_fail(jv.doc.file, r->line, "rho must be an array of \"op\" / \"op:INT\" strings");
      }
      for (const auto& item : r->items) rho.push_back(parse_script_op(jv, item));
    }
    gen = std::make_shared<harness::WorstLatencyGen>(op, std::move(arg), std::move(rho));
  } else if (kind == "none") {
    check_keys(jv, "workload", kind, {});
    desc += "|workload=none";
    return nullptr;
  } else {
    toml_fail(jv.doc.file, jv.find("workload", "kind")->line,
              "unknown workload kind \"" + kind +
                  "\" (expected random-scripts, staggered-rounds, sharded, worst-latency or "
                  "none)");
  }
  desc += "|workload=" + gen->describe();
  return gen;
}

/// Axes of one sweep, in declaration order, values canonicalized; CLI
/// overrides applied.
campaign::Grid sweep_grid(const TomlDoc& doc, const TomlSection& sweep,
                          const std::vector<AxisOverride>& overrides,
                          std::vector<bool>& override_used, bool& has_axes) {
  campaign::Grid grid;
  has_axes = false;
  for (const auto& [key, value] : sweep.entries) {
    if (key.rfind("axis.", 0) != 0) continue;
    has_axes = true;
    const std::string name = key.substr(5);

    std::vector<std::string> values;
    bool overridden = false;
    for (std::size_t i = 0; i < overrides.size(); ++i) {
      if (overrides[i].axis != name) continue;
      override_used[i] = true;
      overridden = true;
      for (const std::string& raw : overrides[i].values) values.push_back(canonical_raw(raw));
    }
    if (!overridden) {
      if (value.kind == TomlValue::Kind::kArray) {
        for (const auto& item : value.items) values.push_back(canonical_scalar(doc, item));
      } else if (value.kind == TomlValue::Kind::kString &&
                 value.str.find("..") != std::string::npos) {
        const std::size_t dots = value.str.find("..");
        std::int64_t lo = 0;
        std::int64_t hi = 0;
        if (!parse_full_int(value.str.substr(0, dots), lo) ||
            !parse_full_int(value.str.substr(dots + 2), hi) || hi < lo) {
          toml_fail(doc.file, value.line, "bad range '" + value.str + "' (expected LO..HI)");
        }
        for (std::int64_t v = lo; v <= hi; ++v) values.push_back(std::to_string(v));
      } else {
        values.push_back(canonical_scalar(doc, value));
      }
    }
    if (values.empty()) toml_fail(doc.file, value.line, "axis '" + name + "' has no values");
    grid.axis(name, std::move(values));
  }
  return grid;
}

}  // namespace

std::unique_ptr<adt::DataType> make_data_type(const std::string& name) {
  if (name == "queue") return std::make_unique<adt::QueueType>();
  if (name == "stack") return std::make_unique<adt::StackType>();
  if (name == "register") return std::make_unique<adt::RegisterType>();
  if (name == "rmw_register") return std::make_unique<adt::RmwRegisterType>();
  if (name == "max_register") return std::make_unique<adt::MaxRegisterType>();
  if (name == "set") return std::make_unique<adt::SetType>();
  if (name == "counter") return std::make_unique<adt::CounterType>();
  if (name == "pqueue") return std::make_unique<adt::PriorityQueueType>();
  if (name == "deque") return std::make_unique<adt::DequeType>();
  if (name == "pool") return std::make_unique<adt::PoolType>();
  if (name == "tree") return std::make_unique<adt::TreeType>();
  throw std::runtime_error("scenario: unknown data type \"" + name + "\"");
}

ScenarioCampaign expand(const Scenario& sc, const std::vector<AxisOverride>& overrides) {
  ScenarioCampaign out;
  out.spec.name = sc.name;
  out.base_type = make_data_type(sc.type_name);

  const TomlDoc& doc = sc.doc;
  {
    JobView top{doc, nullptr, {}};
    out.bench_ops = get_bool(top, "scenario", "bench-ops", false);
  }

  // Sweeps in file order; a scenario with no [grid]/[sweep.*] is one job.
  std::vector<const TomlSection*> sweeps;
  for (const TomlSection& sec : doc.sections) {
    if (sec.name == "grid" || sec.name.rfind("sweep.", 0) == 0) sweeps.push_back(&sec);
  }
  if (sweeps.empty()) sweeps.push_back(nullptr);

  std::vector<bool> override_used(overrides.size(), false);
  std::map<std::string, const core::ShardedStore*> store_cache;
  std::size_t index = 0;

  for (const TomlSection* sweep : sweeps) {
    std::vector<campaign::GridPoint> points;
    if (sweep != nullptr) {
      bool has_axes = false;
      campaign::Grid grid = sweep_grid(doc, *sweep, overrides, override_used, has_axes);
      if (has_axes) {
        points = grid.points();
      } else {
        points.emplace_back(std::vector<std::pair<std::string, std::string>>{});
      }
    } else {
      points.emplace_back(std::vector<std::pair<std::string, std::string>>{});
    }

    for (const auto& point : points) {
      JobView jv{doc, sweep, {}};
      for (const auto& [axis, value] : point.coords()) jv.env[axis] = value;
      jv.env["index"] = std::to_string(index);

      campaign::Job job;
      std::string desc;

      // Name: the sweep's template, or the grid-point label (the historical
      // Job naming), or the scenario name for single-job scenarios.
      const TomlValue* name_tmpl = sweep != nullptr ? sweep->find("name") : nullptr;
      if (name_tmpl != nullptr) {
        job.name = substitute(jv, *name_tmpl);
      } else {
        job.name = point.coords().empty() ? sc.name : point.label();
      }

      // Tags: explicit tag.* templates in declaration order, else the grid
      // coordinates.
      bool tagged = false;
      if (sweep != nullptr) {
        for (const auto& [key, value] : sweep->entries) {
          if (key.rfind("tag.", 0) != 0) continue;
          tagged = true;
          if (value.kind != TomlValue::Kind::kString) {
            toml_fail(doc.file, value.line,
                      std::string("tag values must be strings, got ") + value.kind_name());
          }
          job.tags.emplace_back(key.substr(4), substitute(jv, value));
        }
      }
      if (!tagged) job.tags = point.coords();

      desc += "name=" + job.name + "|tags=";
      for (const auto& [k, v] : job.tags) desc += k + "=" + v + ",";

      job.spec.params = build_model(jv, desc);
      build_run(jv, job.spec.params, job.spec, desc);
      build_delays(jv, job.spec.params, job.spec, desc);
      build_clocks(jv, job.spec.params, job.spec, desc);
      build_faults(jv, job.spec.params, job.spec, desc);
      job.spec.workload = build_workload(jv, desc);

      // Data type: the base type, or a ShardedStore over it ([store]),
      // cached by (keys, shards) so sibling jobs share one keyspace.
      if (jv.has_section("store")) {
        const auto keys = resolve_int(jv, require(jv, "store", "keys"), "keys");
        const auto shards = resolve_int(jv, require(jv, "store", "shards"), "shards");
        if (keys < 1 || shards < 1) {
          const TomlSection* sec = doc.find("store");
          toml_fail(doc.file, sec != nullptr ? sec->line : 0,
                    "store keys and shards must be >= 1");
        }
        const std::string cache_key = std::to_string(keys) + "/" + std::to_string(shards);
        auto it = store_cache.find(cache_key);
        if (it == store_cache.end()) {
          out.stores.push_back(std::make_unique<core::ShardedStore>(
              *out.base_type, keys, static_cast<int>(shards)));
          it = store_cache.emplace(cache_key, out.stores.back().get()).first;
        }
        job.type = it->second;
        desc += "|store=" + cache_key;
      } else {
        if (job.spec.algo == harness::AlgoKind::kShardedServing) {
          toml_fail(doc.file, doc.find("run") != nullptr ? doc.find("run")->line : 0,
                    "algo sharded-serving requires a [store] section");
        }
        job.type = out.base_type.get();
      }
      desc += "|type=" + job.type->name();

      job.check_linearizability = get_bool(jv, "scenario", "check", false);
      desc += job.check_linearizability ? "|check" : "|nocheck";

      out.job_descriptions.push_back(std::move(desc));
      out.spec.jobs.push_back(std::move(job));
      ++index;
    }
  }

  for (std::size_t i = 0; i < overrides.size(); ++i) {
    if (!override_used[i]) {
      throw std::runtime_error("scenario: axis override '" + overrides[i].axis +
                               "' matches no axis of " + doc.file);
    }
  }
  return out;
}

std::string campaign_digest(const ScenarioCampaign& c) {
  adt::FpHasher h;
  h.mix_bytes(c.spec.name);
  h.mix(c.job_descriptions.size());
  for (const std::string& d : c.job_descriptions) h.mix_bytes(d);
  const adt::Fingerprint fp = h.finish();
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx", static_cast<unsigned long long>(fp.hi),
                static_cast<unsigned long long>(fp.lo));
  return buf;
}

}  // namespace lintime::scenario
