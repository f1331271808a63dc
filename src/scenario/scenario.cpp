#include "scenario/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

namespace lintime::scenario {

namespace {

struct SectionSchema {
  const char* name;
  std::vector<const char*> keys;
};

/// Every base section and every key it may contain.  A key listed here may
/// still be rejected by expand() when it does not apply to the resolved
/// delays/workload kind -- strictness cuts both ways.
const std::vector<SectionSchema>& schema() {
  static const std::vector<SectionSchema> kSchema = {
      {"scenario", {"name", "type", "check", "bench-ops"}},
      {"model", {"n", "d", "u", "eps"}},
      {"store", {"keys", "shards"}},
      {"run", {"algo", "record", "max-events", "x-frac", "x-abs"}},
      {"delays", {"kind", "value", "lo", "hi", "seed", "matrix"}},
      {"clocks", {"drift", "rates", "offsets"}},
      {"faults",
       {"drop", "drop-seed", "crash", "link-drop", "partition-a", "partition-b",
        "partition-start", "partition-cut", "partition-period", "partition-cycles"}},
      {"workload",
       {"kind", "ops-per-proc", "seed", "start", "gap", "rounds", "stagger", "round-gap",
        "zipf-theta", "loop", "spacing", "think", "burst", "burst-gap", "op", "arg", "rho"}},
  };
  return kSchema;
}

const SectionSchema* find_schema(const std::string& name) {
  for (const auto& s : schema()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

bool valid_ident(const std::string& s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '-' && c != '_') return false;
  }
  return true;
}

void check_sweep_key(const TomlDoc& doc, const TomlSection& sec, const std::string& key,
                     int line, bool allow_set) {
  if (key == "name") return;
  if (key.rfind("axis.", 0) == 0 || key.rfind("tag.", 0) == 0) {
    const std::string suffix = key.substr(key.find('.') + 1);
    if (!valid_ident(suffix)) {
      toml_fail(doc.file, line, "malformed key '" + key + "' in [" + sec.name + "]");
    }
    if (key.rfind("axis.", 0) == 0 && suffix == "index") {
      toml_fail(doc.file, line, "axis name 'index' is reserved (the built-in $index)");
    }
    return;
  }
  if (key.rfind("set.", 0) == 0) {
    if (!allow_set) {
      toml_fail(doc.file, line,
                "'" + key + "': set.* overrides are only allowed in [sweep.*] sections "
                "(put the key directly in its section instead)");
    }
    const std::string rest = key.substr(4);
    const std::size_t dot = rest.find('.');
    if (dot == std::string::npos || dot == 0 || dot + 1 >= rest.size()) {
      toml_fail(doc.file, line, "malformed override '" + key + "' (expected set.<section>.<key>)");
    }
    const std::string target_sec = rest.substr(0, dot);
    const std::string target_key = rest.substr(dot + 1);
    const SectionSchema* s = find_schema(target_sec);
    if (s == nullptr || target_sec == "scenario") {
      toml_fail(doc.file, line, "override '" + key + "' targets unknown section [" +
                                    target_sec + "]");
    }
    if (std::find_if(s->keys.begin(), s->keys.end(), [&](const char* k) {
          return target_key == k;
        }) == s->keys.end()) {
      toml_fail(doc.file, line, "override '" + key + "' targets unknown key '" + target_key +
                                    "' in section [" + target_sec + "]");
    }
    return;
  }
  toml_fail(doc.file, line, "unknown key '" + key + "' in section [" + sec.name + "]" +
                                " (expected name, axis.*, tag.*" +
                                (allow_set ? ", or set.<section>.<key>)" : ")"));
}

void validate(const TomlDoc& doc) {
  bool saw_grid = false;
  bool saw_sweep = false;

  for (const TomlSection& sec : doc.sections) {
    if (sec.name == "grid" || sec.name.rfind("sweep.", 0) == 0) {
      const bool is_sweep = sec.name != "grid";
      if (is_sweep) {
        saw_sweep = true;
        if (!valid_ident(sec.name.substr(6))) {
          toml_fail(doc.file, sec.line, "malformed sweep name [" + sec.name + "]");
        }
      } else {
        saw_grid = true;
      }
      for (const auto& [key, value] : sec.entries) {
        check_sweep_key(doc, sec, key, value.line, is_sweep);
      }
      continue;
    }
    const SectionSchema* s = find_schema(sec.name);
    if (s == nullptr) {
      std::string known;
      for (const auto& k : schema()) {
        known += "[";
        known += k.name;
        known += "], ";
      }
      known += "[grid], [sweep.*]";
      toml_fail(doc.file, sec.line, "unknown section [" + sec.name + "] (expected " + known + ")");
    }
    for (const auto& [key, value] : sec.entries) {
      if (std::find_if(s->keys.begin(), s->keys.end(),
                       [&](const char* k) { return key == k; }) == s->keys.end()) {
        std::string known;
        for (const char* k : s->keys) {
          if (!known.empty()) known += ", ";
          known += k;
        }
        toml_fail(doc.file, value.line, "unknown key '" + key + "' in section [" + sec.name +
                                            "] (expected one of: " + known + ")");
      }
    }
  }

  if (saw_grid && saw_sweep) {
    toml_fail(doc.file, doc.find("grid")->line,
              "[grid] and [sweep.*] sections cannot be mixed (use sweeps only)");
  }
}

const TomlValue& require_string(const TomlDoc& doc, const char* section, const char* key) {
  const TomlSection* sec = doc.find(section);
  if (sec == nullptr) {
    toml_fail(doc.file, 0, "missing required section [" + std::string(section) + "]");
  }
  const TomlValue* v = sec->find(key);
  if (v == nullptr) {
    toml_fail(doc.file, sec->line,
              "section [" + std::string(section) + "] is missing required key '" + key + "'");
  }
  if (v->kind != TomlValue::Kind::kString) {
    toml_fail(doc.file, v->line, std::string("key '") + key + "' must be a string, got " +
                                     v->kind_name());
  }
  return *v;
}

Scenario finish(TomlDoc doc) {
  Scenario s;
  s.doc = std::move(doc);
  validate(s.doc);
  s.name = require_string(s.doc, "scenario", "name").str;
  s.type_name = require_string(s.doc, "scenario", "type").str;
  if (s.doc.find("model") == nullptr) {
    toml_fail(s.doc.file, 0, "missing required section [model]");
  }
  if (s.doc.find("workload") == nullptr) {
    toml_fail(s.doc.file, 0, "missing required section [workload]");
  }
  return s;
}

}  // namespace

Scenario parse_scenario(const std::string& text, std::string file) {
  return finish(parse_toml(text, std::move(file)));
}

Scenario load_scenario_file(const std::string& path) {
  return finish(parse_toml_file(path));
}

}  // namespace lintime::scenario
