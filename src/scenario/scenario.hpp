#pragma once
// Scenario schema: which sections and keys a scenario file may contain.
// parse_scenario() runs the strict structural pass -- unknown sections,
// unknown keys, malformed axis/tag/set keys, missing required sections --
// all hard errors with file:line.  Value semantics (enum values, axis
// references, numeric ranges) are checked by expand() with the same error
// format, so every way a scenario can be wrong names the offending line.
//
// Grammar summary (full reference: DESIGN.md, "Scenario grammar"):
//
//   [scenario]  name, type, check, bench-ops
//   [model]     n, d, u, eps ("optimal" or a number)
//   [store]     keys, shards        # wraps `type` in a core::ShardedStore
//   [run]       algo, record, max-events, x-frac, x-abs
//   [delays]    kind ("constant" | "uniform-random" | "matrix"), value,
//               lo, hi, seed, matrix
//   [clocks]    drift, rates, offsets
//   [faults]    drop, drop-seed, crash, link-drop,
//               partition-a, partition-b, partition-start, partition-cut,
//               partition-period, partition-cycles
//   [workload]  kind ("random-scripts" | "staggered-rounds" | "sharded" |
//               "worst-latency" | "none") + kind-specific keys
//   [grid]      name, axis.<a>, tag.<t>      # single anonymous sweep
//   [sweep.<s>] name, axis.<a>, tag.<t>, set.<section>.<key>
//
// Scalar values may reference an axis of the enclosing sweep: "$axis",
// "$axis*K", "$axis/K" (K a positive integer literal; * and / require an
// integer-valued axis).  Job-name and tag templates substitute every
// embedded "$axis", plus the built-in "$index" (global job index).

#include <string>

#include "scenario/toml.hpp"

namespace lintime::scenario {

/// A structurally validated scenario: the document plus the two identifiers
/// every consumer needs before expansion.
struct Scenario {
  TomlDoc doc;
  std::string name;       ///< [scenario] name
  std::string type_name;  ///< [scenario] type (registry name, e.g. "queue")
};

/// Parses and structurally validates; throws std::runtime_error
/// ("file:line: message") on any violation.
[[nodiscard]] Scenario parse_scenario(const std::string& text, std::string file);

/// Reads `path`, then parse_scenario().
[[nodiscard]] Scenario load_scenario_file(const std::string& path);

}  // namespace lintime::scenario
