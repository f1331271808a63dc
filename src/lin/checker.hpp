#pragma once
// Linearizability checker (the correctness condition of Section 2.3 made
// executable).  Given the operation instances of a complete run -- each with
// its real-time invocation/response interval -- decide whether a permutation
// pi exists that (i) is a legal sequence of the data type and (ii) respects
// the real-time order of non-overlapping instances.
//
// The search is Wing-Gong style DFS over "minimal" candidates (operations
// none of whose strict predecessors are still unplaced).  It probes each
// candidate on one live object state and undoes the probe on backtrack from
// a trail (ObjectState::apply_trailed / undo), so a probe copies nothing for
// the queue, stack and register.  Dead nodes are memoized on (placed set,
// 128-bit state fingerprint): two search nodes with the same placed set and
// equivalent state have identical sub-futures, so each pair is explored
// once.  The memo keeps a clone of the first dead state per key and
// compares canonical() forms only when a key matches, so a fingerprint
// collision costs re-exploration, never a wrong verdict.  The same search
// (lin/search_detail.hpp) serves the sequential-consistency and
// non-deterministic checkers.

#include <string>
#include <vector>

#include "adt/data_type.hpp"
#include "sim/run_record.hpp"

namespace lintime::lin {

struct CheckResult {
  bool linearizable = false;
  /// A witness linearization (sequence of indices into the input vector) if
  /// linearizable.
  std::vector<std::size_t> witness;
  /// Search-effort statistic: DFS nodes expanded.
  std::size_t nodes_expanded = 0;
  /// Memo-table statistics: lookups that pruned a subtree, and fingerprint
  /// collisions (key matched, canonical state differed).  Zero when the memo
  /// is disabled.
  std::size_t memo_hits = 0;
  std::size_t memo_collisions = 0;

  /// Human-readable rendering of the witness against the given ops.
  [[nodiscard]] std::string witness_to_string(const std::vector<sim::OpRecord>& ops) const;
};

/// Checker knobs (mostly for ablation benchmarks).
struct CheckOptions {
  bool memoize = true;  ///< (placed-set, state) memo table; disabling it
                        ///< exposes the raw factorial search (bench/ablations)
};

/// Checks the history `ops` (all must be complete: response_real set) against
/// `type`.  Throws std::invalid_argument on incomplete records.
[[nodiscard]] CheckResult check_linearizability(const adt::DataType& type,
                                                const std::vector<sim::OpRecord>& ops,
                                                const CheckOptions& options = {});

/// Convenience: checks an entire recorded run.
[[nodiscard]] CheckResult check_linearizability(const adt::DataType& type,
                                                const sim::RunRecord& record);

}  // namespace lintime::lin
