#pragma once
// Metrics: reductions from recorded runs to the numbers the paper's tables
// and our BENCH_* artifacts report -- per-operation latency distributions
// (harness::latency_by_op, the one latency reduction), message-traffic
// counters and linearizability verdicts -- computable per job and poolable
// across a whole campaign.  Everything here is pure arithmetic on
// RunRecords, so metrics are as deterministic as the runs they summarize.

#include <cstddef>
#include <map>
#include <string>

#include "harness/runner.hpp"
#include "sim/run_record.hpp"

namespace lintime::campaign {

/// Kept only because perfbench/ names it campaign::percentile.
using harness::percentile;

/// What one job's run boiled down to.
struct JobMetrics {
  std::map<std::string, harness::OpMetrics> ops;  ///< harness::latency_by_op of the record

  std::size_t ops_invoked = 0;
  std::size_t ops_complete = 0;
  std::size_t steps = 0;
  std::size_t messages_sent = 0;      ///< including dropped
  std::size_t messages_dropped = 0;   ///< sent but never delivered
  sim::Time quiescence_time = 0;      ///< last step's real time

  /// Linearizability verdict: unset if the job did not request a check.
  enum class Verdict { kNotChecked, kLinearizable, kViolation };
  Verdict verdict = Verdict::kNotChecked;
  std::size_t check_nodes_expanded = 0;  ///< checker search effort
  /// How the verdict was produced: "fast_path" or "general" (empty when not
  /// checked), plus the general search's memo statistics (zero on the fast
  /// path, where no search runs).
  std::string check_route;
  std::size_t check_memo_hits = 0;
  std::size_t check_memo_collisions = 0;
};

[[nodiscard]] constexpr const char* to_string(JobMetrics::Verdict v) {
  switch (v) {
    case JobMetrics::Verdict::kNotChecked: return "not-checked";
    case JobMetrics::Verdict::kLinearizable: return "linearizable";
    case JobMetrics::Verdict::kViolation: return "violation";
  }
  return "?";
}

/// Reduces one record: harness::latency_by_op plus the op counts and the
/// traffic fields (verdict fields are left at kNotChecked; the executor fills
/// them in when the job asked for a check).
[[nodiscard]] JobMetrics reduce_record(const sim::RunRecord& record);

/// Campaign-level rollup: latency samples pooled across jobs per operation
/// name, plus verdict/failure counters.
struct CampaignMetrics {
  std::map<std::string, harness::OpMetrics> ops;  ///< pooled over all succeeded jobs
  std::size_t jobs_total = 0;
  std::size_t jobs_failed = 0;       ///< job raised instead of completing
  std::size_t jobs_checked = 0;      ///< ran the linearizability checker
  std::size_t jobs_linearizable = 0;
  std::size_t jobs_fast_path = 0;    ///< verdicts from the log-linear monitors
  std::size_t jobs_fallback = 0;     ///< verdicts from the general search
  std::size_t ops_complete = 0;      ///< total completed ops across jobs
  std::size_t messages_sent = 0;
  std::size_t messages_dropped = 0;
};

}  // namespace lintime::campaign
