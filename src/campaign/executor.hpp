#pragma once
// Parallel campaign execution.  Jobs are independent Worlds, so the executor
// is an embarrassingly-parallel work queue: a fixed pool of std::threads
// claims job indices from an atomic counter and writes each JobResult into
// its pre-allocated slot.  Output is keyed by job index, never by completion
// order, so a campaign's results -- and every byte any sink emits from them
// -- are identical at --jobs 1 and --jobs N.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/metrics.hpp"
#include "harness/runner.hpp"

namespace lintime::campaign {

/// Outcome of one job.
struct JobResult {
  std::size_t index = 0;  ///< position in CampaignSpec::jobs
  std::string name;
  Tags tags;

  bool ok = false;     ///< run completed (and, if requested, was checked)
  std::string error;   ///< exception text when !ok

  harness::RunResult run;  ///< record + final states (empty when !ok)
  /// Reduced metrics, incl. verdict if checked.  Its per-op samples outlive
  /// a dropped record, so campaign-level percentiles pool exact samples.
  JobMetrics metrics;
};

struct CampaignResult {
  std::string name;
  std::vector<JobResult> jobs;  ///< same order and size as the spec's jobs

  /// Pooled rollup across jobs (latency samples, verdicts, traffic).
  [[nodiscard]] CampaignMetrics aggregate() const;
};

struct ExecutorOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency() (at least 1).
  /// The job count caps the pool size.
  int jobs = 0;

  /// Keep each job's full RunRecord in its JobResult.  Off by default:
  /// large campaigns only need metrics, and records dominate memory.
  bool keep_records = false;

  /// Progress callback, invoked after each job finishes (in completion
  /// order, serialized by an internal mutex): (completed count, total).
  std::function<void(std::size_t, std::size_t)> on_progress;
};

/// Runs every job.  A job that throws is captured in its JobResult (ok =
/// false, error = what()); the campaign itself only throws on spec errors
/// detected before any job starts: a null Job::type, duplicate job names,
/// or a stateful DelayModel instance shared between two jobs (which would
/// make results depend on execution order -- see DelayModel::is_stateless).
[[nodiscard]] CampaignResult run_campaign(const CampaignSpec& spec,
                                          const ExecutorOptions& options = {});

/// The worker-count default: hardware_concurrency clamped to [1, job_count].
[[nodiscard]] int resolve_jobs(int requested, std::size_t job_count);

}  // namespace lintime::campaign
