#include "campaign/executor.hpp"

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "lin/check.hpp"

namespace lintime::campaign {

namespace {

/// Pre-flight validation: every failure mode here would otherwise surface as
/// a confusing per-job error or, worse, order-dependent output.
void validate(const CampaignSpec& spec) {
  std::set<std::string> names;
  // Pointer-keyed, but lookup-only (never iterated): which error fires, and
  // which jobs it names, is decided by job order — not by where the models
  // happen to be allocated.
  std::unordered_map<const sim::DelayModel*, std::size_t> first_delay_use;
  for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
    const Job& job = spec.jobs[i];
    if (job.type == nullptr) {
      throw std::invalid_argument("campaign '" + spec.name + "': job #" + std::to_string(i) +
                                  " ('" + job.name + "') has no data type");
    }
    if (!names.insert(job.name).second) {
      throw std::invalid_argument("campaign '" + spec.name + "': duplicate job name '" +
                                  job.name + "'");
    }
    if (job.spec.delays == nullptr) continue;
    const auto [it, inserted] = first_delay_use.try_emplace(job.spec.delays.get(), i);
    if (!inserted && !job.spec.delays->is_stateless()) {
      throw std::invalid_argument(
          "campaign '" + spec.name + "': jobs #" + std::to_string(it->second) + " ('" +
          spec.jobs[it->second].name + "') and #" + std::to_string(i) + " ('" + job.name +
          "') share a stateful DelayModel instance; results would depend on execution "
          "order.  Give each job its own instance (or use a stateless model).");
    }
  }
}

JobResult run_one(const Job& job, std::size_t index, bool keep_record) {
  JobResult result;
  result.index = index;
  result.name = job.name;
  result.tags = job.tags;
  try {
    result.run = harness::execute(*job.type, job.spec);
    result.metrics = reduce_record(result.run.record);
    if (job.check_linearizability) {
      const auto check = lin::check(*job.type, result.run.record);
      result.metrics.verdict = check.result.linearizable ? JobMetrics::Verdict::kLinearizable
                                                         : JobMetrics::Verdict::kViolation;
      result.metrics.check_nodes_expanded = check.stats.nodes_expanded;
      result.metrics.check_route = lin::to_string(check.stats.route);
      result.metrics.check_memo_hits = check.stats.memo_hits;
      result.metrics.check_memo_collisions = check.stats.memo_collisions;
    }
    result.ok = true;
    if (!keep_record) result.run.record = sim::RunRecord{};
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
    result.run = harness::RunResult{};
    result.metrics = JobMetrics{};
  }
  return result;
}

}  // namespace

int resolve_jobs(int requested, std::size_t job_count) {
  int jobs = requested;
  if (jobs <= 0) jobs = static_cast<int>(std::thread::hardware_concurrency());
  if (jobs <= 0) jobs = 1;
  if (job_count < static_cast<std::size_t>(jobs)) jobs = static_cast<int>(job_count);
  return jobs < 1 ? 1 : jobs;
}

// detlint:capability(threads): the executor is the one sanctioned parallelism
// site — workers pull jobs from an atomic counter and write results into
// disjoint index-keyed slots, so campaign output is byte-identical at any
// --jobs (DESIGN.md, "Determinism contract").
CampaignResult run_campaign(const CampaignSpec& spec, const ExecutorOptions& options) {
  validate(spec);

  CampaignResult result;
  result.name = spec.name;
  result.jobs.resize(spec.jobs.size());
  if (spec.jobs.empty()) return result;

  const int workers = resolve_jobs(options.jobs, spec.jobs.size());

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex progress_mutex;

  auto worker = [&]() {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= spec.jobs.size()) return;
      // Disjoint slots: no lock needed for the write itself.
      result.jobs[i] = run_one(spec.jobs[i], i, options.keep_records);
      const std::size_t completed = done.fetch_add(1) + 1;
      if (options.on_progress) {
        const std::lock_guard<std::mutex> lock(progress_mutex);
        options.on_progress(completed, spec.jobs.size());
      }
    }
  };

  if (workers == 1) {
    worker();  // inline: no thread overhead, and trivially deterministic
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  return result;
}

CampaignMetrics CampaignResult::aggregate() const {
  CampaignMetrics out;
  out.jobs_total = jobs.size();
  std::map<std::string, std::vector<double>> pooled;
  for (const JobResult& job : jobs) {
    if (!job.ok) {
      ++out.jobs_failed;
      continue;
    }
    if (job.metrics.verdict != JobMetrics::Verdict::kNotChecked) {
      ++out.jobs_checked;
      if (job.metrics.verdict == JobMetrics::Verdict::kLinearizable) ++out.jobs_linearizable;
      if (job.metrics.check_route == "fast_path") {
        ++out.jobs_fast_path;
      } else {
        ++out.jobs_fallback;
      }
    }
    out.ops_complete += job.metrics.ops_complete;
    out.messages_sent += job.metrics.messages_sent;
    out.messages_dropped += job.metrics.messages_dropped;
    for (const auto& [op, metrics] : job.metrics.ops) {
      auto& dst = pooled[op];
      dst.insert(dst.end(), metrics.samples.begin(), metrics.samples.end());
    }
  }
  for (auto& [op, samples] : pooled) {
    out.ops[op] = harness::reduce_samples(std::move(samples));
  }
  return out;
}

}  // namespace lintime::campaign
