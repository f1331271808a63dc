// Tests for the campaign executor and sinks.  The load-bearing property is
// the determinism contract: results are keyed by job index, so every byte a
// sink emits is identical no matter how many worker threads ran the jobs.

#include "campaign/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "adt/queue_type.hpp"
#include "adt/register_type.hpp"
#include "campaign/grid.hpp"
#include "campaign/sink.hpp"
#include "sim/delay_model.hpp"

namespace lintime::campaign {
namespace {

using adt::Value;

/// A small but non-trivial campaign: a grid over X-fraction and seed, with
/// random workloads, seeded random delays and one message-dropping job.
CampaignSpec small_campaign(const adt::DataType& type) {
  sim::ModelParams params{3, 10.0, 2.0, 0.0};
  params.eps = params.optimal_eps();

  Grid grid;
  grid.axis("xfrac", std::vector<double>{0.0, 0.5, 1.0});
  grid.range("seed", 1, 3);

  CampaignSpec spec;
  spec.name = "test-campaign";
  for (const auto& pt : grid.points()) {
    Job job;
    job.name = pt.label();
    job.tags = pt.coords();
    job.type = &type;
    job.check_linearizability = true;
    job.spec.params = params;
    job.spec.X = (params.d - params.eps) * pt.num("xfrac");
    const auto seed = static_cast<std::uint64_t>(pt.integer("seed"));
    job.spec.scripts = harness::random_scripts(type, params.n, 3, seed * 17);
    job.spec.delays =
        std::make_shared<sim::UniformRandomDelay>(params.min_delay(), params.d, seed);
    spec.jobs.push_back(std::move(job));
  }
  // One lossy job exercising the drop-seed path through the executor.
  Job lossy;
  lossy.name = "lossy";
  lossy.type = &type;
  lossy.spec.params = params;
  lossy.spec.scripts = harness::random_scripts(type, params.n, 3, 5);
  lossy.spec.drop_probability = 0.2;
  lossy.spec.drop_seed = 42;
  spec.jobs.push_back(std::move(lossy));
  return spec;
}

TEST(ExecutorTest, RunsAllJobsInSpecOrder) {
  adt::QueueType queue;
  const auto spec = small_campaign(queue);
  const auto result = run_campaign(spec);
  ASSERT_EQ(result.jobs.size(), spec.jobs.size());
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    EXPECT_EQ(result.jobs[i].index, i);
    EXPECT_EQ(result.jobs[i].name, spec.jobs[i].name);
    EXPECT_TRUE(result.jobs[i].ok) << result.jobs[i].error;
    EXPECT_GT(result.jobs[i].metrics.ops_complete, 0u);
    EXPECT_FALSE(result.jobs[i].metrics.ops.empty());
  }
  const auto agg = result.aggregate();
  EXPECT_EQ(agg.jobs_total, spec.jobs.size());
  EXPECT_EQ(agg.jobs_failed, 0u);
  EXPECT_EQ(agg.jobs_checked, spec.jobs.size() - 1);  // "lossy" is unchecked
  EXPECT_GT(agg.messages_sent, 0u);
}

TEST(ExecutorTest, SinkOutputByteIdenticalAcrossThreadCounts) {
  // Each run gets a freshly built (but identical) spec: the per-job seeded
  // delay models are stateful, so reusing one spec object would carry RNG
  // state from the first execution into the second.
  adt::QueueType queue;

  ExecutorOptions serial;
  serial.jobs = 1;
  const auto a = run_campaign(small_campaign(queue), serial);

  ExecutorOptions parallel;
  parallel.jobs = 4;
  const auto b = run_campaign(small_campaign(queue), parallel);

  EXPECT_EQ(to_json(a), to_json(b));
  EXPECT_EQ(to_csv(a), to_csv(b));
}

TEST(ExecutorTest, RecordsKeptOnlyOnRequest) {
  adt::QueueType queue;
  auto spec = small_campaign(queue);
  spec.jobs.resize(2);

  const auto dropped = run_campaign(spec);
  EXPECT_TRUE(dropped.jobs[0].run.record.ops.empty());
  // The per-op samples survive the drop.
  ASSERT_FALSE(dropped.jobs[0].metrics.ops.empty());
  EXPECT_FALSE(dropped.jobs[0].metrics.ops.begin()->second.samples.empty());

  ExecutorOptions keep;
  keep.keep_records = true;
  const auto kept = run_campaign(spec, keep);
  EXPECT_FALSE(kept.jobs[0].run.record.ops.empty());
}

TEST(ExecutorTest, JobExceptionCapturedNotPropagated) {
  adt::QueueType queue;
  CampaignSpec spec;
  spec.name = "failing";
  Job bad;
  bad.name = "unknown-op";
  bad.type = &queue;
  bad.spec.params = sim::ModelParams{2, 10.0, 2.0, 1.0};
  bad.spec.scripts = {{harness::ScriptOp{"frobnicate", Value::nil()}}, {}};
  spec.jobs.push_back(std::move(bad));

  const auto result = run_campaign(spec);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_FALSE(result.jobs[0].ok);
  EXPECT_FALSE(result.jobs[0].error.empty());
  EXPECT_EQ(result.aggregate().jobs_failed, 1u);

  // The failure still round-trips through the sinks.
  EXPECT_NE(to_json(result).find("\"ok\":false"), std::string::npos);
}

TEST(ExecutorTest, SpecErrorsThrowBeforeAnyJobRuns) {
  adt::QueueType queue;
  const sim::ModelParams params{2, 10.0, 2.0, 1.0};

  CampaignSpec null_type;
  null_type.jobs.emplace_back();
  null_type.jobs[0].name = "j";
  EXPECT_THROW((void)run_campaign(null_type), std::invalid_argument);

  CampaignSpec dup;
  for (int i = 0; i < 2; ++i) {
    Job j;
    j.name = "same";
    j.type = &queue;
    j.spec.params = params;
    dup.jobs.push_back(std::move(j));
  }
  EXPECT_THROW((void)run_campaign(dup), std::invalid_argument);
}

TEST(ExecutorTest, SharedStatefulDelayModelRejected) {
  adt::QueueType queue;
  const sim::ModelParams params{2, 10.0, 2.0, 1.0};
  auto make_spec = [&](std::shared_ptr<sim::DelayModel> shared) {
    CampaignSpec spec;
    for (int i = 0; i < 2; ++i) {
      Job j;
      j.name = "job" + std::to_string(i);
      j.type = &queue;
      j.spec.params = params;
      j.spec.scripts = {{harness::ScriptOp{"enqueue", Value{i}}}, {}};
      j.spec.delays = shared;
      spec.jobs.push_back(std::move(j));
    }
    return spec;
  };

  // A stateful model shared by two jobs would make results depend on the
  // order worker threads consume randomness: reject up front.
  const auto rng = std::make_shared<sim::UniformRandomDelay>(8.0, 10.0, 1);
  EXPECT_THROW((void)run_campaign(make_spec(rng)), std::invalid_argument);

  // Stateless models are safe to share; per-job stateful models are fine.
  const auto constant = std::make_shared<sim::ConstantDelay>(9.0);
  EXPECT_NO_THROW((void)run_campaign(make_spec(constant)));
  auto per_job = make_spec(nullptr);
  per_job.jobs[0].spec.delays = std::make_shared<sim::UniformRandomDelay>(8.0, 10.0, 1);
  per_job.jobs[1].spec.delays = std::make_shared<sim::UniformRandomDelay>(8.0, 10.0, 2);
  EXPECT_NO_THROW((void)run_campaign(per_job));
}

TEST(ExecutorTest, ProgressCallbackSeesEveryJob) {
  adt::RegisterType reg;
  CampaignSpec spec;
  for (int i = 0; i < 5; ++i) {
    Job j;
    j.name = "w" + std::to_string(i);
    j.type = &reg;
    j.spec.params = sim::ModelParams{2, 10.0, 2.0, 1.0};
    j.spec.scripts = {{harness::ScriptOp{"write", Value{i}}}, {}};
    spec.jobs.push_back(std::move(j));
  }
  std::vector<std::size_t> seen;
  ExecutorOptions opts;
  opts.jobs = 2;
  opts.on_progress = [&seen](std::size_t done, std::size_t total) {
    EXPECT_EQ(total, 5u);
    seen.push_back(done);
  };
  (void)run_campaign(spec, opts);
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen.back(), 5u);  // counts are cumulative and end at total
}

TEST(ExecutorTest, ResolveJobsClampsToJobCountAndFloorOne) {
  EXPECT_EQ(resolve_jobs(4, 100), 4);
  EXPECT_EQ(resolve_jobs(8, 3), 3);
  EXPECT_EQ(resolve_jobs(5, 0), 1);  // empty campaign still gets a worker
  // 0 (and any non-positive request) means the hardware default, clamped to
  // [1, job_count].
  EXPECT_GE(resolve_jobs(0, 10), 1);
  EXPECT_LE(resolve_jobs(0, 2), 2);
  EXPECT_GE(resolve_jobs(-2, 10), 1);
}

TEST(SinkTest, FmtDoubleShortestRoundTrip) {
  EXPECT_EQ(fmt_double(0.1), "0.1");
  EXPECT_EQ(fmt_double(0.0), "0");
  EXPECT_EQ(fmt_double(-0.0), "0");
  EXPECT_EQ(fmt_double(5.0), "5");
  EXPECT_EQ(fmt_double(10.0), "10");
  EXPECT_EQ(fmt_double(-3.0), "-3");
  EXPECT_EQ(fmt_double(8.4), "8.4");
}

TEST(SinkTest, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
}

TEST(SinkTest, CsvHasHeaderAndOneRowPerJobOp) {
  adt::RegisterType reg;
  CampaignSpec spec;
  spec.name = "csv-test";
  Job j;
  j.name = "writes";
  j.type = &reg;
  j.spec.params = sim::ModelParams{2, 10.0, 2.0, 1.0};
  j.spec.scripts = {{harness::ScriptOp{"write", Value{1}}, harness::ScriptOp{"read", Value::nil()}},
                    {}};
  spec.jobs.push_back(std::move(j));

  const auto csv = to_csv(run_campaign(spec));
  EXPECT_EQ(csv.rfind("campaign,index,job,tags,ok,", 0), 0u);  // header first
  // header + one row per op (read, write).
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

}  // namespace
}  // namespace lintime::campaign
