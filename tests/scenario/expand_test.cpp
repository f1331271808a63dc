// Tests for scenario expansion (scenario/expand.hpp): grids and sweeps to
// job lists, $references, canonicalization, per-kind strictness, fault and
// store wiring (including two jobs on one store run side by side), and the
// CLI axis-override escape hatch.

#include "scenario/expand.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/executor.hpp"
#include "campaign/sink.hpp"
#include "harness/runner.hpp"
#include "sim/fault.hpp"

namespace lintime::scenario {
namespace {

Scenario make(const std::string& extra) {
  return parse_scenario(
      "[scenario]\n"
      "name = \"t\"\n"
      "type = \"queue\"\n"
      "check = true\n"
      "\n"
      "[model]\n"
      "n = 3\n"
      "d = 10.0\n"
      "u = 2.0\n"
      "eps = 1.0\n"
      "\n"
      "[workload]\n"
      "kind = \"random-scripts\"\n"
      "ops-per-proc = 2\n"
      "seed = 7\n" +
          extra,
      "t.toml");
}

std::string fail_msg(const std::string& extra,
                     const std::vector<AxisOverride>& overrides = {}) {
  try {
    (void)expand(make(extra), overrides);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected an expansion error for extra:\n" << extra;
  return "";
}

TEST(ExpandTest, NoSweepYieldsOneJobNamedAfterScenario) {
  const auto c = expand(make(""));
  ASSERT_EQ(c.spec.jobs.size(), 1u);
  const campaign::Job& job = c.spec.jobs[0];
  EXPECT_EQ(job.name, "t");
  EXPECT_TRUE(job.tags.empty());
  EXPECT_TRUE(job.check_linearizability);
  EXPECT_EQ(job.type, c.base_type.get());
  EXPECT_EQ(job.spec.algo, harness::AlgoKind::kAlgorithmOne);
  EXPECT_EQ(job.spec.X, 0.0);
  EXPECT_EQ(job.spec.params.n, 3);
  EXPECT_NE(job.spec.workload, nullptr);
  ASSERT_EQ(c.job_descriptions.size(), 1u);
}

TEST(ExpandTest, GridRowMajorLastAxisFastest) {
  const auto c = expand(make("[grid]\naxis.x = [0, 0.5]\naxis.seed = \"1..2\"\n"));
  ASSERT_EQ(c.spec.jobs.size(), 4u);
  EXPECT_EQ(c.spec.jobs[0].name, "x=0/seed=1");
  EXPECT_EQ(c.spec.jobs[1].name, "x=0/seed=2");
  EXPECT_EQ(c.spec.jobs[2].name, "x=0.5/seed=1");
  EXPECT_EQ(c.spec.jobs[3].name, "x=0.5/seed=2");
  // Tags are the coordinates in axis declaration order.
  ASSERT_EQ(c.spec.jobs[2].tags.size(), 2u);
  EXPECT_EQ(c.spec.jobs[2].tags[0], (std::pair<std::string, std::string>{"x", "0.5"}));
  EXPECT_EQ(c.spec.jobs[2].tags[1], (std::pair<std::string, std::string>{"seed", "1"}));
}

TEST(ExpandTest, XFracScalesByDMinusEps) {
  // d = 10, eps = 1: X = (d - eps) * 0.5 = 4.5.
  const auto c = expand(make("[run]\nx-frac = \"$x\"\n[grid]\naxis.x = [0, 0.5]\n"));
  ASSERT_EQ(c.spec.jobs.size(), 2u);
  EXPECT_EQ(c.spec.jobs[0].spec.X, 0.0);
  EXPECT_EQ(c.spec.jobs[1].spec.X, 4.5);
}

TEST(ExpandTest, XForcedZeroOutsideAlgorithmOneFamily) {
  // x-frac may ride a $algo axis: the baseline's points force X = 0 instead
  // of erroring (the latency-grid shape).
  const auto c = expand(make("[run]\nalgo = \"$algo\"\nx-frac = 0.5\n"
                             "[grid]\naxis.algo = [\"algorithm1\", \"centralized\"]\n"));
  ASSERT_EQ(c.spec.jobs.size(), 2u);
  EXPECT_EQ(c.spec.jobs[0].spec.X, 4.5);
  EXPECT_EQ(c.spec.jobs[1].spec.algo, harness::AlgoKind::kCentralized);
  EXPECT_EQ(c.spec.jobs[1].spec.X, 0.0);
}

TEST(ExpandTest, SweepsExpandInFileOrderWithOverridesAndTemplates) {
  const auto c = expand(make(
      "[sweep.a]\nname = \"a/n=$n\"\naxis.n = [3, 4]\ntag.mode = \"a\"\ntag.n = \"$n\"\n"
      "set.model.n = \"$n\"\n"
      "[sweep.b]\nname = \"b#$index\"\naxis.s = [1]\nset.run.algo = \"centralized\"\n"));
  ASSERT_EQ(c.spec.jobs.size(), 3u);
  EXPECT_EQ(c.spec.jobs[0].name, "a/n=3");
  EXPECT_EQ(c.spec.jobs[1].name, "a/n=4");
  EXPECT_EQ(c.spec.jobs[1].spec.params.n, 4);
  ASSERT_EQ(c.spec.jobs[0].tags.size(), 2u);
  EXPECT_EQ(c.spec.jobs[0].tags[0], (std::pair<std::string, std::string>{"mode", "a"}));
  EXPECT_EQ(c.spec.jobs[0].tags[1], (std::pair<std::string, std::string>{"n", "3"}));
  // $index is the global job counter, usable in any sweep's templates.
  EXPECT_EQ(c.spec.jobs[2].name, "b#2");
  EXPECT_EQ(c.spec.jobs[2].spec.algo, harness::AlgoKind::kCentralized);
}

TEST(ExpandTest, ReferenceArithmetic) {
  const auto c = expand(make("[grid]\naxis.ops = [12]\n"
                             "[store]\nkeys = \"$ops*2\"\nshards = 4\n"));
  (void)c;  // keys = 24 accepted; the store section exercises $axis*K
  EXPECT_NE(fail_msg("[grid]\naxis.ops = [10]\n[store]\nkeys = \"$ops/3\"\nshards = 2\n")
                .find("not divisible by 3"),
            std::string::npos);
  EXPECT_NE(fail_msg("[run]\nmax-events = \"$nope\"\n").find("names no axis"),
            std::string::npos);
}

TEST(ExpandTest, AxisOverridesReplaceValues) {
  const auto base = make("[grid]\naxis.seed = \"1..6\"\n");
  EXPECT_EQ(expand(base).spec.jobs.size(), 6u);
  const auto c = expand(base, {{"seed", {"9", "10"}}});
  ASSERT_EQ(c.spec.jobs.size(), 2u);
  EXPECT_EQ(c.spec.jobs[0].name, "seed=9");
  // An override naming no declared axis is an error, not a silent no-op.
  EXPECT_THROW((void)expand(base, {{"ops", {"5"}}}), std::runtime_error);
}

TEST(ExpandTest, FaultSectionsCompile) {
  const auto c = expand(make("[faults]\ncrash = [\"2@50\"]\n"
                             "link-drop = [\"0>1@10..20\", \"*>2@5..6\"]\n"));
  const sim::FaultSchedule& f = c.spec.jobs[0].spec.faults;
  ASSERT_EQ(f.crashes.size(), 1u);
  EXPECT_EQ(f.crashes[0].proc, 2);
  EXPECT_EQ(f.crashes[0].when, 50.0);
  ASSERT_EQ(f.link_drops.size(), 2u);
  EXPECT_EQ(f.link_drops[0].src, 0);
  EXPECT_EQ(f.link_drops[0].dst, 1);
  EXPECT_EQ(f.link_drops[1].src, sim::kAnyProc);

  // A 2-vs-1 partition: 2*|a|*|b| directed links per cycle, 2 cycles.
  const auto p = expand(make("[faults]\npartition-a = [0, 1]\npartition-b = [2]\n"
                             "partition-cut = 10.0\npartition-period = 50.0\n"
                             "partition-cycles = 2\n"));
  EXPECT_EQ(p.spec.jobs[0].spec.faults.link_drops.size(), 8u);

  EXPECT_NE(fail_msg("[faults]\ncrash = [\"7@50\"]\n").find("crash"), std::string::npos);
  EXPECT_NE(fail_msg("[faults]\ncrash = [\"zap\"]\n").find("expected PROC@TIME"),
            std::string::npos);
  EXPECT_NE(fail_msg("[faults]\npartition-a = [0]\n").find("both be present"),
            std::string::npos);
}

TEST(ExpandTest, PerKindKeyStrictness) {
  // 'rounds' belongs to staggered-rounds, not random-scripts.
  EXPECT_NE(fail_msg("[sweep.a]\naxis.s = [1]\nset.workload.rounds = 8\n")
                .find("does not apply"),
            std::string::npos);
  // 'value' belongs to constant delays, not uniform-random.
  EXPECT_NE(
      fail_msg("[delays]\nkind = \"uniform-random\"\nseed = 1\nvalue = 9.0\n")
          .find("does not apply"),
      std::string::npos);
}

TEST(ExpandTest, DelayMatrixMustBeNByN) {
  EXPECT_NE(fail_msg("[delays]\nkind = \"matrix\"\nmatrix = [1.0, 2.0]\n").find("n*n"),
            std::string::npos);
}

TEST(ExpandTest, MutuallyExclusivePairs) {
  EXPECT_NE(fail_msg("[run]\nx-frac = 0.5\nx-abs = 2.0\n").find("mutually exclusive"),
            std::string::npos);
  EXPECT_NE(fail_msg("[clocks]\ndrift = 0.01\nrates = [1.0, 1.0, 1.0]\n")
                .find("mutually exclusive"),
            std::string::npos);
}

TEST(ExpandTest, ShardedServingRequiresStoreAndSharesIt) {
  EXPECT_NE(fail_msg("[run]\nalgo = \"sharded-serving\"\n").find("store"),
            std::string::npos);
  const auto c = expand(parse_scenario(
      "[scenario]\nname = \"srv\"\ntype = \"queue\"\n"
      "[model]\nn = 4\nd = 10.0\nu = 2.0\neps = 1.0\n"
      "[store]\nkeys = 64\nshards = 4\n"
      "[run]\nalgo = \"sharded-serving\"\nrecord = \"$record\"\n"
      "[workload]\nkind = \"sharded\"\nops-per-proc = 500\nseed = 1\n"
      "[grid]\naxis.record = [\"full\", \"ops-only\"]\n",
      "srv.toml"));
  ASSERT_EQ(c.spec.jobs.size(), 2u);
  ASSERT_EQ(c.stores.size(), 1u);  // one (keys, shards) pair -> one shared store
  EXPECT_EQ(c.spec.jobs[0].type, c.spec.jobs[1].type);
  EXPECT_EQ(c.spec.jobs[0].type, c.stores[0].get());
  EXPECT_EQ(c.spec.jobs[0].spec.record_detail, sim::RecordDetail::kFull);
  EXPECT_EQ(c.spec.jobs[1].spec.record_detail, sim::RecordDetail::kOpsOnly);

  // Jobs sharing a store keep their run state (replica rows) apart: run side
  // by side, they report exactly what they report one at a time.
  campaign::ExecutorOptions one_worker;
  one_worker.jobs = 1;
  campaign::ExecutorOptions two_workers;
  two_workers.jobs = 2;
  EXPECT_EQ(campaign::to_json(campaign::run_campaign(c.spec, one_worker)),
            campaign::to_json(campaign::run_campaign(c.spec, two_workers)));
}

TEST(ExpandTest, SchedulerKeyIsUnknown) {
  // There is one scheduler, so `scheduler` is not a [run] key; a file that
  // sets it is rejected like any other unknown key.
  EXPECT_NE(fail_msg("[run]\nscheduler = \"ring\"\n").find("unknown key 'scheduler'"),
            std::string::npos);
}

TEST(ExpandTest, MakeDataTypeKnowsTheRegistry) {
  EXPECT_NE(make_data_type("queue"), nullptr);
  EXPECT_NE(make_data_type("rmw_register"), nullptr);
  EXPECT_THROW((void)make_data_type("frobnicator"), std::runtime_error);
}

TEST(ExpandTest, DigestIsStableAndSensitive) {
  const auto a1 = expand(make(""));
  const auto a2 = expand(make(""));
  EXPECT_EQ(campaign_digest(a1), campaign_digest(a2));
  EXPECT_EQ(campaign_digest(a1).size(), 32u);
  const auto b = expand(make("[run]\nx-abs = 1.0\n"));
  EXPECT_NE(campaign_digest(a1), campaign_digest(b));
}

}  // namespace
}  // namespace lintime::scenario
