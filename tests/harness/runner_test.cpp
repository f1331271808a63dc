// Tests for the run-orchestration harness.

#include "harness/runner.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "adt/queue_type.hpp"
#include "adt/register_type.hpp"

namespace lintime::harness {
namespace {

using adt::Value;

TEST(RunnerTest, LatencyByOpAggregatesCorrectly) {
  sim::RunRecord record;
  auto add = [&record](const std::string& op, double inv, double resp) {
    sim::OpRecord r;
    r.op = op;
    r.invoke_real = inv;
    r.response_real = resp;
    record.ops.push_back(r);
  };
  add("read", 0, 2);
  add("read", 10, 16);
  add("write", 0, 1);

  const auto stats = latency_by_op(record);
  EXPECT_EQ(stats.at("read").count, 2u);
  EXPECT_DOUBLE_EQ(stats.at("read").min, 2.0);
  EXPECT_DOUBLE_EQ(stats.at("read").max, 6.0);
  EXPECT_DOUBLE_EQ(stats.at("read").mean, 4.0);
  EXPECT_EQ(stats.at("write").count, 1u);
}

TEST(RunnerTest, IncompleteOpsExcludedFromStats) {
  sim::RunRecord record;
  sim::OpRecord r;
  r.op = "read";
  r.invoke_real = 5;
  r.response_real = -1;
  record.ops.push_back(r);
  EXPECT_TRUE(latency_by_op(record).empty());
}

TEST(RunnerTest, StatsForThrowsOnMissingOp) {
  RunResult result;
  EXPECT_THROW((void)result.stats_for("nope"), std::out_of_range);
  try {
    (void)result.stats_for("frobnicate");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    // The message must name the missing operation so a campaign job that
    // queries the wrong op fails with an actionable error.
    EXPECT_NE(std::string(e.what()).find("frobnicate"), std::string::npos);
  }
}

TEST(RunnerTest, ClosedLoopScriptsRunToCompletion) {
  adt::QueueType queue;
  RunSpec spec;
  spec.params = sim::ModelParams{3, 10.0, 2.0, 1.0};
  spec.scripts = {
      {{"enqueue", Value{1}}, {"enqueue", Value{2}}, {"dequeue", Value::nil()}},
      {{"peek", Value::nil()}},
      {},
  };
  const auto result = harness::execute(queue, spec);
  EXPECT_EQ(result.record.ops.size(), 4u);
  for (const auto& op : result.record.ops) EXPECT_TRUE(op.complete());
}

TEST(RunnerTest, ScriptGapSpacesInvocations) {
  adt::QueueType queue;
  RunSpec spec;
  spec.params = sim::ModelParams{3, 10.0, 2.0, 1.0};
  spec.scripts = {{{"enqueue", Value{1}}, {"enqueue", Value{2}}}, {}, {}};
  spec.script_gap = 5.0;
  const auto result = harness::execute(queue, spec);
  ASSERT_EQ(result.record.ops.size(), 2u);
  EXPECT_DOUBLE_EQ(result.record.ops[1].invoke_real,
                   result.record.ops[0].response_real + 5.0);
}

// An open-loop call at a process that also runs a script must not advance
// the script: the read at p0 answers at d = 10, long before write(1) is due.
TEST(RunnerTest, OpenLoopResponseDoesNotAdvanceScript) {
  adt::RegisterType reg;
  RunSpec spec;
  spec.params = sim::ModelParams{3, 10.0, 2.0, 0.0};
  spec.params.eps = spec.params.optimal_eps();
  spec.scripts = {{{"write", Value{1}}, {"write", Value{2}}}, {}, {}};
  spec.script_start = 30;
  spec.calls = {Call{0.0, 0, "read", Value::nil()}};
  const auto result = harness::execute(reg, spec);
  const auto& ops = result.record.ops;
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].op, "read");
  EXPECT_DOUBLE_EQ(ops[0].response_real, 10.0);
  // write(1) at script_start, write(2) right after its response; |MOP| =
  // eps = 4/3, and each ACK timer's expiry rounds up to the 1e-9 grid.
  EXPECT_EQ(ops[1].arg, Value{1});
  EXPECT_DOUBLE_EQ(ops[1].invoke_real, 30.0);
  EXPECT_DOUBLE_EQ(ops[1].response_real, 31.333333334);
  EXPECT_EQ(ops[2].arg, Value{2});
  EXPECT_DOUBLE_EQ(ops[2].invoke_real, ops[1].response_real);
  EXPECT_DOUBLE_EQ(ops[2].response_real, 32.666666668);
}

// not_before starts a script late (p1), chains a second script behind a
// first at one process (p0's read), and is moot once it has passed (p2).
TEST(RunnerTest, NotBeforeSetsEarliestInvocation) {
  adt::RegisterType reg;
  RunSpec spec;
  spec.params = sim::ModelParams{3, 10.0, 2.0, 1.0};
  spec.script_start = 5;
  spec.scripts = {
      {{"write", Value{1}}, {"read", Value::nil(), 100.0}},
      {{"write", Value{2}, 40.0}},
      {{"read", Value::nil()}, {"read", Value::nil(), 1.0}},
  };
  const auto result = harness::execute(reg, spec);
  std::vector<std::vector<sim::OpRecord>> by_proc(3);
  for (const auto& op : result.record.ops) {
    by_proc[static_cast<std::size_t>(op.proc)].push_back(op);
  }
  ASSERT_EQ(by_proc[0].size(), 2u);
  EXPECT_DOUBLE_EQ(by_proc[0][0].invoke_real, 5.0);
  EXPECT_DOUBLE_EQ(by_proc[0][1].invoke_real, 100.0);
  EXPECT_EQ(by_proc[0][1].ret, Value{2});  // p1's write(2) landed before the probe
  ASSERT_EQ(by_proc[1].size(), 1u);
  EXPECT_DOUBLE_EQ(by_proc[1][0].invoke_real, 40.0);
  ASSERT_EQ(by_proc[2].size(), 2u);
  EXPECT_DOUBLE_EQ(by_proc[2][0].invoke_real, 5.0);
  EXPECT_DOUBLE_EQ(by_proc[2][1].invoke_real, by_proc[2][0].response_real);
}

TEST(RunnerTest, ScriptSizeMismatchThrows) {
  adt::QueueType queue;
  RunSpec spec;
  spec.params = sim::ModelParams{3, 10.0, 2.0, 1.0};
  spec.scripts = {{{"enqueue", Value{1}}}};  // only 1 script for n=3
  EXPECT_THROW((void)harness::execute(queue, spec), std::invalid_argument);
}

TEST(RunnerTest, RandomScriptsDeterministicPerSeed) {
  adt::QueueType queue;
  const auto a = random_scripts(queue, 3, 10, 42);
  const auto b = random_scripts(queue, 3, 10, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a[p].size(), b[p].size());
    for (std::size_t i = 0; i < a[p].size(); ++i) {
      EXPECT_EQ(a[p][i].op, b[p][i].op);
      EXPECT_EQ(a[p][i].arg, b[p][i].arg);
    }
  }
}

TEST(RunnerTest, RandomScriptsUseOnlyValidOps) {
  adt::RegisterType reg;
  const auto scripts = random_scripts(reg, 2, 20, 7);
  for (const auto& script : scripts) {
    for (const auto& s : script) {
      EXPECT_NO_THROW((void)reg.spec(s.op));
    }
  }
}

TEST(RunnerTest, FinalStatesReportedPerReplica) {
  adt::RegisterType reg;
  RunSpec spec;
  spec.params = sim::ModelParams{4, 10.0, 2.0, 1.0};
  spec.calls = {Call{0.0, 0, "write", Value{3}}};
  const auto result = harness::execute(reg, spec);
  ASSERT_EQ(result.final_states.size(), 4u);
  for (const auto& s : result.final_states) EXPECT_EQ(s, "reg:3");
}

TEST(RunnerTest, AlgoKindNames) {
  EXPECT_STREQ(to_string(AlgoKind::kAlgorithmOne), "algorithm1");
  EXPECT_STREQ(to_string(AlgoKind::kCentralized), "centralized");
  EXPECT_STREQ(to_string(AlgoKind::kAllOop), "all-oop");
  EXPECT_STREQ(to_string(AlgoKind::kZeroWait), "zero-wait");
}

}  // namespace
}  // namespace lintime::harness
