// Round-trip tests for run-record serialization.

#include "sim/trace_io.hpp"

#include <gtest/gtest.h>

#include "adt/queue_type.hpp"
#include "adt/tree_type.hpp"
#include "harness/runner.hpp"
#include "lin/checker.hpp"
#include "shift/shift.hpp"

namespace lintime::sim {
namespace {

using adt::Value;

RunRecord sample_record() {
  adt::QueueType queue;
  harness::RunSpec spec;
  spec.params = ModelParams{3, 10.0, 2.0, 1.5};
  spec.clock_offsets = {0.7, -0.7, 0.3};
  spec.delays = std::make_shared<UniformRandomDelay>(8.0, 10.0, 5);
  spec.scripts = harness::random_scripts(queue, 3, 4, 88);
  return harness::execute(queue, spec).record;
}

TEST(TraceIoTest, RoundTripPreservesEverything) {
  const RunRecord a = sample_record();
  const RunRecord b = record_from_string(record_to_string(a));

  EXPECT_EQ(a.params.n, b.params.n);
  EXPECT_EQ(a.params.d, b.params.d);
  EXPECT_EQ(a.clock_offsets, b.clock_offsets);

  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].proc, b.steps[i].proc);
    EXPECT_EQ(a.steps[i].real_time, b.steps[i].real_time);
    EXPECT_EQ(a.steps[i].clock_time, b.steps[i].clock_time);
    EXPECT_EQ(a.steps[i].trigger, b.steps[i].trigger);
    EXPECT_EQ(a.steps[i].responded, b.steps[i].responded);
    EXPECT_EQ(a.steps[i].arg, b.steps[i].arg);
    EXPECT_EQ(a.steps[i].response, b.steps[i].response);
    EXPECT_EQ(a.steps[i].sent_message_ids, b.steps[i].sent_message_ids);
  }

  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (std::size_t i = 0; i < a.messages.size(); ++i) {
    EXPECT_EQ(a.messages[i].send_real, b.messages[i].send_real);
    EXPECT_EQ(a.messages[i].recv_real, b.messages[i].recv_real);
    EXPECT_EQ(a.messages[i].received, b.messages[i].received);
  }

  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].op, b.ops[i].op);
    EXPECT_EQ(a.ops[i].arg, b.ops[i].arg);
    EXPECT_EQ(a.ops[i].ret, b.ops[i].ret);
    EXPECT_EQ(a.ops[i].invoke_real, b.ops[i].invoke_real);
    EXPECT_EQ(a.ops[i].response_real, b.ops[i].response_real);
  }
}

TEST(TraceIoTest, CheckerVerdictSurvivesRoundTrip) {
  adt::QueueType queue;
  const RunRecord a = sample_record();
  const RunRecord b = record_from_string(record_to_string(a));
  EXPECT_EQ(lin::check_linearizability(queue, a).linearizable,
            lin::check_linearizability(queue, b).linearizable);
}

TEST(TraceIoTest, ShiftOfDeserializedRecordMatches) {
  const RunRecord a = sample_record();
  const RunRecord b = record_from_string(record_to_string(a));
  const std::vector<double> x = {0.25, -0.25, 0.0};
  const auto sa = shift::shift_run(a, x);
  const auto sb = shift::shift_run(b, x);
  ASSERT_EQ(sa.messages.size(), sb.messages.size());
  for (std::size_t i = 0; i < sa.messages.size(); ++i) {
    EXPECT_EQ(sa.messages[i].recv_real, sb.messages[i].recv_real);
  }
}

TEST(TraceIoTest, VectorValuesRoundTrip) {
  // Tree edges exercise nested vector arguments.
  adt::TreeType tree;
  harness::RunSpec spec;
  spec.params = ModelParams{3, 10.0, 2.0, 1.5};
  spec.calls = {
      harness::Call{0.0, 0, "insert", adt::TreeType::edge(0, 1)},
      harness::Call{30.0, 1, "depth", Value{1}},
  };
  const auto a = harness::execute(tree, spec).record;
  const auto b = record_from_string(record_to_string(a));
  EXPECT_EQ(b.ops[0].arg, adt::TreeType::edge(0, 1));
  EXPECT_EQ(b.ops[1].ret, Value{1});
}

TEST(TraceIoTest, StringValuesRoundTrip) {
  RunRecord a;
  a.params = ModelParams{2, 10.0, 2.0, 1.0};
  a.clock_offsets = {0.0, 0.0};
  OpRecord op;
  op.proc = 0;
  op.op = "put";
  op.arg = Value{adt::ValueVec{Value{"key with spaces"}, Value{42}}};
  op.ret = Value::nil();
  op.invoke_real = 1;
  op.response_real = 2;
  a.ops.push_back(op);
  const auto b = record_from_string(record_to_string(a));
  ASSERT_EQ(b.ops.size(), 1u);
  EXPECT_EQ(b.ops[0].arg, a.ops[0].arg);
}

TEST(TraceIoTest, MalformedInputThrows) {
  EXPECT_THROW((void)record_from_string("garbage line\n"), std::invalid_argument);
  EXPECT_THROW((void)record_from_string(""), std::invalid_argument);
  EXPECT_THROW((void)record_from_string("offset 0 1.5\n"), std::invalid_argument);
}

TEST(TraceIoTest, OutOfOrderStepsRejected) {
  // Steps are stored in real-time order, which first_time() and last_time()
  // rely on; a trace from outside the program must not break it.
  const std::string params = "params 2 10 2 1\n";
  const std::string early = "step 0 1.5 1.5 invoke 0 0 0 - nil nil\n";
  const std::string late = "step 1 3 3 invoke 0 0 0 - nil nil\n";
  const RunRecord ok = record_from_string(params + early + late + late);
  EXPECT_EQ(ok.first_time(), 1.5);
  EXPECT_EQ(ok.last_time(), 3.0);
  EXPECT_THROW((void)record_from_string(params + late + early), std::invalid_argument);
}

TEST(TraceIoTest, CommentsAndBlankLinesIgnored)  {
  const auto b = record_from_string("# hello\n\nparams 2 10 2 1\n# bye\n");
  EXPECT_EQ(b.params.n, 2);
}

}  // namespace
}  // namespace lintime::sim
