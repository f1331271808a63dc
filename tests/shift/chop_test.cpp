// Tests for the chop procedure (Lemma 2): cutting a shifted run fragment
// with exactly one invalid delay yields a fragment whose delays are all
// valid.

#include <gtest/gtest.h>

#include <algorithm>

#include "adt/queue_type.hpp"
#include "harness/runner.hpp"
#include "shift/shift.hpp"

namespace lintime::shift {
namespace {

using adt::Value;
using harness::Call;
using harness::RunSpec;

/// A run with pair-wise uniform delays 9.0 and traffic on every edge.
sim::RunRecord busy_run() {
  adt::QueueType queue;
  RunSpec spec;
  spec.params = sim::ModelParams{3, 10.0, 2.0, 1.0};
  spec.delays = std::make_shared<sim::ConstantDelay>(9.0);
  spec.calls = {
      Call{0.0, 0, "enqueue", Value{1}},
      Call{1.0, 1, "enqueue", Value{2}},
      Call{2.0, 2, "enqueue", Value{3}},
      Call{50.0, 0, "enqueue", Value{4}},
      Call{51.0, 1, "enqueue", Value{5}},
  };
  return harness::execute(queue, spec).record;
}

/// The uniform matrix with one edge overridden.
std::vector<std::vector<double>> matrix_with(int s, int r, double delay) {
  std::vector<std::vector<double>> m(3, std::vector<double>(3, 9.0));
  m[static_cast<std::size_t>(s)][static_cast<std::size_t>(r)] = delay;
  return m;
}

TEST(ChopTest, ThrowsWithoutInvalidDelay) {
  const auto r = busy_run();
  EXPECT_THROW((void)chop_run(r, matrix_with(0, 1, 9.0), 9.0), std::invalid_argument);
}

TEST(ChopTest, ThrowsWithTwoInvalidDelays) {
  const auto r = busy_run();
  auto m = matrix_with(0, 1, 12.0);
  m[1][0] = 12.0;
  EXPECT_THROW((void)chop_run(r, m, 9.0), std::invalid_argument);
}

TEST(ChopTest, ChoppedFragmentHasValidDelays) {
  // Shift p1 late by 1.5: p1's outgoing delays drop to 7.5 (< d-u = 8).
  const auto r = busy_run();
  const auto shifted = shift_run(r, {0.0, 1.5, 0.0});
  auto matrix = matrix_with(1, 0, 7.5);
  matrix[1][2] = 7.5;
  // Two invalid edges -- not choppable as-is.
  EXPECT_THROW((void)chop_run(shifted, matrix, 9.0), std::invalid_argument);
}

TEST(ChopTest, SingleInvalidEdgeChopped) {
  // Shift both p1 and p2 late by 1.5: only edges INTO p0 from p1/p2 grow...
  // actually p1->p2 and p2->p1 stay 9; p1->p0 and p2->p0 become 10.5, and
  // p0->p1 / p0->p2 become 7.5.  Still several invalid edges.  For a clean
  // single-edge case, craft the matrix directly on the unshifted record: the
  // record's realized delays are uniform 9.0; declare p1->p0 as 12.0 "by
  // fiat" and chop -- chop only consults the matrix and the send times.
  const auto r = busy_run();
  const auto chopped = chop_run(r, matrix_with(1, 0, 12.0), 9.0);

  // t_m = first p1->anyone... specifically first p1->p0 send = 1.0 (p1's
  // broadcast at its first enqueue); t* = 1 + min(12, 9) = 10.
  // Cuts: p0 at 10; p1 at 10 + sp(p0->p1) = 19; p2 at 10 + 9 = 19.
  for (const auto& step : chopped.steps) {
    const double cut = step.proc == 0 ? 10.0 : 19.0;
    EXPECT_LT(step.real_time, cut) << "p" << step.proc;
  }

  // Messages received after the receiver's cut are marked unreceived.
  for (const auto& msg : chopped.messages) {
    if (msg.received) {
      const double cut = msg.dst == 0 ? 10.0 : 19.0;
      EXPECT_LT(msg.recv_real, cut);
      EXPECT_GE(msg.delay(), 8.0 - 1e-9);
      EXPECT_LE(msg.delay(), 10.0 + 1e-9);
    }
  }

  // Operations responding after the cut become incomplete, not lost.
  for (const auto& op : chopped.ops) {
    if (op.complete()) {
      const double cut = op.proc == 0 ? 10.0 : 19.0;
      EXPECT_LT(op.response_real, cut);
    }
  }
}

TEST(ChopTest, Lemma2NoMessageReceivedWithoutSend) {
  const auto r = busy_run();
  const auto chopped = chop_run(r, matrix_with(1, 0, 12.0), 9.0);
  // Every message present in the fragment was sent within the fragment: its
  // send step survives the sender's cut.
  for (const auto& msg : chopped.messages) {
    const double sender_cut = msg.src == 0 ? 10.0 : 19.0;
    EXPECT_LT(msg.send_real, sender_cut);
  }
}

TEST(ChopTest, UnreceivedMessagesSatisfyAdmissibilityRule) {
  // Lemma 2 condition 2: for unreceived messages the recipient's view ends
  // before send + d.
  const auto r = busy_run();
  const auto chopped = chop_run(r, matrix_with(1, 0, 12.0), 9.0);
  std::vector<double> view_end(3, -1.0);
  for (const auto& step : chopped.steps) {
    view_end[static_cast<std::size_t>(step.proc)] =
        std::max(view_end[static_cast<std::size_t>(step.proc)], step.real_time);
  }
  for (const auto& msg : chopped.messages) {
    if (!msg.received) {
      EXPECT_LT(view_end[static_cast<std::size_t>(msg.dst)], msg.send_real + 10.0);
    }
  }
}

TEST(ChopTest, DeltaBelowInvalidDelayChopsEarlier) {
  const auto r = busy_run();
  const auto a = chop_run(r, matrix_with(1, 0, 12.0), 9.0);   // t* = 1 + 9
  const auto b = chop_run(r, matrix_with(1, 0, 12.0), 8.0);   // t* = 1 + 8
  EXPECT_GE(a.steps.size(), b.steps.size());
}

TEST(ChopTest, NoTrafficOnInvalidLinkThrows) {
  // A run where p2 never sends to p0: only p0 invokes (its broadcasts create
  // p0->p1, p0->p2 only).
  adt::QueueType queue;
  RunSpec spec;
  spec.params = sim::ModelParams{3, 10.0, 2.0, 1.0};
  spec.delays = std::make_shared<sim::ConstantDelay>(9.0);
  spec.calls = {Call{0.0, 0, "enqueue", Value{1}}};
  const auto record = harness::execute(queue, spec).record;
  EXPECT_THROW((void)chop_run(record, matrix_with(2, 0, 12.0), 9.0), std::invalid_argument);
}

/// True iff `r.steps` never goes back in real time, the order
/// RunRecord::first_time() and last_time() read the ends of.
void expect_steps_in_time_order(const sim::RunRecord& r, const char* what) {
  ASSERT_FALSE(r.steps.empty()) << what;
  EXPECT_TRUE(std::is_sorted(r.steps.begin(), r.steps.end(),
                             [](const sim::StepRecord& a, const sim::StepRecord& b) {
                               return a.real_time < b.real_time;
                             }))
      << what;
  const auto [lo, hi] = std::minmax_element(
      r.steps.begin(), r.steps.end(),
      [](const sim::StepRecord& a, const sim::StepRecord& b) { return a.real_time < b.real_time; });
  EXPECT_EQ(r.first_time(), lo->real_time) << what;
  EXPECT_EQ(r.last_time(), hi->real_time) << what;
}

TEST(ChopTest, RecordedShiftedAndChoppedStepsStayInRealTimeOrder) {
  const auto r = busy_run();
  expect_steps_in_time_order(r, "recorded");
  // Opposite shifts reorder steps of different processes.
  const auto shifted = shift_run(r, {0.0, 1.5, -0.7});
  expect_steps_in_time_order(shifted, "shifted");
  expect_steps_in_time_order(chop_run(r, matrix_with(1, 0, 12.0), 9.0), "chopped");
}

}  // namespace
}  // namespace lintime::shift
