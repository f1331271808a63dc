// Tests for the classic shifting machinery: Theorem 1's formulas, view
// preservation, and the admissibility checker.

#include "shift/shift.hpp"

#include <gtest/gtest.h>

#include "adt/queue_type.hpp"
#include "adt/register_type.hpp"
#include "harness/runner.hpp"
#include "lin/checker.hpp"

namespace lintime::shift {
namespace {

using adt::Value;
using harness::Call;
using harness::RunSpec;

/// A small concurrent run to shift around.
sim::RunRecord sample_run(double delay = 9.0) {
  adt::QueueType queue;
  RunSpec spec;
  spec.params = sim::ModelParams{3, 10.0, 2.0, 1.0};
  spec.delays = std::make_shared<sim::ConstantDelay>(delay);
  spec.calls = {
      Call{0.0, 0, "enqueue", Value{1}},
      Call{5.0, 1, "enqueue", Value{2}},
      Call{40.0, 2, "dequeue", Value::nil()},
  };
  return harness::execute(queue, spec).record;
}

TEST(ShiftTest, Theorem1ClockOffsets) {
  const auto r = sample_run();
  const auto shifted = shift_run(r, {0.5, -0.25, 0.0});
  EXPECT_DOUBLE_EQ(shifted.clock_offsets[0], r.clock_offsets[0] - 0.5);
  EXPECT_DOUBLE_EQ(shifted.clock_offsets[1], r.clock_offsets[1] + 0.25);
  EXPECT_DOUBLE_EQ(shifted.clock_offsets[2], r.clock_offsets[2]);
}

TEST(ShiftTest, Theorem1MessageDelays) {
  const auto r = sample_run(9.0);
  const std::vector<double> x = {0.5, -0.25, 0.0};
  const auto shifted = shift_run(r, x);
  ASSERT_EQ(shifted.messages.size(), r.messages.size());
  for (std::size_t i = 0; i < r.messages.size(); ++i) {
    const auto& before = r.messages[i];
    const auto& after = shifted.messages[i];
    EXPECT_NEAR(after.delay(),
                before.delay() - x[static_cast<std::size_t>(before.src)] +
                    x[static_cast<std::size_t>(before.dst)],
                1e-12);
  }
}

TEST(ShiftTest, ViewsPreservedClockTimesUnchanged) {
  // Each process's view -- the sequence of (clock_time, trigger) pairs -- is
  // identical before and after shifting; only real times move.
  const auto r = sample_run();
  const auto shifted = shift_run(r, {1.0, -1.0, 0.5});
  for (sim::ProcId p = 0; p < 3; ++p) {
    const auto before = r.view_of(p);
    const auto after = shifted.view_of(p);
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_DOUBLE_EQ(before[i].clock_time, after[i].clock_time);
      EXPECT_EQ(before[i].trigger, after[i].trigger);
      EXPECT_NEAR(after[i].real_time,
                  before[i].real_time + (p == 0 ? 1.0 : p == 1 ? -1.0 : 0.5), 1e-12);
    }
  }
}

TEST(ShiftTest, OperationIntervalsMoveWithProcess) {
  const auto r = sample_run();
  const auto shifted = shift_run(r, {2.0, 0.0, 0.0});
  for (std::size_t i = 0; i < r.ops.size(); ++i) {
    const double dx = r.ops[i].proc == 0 ? 2.0 : 0.0;
    EXPECT_NEAR(shifted.ops[i].invoke_real, r.ops[i].invoke_real + dx, 1e-12);
    EXPECT_NEAR(shifted.ops[i].response_real, r.ops[i].response_real + dx, 1e-12);
  }
}

TEST(ShiftTest, ZeroShiftIsIdentity) {
  const auto r = sample_run();
  const auto shifted = shift_run(r, {0.0, 0.0, 0.0});
  EXPECT_EQ(shifted.clock_offsets, r.clock_offsets);
  ASSERT_EQ(shifted.ops.size(), r.ops.size());
  for (std::size_t i = 0; i < r.ops.size(); ++i) {
    EXPECT_DOUBLE_EQ(shifted.ops[i].invoke_real, r.ops[i].invoke_real);
  }
}

TEST(ShiftTest, ShiftComposes) {
  const auto r = sample_run();
  const auto once = shift_run(shift_run(r, {0.5, 0.0, 0.0}), {0.5, 0.0, -1.0});
  const auto direct = shift_run(r, {1.0, 0.0, -1.0});
  ASSERT_EQ(once.messages.size(), direct.messages.size());
  for (std::size_t i = 0; i < once.messages.size(); ++i) {
    EXPECT_NEAR(once.messages[i].recv_real, direct.messages[i].recv_real, 1e-12);
  }
}

TEST(ShiftTest, WrongVectorSizeThrows) {
  const auto r = sample_run();
  EXPECT_THROW((void)shift_run(r, {1.0}), std::invalid_argument);
}

TEST(AdmissibilityTest, OriginalRunAdmissible) {
  const auto r = sample_run();
  const auto report = check_admissibility(r);
  EXPECT_TRUE(report.admissible) << report.violations.size();
}

TEST(AdmissibilityTest, SmallShiftStaysAdmissible) {
  const auto r = sample_run(9.0);  // delays mid-range: slack u/2 = 1 each way
  const auto report = check_admissibility(shift_run(r, {0.4, -0.4, 0.0}));
  EXPECT_TRUE(report.admissible);
  EXPECT_NEAR(report.max_skew, 0.8, 1e-12);
}

TEST(AdmissibilityTest, LargeShiftBreaksSkew) {
  const auto r = sample_run();
  const auto report = check_admissibility(shift_run(r, {3.0, -3.0, 0.0}));  // skew 6 > eps 1
  EXPECT_FALSE(report.admissible);
  bool found = false;
  for (const auto& v : report.violations) {
    if (v.kind == Violation::Kind::kSkew) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(AdmissibilityTest, DelayViolationsDetectedBothWays) {
  const auto r = sample_run(9.0);
  // Shifting p0 late by 2 makes p0-incoming delays 11 (> d) and p0-outgoing
  // delays 7 (< d-u).
  const auto report = check_admissibility(shift_run(r, {2.0, -2.0, 0.0}));
  EXPECT_FALSE(report.admissible);
  bool low = false, high = false;
  for (const auto& v : report.violations) {
    if (v.kind == Violation::Kind::kDelayLow) low = true;
    if (v.kind == Violation::Kind::kDelayHigh) high = true;
  }
  EXPECT_TRUE(low);
  EXPECT_TRUE(high);
}

TEST(AdmissibilityTest, FullSkewShiftOfAlgorithmOneStaysLinearizable) {
  // Theorem 1 at the edge of admissibility.  n = 3 and u = 2 give
  // eps = 4/3, off the 1e-9 event grid.  Every process writes at t = 5 and
  // reads at t = 40 under delays D_ij = d - u/2 - (x_j - x_i)/2, which the
  // shift x = (0, -eps/2, -eps) turns into delays within [d - u, d] at skew
  // exactly eps.  The shifted run is then a run of the same algorithm, so
  // it must be linearizable.  A write's ACK timer (X + eps at X = 0) that
  // fires 3.3e-10 early puts p2's shifted response before p0's write is
  // invoked, while every read returns p2's value.
  adt::RegisterType reg;
  RunSpec spec;
  spec.params = sim::ModelParams{3, 10.0, 2.0, 0.0};
  spec.params.eps = spec.params.optimal_eps();
  const double eps = spec.params.eps;
  const std::vector<double> x = {0.0, -eps / 2, -eps};
  std::vector<std::vector<double>> delays(3, std::vector<double>(3, spec.params.d));
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      delays[i][j] = spec.params.d - spec.params.u / 2 - (x[j] - x[i]) / 2;
    }
  }
  spec.delays = std::make_shared<sim::MatrixDelay>(delays);
  for (sim::ProcId p = 0; p < 3; ++p) {
    spec.calls.push_back(Call{5.0, p, "write", Value{p + 1}});
    spec.calls.push_back(Call{40.0, p, "read", Value::nil()});
  }
  const auto shifted = shift_run(harness::execute(reg, spec).record, x);
  const auto report = check_admissibility(shifted);
  ASSERT_TRUE(report.admissible);
  EXPECT_NEAR(report.max_skew, eps, 1e-12);
  EXPECT_TRUE(lin::check_linearizability(reg, shifted).linearizable);
}

TEST(ExtractMatrixTest, RecoversUniformDelays) {
  const auto r = sample_run(9.0);
  const auto matrix = extract_delay_matrix(r, -1.0);
  ASSERT_TRUE(matrix.has_value());
  // Every pair that exchanged messages shows 9.0; silent pairs show fill.
  for (const auto& msg : r.messages) {
    EXPECT_DOUBLE_EQ(
        (*matrix)[static_cast<std::size_t>(msg.src)][static_cast<std::size_t>(msg.dst)], 9.0);
  }
}

TEST(ExtractMatrixTest, DetectsNonUniformDelays) {
  adt::QueueType queue;
  RunSpec spec;
  spec.params = sim::ModelParams{3, 10.0, 2.0, 1.0};
  spec.delays = std::make_shared<sim::UniformRandomDelay>(8.0, 10.0, 3);
  spec.calls = {Call{0.0, 0, "enqueue", Value{1}}, Call{1.0, 0, "enqueue", Value{2}}};
  const auto record = harness::execute(queue, spec).record;
  EXPECT_FALSE(extract_delay_matrix(record, -1.0).has_value());
}

TEST(ShortestPathsTest, FloydWarshall) {
  const std::vector<std::vector<double>> m = {{0, 1, 10}, {1, 0, 1}, {10, 1, 0}};
  const auto d = shortest_paths(m);
  EXPECT_DOUBLE_EQ(d[0][2], 2.0);  // via node 1
  EXPECT_DOUBLE_EQ(d[0][0], 0.0);
  EXPECT_DOUBLE_EQ(d[2][0], 2.0);
}

}  // namespace
}  // namespace lintime::shift
