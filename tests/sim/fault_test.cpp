// Tests for the deterministic fault plane (sim/fault.hpp): schedule
// validation, partition compilation, crash / link-window semantics through
// the harness, and the two determinism contracts -- runs with a schedule
// replay byte-identically across 60 seeds, and an inactive schedule leaves
// records byte-identical to runs with no schedule at all (the drop-coin RNG
// stream is never perturbed).

#include "sim/fault.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "adt/queue_type.hpp"
#include "adt/value.hpp"
#include "harness/runner.hpp"
#include "sim/delay_model.hpp"
#include "sim/trace_io.hpp"

namespace lintime::sim {
namespace {

using adt::Value;

TEST(FaultScheduleTest, ValidAndEmptySchedulesPass) {
  FaultSchedule empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_NO_THROW(empty.validate(3));

  FaultSchedule full;
  full.crashes = {{2, 50.0}, {0, 10.0}};
  full.link_drops = {{0, 1, 5.0, 10.0},
                     {kAnyProc, 2, 5.0, 10.0},  // distinct pairs may overlap
                     {0, 1, 10.0, 20.0}};       // [5,10) and [10,20) do not overlap
  EXPECT_FALSE(full.empty());
  EXPECT_NO_THROW(full.validate(3));
}

TEST(FaultScheduleTest, ValidateRejectsMalformedSchedules) {
  const auto bad = [](FaultSchedule s, int n = 3) {
    EXPECT_THROW(s.validate(n), std::invalid_argument);
  };
  bad({{{3, 1.0}}, {}});            // crash proc out of range
  bad({{{-1, 1.0}}, {}});           // negative proc
  bad({{{1, -2.0}}, {}});           // negative crash time
  bad({{{1, 1.0}, {1, 2.0}}, {}});  // duplicate crash proc
  bad({{}, {{0, 3, 1.0, 2.0}}});    // dst out of range
  bad({{}, {{1, 1, 1.0, 2.0}}});    // self-link
  bad({{}, {{0, 1, 2.0, 2.0}}});    // empty window
  bad({{}, {{0, 1, 5.0, 2.0}}});    // inverted window
  bad({{}, {{0, 1, 0.0, 5.0}, {0, 1, 4.0, 6.0}}});  // overlap, same pair
}

TEST(FaultScheduleTest, PartitionCyclesCompileToLinkWindows) {
  const auto windows = partition_cycles({0, 1}, {2}, 30.0, 10.0, 50.0, 2);
  // 2 * |a| * |b| directed links per cycle, 2 cycles.
  ASSERT_EQ(windows.size(), 8u);
  for (const auto& w : windows) {
    const bool a_to_b = (w.src == 0 || w.src == 1) && w.dst == 2;
    const bool b_to_a = w.src == 2 && (w.dst == 0 || w.dst == 1);
    EXPECT_TRUE(a_to_b || b_to_a);
    const bool first = w.from == 30.0 && w.until == 40.0;
    const bool second = w.from == 80.0 && w.until == 90.0;
    EXPECT_TRUE(first || second);
  }
  FaultSchedule s;
  s.link_drops = windows;
  EXPECT_NO_THROW(s.validate(3));
}

TEST(FaultScheduleTest, PartitionCyclesRejectBadGroupsAndTiming) {
  EXPECT_THROW((void)partition_cycles({}, {1}, 0, 1, 2, 1), std::invalid_argument);
  EXPECT_THROW((void)partition_cycles({0}, {0}, 0, 1, 2, 1), std::invalid_argument);
  EXPECT_THROW((void)partition_cycles({0}, {1}, 0, 0, 2, 1), std::invalid_argument);
  EXPECT_THROW((void)partition_cycles({0}, {1}, 0, 5, 2, 1), std::invalid_argument);  // cut > period
  EXPECT_THROW((void)partition_cycles({0}, {1}, 0, 1, 2, 0), std::invalid_argument);
}

/// A small open-loop spec: proc 2 invokes at t = 10 and t = 100, procs 0/1
/// at t = 10.
harness::RunSpec crash_spec() {
  harness::RunSpec spec;
  spec.params = ModelParams{3, 10.0, 2.0, 0.0};
  spec.params.eps = spec.params.optimal_eps();
  spec.delays = std::make_shared<ConstantDelay>(9.0);
  spec.calls = {{10.0, 0, "enqueue", Value{1}},
                {10.0, 1, "enqueue", Value{2}},
                {10.0, 2, "enqueue", Value{3}},
                {100.0, 2, "enqueue", Value{4}}};
  return spec;
}

TEST(FaultPlaneTest, CrashSilencesProcessFromItsTime) {
  adt::QueueType queue;

  auto baseline = crash_spec();
  const auto without = harness::execute(queue, baseline);
  EXPECT_EQ(without.record.ops.size(), 4u);

  auto spec = crash_spec();
  spec.faults.crashes = {{2, 50.0}};
  const auto with = harness::execute(queue, spec);

  // The invocation at t = 100 was discarded before recording; the one at
  // t = 10 completed before the crash.
  ASSERT_EQ(with.record.ops.size(), 3u);
  for (const auto& op : with.record.ops) EXPECT_TRUE(op.complete());

  // No step of the crashed process at or after the crash time, and nothing
  // arrives at it from then on.
  for (const auto& step : with.record.steps) {
    if (step.proc == 2) {
      EXPECT_LT(step.real_time, 50.0);
    }
  }
  for (const auto& msg : with.record.messages) {
    if (msg.dst == 2 && msg.recv_real >= 50.0) {
      EXPECT_FALSE(msg.received) << "message " << msg.id << " delivered to a crashed proc";
    }
  }
}

TEST(FaultPlaneTest, LinkWindowDropsExactlyItsDirectedInterval) {
  adt::QueueType queue;
  auto spec = crash_spec();
  spec.faults.link_drops = {{0, 1, 0.0, 1000.0}};
  const auto result = harness::execute(queue, spec);

  std::size_t cut = 0;
  std::size_t alive = 0;
  for (const auto& msg : result.record.messages) {
    if (msg.src == 0 && msg.dst == 1) {
      EXPECT_FALSE(msg.received);
      ++cut;
    } else {
      EXPECT_TRUE(msg.received);
      ++alive;
    }
  }
  EXPECT_GT(cut, 0u);    // the cut link carried traffic
  EXPECT_GT(alive, 0u);  // the reverse direction (1 -> 0) stayed up
}

/// The workload of the determinism runs: seeded scripts, seeded random
/// delays, seeded drops -- every RNG stream the fault plane must not
/// perturb.
harness::RunSpec seeded_spec(const adt::DataType& type, std::uint64_t seed) {
  harness::RunSpec spec;
  spec.params = ModelParams{3, 10.0, 2.0, 0.0};
  spec.params.eps = spec.params.optimal_eps();
  spec.scripts = harness::random_scripts(type, 3, 3, seed * 17);
  spec.delays =
      std::make_shared<UniformRandomDelay>(spec.params.min_delay(), spec.params.d, seed);
  spec.drop_probability = 0.1;
  spec.drop_seed = seed * 31;
  return spec;
}

TEST(FaultPlaneTest, SixtySeedReplayDeterminismWithScheduleOn) {
  adt::QueueType queue;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    auto a = seeded_spec(queue, seed);
    auto b = seeded_spec(queue, seed);
    const FaultSchedule schedule{{{2, 40.0}}, {{0, 1, 10.0, 30.0}}};
    a.faults = schedule;
    b.faults = schedule;
    const auto ra = harness::execute(queue, a);
    const auto rb = harness::execute(queue, b);
    ASSERT_EQ(record_to_string(ra.record), record_to_string(rb.record))
        << "schedule-on replay diverged at seed " << seed;
  }
}

TEST(FaultPlaneTest, SixtySeedInactiveScheduleByteIdenticalToNone) {
  adt::QueueType queue;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    auto off = seeded_spec(queue, seed);

    // A schedule that never fires: the crash and the window both live far
    // beyond quiescence.  The record must match a no-schedule run exactly
    // -- fault checks consume no randomness.
    auto inactive = seeded_spec(queue, seed);
    inactive.faults.crashes = {{2, 1.0e9}};
    inactive.faults.link_drops = {{0, 1, 1.0e9, 2.0e9}};

    const auto r_off = harness::execute(queue, off);
    const auto r_inactive = harness::execute(queue, inactive);
    ASSERT_EQ(record_to_string(r_off.record), record_to_string(r_inactive.record))
        << "inactive schedule perturbed the record at seed " << seed;
  }
}

}  // namespace
}  // namespace lintime::sim
