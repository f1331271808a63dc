// Forced-collision test for the memoized checker: a data type whose states
// all share one (degenerate) fingerprint must still be checked correctly,
// because the memo compares the stored state's canonical() form before
// pruning.  A fingerprint collision may cost re-exploration -- never a wrong
// verdict.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "adt/data_type.hpp"
#include "colliding_register.hpp"
#include "lin/checker.hpp"
#include "sim/run_record.hpp"

namespace lintime::lin {
namespace {

using adt::Value;

using test_types::CollidingRegisterType;

TEST(CollisionTest, FingerprintsActuallyCollide) {
  CollidingRegisterType type;
  auto a = type.initial_state();
  auto b = type.initial_state();
  b->apply("write", Value{5});
  EXPECT_NE(a->canonical(), b->canonical());
  EXPECT_EQ(a->fingerprint(), b->fingerprint());
}

/// Pseudo-random concurrent history: 3 processes, overlapping intervals,
/// reads/swaps guessing return values so both verdicts occur.
std::vector<sim::OpRecord> sample_history(unsigned seed, int ops_per_proc) {
  unsigned s = seed;
  const auto next = [&s] {
    s = s * 1664525u + 1013904223u;
    return s >> 8;
  };
  std::vector<sim::OpRecord> ops;
  std::uint64_t uid = 1;
  for (int p = 0; p < 3; ++p) {
    double t = 0.1 * p;
    for (int k = 0; k < ops_per_proc; ++k) {
      sim::OpRecord rec;
      rec.proc = p;
      rec.uid = uid++;
      rec.invoke_real = t;
      rec.response_real = t + 1.5;  // long enough to overlap other processes
      switch (next() % 3) {
        case 0:
          rec.op = "write";
          rec.arg = Value{static_cast<std::int64_t>(next() % 3)};
          rec.ret = Value::nil();
          break;
        case 1:
          rec.op = "read";
          rec.arg = Value::nil();
          rec.ret = Value{static_cast<std::int64_t>(next() % 3)};
          break;
        default:
          rec.op = "swap";
          rec.arg = Value{static_cast<std::int64_t>(next() % 3)};
          rec.ret = Value{static_cast<std::int64_t>(next() % 3)};
          break;
      }
      ops.push_back(std::move(rec));
      t += 0.5 + 0.001 * static_cast<double>(next() % 2000);
    }
  }
  return ops;
}

TEST(CollisionTest, VerdictUnaffectedByTotalCollisions) {
  CollidingRegisterType type;
  int linearizable = 0;
  int rejected = 0;
  for (unsigned seed = 1; seed <= 60; ++seed) {
    const auto ops = sample_history(seed, 4);
    CheckOptions memoized;
    memoized.memoize = true;
    CheckOptions plain;
    plain.memoize = false;
    const CheckResult with_memo = check_linearizability(type, ops, memoized);
    const CheckResult without = check_linearizability(type, ops, plain);

    // Every state shares one fingerprint, so the memo sees nothing but
    // collisions; the canonical guard must keep verdict AND witness exact.
    EXPECT_EQ(with_memo.linearizable, without.linearizable) << "seed " << seed;
    EXPECT_EQ(with_memo.witness, without.witness) << "seed " << seed;
    EXPECT_LE(with_memo.nodes_expanded, without.nodes_expanded) << "seed " << seed;
    (with_memo.linearizable ? linearizable : rejected) += 1;
  }
  // The corpus must exercise both outcomes or the test proves little.
  EXPECT_GT(linearizable, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace lintime::lin
