// Tests for the metrics reductions: nearest-rank percentiles, sample
// reduction (both in harness), and record-to-JobMetrics reduction.

#include "campaign/metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "adt/register_type.hpp"

namespace lintime::campaign {
namespace {

TEST(MetricsTest, PercentileNearestRank) {
  const std::vector<double> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(harness::percentile(ten, 0.0), 1);
  EXPECT_DOUBLE_EQ(harness::percentile(ten, 0.50), 5);   // ceil(0.50 * 10) = 5
  EXPECT_DOUBLE_EQ(harness::percentile(ten, 0.90), 9);
  EXPECT_DOUBLE_EQ(harness::percentile(ten, 0.99), 10);  // ceil(9.9) = 10
  EXPECT_DOUBLE_EQ(harness::percentile(ten, 1.0), 10);

  const std::vector<double> one = {42};
  EXPECT_DOUBLE_EQ(harness::percentile(one, 0.5), 42);
  EXPECT_DOUBLE_EQ(harness::percentile(one, 0.99), 42);
}

TEST(MetricsTest, PercentileRejectsBadInput) {
  EXPECT_THROW((void)harness::percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)harness::percentile({1.0}, -0.1), std::invalid_argument);
  EXPECT_THROW((void)harness::percentile({1.0}, 1.1), std::invalid_argument);
}

TEST(MetricsTest, ReduceSamplesSortsInternally) {
  const auto m = harness::reduce_samples({5, 1, 3, 2, 4});
  EXPECT_EQ(m.count, 5u);
  EXPECT_DOUBLE_EQ(m.min, 1);
  EXPECT_DOUBLE_EQ(m.max, 5);
  EXPECT_DOUBLE_EQ(m.mean, 3);
  EXPECT_DOUBLE_EQ(m.p50, 3);
  EXPECT_EQ(m.samples, (std::vector<double>{5, 1, 3, 2, 4}));  // kept as given

  const auto empty = harness::reduce_samples({});
  EXPECT_EQ(empty.count, 0u);
}

TEST(MetricsTest, ReduceRecordCountsAndVerdictDefault) {
  sim::RunRecord record;
  auto add = [&record](const std::string& op, double inv, double resp) {
    sim::OpRecord r;
    r.op = op;
    r.invoke_real = inv;
    r.response_real = resp;
    record.ops.push_back(r);
  };
  add("read", 0, 2);
  add("read", 10, 13);
  add("write", 0, 5);
  add("write", 20, -1);  // incomplete: invoked, never responded

  sim::MessageRecord msg;
  msg.received = true;
  record.messages.push_back(msg);
  msg.received = false;
  record.messages.push_back(msg);

  const auto m = reduce_record(record);
  EXPECT_EQ(m.ops_invoked, 4u);
  EXPECT_EQ(m.ops_complete, 3u);
  EXPECT_EQ(m.ops.at("read").count, 2u);
  EXPECT_DOUBLE_EQ(m.ops.at("read").min, 2);
  EXPECT_DOUBLE_EQ(m.ops.at("read").max, 3);
  EXPECT_EQ(m.ops.at("write").count, 1u);  // the incomplete write is excluded
  EXPECT_EQ(m.messages_sent, 2u);
  EXPECT_EQ(m.messages_dropped, 1u);
  EXPECT_EQ(m.verdict, JobMetrics::Verdict::kNotChecked);
}

TEST(MetricsTest, OpsWithAndWithoutIdsShareTheirNamesGroup) {
  // One read carries its interned id, the other none, as in a record that
  // lin::fast::append_impossible_observation extended.  Both reductions
  // group by name, so both reads count.
  adt::RegisterType reg;
  sim::RunRecord record;
  sim::OpRecord resolved;
  resolved.op = "read";
  resolved.op_id = reg.op_id("read");
  resolved.invoke_real = 0;
  resolved.response_real = 2;
  record.ops.push_back(resolved);
  sim::OpRecord unresolved;
  unresolved.op = "read";
  unresolved.invoke_real = 10;
  unresolved.response_real = 16;
  record.ops.push_back(unresolved);

  const auto job = reduce_record(record);
  EXPECT_EQ(job.ops_complete, 2u);
  const auto expect_both_reads = [&job](const auto& by_op) {
    const auto& read = by_op.at("read");
    EXPECT_EQ(read.count, 2u);
    EXPECT_DOUBLE_EQ(read.min, 2);
    EXPECT_DOUBLE_EQ(read.max, 6);
    std::size_t counted = 0;
    for (const auto& [name, m] : by_op) counted += m.count;
    EXPECT_EQ(counted, job.ops_complete);
  };
  expect_both_reads(harness::latency_by_op(record));
  expect_both_reads(job.ops);
}

TEST(MetricsTest, VerdictToString) {
  EXPECT_STREQ(to_string(JobMetrics::Verdict::kNotChecked), "not-checked");
  EXPECT_STREQ(to_string(JobMetrics::Verdict::kLinearizable), "linearizable");
  EXPECT_STREQ(to_string(JobMetrics::Verdict::kViolation), "violation");
}

}  // namespace
}  // namespace lintime::campaign
