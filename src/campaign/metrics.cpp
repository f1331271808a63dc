#include "campaign/metrics.hpp"

namespace lintime::campaign {

JobMetrics reduce_record(const sim::RunRecord& record) {
  JobMetrics out;
  out.ops = harness::latency_by_op(record);
  out.steps = record.steps.size();
  out.ops_invoked = record.ops.size();
  for (const auto& [name, m] : out.ops) out.ops_complete += m.count;
  out.quiescence_time = record.last_time();
  out.messages_sent = record.messages.size();
  for (const auto& m : record.messages) {
    if (!m.received) ++out.messages_dropped;
  }
  return out;
}

}  // namespace lintime::campaign
