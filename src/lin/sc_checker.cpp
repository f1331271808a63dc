#include "lin/sc_checker.hpp"

#include <utility>

#include "lin/search_detail.hpp"

namespace lintime::lin {

CheckResult check_sequential_consistency(const adt::DataType& type,
                                         const std::vector<sim::OpRecord>& ops) {
  detail::require_complete(ops);
  // Program order only: i before j iff both ran at the same process and i
  // was invoked first (per-process operations never overlap, so invocation
  // order is program order; uid breaks exact-boundary ties).
  detail::PrecedenceMatrix program_order(ops.size(), [&ops](std::size_t i, std::size_t j) {
    if (ops[i].proc != ops[j].proc) return false;
    if (ops[i].invoke_real != ops[j].invoke_real) {
      return ops[i].invoke_real < ops[j].invoke_real;
    }
    return ops[i].uid < ops[j].uid;
  });
  auto state = type.initial_state();
  return detail::Search(std::move(program_order), detail::ApplyStep(type, ops),
                        /*memoize=*/true)
      .run(*state);
}

CheckResult check_sequential_consistency(const adt::DataType& type,
                                         const sim::RunRecord& record) {
  return check_sequential_consistency(type, record.ops);
}

}  // namespace lintime::lin
