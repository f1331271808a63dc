#include "lin/checker.hpp"

#include <sstream>

#include "lin/search_detail.hpp"

namespace lintime::lin {

std::string CheckResult::witness_to_string(const std::vector<sim::OpRecord>& ops) const {
  std::ostringstream os;
  for (std::size_t k = 0; k < witness.size(); ++k) {
    if (k > 0) os << " . ";
    os << ops[witness[k]].to_string();
  }
  return os.str();
}

CheckResult check_linearizability(const adt::DataType& type,
                                  const std::vector<sim::OpRecord>& ops,
                                  const CheckOptions& options) {
  detail::require_complete(ops);
  auto state = type.initial_state();
  return detail::Search(detail::realtime_order(ops), detail::ApplyStep(type, ops),
                        options.memoize)
      .run(*state);
}

CheckResult check_linearizability(const adt::DataType& type, const sim::RunRecord& record) {
  return check_linearizability(type, record.ops);
}

}  // namespace lintime::lin
