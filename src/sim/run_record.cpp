#include "sim/run_record.hpp"

#include <sstream>

namespace lintime::sim {

std::string OpRecord::to_string() const {
  std::ostringstream os;
  os << "p" << proc << ":" << op << "(" << arg.to_string() << ") -> " << ret.to_string() << " @ ["
     << invoke_real << ", " << response_real << "]";
  return os.str();
}

std::vector<StepRecord> RunRecord::view_of(ProcId p) const {
  std::vector<StepRecord> out;
  for (const auto& s : steps) {
    if (s.proc == p) out.push_back(s);
  }
  return out;
}

}  // namespace lintime::sim
