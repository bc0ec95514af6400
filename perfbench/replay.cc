#include "replay.h"

#include <exception>

#include "fault/auditor.h"

namespace drtpbench {

std::string CheckState(const drtp::core::DrtpNetwork& net) {
  std::string error;
  try {
    net.CheckConsistency();
  } catch (const std::exception& e) {
    error += std::string("CheckConsistency: ") + e.what() + "; ";
  }
  drtp::fault::Auditor auditor;
  auditor.Check(net, 0.0, "final", nullptr);
  if (!auditor.ok()) {
    error += "auditor: " + std::to_string(auditor.violation_count()) +
             " violations, first " + auditor.violations()[0].invariant + "; ";
  }
  return error;
}

}  // namespace drtpbench
