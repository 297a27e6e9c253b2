// Renders an in-memory trial list in the per-trial interchange format, one
// JSONL line per trial keyed by its list position, so tests can compare two
// campaigns' trial lists as bytes.
#pragma once

#include <string>
#include <vector>

#include "faultinject/campaign_io.hpp"

namespace restore::faultinject {

inline std::string trial_lines(const std::vector<VmTrialResult>& trials) {
  std::string out;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    out += vm_trial_to_jsonl(0, i, trials[i]);
    out.push_back('\n');
  }
  return out;
}

inline std::string trial_lines(const std::vector<UarchTrialRecord>& trials) {
  std::string out;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    out += uarch_trial_to_jsonl(0, i, trials[i]);
    out.push_back('\n');
  }
  return out;
}

}  // namespace restore::faultinject
