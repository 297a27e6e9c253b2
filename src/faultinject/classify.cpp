#include "faultinject/classify.hpp"

#include <algorithm>

namespace restore::faultinject {

namespace {

bool is_failing(const UarchTrialRecord& trial) {
  // A trial fails if architectural state is corrupt at the end, the machine
  // crashed or hung, or an incorrect instruction retired (control-flow
  // violation) — value corruption that was overwritten is not a failure
  // (paper §4.2's refined definition).
  return trial.arch_corrupt_at_end || trial.lat_exception != kNever ||
         trial.lat_deadlock != kNever || trial.lat_cfv != kNever;
}

}  // namespace

UarchOutcome classify_trial(const UarchTrialRecord& trial, DetectorModel detector,
                            ProtectionModel protection, u64 interval) {
  // Contained aborts outrank everything: the trial's observations stop at the
  // abort, so no hardware category can be trusted. They are tool artefacts,
  // excluded from failure/coverage statistics below.
  if (trial.aborted()) {
    return trial.abort_resource ? UarchOutcome::kResourceExhausted
                                : UarchOutcome::kSimAbort;
  }

  if (protection == ProtectionModel::kLhf &&
      trial.protection != uarch::LhfProtection::kNone) {
    // ECC corrects the flip in place; parity detects it on read and the
    // machine recovers via flush/rollback. Either way, no failure: the trial
    // lands in `other` (the paper notes Figure 6's larger `other` category
    // is exactly these ECC-covered faults).
    return UarchOutcome::kOther;
  }

  if (!is_failing(trial)) {
    if (trial.trace_diverged) return UarchOutcome::kMasked;  // healed
    if (trial.uarch_state_equal) return UarchOutcome::kMasked;
    return trial.live_state_diff ? UarchOutcome::kLatent : UarchOutcome::kOther;
  }

  // Coverage, in the paper's precedence order. The watchdog covers deadlocks
  // at any interval; exceptions and control-flow symptoms cover a failure
  // only when they fire within the rollback reach.
  if (trial.lat_deadlock != kNever) return UarchOutcome::kDeadlock;
  if (trial.lat_exception <= interval) return UarchOutcome::kException;
  u64 cfv_latency = trial.lat_hiconf;
  switch (detector) {
    case DetectorModel::kPerfectCfv:
      cfv_latency = trial.lat_cfv;
      break;
    case DetectorModel::kJrsConfidence:
      break;
    case DetectorModel::kJrsPlusIllegalFlow:
      cfv_latency = std::min(trial.lat_hiconf, trial.lat_illegal_flow);
      break;
  }
  if (cfv_latency <= interval) return UarchOutcome::kCfv;
  return UarchOutcome::kSdc;
}

std::map<UarchOutcome, double> category_shares(
    const std::vector<UarchTrialRecord>& trials, DetectorModel detector,
    ProtectionModel protection, u64 interval) {
  std::map<UarchOutcome, double> shares;
  if (trials.empty()) return shares;
  for (const auto& trial : trials) {
    shares[classify_trial(trial, detector, protection, interval)] += 1.0;
  }
  for (auto& [category, value] : shares) value /= static_cast<double>(trials.size());
  return shares;
}

ProportionCi failure_rate(const std::vector<UarchTrialRecord>& trials,
                          ProtectionModel protection) {
  std::size_t failures = 0;
  std::size_t eligible = 0;
  for (const auto& trial : trials) {
    if (trial.aborted()) continue;  // tool artefact, not a hardware outcome
    ++eligible;
    if (protection == ProtectionModel::kLhf &&
        trial.protection != uarch::LhfProtection::kNone) {
      continue;  // corrected/recovered by the hardware protection
    }
    // Latent faults count as failures (paper §5.1.1: "only 8% of all trials
    // (those that fall into the deadlock, exception, cfv, sdc, and latent
    // categories) are failures").
    if (is_failing(trial) ||
        (!trial.trace_diverged && !trial.uarch_state_equal && trial.live_state_diff)) {
      ++failures;
    }
  }
  return wilson_interval(failures, eligible);
}

double failure_fraction(const std::vector<UarchTrialRecord>& trials,
                        ProtectionModel protection) {
  return failure_rate(trials, protection).estimate;
}

double uncovered_fraction(const std::vector<UarchTrialRecord>& trials,
                          DetectorModel detector, ProtectionModel protection,
                          u64 interval) {
  if (trials.empty()) return 0.0;
  std::size_t uncovered = 0;
  std::size_t eligible = 0;
  for (const auto& trial : trials) {
    const UarchOutcome outcome = classify_trial(trial, detector, protection, interval);
    if (is_contained_abort(outcome)) continue;  // excluded from coverage stats
    ++eligible;
    if (outcome == UarchOutcome::kSdc || outcome == UarchOutcome::kLatent) {
      ++uncovered;
    }
  }
  if (eligible == 0) return 0.0;
  return static_cast<double>(uncovered) / eligible;
}

double mtbf_improvement(const std::vector<UarchTrialRecord>& trials,
                        DetectorModel detector, ProtectionModel protection,
                        u64 interval) {
  const double base = failure_fraction(trials, ProtectionModel::kBaseline);
  const double after = uncovered_fraction(trials, detector, protection, interval);
  if (after <= 0.0) return base > 0.0 ? 1e9 : 1.0;
  return base / after;
}

}  // namespace restore::faultinject
