// Post-campaign classification: turns raw trial records into the category
// shares plotted in Figures 4-6, for any checkpoint interval, detector model
// (perfect control-flow detection vs the realistic JRS-gated detector) and
// protection model (baseline vs the §5.2.2 "lhf" hardened pipeline).
#pragma once

#include <map>
#include <vector>

#include "faultinject/outcome.hpp"
#include "faultinject/uarch_campaign.hpp"

namespace restore::faultinject {

enum class DetectorModel : u8 {
  kPerfectCfv,          // Figure 4: every control-flow violation is detectable
  kJrsConfidence,       // Figure 5: only high-confidence mispredictions trigger
  kJrsPlusIllegalFlow,  // §5.2.1 extension: JRS + control-flow monitoring
                        // watchdog (requires CoreConfig::illegal_flow_watchdog
                        // during the campaign)
};

enum class ProtectionModel : u8 {
  kBaseline,  // Figures 4-5: unprotected pipeline
  kLhf,       // Figure 6: parity on control latches, ECC on key data stores
};

// Classify one trial for a given checkpoint interval, with the paper's
// precedence: deadlock > exception > cfv > sdc; non-failures split into
// masked / latent / other.
UarchOutcome classify_trial(const UarchTrialRecord& trial, DetectorModel detector,
                            ProtectionModel protection, u64 interval);

// Fraction of trials per category (sums to 1).
std::map<UarchOutcome, double> category_shares(
    const std::vector<UarchTrialRecord>& trials, DetectorModel detector,
    ProtectionModel protection, u64 interval);

// Raw failure probability with no detection/recovery at all: the paper's
// "~7% of injected faults propagate to some form of failure", as a Wilson
// interval over the eligible trials (aborted trials are tool artefacts,
// excluded from both the failure count and the denominator).
ProportionCi failure_rate(const std::vector<UarchTrialRecord>& trials,
                          ProtectionModel protection = ProtectionModel::kBaseline);

// The point estimate of failure_rate.
double failure_fraction(const std::vector<UarchTrialRecord>& trials,
                        ProtectionModel protection = ProtectionModel::kBaseline);

// Failure probability that slips past ReStore (sdc + latent categories) for
// a given interval — ~3.5% at interval 100 in the paper's Figure 5 setup,
// ~1% with the hardened pipeline (Figure 6).
double uncovered_fraction(const std::vector<UarchTrialRecord>& trials,
                          DetectorModel detector, ProtectionModel protection,
                          u64 interval);

// Mean-time-between-failures improvement over the unprotected baseline
// (paper headline: ~2x for ReStore alone, ~7x for lhf+ReStore).
double mtbf_improvement(const std::vector<UarchTrialRecord>& trials,
                        DetectorModel detector, ProtectionModel protection,
                        u64 interval);

}  // namespace restore::faultinject
