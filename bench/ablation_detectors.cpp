// Ablation: what does each symptom detector contribute, and what would better
// detectors buy? Reproduces three claims from §5.2.1:
//   * "a perfect confidence predictor would yield nearly twice the error
//     coverage" of the JRS-gated detector,
//   * "about a third of the control flow violations are of the illegal
//     variety [which] a control flow monitoring watchdog would capture",
//   * exceptions + the watchdog provide the bulk of the coverage.
//
// Usage: ablation_detectors [--trials N] [--seed S] [--interval N] [--workers N]
#include <cstdio>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "faultinject/classify.hpp"
#include "faultinject/uarch_campaign.hpp"

using namespace restore;
using faultinject::DetectorModel;
using faultinject::ProtectionModel;

namespace {

struct Row {
  const char* name = nullptr;
  double uncovered = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const u64 interval = args.value_u64("interval", 100);

  faultinject::UarchCampaignConfig config;
  config.trials_per_workload = resolve_trial_count(args, 100);
  config.seed = resolve_seed(args, 0xAB1A);
  config.trial_budget = bench::cli_trial_budget(args);
  config.core_config.illegal_flow_watchdog = true;  // record kIllegalFlow events

  // This driver runs two campaigns in one process, so it shares the worker
  // pool sizing with the other binaries but never streams traces: one
  // --out-jsonl path cannot serve two campaign identities.
  auto opts = bench::campaign_options(args);
  opts.out_jsonl.clear();
  opts.resume = false;

  std::printf("=== Ablation: detector configurations (interval=%llu) ===\n\n",
              static_cast<unsigned long long>(interval));
  const auto with_jrs = run_uarch_campaign(config, opts);

  // A second campaign with a perfect confidence predictor (every mispredict
  // flagged high confidence).
  auto perfect_config = config;
  perfect_config.core_config.all_mispredicts_high_conf = true;
  const auto with_perfect_conf = run_uarch_campaign(perfect_config, opts);

  const double failures = faultinject::failure_fraction(with_jrs.trials);
  auto coverage = [&](const std::vector<faultinject::UarchTrialRecord>& trials,
                      DetectorModel detector) {
    const double base = faultinject::failure_fraction(trials);
    const double uncovered = faultinject::uncovered_fraction(
        trials, detector, ProtectionModel::kBaseline, interval);
    return base > 0 ? (base - uncovered) / base : 0.0;
  };

  // cfv-only coverage contributions (failures whose *only* covering symptom
  // is the control-flow detector).
  auto cfv_share = [&](const std::vector<faultinject::UarchTrialRecord>& trials,
                       DetectorModel detector) {
    const auto shares = faultinject::category_shares(trials, detector,
                                                     ProtectionModel::kBaseline,
                                                     interval);
    const auto it = shares.find(faultinject::UarchOutcome::kCfv);
    const double share = it == shares.end() ? 0.0 : it->second;
    const double base = faultinject::failure_fraction(trials);
    return base > 0 ? share / base : 0.0;
  };

  TextTable table({"detector configuration", "coverage of failures",
                   "cfv-covered share"});
  table.add_row({"exceptions + watchdog + JRS cfv (Fig. 5)",
                 TextTable::fmt_pct(coverage(with_jrs.trials,
                                             DetectorModel::kJrsConfidence), 1),
                 TextTable::fmt_pct(cfv_share(with_jrs.trials,
                                              DetectorModel::kJrsConfidence), 1)});
  table.add_row({"... + illegal-flow watchdog (sec. 5.2.1)",
                 TextTable::fmt_pct(coverage(with_jrs.trials,
                                             DetectorModel::kJrsPlusIllegalFlow), 1),
                 TextTable::fmt_pct(cfv_share(with_jrs.trials,
                                              DetectorModel::kJrsPlusIllegalFlow), 1)});
  table.add_row({"perfect confidence predictor (sec. 5.2.1)",
                 TextTable::fmt_pct(coverage(with_perfect_conf.trials,
                                             DetectorModel::kJrsConfidence), 1),
                 TextTable::fmt_pct(cfv_share(with_perfect_conf.trials,
                                              DetectorModel::kJrsConfidence), 1)});
  table.add_row({"perfect cfv identification (Fig. 4)",
                 TextTable::fmt_pct(coverage(with_jrs.trials,
                                             DetectorModel::kPerfectCfv), 1),
                 TextTable::fmt_pct(cfv_share(with_jrs.trials,
                                              DetectorModel::kPerfectCfv), 1)});
  std::fputs(table.render().c_str(), stdout);

  u64 flow_fired = 0, flow_fired_failing = 0;
  for (const auto& t : with_jrs.trials) {
    if (t.lat_illegal_flow == kNever) continue;
    ++flow_fired;
    if (t.arch_corrupt_at_end || t.lat_exception != kNever ||
        t.lat_deadlock != kNever || t.lat_cfv != kNever) {
      ++flow_fired_failing;
    }
  }
  std::printf("\nillegal-flow watchdog fired in %llu trials (%llu failing)\n",
              static_cast<unsigned long long>(flow_fired),
              static_cast<unsigned long long>(flow_fired_failing));
  std::printf("\nbaseline failure probability: %s (%zu trials)\n",
              TextTable::fmt_pct(failures, 1).c_str(), with_jrs.trials.size());
  std::printf("paper: JRS cfv covers ~5%% of failures; a perfect confidence\n"
              "predictor would nearly double that; an illegal-flow watchdog\n"
              "captures the ~1/3 of cfv that are illegal transfers.\n");
  return 0;
}
