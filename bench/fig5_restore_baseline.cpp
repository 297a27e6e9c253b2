// Figure 5 — "ReStore coverage vs. checkpoint latency in the baseline
// pipeline" (paper §5.2.1): the realistic detector configuration, where
// control-flow symptoms are gated by the JRS confidence predictor. Control
// flow violations that the confidence predictor misses fall into `sdc`.
//
// Usage: fig5_restore_baseline [--trials N] [--seed S] [--out-jsonl PATH]
//                              [--resume] [--workers N] [--shard-trials N]
//                              [--heartbeat N] [--shard-stats PATH]
#include <cstdio>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "faultinject/classify.hpp"
#include "faultinject/uarch_campaign.hpp"

using namespace restore;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  faultinject::UarchCampaignConfig config;
  config.trials_per_workload = resolve_trial_count(args, 150);
  config.seed = resolve_seed(args, 0xC0FE);
  config.trial_budget = bench::cli_trial_budget(args);

  std::printf("=== Figure 5: ReStore coverage, baseline pipeline ===\n");
  std::printf(
      "detectors: ISA exceptions + JRS high-confidence mispredictions + watchdog\n\n");

  faultinject::CampaignTelemetry telemetry;
  const auto result = run_uarch_campaign(config, bench::campaign_options(args), &telemetry);
  const int status = bench::report_campaign(telemetry, args);
  std::printf("trials: %zu\n\n", result.trials.size());

  bench::print_uarch_category_table(result.trials,
                                    faultinject::DetectorModel::kJrsConfidence,
                                    faultinject::ProtectionModel::kBaseline);

  const double failures = faultinject::failure_fraction(result.trials);
  const double uncovered_100 = faultinject::uncovered_fraction(
      result.trials, faultinject::DetectorModel::kJrsConfidence,
      faultinject::ProtectionModel::kBaseline, 100);
  const auto shares_100 = faultinject::category_shares(
      result.trials, faultinject::DetectorModel::kJrsConfidence,
      faultinject::ProtectionModel::kBaseline, 100);
  const auto cfv_it = shares_100.find(faultinject::UarchOutcome::kCfv);
  const double cfv = cfv_it == shares_100.end() ? 0.0 : cfv_it->second;

  std::printf("\nsummary (100-insn checkpoint interval):\n");
  std::printf("  baseline failure probability:      %s  (paper: ~7%%)\n",
              TextTable::fmt_pct(failures, 1).c_str());
  std::printf("  failures slipping past ReStore:    %s  (paper: ~3.5%%)\n",
              TextTable::fmt_pct(uncovered_100, 1).c_str());
  if (failures > 0) {
    std::printf("  JRS-gated cfv coverage:            %s of failures (paper: ~5%%)\n",
                TextTable::fmt_pct(cfv / failures, 1).c_str());
  }
  std::printf("  MTBF improvement vs baseline:      %.2fx  (paper: ~2x)\n",
              faultinject::mtbf_improvement(result.trials,
                                            faultinject::DetectorModel::kJrsConfidence,
                                            faultinject::ProtectionModel::kBaseline,
                                            100));
  return status;
}
