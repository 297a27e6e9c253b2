// The paper's microarchitectural figures from one injection campaign. Figures
// 4, 5, 6 and 8 and the headline MTBF numbers all classify the same trial
// population; they differ only in the detector model (perfect cfv vs JRS-gated)
// and the protection model (baseline vs lhf), so the campaign runs once and
// every section below reads its trials:
//   Figure 4  — propagation vs checkpoint latency, perfect cfv identification
//               (§5.1.1; --latches-only gives the §5.1.2 latch study)
//   Figure 5  — ReStore coverage with JRS-gated cfv symptoms (§5.2.1)
//   Figure 6  — ReStore on the hardened "lhf" pipeline (§5.2.2)
//   Figure 8  — FIT rates with device scaling (§5.3)
//   Headline  — MTBF improvement of each configuration (abstract, §7)
// A finished trace re-renders every section without simulating:
// `uarch_figures --out-jsonl T --resume`.
//
// Usage: uarch_figures [--trials N] [--seed S] [--latches-only]
//                      [--fault-model single|multi|burst|set|targeted|rate]
//                      [--fault-bits K] [--burst-entries N]
//                      [--fault-target load|store] [--vdd-mv MV]
//                      [--freq-mhz MHZ] [--upset-ppm PPM]
//                      [--out-jsonl PATH] [--resume] [--workers N]
//                      [--shard-trials N] [--heartbeat N] [--shard-stats PATH]
//        Expanded fault models (fault_model.hpp) change how each trial's bits
//        are chosen/flipped; the default single-bit model keeps the campaign
//        byte-identical to its historical traces.
#include <cstdio>

#include "bench_util.hpp"
#include "faultinject/classify.hpp"
#include "faultinject/uarch_campaign.hpp"
#include "reliability/fit.hpp"

using namespace restore;
using faultinject::DetectorModel;
using faultinject::ProtectionModel;
using faultinject::UarchTrialRecord;

namespace {

// The checkpoint interval of every summary line (the paper's operating point).
constexpr u64 kInterval = 100;

// Render the Figures 4-6 stacked-category table: one row per checkpoint
// interval, one column per Table 2 category (shares of all trials).
void print_category_table(const std::vector<UarchTrialRecord>& trials,
                          DetectorModel detector, ProtectionModel protection) {
  using faultinject::UarchOutcome;
  const auto categories = {UarchOutcome::kMasked,   UarchOutcome::kOther,
                           UarchOutcome::kLatent,   UarchOutcome::kSdc,
                           UarchOutcome::kCfv,      UarchOutcome::kException,
                           UarchOutcome::kDeadlock};
  std::vector<std::string> header = {"interval"};
  for (const auto category : categories) {
    header.emplace_back(to_string(category));
  }
  header.emplace_back("covered/failures");
  TextTable table(std::move(header));

  for (const u64 interval : checkpoint_interval_sweep()) {
    const auto shares =
        faultinject::category_shares(trials, detector, protection, interval);
    std::vector<std::string> row = {std::to_string(interval)};
    double covered = 0, failures = 0;
    for (const auto category : categories) {
      const auto it = shares.find(category);
      const double share = it == shares.end() ? 0.0 : it->second;
      row.push_back(TextTable::fmt_pct(share, 2));
      if (faultinject::is_covered(category)) covered += share;
      if (faultinject::is_failure(category)) failures += share;
    }
    row.push_back(failures > 0
                      ? TextTable::fmt_pct(covered / failures, 1)
                      : std::string("n/a"));
    table.add_row(std::move(row));
  }
  std::fputs(table.render().c_str(), stdout);
}

// Figure 4 (paper §5.1.1/§5.1.2): Table 2's categories with perfect
// identification of control-flow violations. The header is printed before
// the campaign runs; this is the body.
void print_fig4(const faultinject::UarchCampaignResult& result,
                const reliability::SdcRates& rates, bool latches_only) {
  std::printf("eligible state bits: %llu (paper's model: ~46,000)\n",
              static_cast<unsigned long long>(result.eligible_bits));
  std::printf("trials: %zu\n\n", result.trials.size());

  print_category_table(result.trials, DetectorModel::kPerfectCfv,
                       ProtectionModel::kBaseline);

  const double failures = rates.baseline;
  std::printf("\nsummary:\n");
  std::printf("  faults propagating to failure:  %s  (paper: ~8%%%s)\n",
              TextTable::fmt_pct(failures, 1).c_str(),
              latches_only ? ", latch faults are likelier to hit in-flight state" : "");
  const double uncovered = faultinject::uncovered_fraction(
      result.trials, DetectorModel::kPerfectCfv, ProtectionModel::kBaseline, kInterval);
  if (failures > 0) {
    std::printf("  covered at 100-insn interval:   %s of failures (paper: ~half%s)\n",
                TextTable::fmt_pct((failures - uncovered) / failures, 1).c_str(),
                latches_only ? "; ~75%% for latches" : "");
  }
}

// Figure 5 (paper §5.2.1): the realistic detector configuration, where
// control-flow symptoms are gated by the JRS confidence predictor. Control
// flow violations that the confidence predictor misses fall into `sdc`.
void print_fig5(const std::vector<UarchTrialRecord>& trials,
                const reliability::SdcRates& rates) {
  std::printf("=== Figure 5: ReStore coverage, baseline pipeline ===\n");
  std::printf(
      "detectors: ISA exceptions + JRS high-confidence mispredictions + watchdog\n\n");
  std::printf("trials: %zu\n\n", trials.size());

  print_category_table(trials, DetectorModel::kJrsConfidence,
                       ProtectionModel::kBaseline);

  const auto shares = faultinject::category_shares(
      trials, DetectorModel::kJrsConfidence, ProtectionModel::kBaseline, kInterval);
  const auto cfv_it = shares.find(faultinject::UarchOutcome::kCfv);
  const double cfv = cfv_it == shares.end() ? 0.0 : cfv_it->second;

  std::printf("\nsummary (100-insn checkpoint interval):\n");
  std::printf("  baseline failure probability:      %s  (paper: ~7%%)\n",
              TextTable::fmt_pct(rates.baseline, 1).c_str());
  std::printf("  failures slipping past ReStore:    %s  (paper: ~3.5%%)\n",
              TextTable::fmt_pct(rates.restore, 1).c_str());
  if (rates.baseline > 0) {
    std::printf("  JRS-gated cfv coverage:            %s of failures (paper: ~5%%)\n",
                TextTable::fmt_pct(cfv / rates.baseline, 1).c_str());
  }
  std::printf("  MTBF improvement vs baseline:      %.2fx  (paper: ~2x)\n",
              faultinject::mtbf_improvement(trials, DetectorModel::kJrsConfidence,
                                            ProtectionModel::kBaseline, kInterval));
}

// Figure 6 (paper §5.2.2): the "low-hanging-fruit" pipeline adds ECC to the
// register file, alias tables, fetch queue and ROB, and parity to pipeline
// control-word latches; ReStore is layered on top. Faults into protected
// state are corrected or detected+recovered (they surface in `other`).
void print_fig6(const std::vector<UarchTrialRecord>& trials,
                const reliability::SdcRates& rates) {
  std::printf("=== Figure 6: ReStore coverage, hardened (lhf) pipeline ===\n\n");
  std::printf("trials: %zu\n\n", trials.size());

  print_category_table(trials, DetectorModel::kJrsConfidence, ProtectionModel::kLhf);

  std::printf("\nsummary (100-insn checkpoint interval):\n");
  std::printf("  baseline failure probability:          %s  (paper: ~7%%)\n",
              TextTable::fmt_pct(rates.baseline, 1).c_str());
  std::printf("  lhf (parity/ECC) alone:                %s  (paper: ~3%%)\n",
              TextTable::fmt_pct(rates.lhf, 1).c_str());
  std::printf("  lhf + ReStore:                         %s  (paper: ~1%%)\n",
              TextTable::fmt_pct(rates.lhf_restore, 1).c_str());
  std::printf("  MTBF improvement vs baseline:          %.2fx  (paper: ~7x)\n",
              faultinject::mtbf_improvement(trials, DetectorModel::kJrsConfidence,
                                            ProtectionModel::kLhf, kInterval));
}

// Figure 8 (paper §5.3): extrapolates the measured SDC probabilities across
// design sizes at 0.001 FIT/bit, against the 1000-year-MTBF goal line
// (~114 FIT).
void print_fig8(const reliability::SdcRates& rates) {
  std::printf("=== Figure 8: FIT rates with device scaling ===\n\n");
  std::printf("measured SDC probabilities per raw fault:\n");
  std::printf("  baseline=%s  ReStore=%s  lhf=%s  lhf+ReStore=%s\n\n",
              TextTable::fmt_pct(rates.baseline, 2).c_str(),
              TextTable::fmt_pct(rates.restore, 2).c_str(),
              TextTable::fmt_pct(rates.lhf, 2).c_str(),
              TextTable::fmt_pct(rates.lhf_restore, 2).c_str());

  const double goal = reliability::mtbf_goal_fit(1000.0);
  TextTable table({"design bits", "baseline", "ReStore", "lhf", "lhf+ReStore",
                   "meets 1000y goal?"});
  for (const auto& p : reliability::fit_scaling(rates)) {
    std::string verdict;
    verdict += p.fit_baseline <= goal ? "base " : "";
    verdict += p.fit_restore <= goal ? "restore " : "";
    verdict += p.fit_lhf <= goal ? "lhf " : "";
    verdict += p.fit_lhf_restore <= goal ? "lhf+restore" : "";
    if (verdict.empty()) verdict = "none";
    table.add_row({bench::latency_label(p.bits), TextTable::fmt_f(p.fit_baseline, 1),
                   TextTable::fmt_f(p.fit_restore, 1), TextTable::fmt_f(p.fit_lhf, 1),
                   TextTable::fmt_f(p.fit_lhf_restore, 1), verdict});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nMTBF goal line: %.1f FIT (1000-year MTBF)\n", goal);

  const u64 base_limit =
      reliability::max_bits_meeting_goal(goal, 0.001, rates.baseline);
  const u64 protected_limit =
      reliability::max_bits_meeting_goal(goal, 0.001, rates.lhf_restore);
  if (base_limit > 0) {
    std::printf(
        "lhf+ReStore sustains a design %.1fx larger at the same MTBF\n"
        "(paper: \"MTBF comparable to a design 1/7th the size\")\n",
        static_cast<double>(protected_limit) / static_cast<double>(base_limit));
  }
}

// Headline (paper abstract & §7): ReStore alone roughly doubles the mean time
// between failures over a contemporary pipeline; coupled with parity/ECC on
// the most vulnerable structures ("lhf"), MTBF improves ~7x.
void print_headline(const std::vector<UarchTrialRecord>& trials,
                    const reliability::SdcRates& rates, const ProportionCi& baseline) {
  std::printf("=== Headline: MTBF improvement at a %llu-instruction interval ===\n\n",
              static_cast<unsigned long long>(kInterval));
  TextTable table({"configuration", "failure probability", "MTBF vs baseline",
                   "paper"});
  table.add_row({"baseline (unprotected)", TextTable::fmt_pct(rates.baseline, 2),
                 "1.0x", "~7% failures"});
  table.add_row({"ReStore", TextTable::fmt_pct(rates.restore, 2),
                 TextTable::fmt_f(rates.baseline / rates.restore, 2) + "x",
                 "~3.5%, 2x"});
  table.add_row({"lhf (parity/ECC)", TextTable::fmt_pct(rates.lhf, 2),
                 TextTable::fmt_f(rates.baseline / rates.lhf, 2) + "x", "~3%"});
  table.add_row({"lhf + ReStore", TextTable::fmt_pct(rates.lhf_restore, 2),
                 TextTable::fmt_f(rates.baseline / rates.lhf_restore, 2) + "x",
                 "~1%, 7x"});
  std::fputs(table.render().c_str(), stdout);

  std::printf("\ntrials: %zu across 7 workloads; 95%%-CI margin on the baseline "
              "rate: +/-%s\n",
              trials.size(), TextTable::fmt_pct(baseline.margin(), 2).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  faultinject::UarchCampaignConfig config;
  config.trials_per_workload = resolve_trial_count(args, 150);
  config.seed = resolve_seed(args, 0xC0FE);
  config.latches_only = args.has_flag("latches-only");
  config.trial_budget = bench::cli_trial_budget(args);
  config.fault_model = faultinject::fault_model_from_cli(args);

  std::printf("=== Figure 4: microarchitectural fault injection, %s ===\n",
              config.latches_only ? "pipeline latches only (sec. 5.1.2)"
                                  : "all eligible state");
  if (!faultinject::is_default_fault_model(config.fault_model)) {
    std::printf("expanded fault model: %s (%s)\n",
                std::string(to_string(config.fault_model.model)).c_str(),
                faultinject::fault_model_identity_key(config.fault_model).c_str());
  }
  std::printf("detector model: perfect exception + control-flow identification\n");
  std::printf("monitored %llu cycles/trial; %llu trials/workload\n\n",
              static_cast<unsigned long long>(config.monitor_cycles),
              static_cast<unsigned long long>(config.trials_per_workload));

  faultinject::CampaignTelemetry telemetry;
  const auto result = run_uarch_campaign(config, bench::campaign_options(args), &telemetry);
  const int status = bench::report_campaign(telemetry, args);
  const auto& trials = result.trials;

  // The four SDC probabilities behind Figures 5, 6, 8 and the headline.
  const ProportionCi baseline = faultinject::failure_rate(trials);
  reliability::SdcRates rates;
  rates.baseline = baseline.estimate;
  rates.restore = faultinject::uncovered_fraction(
      trials, DetectorModel::kJrsConfidence, ProtectionModel::kBaseline, kInterval);
  rates.lhf = faultinject::failure_fraction(trials, ProtectionModel::kLhf);
  rates.lhf_restore = faultinject::uncovered_fraction(
      trials, DetectorModel::kJrsConfidence, ProtectionModel::kLhf, kInterval);

  print_fig4(result, rates, config.latches_only);
  print_fig5(trials, rates);
  print_fig6(trials, rates);
  print_fig8(rates);
  print_headline(trials, rates, baseline);
  return status;
}
