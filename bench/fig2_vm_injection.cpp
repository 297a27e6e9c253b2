// Figure 2 — "Virtual machine fault injection" (paper §3.1) and Table 1.
//
// Injects single bit flips into the results of randomly chosen instructions
// at the architectural (ISA) level and classifies each trial into Table 1's
// categories, cumulatively per symptom-latency bin. Also reproduces the
// §3.1 follow-up study restricting flips to the low 32 bits (--low32).
//
// Usage: fig2_vm_injection [--trials N] [--seed S] [--low32]
//                          [--fault-model single|multi|targeted|rate] [--fault-bits K]
//                          [--fault-target load|store] [--vdd-mv MV]
//                          [--freq-mhz MHZ] [--upset-ppm PPM]
//                          [--out-jsonl PATH] [--resume] [--workers N]
//                          [--shard-trials N] [--heartbeat N] [--shard-stats PATH]
//        RESTORE_TRIALS=N scales the per-workload trial count (paper: ~1000).
//        With --out-jsonl the campaign streams per-trial results as shards
//        complete and --resume continues an interrupted run from the manifest.
//        Expanded fault models (fault_model.hpp) apply on top of the result-bit
//        model; burst/set need microarchitectural state and are rejected here.
#include <cstdio>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "faultinject/vm_campaign.hpp"

using namespace restore;
using faultinject::VmOutcome;

namespace {

void print_campaign(const faultinject::VmCampaignResult& result) {
  const auto categories = {VmOutcome::kMasked,  VmOutcome::kRegister,
                           VmOutcome::kMemData, VmOutcome::kMemAddr,
                           VmOutcome::kCfv,     VmOutcome::kException};
  std::vector<std::string> header = {"latency<="};
  for (const auto category : categories) header.emplace_back(to_string(category));
  TextTable table(std::move(header));
  for (const u64 edge : figure2_latency_bins()) {
    std::vector<std::string> row = {bench::latency_label(edge)};
    for (const auto category : categories) {
      double share = result.fraction(category, edge);
      if (category == VmOutcome::kMasked) {
        // Masked has no latency; show it only in the terminal bin, where the
        // whole distribution must sum to 100%.
        share = edge == kNever ? result.fraction(VmOutcome::kMasked) : 0.0;
      }
      row.push_back(TextTable::fmt_pct(share, 1));
    }
    table.add_row(std::move(row));
  }
  std::fputs(table.render().c_str(), stdout);

  const double masked = result.fraction(VmOutcome::kMasked);
  const double failing = 1.0 - masked;
  const double symptomatic_100 = result.fraction(VmOutcome::kException, 100) +
                                 result.fraction(VmOutcome::kCfv, 100);
  std::printf("\nsummary: trials=%zu\n", result.trials.size());
  std::printf("  masked (no failure):                 %s\n",
              TextTable::fmt_pct(masked, 1).c_str());
  std::printf("  exception or cfv within 100 insns:   %s of all trials\n",
              TextTable::fmt_pct(symptomatic_100, 1).c_str());
  if (failing > 0) {
    std::printf("  ... as a share of failing trials:    %s  (paper: ~80%%)\n",
                TextTable::fmt_pct(symptomatic_100 / failing, 1).c_str());
  }
  const auto ci = wilson_interval(
      result.count(VmOutcome::kException, kNever), result.trials.size());
  std::printf("  exception share 95%%-CI margin:       +/-%s\n",
              TextTable::fmt_pct(ci.margin(), 2).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  faultinject::VmCampaignConfig config;
  config.trials_per_workload = resolve_trial_count(args, 150);
  config.seed = resolve_seed(args, 0x5EED);
  config.low32_only = args.has_flag("low32");
  config.trial_budget = bench::cli_trial_budget(args);
  if (args.value("model").value_or("result") == "register") {
    config.model = faultinject::VmFaultModel::kRegisterBit;
  }
  config.fault_model = faultinject::fault_model_from_cli(args);

  std::printf("=== Figure 2: architectural fault injection (Table 1 categories) ===\n");
  std::printf("fault model: %s%s\n",
              config.model == faultinject::VmFaultModel::kResultBit
                  ? "single bit flip in the result of a random instruction"
                  : "single bit flip in a random live architectural register "
                    "(Gu et al. / rePLay related-work model)",
              config.low32_only ? " (low 32 bits only)" : "");
  if (!faultinject::is_default_fault_model(config.fault_model)) {
    std::printf("expanded fault model: %s (%s)\n",
                std::string(to_string(config.fault_model.model)).c_str(),
                faultinject::fault_model_identity_key(config.fault_model).c_str());
  }
  std::printf("workloads: 7 SPECint analogs, %llu trials each\n\n",
              static_cast<unsigned long long>(config.trials_per_workload));

  const auto opts = bench::campaign_options(args);
  faultinject::CampaignTelemetry telemetry;
  const auto result = run_vm_campaign(config, opts, &telemetry);
  const int status = bench::report_campaign(telemetry, args);
  print_campaign(result);

  // The follow-up study only makes sense over a complete main campaign, and
  // after a shutdown request the process should wind down, not start another
  // campaign.
  if (!config.low32_only && status == bench::kExitComplete) {
    // The §3.1 follow-up: how does the exception share move when flips are
    // confined to the low 32 bits?
    auto low32 = config;
    low32.low32_only = true;
    // The follow-up study reuses the worker pool but never the trace files:
    // it is a different campaign and must not clobber the main one's manifest.
    auto low32_opts = opts;
    low32_opts.out_jsonl.clear();
    low32_opts.resume = false;
    const auto low = run_vm_campaign(low32, low32_opts);
    const double full_exc = result.fraction(VmOutcome::kException);
    const double low_exc = low.fraction(VmOutcome::kException);
    std::printf("\n--- 32-bit result study (paper: exception category loses ~25%%) ---\n");
    std::printf("  exception share, 64-bit flips: %s\n",
                TextTable::fmt_pct(full_exc, 1).c_str());
    std::printf("  exception share, low-32 flips: %s (%+.0f%% relative)\n",
                TextTable::fmt_pct(low_exc, 1).c_str(),
                full_exc > 0 ? 100.0 * (low_exc - full_exc) / full_exc : 0.0);
    std::printf("  cfv share moves %s -> %s\n",
                TextTable::fmt_pct(result.fraction(VmOutcome::kCfv), 1).c_str(),
                TextTable::fmt_pct(low.fraction(VmOutcome::kCfv), 1).c_str());
  }
  return status;
}
