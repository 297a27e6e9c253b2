// Campaign result export: per-trial CSV writers so campaign data can be
// plotted outside the repository (gnuplot/pandas/etc), the per-fault-model
// outcome breakdown, and the per-shard wall-time stats surfaced by the
// campaign orchestrator. JSONL (campaign_io.hpp) is the only per-trial
// interchange format; CSV is a rendering of it (`restore-analyze export`).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "faultinject/classify.hpp"
#include "faultinject/orchestrator.hpp"
#include "faultinject/uarch_campaign.hpp"
#include "faultinject/vm_campaign.hpp"

namespace restore::faultinject {

// One row per trial: workload, field, storage, protection, event latencies,
// end-state flags, fault-model extras. Latency columns print empty cells for
// kNever; extra_bits prints the whole vector semicolon-separated.
void write_uarch_trials_csv(std::ostream& out,
                            const std::vector<UarchTrialRecord>& trials);

// One row per trial: workload, outcome, latency, injection site, fault-model
// extras (extra_bits semicolon-separated, upset flag).
void write_vm_trials_csv(std::ostream& out, const std::vector<VmTrialResult>& trials);

// Observability: one row per shard with its workload, trial count, wall time
// and throughput, plus whether the shard was resumed from a trace rather
// than re-run.
void write_shard_stats_csv(std::ostream& out, const std::vector<ShardStats>& shards);

// Per-fault-model outcome breakdown: one row per (model, outcome) pair with
// its trial count. Default-model trials (empty `model` field) report as
// "single". Rows are sorted by model then outcome, so the breakdown of a
// given trial set is byte-stable.
struct ModelBreakdownRow {
  std::string model;
  std::string outcome;
  u64 count = 0;
};

std::vector<ModelBreakdownRow> model_breakdown(const std::vector<VmTrialResult>& trials);
// Uarch trials are classified with the given detector/protection model and
// checkpoint interval (classify.hpp) before aggregation.
std::vector<ModelBreakdownRow> model_breakdown(const std::vector<UarchTrialRecord>& trials,
                                               DetectorModel detector,
                                               ProtectionModel protection,
                                               u64 interval);

// Convenience: write to a file path (throws std::runtime_error on I/O error).
void write_shard_stats_csv(const std::string& path,
                           const std::vector<ShardStats>& shards);

}  // namespace restore::faultinject
