#include "faultinject/export.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace restore::faultinject {

namespace {

void latency_cell(std::ostream& out, u64 latency) {
  if (latency != kNever) out << latency;
}

std::ofstream open_or_throw(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  return out;
}

// extra_bits cells hold the whole vector semicolon-separated ("3;17"; empty
// cell = no extra bits), keeping the row a single unquoted CSV record.
void extra_bits_cell(std::ostream& out, const std::vector<u64>& bits) {
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (i > 0) out << ';';
    out << bits[i];
  }
}

}  // namespace

void write_uarch_trials_csv(std::ostream& out,
                            const std::vector<UarchTrialRecord>& trials) {
  out << "workload,model,field,storage,protection,lat_exception,lat_cfv,lat_hiconf,"
         "lat_deadlock,lat_illegal_flow,lat_cache_burst,trace_diverged,"
         "arch_corrupt,uarch_equal,live_diff,end_status,extra_bits,upset\n";
  for (const auto& t : trials) {
    out << t.workload << ',' << (t.model.empty() ? "single" : t.model) << ','
        << t.field_name << ','
        << (t.storage == uarch::StorageClass::kLatch ? "latch" : "sram") << ',';
    switch (t.protection) {
      case uarch::LhfProtection::kNone: out << "none"; break;
      case uarch::LhfProtection::kParity: out << "parity"; break;
      case uarch::LhfProtection::kEcc: out << "ecc"; break;
    }
    out << ',';
    latency_cell(out, t.lat_exception);
    out << ',';
    latency_cell(out, t.lat_cfv);
    out << ',';
    latency_cell(out, t.lat_hiconf);
    out << ',';
    latency_cell(out, t.lat_deadlock);
    out << ',';
    latency_cell(out, t.lat_illegal_flow);
    out << ',';
    latency_cell(out, t.lat_cache_burst);
    out << ',' << (t.trace_diverged ? 1 : 0) << ',' << (t.arch_corrupt_at_end ? 1 : 0)
        << ',' << (t.uarch_state_equal ? 1 : 0) << ',' << (t.live_state_diff ? 1 : 0)
        << ',' << static_cast<int>(t.end_status) << ',';
    extra_bits_cell(out, t.extra_bits);
    out << ',' << (t.upset ? 1 : 0) << '\n';
  }
}

void write_vm_trials_csv(std::ostream& out,
                         const std::vector<VmTrialResult>& trials) {
  out << "workload,model,outcome,latency,inject_index,bit,extra_bits,upset\n";
  for (const auto& t : trials) {
    out << t.workload << ',' << (t.model.empty() ? "single" : t.model) << ','
        << to_string(t.outcome) << ',';
    latency_cell(out, t.latency);
    out << ',' << t.inject_index << ',' << t.bit << ',';
    extra_bits_cell(out, t.extra_bits);
    out << ',' << (t.upset ? 1 : 0) << '\n';
  }
}

namespace {

// (model, outcome) -> count, flattened into sorted rows. std::map keys are
// ordered, so the row order is byte-stable for a given trial multiset.
std::vector<ModelBreakdownRow> flatten_breakdown(
    const std::map<std::pair<std::string, std::string>, u64>& counts) {
  std::vector<ModelBreakdownRow> rows;
  rows.reserve(counts.size());
  for (const auto& [key, count] : counts) {
    rows.push_back({key.first, key.second, count});
  }
  return rows;
}

}  // namespace

std::vector<ModelBreakdownRow> model_breakdown(
    const std::vector<VmTrialResult>& trials) {
  std::map<std::pair<std::string, std::string>, u64> counts;
  for (const auto& t : trials) {
    const std::string model = t.model.empty() ? "single" : t.model;
    ++counts[{model, std::string(to_string(t.outcome))}];
  }
  return flatten_breakdown(counts);
}

std::vector<ModelBreakdownRow> model_breakdown(
    const std::vector<UarchTrialRecord>& trials, DetectorModel detector,
    ProtectionModel protection, u64 interval) {
  std::map<std::pair<std::string, std::string>, u64> counts;
  for (const auto& t : trials) {
    const std::string model = t.model.empty() ? "single" : t.model;
    const auto outcome = classify_trial(t, detector, protection, interval);
    ++counts[{model, std::string(to_string(outcome))}];
  }
  return flatten_breakdown(counts);
}

void write_shard_stats_csv(std::ostream& out, const std::vector<ShardStats>& shards) {
  out << "shard,workload,trials,wall_ms,trials_per_sec,resumed\n";
  for (const auto& shard : shards) {
    const double rate =
        shard.wall_ms > 0 ? 1000.0 * static_cast<double>(shard.trials) / shard.wall_ms
                          : 0.0;
    char wall[32], per_sec[32];
    std::snprintf(wall, sizeof wall, "%.3f", shard.wall_ms);
    std::snprintf(per_sec, sizeof per_sec, "%.1f", rate);
    out << shard.shard << ',' << shard.workload << ',' << shard.trials << ','
        << wall << ',' << per_sec << ',' << (shard.resumed ? 1 : 0) << '\n';
  }
}

void write_shard_stats_csv(const std::string& path,
                           const std::vector<ShardStats>& shards) {
  auto out = open_or_throw(path);
  write_shard_stats_csv(out, shards);
}

}  // namespace restore::faultinject
