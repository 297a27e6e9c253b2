// Query engine over the columnar trial store: every aggregate the paper's
// Figures 2-6 need, streaming over column blocks without ever re-parsing
// JSONL.
//
// Determinism contract: each query aggregates per row group and merges the
// partial results in group order into ordered containers, so the answer is
// identical at any thread count — byte-for-byte once rendered.
//
// Parity contract: `outcome_counts` reproduces faultinject::model_breakdown
// exactly (uarch traces classified with the perfect-cfv detector and baseline
// pipeline at `interval`), so a columnar query and `restore-analyze status`
// over the source JSONL must agree to the last trial.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analytics/column_store.hpp"
#include "common/stats.hpp"
#include "faultinject/export.hpp"

namespace restore::analytics {

struct QueryOptions {
  u64 interval = 100;       // checkpoint interval for uarch classification
  std::size_t threads = 0;  // row-group parallelism; 0 = inline
};

// Per-structure AVF: failing trials over architecturally meaningful trials
// (contained aborts are excluded from both sides — they are tool artifacts),
// with a Wilson 95% confidence interval. Structures are uarch field names,
// or workloads for a vm trace.
struct StructureAvfRow {
  std::string structure;
  u64 trials = 0;    // non-abort trials
  u64 failures = 0;
  ProportionCi avf;
};

// Root-cause vulnerability ranking (vm traces with derived pc/opcode
// columns): failures and AVF per injected instruction site.
struct SiteVulnRow {
  std::string site;  // "pc 0x..." or an opcode mnemonic
  u64 trials = 0;
  u64 failures = 0;
  ProportionCi avf;
};

// Symptom-latency distribution of one detector channel: trials where the
// channel fired, Figure 2 latency-bin counts (bins from
// figure2_latency_bins(); the last bin is "no symptom"/never), and
// nearest-rank percentiles over the fired latencies.
struct LatencyStatsRow {
  std::string detector;
  u64 fired = 0;
  u64 total = 0;
  std::vector<u64> bin_counts;
  u64 p50 = 0;
  u64 p90 = 0;
  u64 p99 = 0;
};

// Workload x detector defeat matrix: of the failing trials of `workload`,
// how many did detector channel `detector` never see? (Azambuja-style
// head-to-head: which workload idiom defeats which symptom detector.)
struct DefeatRow {
  std::string workload;
  std::string detector;
  u64 failures = 0;
  u64 defeated = 0;
};

// Per-(model, outcome) trial counts — exact parity with
// faultinject::model_breakdown over the reconstructed trials.
std::vector<faultinject::ModelBreakdownRow> outcome_counts(
    const ColumnStoreReader& store, const QueryOptions& options = {});

std::vector<StructureAvfRow> structure_avf(const ColumnStoreReader& store,
                                           const QueryOptions& options = {});

// Ranking by pc (by_opcode = false) or by opcode mnemonic (true); vm stores
// with root-cause columns only — throws otherwise. Rows are sorted by
// descending failures then site, truncated to `top_n` (0 = all).
std::vector<SiteVulnRow> site_vulnerability(const ColumnStoreReader& store,
                                            bool by_opcode,
                                            std::size_t top_n = 0,
                                            const QueryOptions& options = {});

std::vector<LatencyStatsRow> latency_stats(const ColumnStoreReader& store,
                                           const QueryOptions& options = {});

std::vector<DefeatRow> defeat_matrix(const ColumnStoreReader& store,
                                     const QueryOptions& options = {});

// Everything at once (the `report` subcommand / daemon aggregate payload).
struct AnalysisReport {
  std::string kind;
  u64 rows = 0;
  u64 config_hash = 0;
  u64 interval = 0;
  std::vector<faultinject::ModelBreakdownRow> outcomes;
  std::vector<StructureAvfRow> avf;
  std::vector<SiteVulnRow> by_pc;      // vm with root-cause columns only
  std::vector<SiteVulnRow> by_opcode;  // vm with root-cause columns only
  std::vector<LatencyStatsRow> latencies;
  std::vector<DefeatRow> defeats;
};

AnalysisReport analyze(const ColumnStoreReader& store,
                       const QueryOptions& options = {});

}  // namespace restore::analytics
