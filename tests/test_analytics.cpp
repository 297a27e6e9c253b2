// Analytics-layer regression suite: the columnar store must be an exact,
// deterministic mirror of the JSONL trace, and the query engine's answers
// must be reproducible to the byte.
//
// Four properties are pinned here:
//   1. Golden aggregates — the full fig2-style report over a fixed-seed vm
//      campaign matches tests/golden/analytics_fig2.json byte-for-byte (the
//      current rendering is always written next to the test binary, so
//      regeneration is a copy, never a hand edit).
//   2. Parity — outcome_counts over the store equals model_breakdown over
//      the in-memory trials the campaign produced.
//   3. Round trip — reconstruct_trace_jsonl returns the source trace bytes
//      exactly, for campaign-produced vm/uarch traces (including non-default
//      fault models, which populate the model/extra_bits/upset columns) and
//      for fuzzed synthetic traces probing field-encoding corners.
//   4. Thread identity — compaction and analysis produce identical bytes at
//      1 and 8 threads (the `tsan` label runs this under ThreadSanitizer).
//   5. CSV export — the per-trial CSV rendered from a compacted store equals
//      the CSV of the campaign's in-memory trial list, byte for byte.
//   6. Status — the status report's exit code over hand-written manifests
//      and traces (healthy, quarantined, corrupt), identical in its text and
//      JSON renderings.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analytics/column_store.hpp"
#include "analytics/compact.hpp"
#include "analytics/queries.hpp"
#include "analytics/report.hpp"
#include "faultinject/campaign_io.hpp"
#include "faultinject/export.hpp"
#include "faultinject/orchestrator.hpp"
#include "faultinject/uarch_campaign.hpp"
#include "faultinject/vm_campaign.hpp"

#ifndef RESTORE_GOLDEN_ANALYTICS
#error "RESTORE_GOLDEN_ANALYTICS must point at tests/golden/analytics_fig2.json"
#endif

namespace restore::analytics {
namespace {

using faultinject::CampaignManifest;
using faultinject::CampaignRunOptions;
using faultinject::VmCampaignConfig;
using faultinject::VmTrialResult;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string temp_path(const std::string& tag) {
  return testing::TempDir() + "restore_analytics_" + tag;
}

// Runs the fixed-seed fig2-style campaign the golden aggregates pin.
faultinject::VmCampaignResult run_fig2_campaign(const std::string& trace) {
  VmCampaignConfig config;
  config.seed = 7;
  config.trials_per_workload = 24;  // all seven workloads -> 168 trials
  CampaignRunOptions opts;
  opts.shard_trials = 8;
  opts.out_jsonl = trace;
  return run_vm_campaign(config, opts);
}

TEST(Analytics, GoldenFig2ReportMatchesCommittedAggregates) {
  const std::string trace = temp_path("golden.jsonl");
  run_fig2_campaign(trace);

  const std::string store_path = store_path_for(trace);
  compact_trace(trace, store_path);
  const ColumnStoreReader store(store_path);
  const std::string current = report_json(analyze(store)) + "\n";
  std::ofstream("analytics_fig2_current.json", std::ios::binary) << current;

  const std::string golden = slurp(RESTORE_GOLDEN_ANALYTICS);
  ASSERT_FALSE(golden.empty())
      << "cannot read golden report at " << RESTORE_GOLDEN_ANALYTICS;
  EXPECT_EQ(golden, current)
      << "the fig2 aggregate report drifted from the golden file. If this is "
         "intentional, copy analytics_fig2_current.json (written next to the "
         "test binary) over tests/golden/analytics_fig2.json.";
}

TEST(Analytics, OutcomeCountsMatchModelBreakdownOverSourceTrials) {
  const std::string trace = temp_path("parity.jsonl");
  const auto result = run_fig2_campaign(trace);
  ASSERT_EQ(result.trials.size(), 168u);

  const std::string store_path = store_path_for(trace);
  compact_trace(trace, store_path);
  const ColumnStoreReader store(store_path);

  const auto from_store = outcome_counts(store);
  const auto from_trials = faultinject::model_breakdown(result.trials);
  ASSERT_EQ(from_store.size(), from_trials.size());
  u64 total = 0;
  for (std::size_t i = 0; i < from_store.size(); ++i) {
    EXPECT_EQ(from_store[i].model, from_trials[i].model) << i;
    EXPECT_EQ(from_store[i].outcome, from_trials[i].outcome) << i;
    EXPECT_EQ(from_store[i].count, from_trials[i].count) << i;
    total += from_store[i].count;
  }
  EXPECT_EQ(total, 168u);
}

TEST(Analytics, VmTraceRoundTripsThroughStoreByteIdentically) {
  // Multi-bit model so the model/extra_bits columns are exercised too.
  VmCampaignConfig config;
  config.seed = 0xA11C;
  config.trials_per_workload = 16;
  config.workloads = {"gzip", "mcf"};
  config.fault_model.model = faultinject::FaultModel::kMultiBitAdjacent;
  config.fault_model.multi_bits = 3;
  CampaignRunOptions opts;
  opts.shard_trials = 8;
  opts.out_jsonl = temp_path("vm_rt.jsonl");
  run_vm_campaign(config, opts);

  const std::string store_path = store_path_for(opts.out_jsonl);
  compact_trace(opts.out_jsonl, store_path);
  const ColumnStoreReader store(store_path);
  EXPECT_EQ(reconstruct_trace_jsonl(store), slurp(opts.out_jsonl));
}

TEST(Analytics, UarchTraceRoundTripsThroughStoreByteIdentically) {
  faultinject::UarchCampaignConfig config;
  config.seed = 0xA11D;
  config.trials_per_workload = 10;
  config.workloads = {"gzip"};
  config.monitor_cycles = 300;
  config.catchup_cycles = 300;
  config.fault_model.model = faultinject::FaultModel::kBurst;
  config.fault_model.burst_entries = 2;
  CampaignRunOptions opts;
  opts.shard_trials = 4;
  opts.out_jsonl = temp_path("uarch_rt.jsonl");
  run_uarch_campaign(config, opts);

  const std::string store_path = store_path_for(opts.out_jsonl);
  compact_trace(opts.out_jsonl, store_path);
  const ColumnStoreReader store(store_path);
  EXPECT_EQ(reconstruct_trace_jsonl(store), slurp(opts.out_jsonl));
}

// Synthetic vm trials probing encoding corners the campaigns may not hit in
// one run: kNever latencies, empty and multi-element extra_bits, abort
// records with spaces in the message, upset=false rate trials, and enough
// rows to span several row groups' worth of dictionary reuse.
TEST(Analytics, FuzzedVmTraceRoundTripsByteIdentically) {
  std::mt19937_64 rng(0xF022);
  const std::vector<std::string> workloads = {"gzip", "mcf", "art"};
  const std::vector<std::string> outcomes = {"masked", "cfv", "exception",
                                             "register", "sim-abort"};
  const std::vector<std::string> models = {"", "multi", "rate", "targeted"};

  const u64 shard_trials = 64;
  const u64 rows = 512;  // several shards
  std::string trace_text =
      faultinject::trace_header_line("vm") + "\n";
  for (u64 i = 0; i < rows; ++i) {
    VmTrialResult t;
    t.workload = workloads[rng() % workloads.size()];
    const std::string& outcome = outcomes[rng() % outcomes.size()];
    t.outcome = *faultinject::vm_outcome_from_string(outcome);
    t.latency = (rng() % 3 == 0) ? kNever : rng() % 100'000;
    t.inject_index = rng() % 1'000'000;
    t.bit = static_cast<u32>(rng() % 64);
    if (outcome == "sim-abort") {
      t.abort_type = "budget";
      t.abort_message = "trial exceeded step budget (fuzz case)";
    }
    t.model = models[rng() % models.size()];
    if (t.model == "multi") {
      const u64 extras = 1 + rng() % 3;
      for (u64 e = 0; e < extras; ++e) t.extra_bits.push_back(rng() % 64);
    }
    if (t.model == "rate") t.upset = rng() % 2 == 0;
    trace_text +=
        faultinject::vm_trial_to_jsonl(i / shard_trials, i % shard_trials, t) +
        "\n";
  }

  const std::string trace = temp_path("fuzz.jsonl");
  std::ofstream(trace, std::ios::binary) << trace_text;
  CampaignManifest manifest;
  manifest.kind = "vm";
  manifest.config_hash = 0xFADE;
  manifest.seed = 0xF022;
  manifest.shard_trials = shard_trials;
  manifest.total_shards = rows / shard_trials;
  manifest.total_trials = rows;
  for (u64 s = 0; s < manifest.total_shards; ++s) {
    manifest.completed.push_back(s);
    manifest.completed_trials.push_back(shard_trials);
    manifest.wall_ms.push_back(0);
  }
  faultinject::write_manifest(faultinject::manifest_path_for(trace), manifest);

  const std::string store_path = store_path_for(trace);
  // Synthetic inject_index values do not map to real golden runs, so skip
  // the root-cause replay; the round trip never uses derived columns.
  CompactOptions copts;
  copts.derive_root_cause = false;
  compact_trace(trace, store_path, copts);
  const ColumnStoreReader store(store_path);
  EXPECT_EQ(reconstruct_trace_jsonl(store), trace_text);

  const auto trials = reconstruct_vm_trials(store);
  ASSERT_EQ(trials.size(), rows);
  EXPECT_EQ(trials.front().shard, 0u);
  EXPECT_EQ(trials.back().shard, manifest.total_shards - 1);
}

TEST(Analytics, CompactionAndAnalysisAreByteIdenticalAcrossThreadCounts) {
  const std::string trace = temp_path("threads.jsonl");
  run_fig2_campaign(trace);

  std::vector<std::string> stores;
  std::vector<std::string> reports;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const std::string store_path =
        trace + ".t" + std::to_string(threads) + ".cols";
    CompactOptions copts;
    copts.threads = threads;
    compact_trace(trace, store_path, copts);
    stores.push_back(slurp(store_path));

    const ColumnStoreReader store(store_path);
    QueryOptions qopts;
    qopts.threads = threads;
    reports.push_back(report_json(analyze(store, qopts)));
  }
  EXPECT_EQ(stores[0], stores[1]);
  EXPECT_EQ(reports[0], reports[1]);
}

TEST(Analytics, ReaderRejectsTruncatedAndBitFlippedStores) {
  const std::string trace = temp_path("corrupt.jsonl");
  VmCampaignConfig config;
  config.seed = 3;
  config.trials_per_workload = 8;
  config.workloads = {"gzip"};
  CampaignRunOptions opts;
  opts.shard_trials = 8;
  opts.out_jsonl = trace;
  run_vm_campaign(config, opts);

  const std::string store_path = store_path_for(trace);
  compact_trace(trace, store_path);
  const std::string good = slurp(store_path);

  const std::string truncated_path = temp_path("corrupt_trunc.cols");
  std::ofstream(truncated_path, std::ios::binary)
      << good.substr(0, good.size() / 2);
  EXPECT_THROW(ColumnStoreReader{truncated_path}, std::runtime_error);

  std::string flipped = good;
  flipped[flipped.size() / 3] ^= 0x40;  // inside the segment bytes
  const std::string flipped_path = temp_path("corrupt_flip.cols");
  std::ofstream(flipped_path, std::ios::binary) << flipped;
  EXPECT_THROW(ColumnStoreReader{flipped_path}, std::runtime_error);
}

TEST(Analytics, StoreCsvExportMatchesInMemoryTrials) {
  const std::string vm_trace = temp_path("export_vm.jsonl");
  VmCampaignConfig vm_config;
  vm_config.seed = 11;
  vm_config.trials_per_workload = 8;
  CampaignRunOptions vm_opts;
  vm_opts.workers = 2;
  vm_opts.shard_trials = 4;
  vm_opts.out_jsonl = vm_trace;
  const auto vm = run_vm_campaign(vm_config, vm_opts);
  compact_trace(vm_trace, store_path_for(vm_trace));
  std::ostringstream vm_expected, vm_exported;
  faultinject::write_vm_trials_csv(vm_expected, vm.trials);
  write_trials_csv(vm_exported, ColumnStoreReader(store_path_for(vm_trace)));
  EXPECT_EQ(vm_exported.str(), vm_expected.str());

  const std::string uarch_trace = temp_path("export_uarch.jsonl");
  faultinject::UarchCampaignConfig uarch_config;
  uarch_config.seed = 5;
  uarch_config.trials_per_workload = 8;
  uarch_config.workloads = {"gzip", "mcf"};
  uarch_config.monitor_cycles = 500;
  uarch_config.catchup_cycles = 500;
  CampaignRunOptions uarch_opts;
  uarch_opts.workers = 2;
  uarch_opts.shard_trials = 4;
  uarch_opts.out_jsonl = uarch_trace;
  const auto uarch = run_uarch_campaign(uarch_config, uarch_opts);
  compact_trace(uarch_trace, store_path_for(uarch_trace));
  std::ostringstream uarch_expected, uarch_exported;
  faultinject::write_uarch_trials_csv(uarch_expected, uarch.trials);
  write_trials_csv(uarch_exported, ColumnStoreReader(store_path_for(uarch_trace)));
  EXPECT_EQ(uarch_exported.str(), uarch_expected.str());
}

// A two-shard vm campaign written by hand: header plus four trial lines and
// a manifest recording both shards complete. `quarantine` moves shard 1 into
// the quarantine record; `bench_node` records a quarantined fleet node;
// `torn` appends half a trial line, as an interrupted writer would.
struct HandTrace {
  bool quarantine = false;
  bool bench_node = false;
  bool torn = false;
};

std::string write_hand_trace(const std::string& tag, const HandTrace& shape) {
  const std::string path = temp_path("status_" + tag + ".jsonl");
  std::ofstream trace(path, std::ios::binary);
  trace << faultinject::trace_header_line("vm") << '\n';
  const faultinject::VmOutcome outcomes[] = {
      faultinject::VmOutcome::kMasked, faultinject::VmOutcome::kCfv,
      faultinject::VmOutcome::kMasked, faultinject::VmOutcome::kException};
  for (u64 i = 0; i < 4; ++i) {
    VmTrialResult trial;
    trial.workload = "gzip";
    trial.outcome = outcomes[i];
    trial.latency = trial.outcome == faultinject::VmOutcome::kMasked ? kNever : 5;
    trial.inject_index = 100 + i;
    trial.bit = static_cast<u32>(i);
    trace << faultinject::vm_trial_to_jsonl(i / 2, i % 2, trial) << '\n';
  }
  if (shape.torn) trace << "{\"shard\":1,\"slot\":";
  trace.close();

  CampaignManifest manifest;
  manifest.kind = "vm";
  manifest.seed = 1;
  manifest.config_hash = 0xC0FFEE;
  manifest.shard_trials = 2;
  manifest.total_shards = 2;
  manifest.total_trials = 4;
  manifest.completed = {0, 1};
  manifest.completed_trials = {2, 2};
  manifest.wall_ms = {3, 5};
  if (shape.quarantine) {
    manifest.completed = {0};
    manifest.completed_trials = {2};
    manifest.wall_ms = {3};
    manifest.quarantined = {1};
    manifest.quarantine_attempts = {3};
    manifest.quarantine_workloads = {"gzip"};
    manifest.quarantine_errors = {"injected failure"};
  }
  if (shape.bench_node) {
    manifest.node_quarantined = {"127.0.0.1:9"};
    manifest.node_faults = {2};
    manifest.node_errors = {"connection refused"};
  }
  faultinject::write_manifest(faultinject::manifest_path_for(path), manifest);
  return path;
}

// Checks the report's exit code and that both renderings carry it.
void expect_status_exit(const std::vector<std::string>& traces, int want) {
  const StatusReport report = status_report(traces, 100);
  EXPECT_EQ(report.worst_exit, want);
  const std::string code = std::to_string(want);
  EXPECT_NE(status_json(report).find("\"worst_exit\":" + code + "}"),
            std::string::npos);
  EXPECT_NE(status_text(report).find("worst exit " + code + "\n"),
            std::string::npos);
}

TEST(AnalyticsStatus, HealthyTraceExitsZero) {
  const std::string trace = write_hand_trace("healthy", {});
  expect_status_exit({trace}, kStatusHealthy);

  const StatusReport report = status_report({trace}, 100);
  ASSERT_EQ(report.traces.size(), 1u);
  EXPECT_EQ(report.traces[0].state(), "complete");
  EXPECT_EQ(report.trials_done, 4u);
  EXPECT_EQ(report.complete, 1u);
  // The breakdown is model_breakdown over the trials on disk.
  EXPECT_EQ(breakdown_json(report.breakdown),
            "[{\"model\":\"single\",\"outcome\":\"cfv\",\"count\":1},"
            "{\"model\":\"single\",\"outcome\":\"exception\",\"count\":1},"
            "{\"model\":\"single\",\"outcome\":\"masked\",\"count\":2}]");
  const std::string json = status_json(report);
  EXPECT_EQ(json.rfind("{\"traces\":[", 0), 0u);
  EXPECT_NE(json.find("\"totals\":{"), std::string::npos);
}

TEST(AnalyticsStatus, ShardQuarantineExitsThree) {
  const std::string trace = write_hand_trace("quarantine", {.quarantine = true});
  expect_status_exit({trace}, kStatusQuarantined);
  const StatusReport report = status_report({trace}, 100);
  EXPECT_EQ(report.traces[0].state(), "quarantined");
  EXPECT_EQ(report.quarantined_shards, 1u);
  EXPECT_NE(status_text(report).find("quarantined shard 1 (gzip)"),
            std::string::npos);
}

TEST(AnalyticsStatus, NodeQuarantineExitsThree) {
  const std::string trace = write_hand_trace("node", {.bench_node = true});
  expect_status_exit({trace}, kStatusQuarantined);
  const StatusReport report = status_report({trace}, 100);
  EXPECT_EQ(report.traces[0].state(), "node-quarantine");
  EXPECT_NE(status_text(report).find("127.0.0.1:9"), std::string::npos);
  EXPECT_NE(status_json(report).find("\"node\":\"127.0.0.1:9\""),
            std::string::npos);
}

TEST(AnalyticsStatus, CorruptTraceExitsOne) {
  const std::string corrupt = write_hand_trace("corrupt", {.torn = true});
  expect_status_exit({corrupt}, kStatusUnreadable);
  // Alongside a healthy trace the unreadable one still sets the exit code.
  expect_status_exit({write_hand_trace("healthy2", {}), corrupt},
                     kStatusUnreadable);
  // A missing manifest is unreadable too.
  expect_status_exit({temp_path("status_missing.jsonl")}, kStatusUnreadable);
}

TEST(AnalyticsStatus, QuarantineOutranksCorruptTrace) {
  const std::string quarantined =
      write_hand_trace("q_and_c_q", {.quarantine = true});
  const std::string corrupt = write_hand_trace("q_and_c_c", {.torn = true});
  expect_status_exit({quarantined, corrupt}, kStatusQuarantined);
  expect_status_exit({corrupt, quarantined}, kStatusQuarantined);
  // One trace both quarantined and torn.
  expect_status_exit(
      {write_hand_trace("q_and_c", {.quarantine = true, .torn = true})},
      kStatusQuarantined);
}

}  // namespace
}  // namespace restore::analytics
