// Golden-determinism regression: a fixed-seed campaign must produce
// byte-identical results at any worker count — both the assembled in-memory
// trial list (rendered as JSONL lines) and the streamed JSONL trace. This is the property the resume
// machinery rests on, so it is pinned here for the VM (Figure 2 style) and
// uarch (Figure 4 style) campaigns.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "faultinject/campaign_io.hpp"
#include "faultinject/orchestrator.hpp"
#include "faultinject/uarch_campaign.hpp"
#include "faultinject/vm_campaign.hpp"
#include "trial_lines.hpp"

#ifndef RESTORE_GOLDEN_UARCH_DIGEST
#error "RESTORE_GOLDEN_UARCH_DIGEST must point at tests/golden/uarch_trace_digest.txt"
#endif

namespace restore::faultinject {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string temp_trace(const std::string& tag) {
  return testing::TempDir() + "restore_determinism_" + tag + ".jsonl";
}

TEST(CampaignDeterminism, VmCampaignIsByteIdenticalAcrossWorkerCounts) {
  VmCampaignConfig config;
  config.seed = 0xD373;
  config.trials_per_workload = 30;
  config.workloads = {"gzip", "mcf"};

  std::vector<std::string> exports;
  std::vector<std::string> traces;
  for (const std::size_t workers : {0u, 1u, 2u, 8u}) {
    CampaignRunOptions opts;
    opts.workers = workers;
    opts.shard_trials = 8;  // several shards per workload
    opts.out_jsonl = temp_trace("vm_w" + std::to_string(workers));
    const auto result = run_vm_campaign(config, opts);
    ASSERT_EQ(result.trials.size(), 60u);
    exports.push_back(trial_lines(result.trials));
    traces.push_back(slurp(opts.out_jsonl));
  }
  for (std::size_t i = 1; i < exports.size(); ++i) {
    EXPECT_EQ(exports[0], exports[i]) << i;
    EXPECT_EQ(traces[0], traces[i]) << i;
  }
}

TEST(CampaignDeterminism, UarchCampaignIsByteIdenticalAcrossWorkerCounts) {
  UarchCampaignConfig config;
  config.seed = 0xD374;
  config.trials_per_workload = 12;
  config.workloads = {"gzip"};

  std::vector<std::string> exports;
  std::vector<std::string> traces;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    CampaignRunOptions opts;
    opts.workers = workers;
    opts.shard_trials = 4;
    opts.out_jsonl = temp_trace("uarch_w" + std::to_string(workers));
    const auto result = run_uarch_campaign(config, opts);
    EXPECT_FALSE(result.trials.empty());
    exports.push_back(trial_lines(result.trials));
    traces.push_back(slurp(opts.out_jsonl));
  }
  EXPECT_EQ(exports[0], exports[1]);
  EXPECT_EQ(exports[0], exports[2]);
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_EQ(traces[0], traces[2]);
}

// Phase counters are deterministic work counts: every count but the golden
// pass (which depends on the passes the process already holds) is identical
// at any worker count.
TEST(CampaignDeterminism, UarchPhaseCountersAreIdenticalAcrossWorkerCounts) {
  UarchCampaignConfig config;
  config.seed = 0xD378;
  config.trials_per_workload = 16;
  config.workloads = {"gzip", "mcf"};
  config.monitor_cycles = 2'000;
  config.catchup_cycles = 2'000;

  std::vector<UarchPhaseCounters> runs;
  for (const std::size_t workers : {0u, 2u, 8u}) {
    CampaignRunOptions opts;
    opts.workers = workers;
    opts.shard_trials = 4;
    CampaignTelemetry telemetry;
    run_uarch_campaign(config, opts, &telemetry);
    runs.push_back(telemetry.uarch);
  }
  EXPECT_GT(runs[0].advance, 0u);
  EXPECT_GT(runs[0].continuation, 0u);
  EXPECT_GT(runs[0].faulty, 0u);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[0].advance, runs[i].advance) << i;
    EXPECT_EQ(runs[0].continuation, runs[i].continuation) << i;
    EXPECT_EQ(runs[0].faulty, runs[i].faulty) << i;
    EXPECT_EQ(runs[0].catchup, runs[i].catchup) << i;
    EXPECT_EQ(runs[i].golden_pass, 0u) << i;  // the first run's passes serve
  }
}

// Absolute pin of uarch trace content. Every other uarch identity test
// compares two runs of the current code, so a change that shifts both sides
// alike (say, the catch-up phase starting to record symptoms it used to
// ignore) would pass them all; this one compares against a committed digest.
// The short window sends many diverged trials through the catch-up phase.
TEST(CampaignDeterminism, UarchTraceMatchesCommittedDigest) {
  UarchCampaignConfig config;
  config.seed = 0xD377;
  config.trials_per_workload = 24;
  config.trials_per_point = 4;
  config.workloads = {"gzip", "mcf"};
  config.monitor_cycles = 500;
  config.catchup_cycles = 2'000;

  CampaignRunOptions opts;
  opts.workers = 2;
  opts.shard_trials = 8;
  opts.out_jsonl = temp_trace("uarch_golden_digest");
  const auto result = run_uarch_campaign(config, opts);
  ASSERT_EQ(result.trials.size(), 48u);

  // Corruption found at the end with the core still running or halted can
  // only come from the catch-up comparison: the pin really covers that phase.
  std::size_t caught_up = 0;
  for (const auto& trial : result.trials) {
    if (trial.arch_corrupt_at_end &&
        (trial.end_status == uarch::Core::Status::kRunning ||
         trial.end_status == uarch::Core::Status::kHalted)) {
      ++caught_up;
    }
  }
  EXPECT_GT(caught_up, 0u);

  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(fnv1a(slurp(opts.out_jsonl))));
  std::string golden = slurp(RESTORE_GOLDEN_UARCH_DIGEST);
  while (!golden.empty() && golden.back() == '\n') golden.pop_back();
  EXPECT_EQ(golden, digest)
      << "uarch trace content changed. If the change is intended, write the "
         "new digest into tests/golden/uarch_trace_digest.txt.";
}

// Expanded fault models draw their plans from per-shard substreams
// (model_stream_seed), so the same worker-count and interrupt+resume
// guarantees must hold for every model, not just the paper's single-bit one.

UarchCampaignConfig small_uarch_config(FaultModel model) {
  UarchCampaignConfig config;
  config.seed = 0xD375;
  config.trials_per_workload = 8;
  config.workloads = {"gzip"};
  config.monitor_cycles = 300;
  config.catchup_cycles = 300;
  config.fault_model.model = model;
  config.fault_model.multi_bits = 3;
  config.fault_model.burst_entries = 2;
  config.fault_model.upset_ppm = 500'000;  // rate: a mix of upset/no-upset
  return config;
}

TEST(CampaignDeterminism, UarchCampaignIsByteIdenticalPerFaultModel) {
  for (const FaultModel model :
       {FaultModel::kMultiBitAdjacent, FaultModel::kBurst, FaultModel::kSet,
        FaultModel::kTargeted, FaultModel::kRateDriven}) {
    const UarchCampaignConfig config = small_uarch_config(model);
    const std::string token(to_string(model));
    std::vector<std::string> traces;
    for (const std::size_t workers : {0u, 2u, 8u}) {
      CampaignRunOptions opts;
      opts.workers = workers;
      opts.shard_trials = 4;
      opts.out_jsonl = temp_trace("uarch_" + token + "_w" + std::to_string(workers));
      const auto result = run_uarch_campaign(config, opts);
      ASSERT_EQ(result.trials.size(), 8u) << token;
      // The model must actually be recorded per trial (trace schema).
      for (const auto& trial : result.trials) {
        EXPECT_EQ(trial.model, token);
      }
      traces.push_back(slurp(opts.out_jsonl));
    }
    EXPECT_EQ(traces[0], traces[1]) << token;
    EXPECT_EQ(traces[0], traces[2]) << token;
  }
}

TEST(CampaignDeterminism, VmCampaignIsByteIdenticalPerFaultModel) {
  // Burst/SET are uarch-only; the vm campaign supports the other expansions.
  for (const FaultModel model : {FaultModel::kMultiBitAdjacent,
                                 FaultModel::kTargeted, FaultModel::kRateDriven}) {
    VmCampaignConfig config;
    config.seed = 0xD376;
    config.trials_per_workload = 16;
    config.workloads = {"gzip", "mcf"};
    config.fault_model.model = model;
    config.fault_model.multi_bits = 4;
    config.fault_model.upset_ppm = 500'000;
    const std::string token(to_string(model));
    std::vector<std::string> traces;
    for (const std::size_t workers : {0u, 2u, 8u}) {
      CampaignRunOptions opts;
      opts.workers = workers;
      opts.shard_trials = 8;
      opts.out_jsonl = temp_trace("vm_" + token + "_w" + std::to_string(workers));
      const auto result = run_vm_campaign(config, opts);
      ASSERT_EQ(result.trials.size(), 32u) << token;
      for (const auto& trial : result.trials) {
        EXPECT_EQ(trial.model, token);
      }
      traces.push_back(slurp(opts.out_jsonl));
    }
    EXPECT_EQ(traces[0], traces[1]) << token;
    EXPECT_EQ(traces[0], traces[2]) << token;
  }
}

TEST(CampaignDeterminism, BurstAndSetCampaignsResumeByteIdentically) {
  for (const FaultModel model : {FaultModel::kBurst, FaultModel::kSet}) {
    const UarchCampaignConfig config = small_uarch_config(model);
    const std::string token(to_string(model));

    CampaignRunOptions uninterrupted;
    uninterrupted.workers = 2;
    uninterrupted.shard_trials = 4;
    uninterrupted.out_jsonl = temp_trace("resume_" + token + "_full");
    run_uarch_campaign(config, uninterrupted);
    const std::string golden = slurp(uninterrupted.out_jsonl);

    // Kill the campaign after its first shard, then resume: the replayed
    // trace must be byte-identical to the uninterrupted run.
    CampaignRunOptions interrupted = uninterrupted;
    interrupted.out_jsonl = temp_trace("resume_" + token + "_cut");
    interrupted.max_shards = 1;
    run_uarch_campaign(config, interrupted);
    EXPECT_NE(slurp(interrupted.out_jsonl), golden) << token;

    CampaignRunOptions resumed = interrupted;
    resumed.max_shards = 0;
    resumed.resume = true;
    run_uarch_campaign(config, resumed);
    EXPECT_EQ(slurp(resumed.out_jsonl), golden) << token;
  }
}

TEST(CampaignDeterminism, ShardStreamSeedsAreStableAndDistinct) {
  const u64 a = shard_stream_seed(42, "gzip", 0);
  EXPECT_EQ(a, shard_stream_seed(42, "gzip", 0));
  EXPECT_NE(a, shard_stream_seed(42, "gzip", 1));
  EXPECT_NE(a, shard_stream_seed(42, "mcf", 0));
  EXPECT_NE(a, shard_stream_seed(43, "gzip", 0));
}

TEST(CampaignDeterminism, PlanShardsCutsExactTrialRanges) {
  const auto shards = plan_shards(7, {"gzip", "mcf"}, 20, 8);
  ASSERT_EQ(shards.size(), 6u);  // 8 + 8 + 4, per workload
  u64 gzip_trials = 0, mcf_trials = 0;
  for (const auto& shard : shards) {
    EXPECT_EQ(shard.seed,
              shard_stream_seed(7, shard.workload, shard.trial_begin / 8));
    (shard.workload == "gzip" ? gzip_trials : mcf_trials) += shard.trial_count;
  }
  EXPECT_EQ(gzip_trials, 20u);
  EXPECT_EQ(mcf_trials, 20u);
  // Shard indices are the global manifest keys: consecutive from zero.
  for (std::size_t i = 0; i < shards.size(); ++i) {
    EXPECT_EQ(shards[i].index, i);
  }
}

}  // namespace
}  // namespace restore::faultinject
