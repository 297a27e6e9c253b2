// Campaign replay: interrupt a streamed campaign after k shards (via the
// max_shards trial-budget hook), resume it from the manifest, and require the
// final trace and aggregates to be byte-identical to an uninterrupted run.
// Also pins the safety property: a manifest written by a different campaign
// (other seed / config / shard geometry) refuses to resume.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "faultinject/campaign_io.hpp"
#include "faultinject/orchestrator.hpp"
#include "faultinject/uarch_campaign.hpp"
#include "faultinject/vm_campaign.hpp"
#include "service/fleet_coordinator.hpp"
#include "service/fleet_worker.hpp"
#include "service/job_queue.hpp"
#include "trial_lines.hpp"

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
  return testing::TempDir() + "restore_replay_" + tag + ".jsonl";
}

VmCampaignConfig small_vm_config() {
  VmCampaignConfig config;
  config.seed = 0x4E01;
  config.trials_per_workload = 24;
  config.workloads = {"gzip", "mcf"};
  return config;
}

CampaignRunOptions streaming_opts(const std::string& trace) {
  CampaignRunOptions opts;
  opts.workers = 2;
  opts.shard_trials = 8;  // 3 shards per workload, 6 total
  opts.out_jsonl = trace;
  return opts;
}

TEST(CampaignReplay, InterruptedVmCampaignResumesByteIdentical) {
  const auto config = small_vm_config();

  // Reference: uninterrupted run, single-threaded. The interrupt happens at
  // 8 workers and the resume at 2, so the comparison also spans worker
  // counts (the acceptance property: interrupt+resume at any of 1/2/8
  // workers equals an uninterrupted run).
  const auto full_trace = temp_trace("vm_full");
  auto full_opts = streaming_opts(full_trace);
  full_opts.workers = 1;
  const auto full = run_vm_campaign(config, full_opts);

  // Interrupted run: stop after 2 of the 6 shards.
  const auto trace = temp_trace("vm_interrupted");
  auto opts = streaming_opts(trace);
  opts.workers = 8;
  opts.max_shards = 2;
  CampaignTelemetry killed;
  const auto partial = run_vm_campaign(config, opts, &killed);
  EXPECT_FALSE(killed.complete);
  EXPECT_EQ(killed.shards.size(), 2u);
  EXPECT_LT(partial.trials.size(), full.trials.size());

  // The on-disk state is a consistent prefix: manifest matches what the
  // trace holds.
  const auto mid = read_manifest(manifest_path_for(trace));
  ASSERT_TRUE(mid.has_value());
  EXPECT_EQ(mid->completed.size(), 2u);

  // Resume without the budget (and at a different worker count); the
  // reloaded shards must not be re-run.
  opts.max_shards = 0;
  opts.workers = 2;
  opts.resume = true;
  CampaignTelemetry resumed;
  const auto finished = run_vm_campaign(config, opts, &resumed);
  EXPECT_TRUE(resumed.complete);
  EXPECT_GT(resumed.resumed_trials, 0u);
  EXPECT_EQ(resumed.resumed_trials, partial.trials.size());

  // Aggregates and trace are byte-identical to the uninterrupted run.
  EXPECT_EQ(trial_lines(full.trials), trial_lines(finished.trials));
  EXPECT_EQ(slurp(full_trace), slurp(trace));
}

TEST(CampaignReplay, ResumeOfCompleteCampaignRerunsNothing) {
  const auto config = small_vm_config();
  const auto trace = temp_trace("vm_complete");
  auto opts = streaming_opts(trace);
  const auto first = run_vm_campaign(config, opts);

  opts.resume = true;
  CampaignTelemetry telemetry;
  const auto second = run_vm_campaign(config, opts, &telemetry);
  EXPECT_TRUE(telemetry.complete);
  EXPECT_EQ(telemetry.resumed_trials, first.trials.size());
  for (const auto& shard : telemetry.shards) {
    EXPECT_TRUE(shard.resumed) << shard.shard;
  }
  EXPECT_EQ(trial_lines(first.trials), trial_lines(second.trials));
}

TEST(CampaignReplay, ResumeRejectsManifestFromDifferentCampaign) {
  const auto trace = temp_trace("vm_mismatch");
  auto opts = streaming_opts(trace);
  opts.max_shards = 1;
  run_vm_campaign(small_vm_config(), opts);

  // Same trace path, different campaign identity: the seed changed.
  auto other = small_vm_config();
  other.seed ^= 1;
  opts.max_shards = 0;
  opts.resume = true;
  EXPECT_THROW(run_vm_campaign(other, opts), std::runtime_error);

  // ... and so does a different shard geometry under the same config.
  auto regeometry = streaming_opts(trace);
  regeometry.shard_trials = 5;
  regeometry.resume = true;
  EXPECT_THROW(run_vm_campaign(small_vm_config(), regeometry), std::runtime_error);
}

TEST(CampaignReplay, InterruptedUarchCampaignResumesByteIdentical) {
  UarchCampaignConfig config;
  config.seed = 0x4E02;
  config.trials_per_workload = 12;
  config.workloads = {"gzip"};

  // As in the VM test, the reference, interrupt and resume each use a
  // different worker count (1 / 8 / 2).
  const auto full_trace = temp_trace("uarch_full");
  CampaignRunOptions opts;
  opts.workers = 1;
  opts.shard_trials = 4;  // 3 shards
  opts.out_jsonl = full_trace;
  const auto full = run_uarch_campaign(config, opts);

  const auto trace = temp_trace("uarch_interrupted");
  opts.out_jsonl = trace;
  opts.workers = 8;
  opts.max_shards = 1;
  CampaignTelemetry killed;
  run_uarch_campaign(config, opts, &killed);
  EXPECT_FALSE(killed.complete);

  opts.max_shards = 0;
  opts.workers = 2;
  opts.resume = true;
  CampaignTelemetry resumed;
  const auto finished = run_uarch_campaign(config, opts, &resumed);
  EXPECT_TRUE(resumed.complete);
  EXPECT_GT(resumed.resumed_trials, 0u);

  EXPECT_EQ(trial_lines(full.trials), trial_lines(finished.trials));
  EXPECT_EQ(slurp(full_trace), slurp(trace));
}

// The multi-node version of the replay property: a fleet node that crashes
// mid-campaign is quarantined and its shards re-leased to the healthy node,
// the coordinator is then interrupted (max_shards) and resumed — and the
// merged trace is still byte-identical to the uninterrupted single-process
// run. Campaign identity (config_hash x shard geometry) is what makes every
// one of those paths converge on the same bytes.
TEST(CampaignReplay, FleetQuarantineInterruptResumeByteIdentical) {
  service::JobSpec spec;
  spec.kind = "vm";
  spec.seed = 0x4E03;
  spec.trials = 8;
  spec.shard_trials = 4;  // 2 shards per workload, 4 total
  spec.workloads = {"gzip", "mcf"};

  // Reference bytes: the local orchestrator, no fleet anywhere.
  const auto full_trace = temp_trace("fleet_full");
  CampaignRunOptions full_opts;
  full_opts.workers = 1;
  full_opts.shard_trials = spec.shard_trials;
  full_opts.out_jsonl = full_trace;
  run_vm_campaign(service::vm_config_for(spec), full_opts);

  // One worker dies after a single lease, one stays healthy.
  service::FleetWorkerOptions flaky_opts;
  flaky_opts.listen = "127.0.0.1:0";
  flaky_opts.quiet = true;
  flaky_opts.fail_after_leases = 1;
  service::FleetWorker flaky(std::move(flaky_opts));
  service::FleetWorkerOptions healthy_opts;
  healthy_opts.listen = "127.0.0.1:0";
  healthy_opts.quiet = true;
  service::FleetWorker healthy(std::move(healthy_opts));
  flaky.start();
  healthy.start();
  std::thread flaky_thread([&] { flaky.run(); });
  std::thread healthy_thread([&] { healthy.run(); });

  const auto trace = temp_trace("fleet_interrupted");
  service::FleetOptions opts;
  opts.nodes = {flaky.address(), healthy.address()};
  opts.out_jsonl = trace;
  opts.connect_timeout_ms = 500;
  opts.node_retries = 0;
  opts.retry_backoff_ms = 1;
  opts.node_faults_max = 2;
  opts.quiet = true;
  opts.max_shards = 2;  // interrupt after two fresh commits
  service::FleetTelemetry cut;
  EXPECT_EQ(run_fleet_campaign(spec, opts, &cut), 130);
  EXPECT_FALSE(cut.complete);
  EXPECT_TRUE(cut.stopped);

  opts.max_shards = 0;
  opts.resume = true;
  service::FleetTelemetry resumed;
  const int code = run_fleet_campaign(spec, opts, &resumed);
  // 0 if the flaky node's quarantine landed in the first (pre-interrupt)
  // run, 3 if it happened in the resumed one; either way the campaign
  // completes and the bytes match the single-process reference.
  EXPECT_TRUE(code == 0 || code == 3) << code;
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.resumed_shards, cut.shards_done);
  EXPECT_EQ(slurp(trace), slurp(full_trace));

  flaky.stop();
  healthy.stop();
  flaky_thread.join();
  healthy_thread.join();
}

}  // namespace
}  // namespace restore::faultinject
