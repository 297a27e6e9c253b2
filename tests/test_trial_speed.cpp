// Equivalence regression for the trial inner-loop fast path: the convergence
// shortcut is a pure optimisation, so a fixed-seed campaign must produce
// byte-identical exports and JSONL traces with the shortcut on and off, at
// any worker count.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "faultinject/export.hpp"
#include "faultinject/orchestrator.hpp"
#include "faultinject/uarch_campaign.hpp"

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
  return testing::TempDir() + "restore_trial_speed_" + tag + ".jsonl";
}

// Turns the process-wide shortcut back on when a test exits, so test order
// cannot leak the setting.
class TrialSpeedTest : public testing::Test {
 protected:
  void TearDown() override { set_convergence_shortcut(true); }
};

struct UarchRun {
  std::string csv;
  std::string trace;
};

UarchRun run_uarch(const UarchCampaignConfig& config, std::size_t workers,
                   const std::string& tag) {
  CampaignRunOptions opts;
  opts.workers = workers;
  opts.shard_trials = 4;
  opts.out_jsonl = temp_trace(tag);
  const auto result = run_uarch_campaign(config, opts);
  EXPECT_FALSE(result.trials.empty());
  std::ostringstream csv;
  write_uarch_trials_csv(csv, result.trials);
  return {csv.str(), slurp(opts.out_jsonl)};
}

TEST_F(TrialSpeedTest, UarchFastPathsAreByteIdenticalAcrossWorkerCounts) {
  UarchCampaignConfig config;
  config.seed = 0x5EED;
  config.trials_per_workload = 12;
  config.workloads = {"gzip", "mcf"};
  // Short window keeps the reference (shortcut off) runs fast; the
  // convergence shortcut still fires via the dense early checkpoints.
  config.monitor_cycles = 2'000;
  config.catchup_cycles = 2'000;

  set_convergence_shortcut(false);
  const UarchRun reference = run_uarch(config, 0, "uarch_off_w0");

  int run = 0;
  for (const std::size_t workers : {0u, 2u, 8u}) {
    set_convergence_shortcut(false);
    const UarchRun off = run_uarch(
        config, workers, "uarch_off_" + std::to_string(run));
    set_convergence_shortcut(true);
    const UarchRun on = run_uarch(
        config, workers, "uarch_on_" + std::to_string(run));
    ++run;
    EXPECT_EQ(reference.csv, off.csv) << "workers=" << workers;
    EXPECT_EQ(reference.trace, off.trace) << "workers=" << workers;
    EXPECT_EQ(reference.csv, on.csv) << "workers=" << workers;
    EXPECT_EQ(reference.trace, on.trace) << "workers=" << workers;
  }
}

// Budget-limited trials must bypass the convergence shortcut (their abort
// points depend on executing real cycles) and still match the reference.
TEST_F(TrialSpeedTest, BudgetedTrialsMatchWithFastPathsOn) {
  UarchCampaignConfig config;
  config.seed = 0x5EF0;
  config.trials_per_workload = 8;
  config.workloads = {"gzip"};
  config.monitor_cycles = 1'000;
  config.catchup_cycles = 1'000;
  config.trial_budget.max_cycles = 1'500;

  set_convergence_shortcut(false);
  const UarchRun reference = run_uarch(config, 0, "budget_off");

  set_convergence_shortcut(true);
  const UarchRun fast = run_uarch(config, 2, "budget_on");

  EXPECT_EQ(reference.csv, fast.csv);
  EXPECT_EQ(reference.trace, fast.trace);
}

}  // namespace
}  // namespace restore::faultinject
