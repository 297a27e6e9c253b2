// Equivalence regression for the trial inner-loop fast path: the convergence
// shortcut is a pure optimisation, so a fixed-seed campaign must produce
// byte-identical trial lists and JSONL traces with the shortcut on and off, at
// any worker count.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "faultinject/orchestrator.hpp"
#include "faultinject/uarch_campaign.hpp"
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
  return testing::TempDir() + "restore_trial_speed_" + tag + ".jsonl";
}

// Turns the process-wide shortcut back on when a test exits, so test order
// cannot leak the setting.
class TrialSpeedTest : public testing::Test {
 protected:
  void TearDown() override { set_convergence_shortcut(true); }
};

struct UarchRun {
  std::string trials;
  std::string trace;
  std::size_t halted = 0;  // trials whose window reached program end
};

UarchRun run_uarch(const UarchCampaignConfig& config, std::size_t workers,
                   const std::string& tag) {
  CampaignRunOptions opts;
  opts.workers = workers;
  opts.shard_trials = 4;
  opts.out_jsonl = temp_trace(tag);
  const auto result = run_uarch_campaign(config, opts);
  EXPECT_FALSE(result.trials.empty());
  UarchRun run{trial_lines(result.trials), slurp(opts.out_jsonl)};
  for (const auto& trial : result.trials) {
    if (trial.end_status == uarch::Core::Status::kHalted) ++run.halted;
  }
  return run;
}

// Runs `config` with the shortcut off at 0 workers as the reference, then
// off and on at 0, 2 and 8 workers; every run must match the reference.
// Returns the reference run.
UarchRun expect_fast_paths_identical(const UarchCampaignConfig& config,
                                     const std::string& tag) {
  set_convergence_shortcut(false);
  const UarchRun reference = run_uarch(config, 0, tag + "_off_w0");

  int run = 0;
  for (const std::size_t workers : {0u, 2u, 8u}) {
    set_convergence_shortcut(false);
    const UarchRun off = run_uarch(
        config, workers, tag + "_off_" + std::to_string(run));
    set_convergence_shortcut(true);
    const UarchRun on = run_uarch(
        config, workers, tag + "_on_" + std::to_string(run));
    ++run;
    EXPECT_EQ(reference.trials, off.trials) << tag << " workers=" << workers;
    EXPECT_EQ(reference.trace, off.trace) << tag << " workers=" << workers;
    EXPECT_EQ(reference.trials, on.trials) << tag << " workers=" << workers;
    EXPECT_EQ(reference.trace, on.trace) << tag << " workers=" << workers;
  }
  return reference;
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
  expect_fast_paths_identical(config, "uarch");

  // The default 10k-cycle window: on gzip and mcf some windows cross program
  // end, so converged trials take golden's end status from the golden pass.
  config.monitor_cycles = UarchCampaignConfig{}.monitor_cycles;
  config.catchup_cycles = UarchCampaignConfig{}.catchup_cycles;
  EXPECT_GT(expect_fast_paths_identical(config, "uarch_10k").halted, 0u);
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

  EXPECT_EQ(reference.trials, fast.trials);
  EXPECT_EQ(reference.trace, fast.trace);
}

}  // namespace
}  // namespace restore::faultinject
