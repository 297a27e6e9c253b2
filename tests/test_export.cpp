// Tests for the JSONL campaign trace format (its round trip must be exact,
// since it is the only per-trial interchange format), the CSV renderings of
// trial lists, and the per-model outcome breakdown.
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "faultinject/campaign_io.hpp"
#include "faultinject/export.hpp"

namespace restore::faultinject {
namespace {

UarchTrialRecord sample_trial() {
  UarchTrialRecord t;
  t.workload = "gzip";
  t.field_name = "rob.pc";
  t.storage = uarch::StorageClass::kSram;
  t.protection = uarch::LhfProtection::kEcc;
  t.lat_exception = 42;
  t.trace_diverged = true;
  t.arch_corrupt_at_end = true;
  return t;
}

TEST(Export, UarchCsvHasHeaderAndRows) {
  std::ostringstream out;
  write_uarch_trials_csv(out, {sample_trial()});
  const std::string text = out.str();
  EXPECT_NE(text.find("workload,model,field,storage,protection"), std::string::npos);
  // Default-model trials report as "single" in the model column.
  EXPECT_NE(text.find("gzip,single,rob.pc,sram,ecc,42,"), std::string::npos);
  // kNever latencies render as empty cells, not huge numbers.
  EXPECT_EQ(text.find("18446744073709551615"), std::string::npos);
}

TEST(Export, VmCsvRoundsTrip) {
  VmTrialResult trial;
  trial.workload = "mcf";
  trial.outcome = VmOutcome::kCfv;
  trial.latency = 7;
  trial.inject_index = 123;
  trial.bit = 9;
  std::ostringstream out;
  write_vm_trials_csv(out, {trial});
  EXPECT_NE(out.str().find("mcf,single,cfv,7,123,9"), std::string::npos);
}

TEST(Export, FileWriterRejectsBadPath) {
  EXPECT_THROW(write_shard_stats_csv("/nonexistent-dir/x.csv", {}), std::runtime_error);
}

// A uarch record exercising every serialized field, including kNever
// latencies (omitted in JSONL, empty cells in CSV) and a non-default
// end status.
UarchTrialRecord full_trial() {
  UarchTrialRecord t;
  t.workload = "vortex";
  t.bit = uarch::BitRef{3, 17, 41};
  t.storage = uarch::StorageClass::kLatch;
  t.protection = uarch::LhfProtection::kParity;
  t.field_name = "iq.op";
  t.lat_exception = kNever;
  t.lat_cfv = 12;
  t.lat_hiconf = 9;
  t.lat_deadlock = kNever;
  t.lat_illegal_flow = 77;
  t.lat_cache_burst = kNever;
  t.trace_diverged = true;
  t.arch_corrupt_at_end = false;
  t.uarch_state_equal = false;
  t.live_state_diff = true;
  t.end_status = uarch::Core::Status::kDeadlocked;
  return t;
}

void expect_same_uarch(const UarchTrialRecord& a, const UarchTrialRecord& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.bit.field, b.bit.field);
  EXPECT_EQ(a.bit.entry, b.bit.entry);
  EXPECT_EQ(a.bit.bit, b.bit.bit);
  EXPECT_EQ(a.storage, b.storage);
  EXPECT_EQ(a.protection, b.protection);
  EXPECT_EQ(a.field_name, b.field_name);
  EXPECT_EQ(a.lat_exception, b.lat_exception);
  EXPECT_EQ(a.lat_cfv, b.lat_cfv);
  EXPECT_EQ(a.lat_hiconf, b.lat_hiconf);
  EXPECT_EQ(a.lat_deadlock, b.lat_deadlock);
  EXPECT_EQ(a.lat_illegal_flow, b.lat_illegal_flow);
  EXPECT_EQ(a.lat_cache_burst, b.lat_cache_burst);
  EXPECT_EQ(a.trace_diverged, b.trace_diverged);
  EXPECT_EQ(a.arch_corrupt_at_end, b.arch_corrupt_at_end);
  EXPECT_EQ(a.uarch_state_equal, b.uarch_state_equal);
  EXPECT_EQ(a.live_state_diff, b.live_state_diff);
  EXPECT_EQ(a.end_status, b.end_status);
}

TEST(Export, UarchJsonlRoundTripIsExact) {
  const auto trial = full_trial();
  const std::string line = uarch_trial_to_jsonl(5, 11, trial);
  // kNever latencies are omitted, never printed as 2^64-1.
  EXPECT_EQ(line.find("18446744073709551615"), std::string::npos);
  const auto parsed = uarch_trial_from_jsonl(line);
  ASSERT_TRUE(parsed.has_value());
  const auto& [shard, slot, back] = *parsed;
  EXPECT_EQ(shard, 5u);
  EXPECT_EQ(slot, 11u);
  expect_same_uarch(trial, back);
}

TEST(Export, VmJsonlRoundTripIsExact) {
  VmTrialResult trial;
  trial.workload = "parser";
  trial.outcome = VmOutcome::kMasked;
  trial.latency = kNever;
  trial.inject_index = 100'000;
  trial.bit = 63;
  const std::string line = vm_trial_to_jsonl(2, 0, trial);
  const auto parsed = vm_trial_from_jsonl(line);
  ASSERT_TRUE(parsed.has_value());
  const auto& [shard, slot, back] = *parsed;
  EXPECT_EQ(shard, 2u);
  EXPECT_EQ(slot, 0u);
  EXPECT_EQ(back.workload, trial.workload);
  EXPECT_EQ(back.outcome, trial.outcome);
  EXPECT_EQ(back.latency, trial.latency);
  EXPECT_EQ(back.inject_index, trial.inject_index);
  EXPECT_EQ(back.bit, trial.bit);
}

TEST(Export, JsonlParserRejectsGarbage) {
  EXPECT_FALSE(vm_trial_from_jsonl("not json").has_value());
  EXPECT_FALSE(vm_trial_from_jsonl("{\"shard\":1").has_value());  // torn line
  EXPECT_FALSE(uarch_trial_from_jsonl("{}").has_value());
}

TEST(Export, VmCsvParsesBackExactly) {
  std::vector<VmTrialResult> trials;
  const VmOutcome outcomes[] = {VmOutcome::kMasked, VmOutcome::kException,
                                VmOutcome::kCfv, VmOutcome::kMemAddr};
  for (int i = 0; i < 4; ++i) {
    VmTrialResult t;
    t.workload = "gzip";
    t.outcome = outcomes[i];
    t.latency = t.outcome == VmOutcome::kMasked ? kNever : u64(i) * 10;
    t.inject_index = u64(i) * 997;
    t.bit = u32(i);
    trials.push_back(t);
  }
  // Trials read back from their JSONL lines render to the same CSV bytes,
  // field by field.
  std::vector<VmTrialResult> back;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const auto parsed = vm_trial_from_jsonl(vm_trial_to_jsonl(0, i, trials[i]));
    ASSERT_TRUE(parsed.has_value()) << i;
    back.push_back(std::get<2>(*parsed));
  }
  std::ostringstream want, got;
  write_vm_trials_csv(want, trials);
  write_vm_trials_csv(got, back);
  EXPECT_EQ(got.str(), want.str());
  EXPECT_NE(want.str().find("gzip,single,masked,,0,0,,1\n"), std::string::npos);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(back[i].workload, trials[i].workload) << i;
    EXPECT_EQ(back[i].outcome, trials[i].outcome) << i;
    EXPECT_EQ(back[i].latency, trials[i].latency) << i;
    EXPECT_EQ(back[i].inject_index, trials[i].inject_index) << i;
    EXPECT_EQ(back[i].bit, trials[i].bit) << i;
  }
}

TEST(Export, UarchCsvParsesBackWithIdenticalClassification) {
  // Trials hitting the full precedence chain: deadlock > exception > cfv >
  // sdc, plus the non-failure categories.
  std::vector<UarchTrialRecord> trials;
  {
    auto t = full_trial();  // deadlocked with symptoms
    trials.push_back(t);
  }
  {
    auto t = full_trial();
    t.end_status = uarch::Core::Status::kRunning;
    t.lat_exception = 3;  // exception beats cfv
    trials.push_back(t);
  }
  {
    auto t = full_trial();
    t.end_status = uarch::Core::Status::kRunning;
    t.lat_cfv = 40;
    t.lat_hiconf = kNever;
    t.lat_illegal_flow = kNever;
    trials.push_back(t);
  }
  {
    auto t = full_trial();  // silent corruption, no symptoms at all
    t.end_status = uarch::Core::Status::kHalted;
    t.lat_cfv = kNever;
    t.lat_hiconf = kNever;
    t.lat_illegal_flow = kNever;
    t.arch_corrupt_at_end = true;
    trials.push_back(t);
  }
  {
    auto t = full_trial();  // fully masked
    t.end_status = uarch::Core::Status::kHalted;
    t.trace_diverged = false;
    t.live_state_diff = false;
    t.uarch_state_equal = true;
    t.lat_cfv = kNever;
    t.lat_hiconf = kNever;
    t.lat_illegal_flow = kNever;
    trials.push_back(t);
  }

  // Every classification input survives the trip through the JSONL lines,
  // and the trials read back render to the same CSV bytes.
  std::vector<UarchTrialRecord> back;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const auto parsed = uarch_trial_from_jsonl(uarch_trial_to_jsonl(0, i, trials[i]));
    ASSERT_TRUE(parsed.has_value()) << i;
    back.push_back(std::get<2>(*parsed));
  }
  std::ostringstream want_csv, got_csv;
  write_uarch_trials_csv(want_csv, trials);
  write_uarch_trials_csv(got_csv, back);
  EXPECT_EQ(got_csv.str(), want_csv.str());

  std::map<UarchOutcome, int> want, got;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    expect_same_uarch(trials[i], back[i]);
    for (const u64 interval : {10u, 100u, 1000u}) {
      const auto a = classify_trial(trials[i], DetectorModel::kJrsConfidence,
                                    ProtectionModel::kBaseline, interval);
      const auto b = classify_trial(back[i], DetectorModel::kJrsConfidence,
                                    ProtectionModel::kBaseline, interval);
      EXPECT_EQ(a, b) << "trial " << i << " interval " << interval;
    }
    ++want[classify_trial(trials[i], DetectorModel::kPerfectCfv,
                          ProtectionModel::kBaseline, 100)];
    ++got[classify_trial(back[i], DetectorModel::kPerfectCfv,
                         ProtectionModel::kBaseline, 100)];
  }
  EXPECT_EQ(want, got);
}

TEST(Export, FaultModelFieldsRoundTripThroughJsonl) {
  // Uarch: the model token, every extra flipped bit, and the upset marker.
  auto uarch = full_trial();
  uarch.model = "burst";
  uarch.extra_bits = {pack_bit_ref(uarch::BitRef{3, 18, 41}),
                      pack_bit_ref(uarch::BitRef{3, 19, 41})};
  const auto uarch_parsed = uarch_trial_from_jsonl(uarch_trial_to_jsonl(0, 0, uarch));
  ASSERT_TRUE(uarch_parsed.has_value());
  const auto& uarch_back = std::get<2>(*uarch_parsed);
  expect_same_uarch(uarch, uarch_back);
  EXPECT_EQ(uarch_back.model, "burst");
  EXPECT_EQ(uarch_back.extra_bits, uarch.extra_bits);
  EXPECT_TRUE(uarch_back.upset);

  // A rate-driven no-upset trial keeps its explicit marker.
  auto no_upset = full_trial();
  no_upset.model = "rate";
  no_upset.upset = false;
  const auto no_upset_parsed =
      uarch_trial_from_jsonl(uarch_trial_to_jsonl(0, 1, no_upset));
  ASSERT_TRUE(no_upset_parsed.has_value());
  EXPECT_EQ(std::get<2>(*no_upset_parsed).model, "rate");
  EXPECT_FALSE(std::get<2>(*no_upset_parsed).upset);

  // Vm: model plus the extra flipped bit positions.
  VmTrialResult vm;
  vm.workload = "mcf";
  vm.outcome = VmOutcome::kMemData;
  vm.latency = 5;
  vm.inject_index = 77;
  vm.bit = 12;
  vm.model = "multi";
  vm.extra_bits = {13, 14, 15};
  const auto vm_parsed = vm_trial_from_jsonl(vm_trial_to_jsonl(1, 2, vm));
  ASSERT_TRUE(vm_parsed.has_value());
  const auto& vm_back = std::get<2>(*vm_parsed);
  EXPECT_EQ(vm_back.model, "multi");
  EXPECT_EQ(vm_back.extra_bits, vm.extra_bits);
  EXPECT_EQ(vm_back.bit, vm.bit);

  // Default-model lines carry none of the new keys: historical traces are
  // byte-frozen and re-parsing them yields default-model trials.
  const std::string default_line = uarch_trial_to_jsonl(0, 0, full_trial());
  EXPECT_EQ(default_line.find("\"model\""), std::string::npos);
  EXPECT_EQ(default_line.find("\"upset\""), std::string::npos);
}

TEST(Export, ModelColumnRoundTripsThroughCsv) {
  // The model column names the fault model ("single" for the default), and
  // the extra_bits/upset columns carry the rest of the fault-model fields.
  auto uarch = full_trial();
  uarch.model = "burst";
  uarch.extra_bits = {5, 9};
  auto uarch_no_upset = full_trial();
  uarch_no_upset.model = "rate";
  uarch_no_upset.upset = false;
  std::ostringstream uarch_out;
  write_uarch_trials_csv(uarch_out, {uarch, uarch_no_upset, full_trial()});
  EXPECT_NE(uarch_out.str().find("\nvortex,burst,iq.op,latch,parity,"),
            std::string::npos);
  EXPECT_NE(uarch_out.str().find(",5;9,1\nvortex,rate,"), std::string::npos);
  EXPECT_NE(uarch_out.str().find(",,0\nvortex,single,"), std::string::npos);

  VmTrialResult vm;
  vm.workload = "gzip";
  vm.outcome = VmOutcome::kRegister;
  vm.latency = 3;
  vm.inject_index = 41;
  vm.bit = 2;
  vm.model = "multi";
  vm.extra_bits = {3, 4};
  VmTrialResult vm_no_upset;
  vm_no_upset.workload = "mcf";
  vm_no_upset.outcome = VmOutcome::kMasked;
  vm_no_upset.latency = kNever;
  vm_no_upset.model = "rate";
  vm_no_upset.upset = false;
  std::ostringstream vm_out;
  write_vm_trials_csv(vm_out, {vm, vm_no_upset, VmTrialResult{}});
  EXPECT_EQ(vm_out.str(),
            "workload,model,outcome,latency,inject_index,bit,extra_bits,upset\n"
            "gzip,multi,register,3,41,2,3;4,1\n"
            "mcf,rate,masked,,0,0,,0\n"
            ",single,masked,,0,0,,1\n");
}

TEST(Export, ModelBreakdownAggregatesPerModelAndRoundsTrip) {
  std::vector<VmTrialResult> trials;
  const auto add = [&](const std::string& model, VmOutcome outcome, int n) {
    for (int i = 0; i < n; ++i) {
      VmTrialResult t;
      t.workload = "gzip";
      t.outcome = outcome;
      t.model = model;
      trials.push_back(t);
    }
  };
  add("", VmOutcome::kMasked, 5);
  add("", VmOutcome::kCfv, 2);
  add("multi", VmOutcome::kMasked, 3);
  add("rate", VmOutcome::kMemData, 1);

  const auto rows = model_breakdown(trials);
  ASSERT_EQ(rows.size(), 4u);
  // Sorted by model then outcome; default-model trials report as "single".
  EXPECT_EQ(rows[0].model, "multi");
  EXPECT_EQ(rows[0].outcome, "masked");
  EXPECT_EQ(rows[0].count, 3u);
  EXPECT_EQ(rows[1].model, "rate");
  EXPECT_EQ(rows[1].outcome, "mem-data");
  EXPECT_EQ(rows[2].model, "single");
  EXPECT_EQ(rows[2].outcome, "cfv");
  EXPECT_EQ(rows[2].count, 2u);
  EXPECT_EQ(rows[3].model, "single");
  EXPECT_EQ(rows[3].outcome, "masked");
  EXPECT_EQ(rows[3].count, 5u);

  // The breakdown over trials read back from their JSONL lines is the same.
  std::vector<VmTrialResult> parsed;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const auto line = vm_trial_from_jsonl(vm_trial_to_jsonl(0, i, trials[i]));
    ASSERT_TRUE(line.has_value()) << i;
    parsed.push_back(std::get<2>(*line));
  }
  const auto back = model_breakdown(parsed);
  ASSERT_EQ(back.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(back[i].model, rows[i].model) << i;
    EXPECT_EQ(back[i].outcome, rows[i].outcome) << i;
    EXPECT_EQ(back[i].count, rows[i].count) << i;
  }
}

TEST(Export, UarchModelBreakdownClassifiesTrials) {
  auto masked = full_trial();
  masked.model = "burst";
  masked.end_status = uarch::Core::Status::kHalted;
  masked.trace_diverged = false;
  masked.live_state_diff = false;
  masked.uarch_state_equal = true;
  masked.lat_cfv = kNever;
  masked.lat_hiconf = kNever;
  masked.lat_illegal_flow = kNever;
  auto detected = full_trial();  // lat_cfv=12: a detected control-flow violation
  detected.model = "burst";
  const auto rows = model_breakdown({masked, detected, full_trial()},
                                    DetectorModel::kPerfectCfv,
                                    ProtectionModel::kBaseline, 100);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].model, "burst");
  EXPECT_EQ(rows[0].outcome, "cfv");
  EXPECT_EQ(rows[1].model, "burst");
  EXPECT_EQ(rows[1].outcome, "masked");
  EXPECT_EQ(rows[2].model, "single");
  EXPECT_EQ(rows[2].outcome, "cfv");
}

TEST(Export, ShardStatsCsvHasOneRowPerShard) {
  std::vector<ShardStats> shards(2);
  shards[0] = {0, "gzip", 32, 12.5, false};
  shards[1] = {1, "mcf", 16, 4.0, true};
  std::ostringstream out;
  write_shard_stats_csv(out, shards);
  const std::string text = out.str();
  EXPECT_NE(text.find("shard,workload,trials,wall_ms"), std::string::npos);
  EXPECT_NE(text.find("0,gzip,32,"), std::string::npos);
  EXPECT_NE(text.find("1,mcf,16,"), std::string::npos);
}

}  // namespace
}  // namespace restore::faultinject
