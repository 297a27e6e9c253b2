// perfbench_runner — the in-process half of the repository benchmark.
//
// run.py starts one runner per repetition (so every repetition begins with
// cold process-wide caches), waits for its "ready" line, then sends commands
// on stdin, one per line, as `verb key=value ...`. Each command answers with
// one flat JSON line on stdout:
//
//   campaign kind=uarch|vm seed=N trials=N per_point=N shard_trials=N
//            workers=N dir=DIR
//       run_uarch_campaign / run_vm_campaign streaming DIR/trace.jsonl, then
//       compact and analyze it; times the campaign call to complete trace and
//       to report in hand, and checks analytics/trace outcome parity
//   report trace=PATH workers=N
//       compact + analyze an existing trace (the fleet path's report step)
//   parity trace=PATH report=PATH
//       does a daemon-rendered JSON report agree with the trace's outcomes?
//   commit trace=PATH out=PATH
//       re-serialize the trace with *_trial_to_jsonl and check the bytes
//   probe seed=N points=N
//       per-layer probes: clean Core::run, Core copy/state_equal,
//       run_uarch_plan_trial with and without an upset, Vm::run and copy
//   exit
//
// With --spans PATH every call into the repository's public functions is
// wrapped in a span (name, id, parent, start, end, counts) held in memory and
// written to PATH when the runner exits. Timings are host time
// (steady_clock); simulated statistics are never timed here.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analytics/column_store.hpp"
#include "analytics/compact.hpp"
#include "analytics/queries.hpp"
#include "analytics/report.hpp"
#include "common/rng.hpp"
#include "faultinject/campaign_io.hpp"
#include "faultinject/classify.hpp"
#include "faultinject/export.hpp"
#include "faultinject/orchestrator.hpp"
#include "faultinject/uarch_campaign.hpp"
#include "faultinject/vm_campaign.hpp"
#include "uarch/core.hpp"
#include "uarch/state_registry.hpp"
#include "vm/vm.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace restore;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double ms_since_start(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(t - kProcessStart).count();
}

// In-memory span recorder. Disabled, span() just calls through.
class Tracer {
 public:
  void enable(std::string path, std::string request) {
    path_ = std::move(path);
    request_ = std::move(request);
  }
  bool enabled() const noexcept { return !path_.empty(); }

  template <class F>
  auto span(const char* name, F&& body) {
    if (!enabled()) return body();
    const u64 id = next_id_++;
    Record record{name, id, stack_.empty() ? 0 : stack_.back(), 0.0, 0.0, {}};
    stack_.push_back(id);
    const auto start = Clock::now();
    struct Close {
      Tracer* tracer;
      Record* record;
      Clock::time_point start;
      ~Close() {
        record->start_ms = ms_since_start(start);
        record->end_ms = ms_since_start(Clock::now());
        tracer->stack_.pop_back();
        tracer->records_.push_back(std::move(*record));
      }
    } close{this, &record, start};
    return body();
  }

  // Attach a count to the innermost finished span of `name`.
  void count(const char* name, const char* key, u64 value) {
    if (!enabled()) return;
    for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
      if (it->name == name) {
        it->counts[key] = value;
        return;
      }
    }
  }

  void write() const {
    if (!enabled()) return;
    std::ofstream out(path_, std::ios::trunc);
    for (const auto& r : records_) {
      out << "{\"request\":\"" << request_ << "\",\"name\":\"" << r.name
          << "\",\"id\":" << r.id << ",\"parent\":" << r.parent
          << ",\"start_ms\":" << r.start_ms << ",\"end_ms\":" << r.end_ms;
      for (const auto& [key, value] : r.counts) out << ",\"" << key << "\":" << value;
      out << "}\n";
    }
  }

 private:
  struct Record {
    std::string name;
    u64 id = 0;
    u64 parent = 0;
    double start_ms = 0.0;
    double end_ms = 0.0;
    std::map<std::string, u64> counts;
  };
  std::string path_;
  std::string request_;
  std::vector<Record> records_;
  std::vector<u64> stack_;
  u64 next_id_ = 1;
};

Tracer tracer;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// `verb key=value ...` -> key/value map (the verb under "").
std::map<std::string, std::string> parse_command(const std::string& line) {
  std::map<std::string, std::string> out;
  std::istringstream in(line);
  std::string token;
  in >> out[""];
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) throw std::runtime_error("bad token '" + token + "'");
    out[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return out;
}

const std::string& arg(const std::map<std::string, std::string>& args,
                       const std::string& key) {
  const auto it = args.find(key);
  if (it == args.end()) throw std::runtime_error("missing " + key + "=");
  return it->second;
}

u64 arg_u64(const std::map<std::string, std::string>& args, const std::string& key) {
  return std::stoull(arg(args, key));
}

// One flat JSON reply line.
class Reply {
 public:
  Reply& num(const char* key, double value) {
    std::ostringstream v;
    v.precision(17);
    v << value;
    return add(key, v.str());
  }
  Reply& u(const char* key, u64 value) { return add(key, std::to_string(value)); }
  Reply& flag(const char* key, bool value) { return add(key, value ? "true" : "false"); }
  Reply& list(const char* key, const std::vector<double>& values) {
    std::ostringstream v;
    v.precision(17);
    v << '[';
    for (std::size_t i = 0; i < values.size(); ++i) v << (i ? "," : "") << values[i];
    v << ']';
    return add(key, v.str());
  }
  void send() const {
    std::cout << '{' << body_ << '}' << std::endl;
  }

 private:
  Reply& add(const char* key, const std::string& value) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
    body_ += value;
    return *this;
  }
  std::string body_;
};

bool same_rows(const std::vector<faultinject::ModelBreakdownRow>& a,
               const std::vector<faultinject::ModelBreakdownRow>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](const auto& x, const auto& y) {
           return x.model == y.model && x.outcome == y.outcome && x.count == y.count;
         });
}

std::string trace_kind(const std::string& trace_path) {
  std::ifstream in(trace_path);
  std::string first;
  std::getline(in, first);
  const auto header = faultinject::parse_trace_header(first);
  if (!header) throw std::runtime_error("no trace header in " + trace_path);
  return header->kind;
}

// The outcome breakdown the analytics report must reproduce (queries.hpp's
// parity contract), computed from the trace through the trial reader.
std::vector<faultinject::ModelBreakdownRow> trace_breakdown(const std::string& trace_path,
                                                            u64* trials) {
  std::ifstream in(trace_path);
  if (trace_kind(trace_path) == "vm") {
    std::vector<faultinject::VmTrialResult> records;
    for (auto& parsed : faultinject::read_vm_trials_jsonl(in)) {
      records.push_back(std::move(parsed.trial));
    }
    *trials = records.size();
    return faultinject::model_breakdown(records);
  }
  std::vector<faultinject::UarchTrialRecord> records;
  for (auto& parsed : faultinject::read_uarch_trials_jsonl(in)) {
    records.push_back(std::move(parsed.trial));
  }
  *trials = records.size();
  return faultinject::model_breakdown(records, faultinject::DetectorModel::kPerfectCfv,
                                      faultinject::ProtectionModel::kBaseline, 100);
}

struct ReportTiming {
  analytics::CompactResult compact;
  analytics::AnalysisReport report;
  double compact_s = 0.0;
  double analyze_s = 0.0;
};

ReportTiming compact_and_analyze(const std::string& trace_path, std::size_t threads) {
  ReportTiming out;
  const std::string store_path = analytics::store_path_for(trace_path);
  const auto t0 = Clock::now();
  out.compact = tracer.span("analytics.compact_trace", [&] {
    analytics::CompactOptions options;
    options.threads = threads;
    return analytics::compact_trace(trace_path, store_path, options);
  });
  const auto t1 = Clock::now();
  out.report = tracer.span("analytics.analyze", [&] {
    const analytics::ColumnStoreReader store(store_path);
    analytics::QueryOptions options;
    options.threads = threads;
    return analytics::analyze(store, options);
  });
  const auto t2 = Clock::now();
  tracer.count("analytics.compact_trace", "jsonl_bytes", out.compact.jsonl_bytes);
  tracer.count("analytics.compact_trace", "store_bytes", out.compact.store_bytes);
  tracer.count("analytics.compact_trace", "rows", out.compact.rows);
  out.compact_s = seconds_between(t0, t1);
  out.analyze_s = seconds_between(t1, t2);
  return out;
}

void add_report(Reply& reply, const ReportTiming& timing) {
  reply.num("compact_s", timing.compact_s)
      .num("analyze_s", timing.analyze_s)
      .u("rows", timing.compact.rows)
      .u("jsonl_bytes", timing.compact.jsonl_bytes)
      .u("store_bytes", timing.compact.store_bytes);
}

void cmd_campaign(const std::map<std::string, std::string>& args) {
  const std::string kind = arg(args, "kind");
  const std::string trace = arg(args, "dir") + "/trace.jsonl";
  faultinject::CampaignRunOptions options;
  options.workers = arg_u64(args, "workers");
  options.shard_trials = arg_u64(args, "shard_trials");
  options.out_jsonl = trace;
  faultinject::CampaignTelemetry telemetry;

  std::vector<faultinject::ModelBreakdownRow> breakdown;
  const auto t0 = Clock::now();
  if (kind == "uarch") {
    faultinject::UarchCampaignConfig config;
    config.seed = arg_u64(args, "seed");
    config.trials_per_workload = arg_u64(args, "trials");
    config.trials_per_point = arg_u64(args, "per_point");
    const auto result = tracer.span("faultinject.run_uarch_campaign", [&] {
      return faultinject::run_uarch_campaign(config, options, &telemetry);
    });
    breakdown = faultinject::model_breakdown(result.trials,
                                             faultinject::DetectorModel::kPerfectCfv,
                                             faultinject::ProtectionModel::kBaseline, 100);
  } else if (kind == "vm") {
    faultinject::VmCampaignConfig config;
    config.seed = arg_u64(args, "seed");
    config.trials_per_workload = arg_u64(args, "trials");
    const auto result = tracer.span("faultinject.run_vm_campaign", [&] {
      return faultinject::run_vm_campaign(config, options, &telemetry);
    });
    breakdown = faultinject::model_breakdown(result.trials);
  } else {
    throw std::runtime_error("unknown kind '" + kind + "'");
  }
  const auto t1 = Clock::now();
  const ReportTiming timing = compact_and_analyze(trace, options.workers);
  const auto t2 = Clock::now();

  std::vector<double> shard_ms;
  for (const auto& shard : telemetry.shards) shard_ms.push_back(shard.wall_ms);
  Reply reply;
  reply.u("trials", telemetry.trials_total)
      .num("campaign_s", seconds_between(t0, t1))
      .num("report_s", seconds_between(t0, t2))
      .flag("complete", telemetry.complete)
      .u("quarantined", telemetry.quarantined.size())
      .flag("parity", same_rows(breakdown, timing.report.outcomes))
      .list("shard_ms", shard_ms);
  add_report(reply, timing);
  reply.send();
}

void cmd_report(const std::map<std::string, std::string>& args) {
  const std::string trace = arg(args, "trace");
  const auto t0 = Clock::now();
  const ReportTiming timing = compact_and_analyze(trace, arg_u64(args, "workers"));
  const double report_s = seconds_between(t0, Clock::now());
  u64 trials = 0;
  const auto breakdown = trace_breakdown(trace, &trials);
  Reply reply;
  reply.num("report_s", report_s)
      .u("trials", trials)
      .flag("parity", same_rows(breakdown, timing.report.outcomes));
  add_report(reply, timing);
  reply.send();
}

void cmd_parity(const std::map<std::string, std::string>& args) {
  u64 trials = 0;
  const auto breakdown = trace_breakdown(arg(args, "trace"), &trials);
  std::ifstream in(arg(args, "report"));
  const std::string report((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  const std::string expected =
      "\"outcomes\":" + analytics::breakdown_json(breakdown);
  Reply().flag("parity", report.find(expected) != std::string::npos).send();
}

void cmd_commit(const std::map<std::string, std::string>& args) {
  const std::string trace = arg(args, "trace");
  std::ifstream in(trace, std::ios::binary);
  const std::string original((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  std::istringstream parse(original);
  const bool vm = trace_kind(trace) == "vm";
  const auto vm_trials = vm ? faultinject::read_vm_trials_jsonl(parse)
                            : std::vector<faultinject::ParsedVmTrial>{};
  const auto uarch_trials = vm ? std::vector<faultinject::ParsedUarchTrial>{}
                               : faultinject::read_uarch_trials_jsonl(parse);
  const u64 trials = vm ? vm_trials.size() : uarch_trials.size();

  const auto t0 = Clock::now();
  const std::string rewritten = tracer.span(
      vm ? "faultinject.vm_trial_to_jsonl" : "faultinject.uarch_trial_to_jsonl", [&] {
        std::string out = faultinject::trace_header_line(vm ? "vm" : "uarch") + '\n';
        for (const auto& t : vm_trials) {
          out += faultinject::vm_trial_to_jsonl(t.shard, t.slot, t.trial) + '\n';
        }
        for (const auto& t : uarch_trials) {
          out += faultinject::uarch_trial_to_jsonl(t.shard, t.slot, t.trial) + '\n';
        }
        std::ofstream(arg(args, "out"), std::ios::trunc | std::ios::binary) << out;
        return out;
      });
  const double commit_s = seconds_between(t0, Clock::now());
  Reply().u("trials", trials)
      .u("trace_bytes", original.size())
      .num("commit_s", commit_s)
      .flag("identical", rewritten == original)
      .send();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

template <class F>
double timed_us(const char* name, F&& body) {
  const auto t0 = Clock::now();
  tracer.span(name, body);
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

void cmd_probe(const std::map<std::string, std::string>& args) {
  using uarch::Core;
  const auto& programs = workloads::all();
  const uarch::StateRegistry& registry = uarch::StateRegistry::instance();
  const faultinject::UarchCampaignConfig campaign_defaults;
  const u64 monitor = campaign_defaults.monitor_cycles;
  const u64 catchup = campaign_defaults.catchup_cycles;
  constexpr int kForkRepeats = 16;
  constexpr int kUpsetBits = 8;

  // Clean Core::run of every program: the campaign's clean-cycle probe.
  std::vector<u64> clean_cycles;
  double probe_s = 0.0;
  for (const auto& wl : programs) {
    const auto t0 = Clock::now();
    const u64 cycles = tracer.span("uarch.Core.run", [&] {
      Core core(wl.program);
      core.run(100'000'000);
      return core.cycle_count();
    });
    probe_s += seconds_between(t0, Clock::now());
    tracer.count("uarch.Core.run", "cycles", cycles);
    clean_cycles.push_back(cycles);
  }

  // Injection points drawn like a campaign's: [5%, 85%] of the clean run.
  Rng rng(arg_u64(args, "seed"));
  const u64 points = arg_u64(args, "points");
  std::vector<std::pair<std::size_t, u64>> plan;
  for (u64 p = 0; p < points; ++p) {
    const std::size_t w = p % programs.size();
    const u64 lo = clean_cycles[w] / 20;
    plan.emplace_back(w, rng.range(lo, std::max(lo + 1, clean_cycles[w] * 17 / 20)));
  }
  std::sort(plan.begin(), plan.end());

  std::vector<double> fork_us, equal_us, continuation_ms, trial_ms;
  std::size_t current = programs.size();
  std::optional<Core> golden;
  for (const auto& [w, cycle] : plan) {
    if (w != current) {
      golden.emplace(programs[w].program);
      current = w;
    }
    while (golden->running() && golden->cycle_count() < cycle) golden->cycle();
    if (!golden->running()) continue;
    const Core& at_point = *golden;

    std::vector<double> fork, equal;
    for (int r = 0; r < kForkRepeats; ++r) {
      std::optional<Core> copy;
      fork.push_back(timed_us("uarch.Core.copy", [&] { copy.emplace(at_point); }));
      bool same = false;
      equal.push_back(timed_us("uarch.Core.state_equal",
                               [&] { same = copy->state_equal(at_point); }));
      if (!same) throw std::runtime_error("a Core copy is not state_equal to its source");
    }
    fork_us.push_back(median(fork));
    equal_us.push_back(median(equal));

    // A no-upset plan leaves the machine equal to golden, so the call costs
    // one continuation build; an upset call costs that plus the faulty trial.
    // Trial cost is heavy-tailed (most flips are masked at once), so the
    // upset side is a mean, the no-upset baseline a median.
    std::vector<double> base;
    double upset_total = 0.0;
    for (int b = 0; b < kUpsetBits; ++b) {
      faultinject::InjectionPlan plan;
      plan.bits.push_back(registry.sample(rng));
      plan.upset = false;
      if (b % 2 == 0) {
        base.push_back(timed_us("faultinject.run_uarch_plan_trial.no_upset", [&] {
          faultinject::run_uarch_plan_trial(at_point, plan, monitor, catchup);
        }));
      }
      plan.upset = true;
      upset_total += timed_us("faultinject.run_uarch_plan_trial", [&] {
        faultinject::run_uarch_plan_trial(at_point, plan, monitor, catchup);
      });
    }
    continuation_ms.push_back(median(base) / 1000.0);
    trial_ms.push_back((upset_total / kUpsetBits - median(base)) / 1000.0);
  }

  // Golden Vm runs, and a fork at each program's midpoint.
  u64 golden_insns = 0;
  double vm_s = 0.0;
  std::vector<double> vm_fork_us;
  for (const auto& wl : programs) {
    const auto t0 = Clock::now();
    const u64 insns = tracer.span("vm.Vm.run", [&] {
      vm::Vm machine(wl.program);
      return machine.run(~u64{0});
    });
    vm_s += seconds_between(t0, Clock::now());
    tracer.count("vm.Vm.run", "insns", insns);
    golden_insns += insns;

    vm::Vm half(wl.program);
    half.run(insns / 2);
    std::vector<double> fork;
    for (int r = 0; r < kForkRepeats; ++r) {
      fork.push_back(timed_us("vm.Vm.copy", [&] {
        const vm::Vm copy = half;
        if (copy.retired_count() != half.retired_count()) {
          throw std::runtime_error("a Vm copy diverged from its source");
        }
      }));
    }
    vm_fork_us.push_back(median(fork));
  }

  u64 probe_cycles = 0;
  for (const u64 c : clean_cycles) probe_cycles += c;
  Reply()
      .u("probe_cycles", probe_cycles)
      .num("probe_s", probe_s)
      .num("fork_us", median(fork_us))
      .num("state_equal_us", median(equal_us))
      .num("continuation_ms", median(continuation_ms))
      .num("trial_ms", median(trial_ms))
      .u("golden_insns", golden_insns)
      .num("vm_s", vm_s)
      .num("vm_fork_us", median(vm_fork_us))
      .send();
}

}  // namespace

int main(int argc, char** argv) {
  // --spans PATH --request ID: record spans, tagged with the repetition's ID.
  std::string spans_path, request = "runner";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--spans") spans_path = argv[i + 1];
    if (flag == "--request") request = argv[i + 1];
  }
  if (!spans_path.empty()) tracer.enable(spans_path, request);
  // Static initialisation the campaigns would otherwise pay lazily: the
  // state registry and the assembled, golden-run workloads.
  tracer.span("uarch.StateRegistry.instance", [] { uarch::StateRegistry::instance(); });
  tracer.span("workloads.all", [] { workloads::all(); });
  std::cout << "ready" << std::endl;

  int status = 0;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    try {
      const auto args = parse_command(line);
      const std::string& verb = args.at("");
      if (verb == "exit") break;
      if (verb == "campaign") {
        cmd_campaign(args);
      } else if (verb == "report") {
        cmd_report(args);
      } else if (verb == "parity") {
        cmd_parity(args);
      } else if (verb == "commit") {
        cmd_commit(args);
      } else if (verb == "probe") {
        cmd_probe(args);
      } else {
        throw std::runtime_error("unknown command '" + verb + "'");
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
      std::cout << "{\"error\":true}" << std::endl;
      status = 1;
    }
  }
  tracer.write();
  return status;
}
