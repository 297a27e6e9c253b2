#include "analytics/report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <utility>

#include "analytics/compact.hpp"
#include "common/flatjson.hpp"
#include "common/table.hpp"
#include "faultinject/classify.hpp"

namespace restore::analytics {

namespace {

std::string fmt_double(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  return buf;
}

}  // namespace

JsonBuilder& JsonBuilder::field(std::string_view key, u64 value) {
  if (!body_.empty()) body_.push_back(',');
  flatjson::append_field(body_, key, value);
  return *this;
}

JsonBuilder& JsonBuilder::field(std::string_view key, bool value) {
  if (!body_.empty()) body_.push_back(',');
  flatjson::append_field(body_, key, value);
  return *this;
}

JsonBuilder& JsonBuilder::field(std::string_view key, std::string_view value) {
  if (!body_.empty()) body_.push_back(',');
  flatjson::append_field(body_, key, value);
  return *this;
}

JsonBuilder& JsonBuilder::field_f(std::string_view key, double value) {
  if (!body_.empty()) body_.push_back(',');
  flatjson::append_string(body_, key);
  body_.push_back(':');
  body_ += fmt_double(value);
  return *this;
}

JsonBuilder& JsonBuilder::raw(std::string_view key, std::string_view rendered_json) {
  if (!body_.empty()) body_.push_back(',');
  flatjson::append_string(body_, key);
  body_.push_back(':');
  body_.append(rendered_json);
  return *this;
}

std::string JsonBuilder::str() const { return "{" + body_ + "}"; }

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.append(items[i]);
  }
  out.push_back(']');
  return out;
}

std::string breakdown_json(const std::vector<faultinject::ModelBreakdownRow>& rows) {
  std::vector<std::string> items;
  items.reserve(rows.size());
  for (const auto& row : rows) {
    items.push_back(JsonBuilder()
                        .field("model", std::string_view(row.model))
                        .field("outcome", std::string_view(row.outcome))
                        .field("count", row.count)
                        .str());
  }
  return json_array(items);
}

std::string avf_json(const std::vector<StructureAvfRow>& rows) {
  std::vector<std::string> items;
  items.reserve(rows.size());
  for (const auto& row : rows) {
    items.push_back(JsonBuilder()
                        .field("structure", std::string_view(row.structure))
                        .field("trials", row.trials)
                        .field("failures", row.failures)
                        .field_f("avf", row.avf.estimate)
                        .field_f("lo", row.avf.lo)
                        .field_f("hi", row.avf.hi)
                        .str());
  }
  return json_array(items);
}

std::string sites_json(const std::vector<SiteVulnRow>& rows) {
  std::vector<std::string> items;
  items.reserve(rows.size());
  for (const auto& row : rows) {
    items.push_back(JsonBuilder()
                        .field("site", std::string_view(row.site))
                        .field("trials", row.trials)
                        .field("failures", row.failures)
                        .field_f("avf", row.avf.estimate)
                        .field_f("lo", row.avf.lo)
                        .field_f("hi", row.avf.hi)
                        .str());
  }
  return json_array(items);
}

std::string latency_json(const std::vector<LatencyStatsRow>& rows) {
  std::vector<std::string> items;
  items.reserve(rows.size());
  for (const auto& row : rows) {
    JsonBuilder builder;
    builder.field("detector", std::string_view(row.detector))
        .field("fired", row.fired)
        .field("total", row.total)
        .field("p50", row.p50)
        .field("p90", row.p90)
        .field("p99", row.p99);
    std::string bins;
    flatjson::append_field(bins, "bins", row.bin_counts);
    // append_field renders `"bins":[...]`; keep just the value.
    builder.raw("bins", std::string_view(bins).substr(bins.find(':') + 1));
    items.push_back(builder.str());
  }
  return json_array(items);
}

std::string defeat_json(const std::vector<DefeatRow>& rows) {
  std::vector<std::string> items;
  items.reserve(rows.size());
  for (const auto& row : rows) {
    items.push_back(JsonBuilder()
                        .field("workload", std::string_view(row.workload))
                        .field("detector", std::string_view(row.detector))
                        .field("failures", row.failures)
                        .field("defeated", row.defeated)
                        .str());
  }
  return json_array(items);
}

std::string report_json(const AnalysisReport& report) {
  char hash[24];
  std::snprintf(hash, sizeof hash, "%016" PRIx64, report.config_hash);
  JsonBuilder builder;
  builder.field("kind", std::string_view(report.kind))
      .field("rows", report.rows)
      .field("config_hash", std::string_view(hash))
      .field("interval", report.interval)
      .raw("outcomes", breakdown_json(report.outcomes))
      .raw("avf", avf_json(report.avf));
  if (!report.by_pc.empty()) builder.raw("by_pc", sites_json(report.by_pc));
  if (!report.by_opcode.empty()) {
    builder.raw("by_opcode", sites_json(report.by_opcode));
  }
  builder.raw("latency", latency_json(report.latencies))
      .raw("defeat", defeat_json(report.defeats));
  return builder.str();
}

std::string report_text(const AnalysisReport& report) {
  std::string out;
  char line[128];
  std::snprintf(line, sizeof line,
                "analysis: kind=%s rows=%llu config_hash=%016" PRIx64
                " interval=%llu\n",
                report.kind.c_str(),
                static_cast<unsigned long long>(report.rows), report.config_hash,
                static_cast<unsigned long long>(report.interval));
  out += line;

  out += "outcomes:\n";
  {
    TextTable table({"model", "outcome", "count"});
    for (const auto& row : report.outcomes) {
      table.add_row({row.model, row.outcome, TextTable::fmt_u(row.count)});
    }
    out += table.render();
  }

  out += report.kind == "vm" ? "AVF per workload:\n" : "AVF per structure:\n";
  {
    TextTable table({"structure", "trials", "failures", "avf", "ci95"});
    for (const auto& row : report.avf) {
      table.add_row({row.structure, TextTable::fmt_u(row.trials),
                     TextTable::fmt_u(row.failures),
                     TextTable::fmt_pct(row.avf.estimate),
                     TextTable::fmt_pct(row.avf.lo) + ".." +
                         TextTable::fmt_pct(row.avf.hi)});
    }
    out += table.render();
  }

  if (!report.by_pc.empty()) {
    out += "most vulnerable injection sites (by pc):\n";
    TextTable table({"pc", "trials", "failures", "avf"});
    for (const auto& row : report.by_pc) {
      table.add_row({row.site, TextTable::fmt_u(row.trials),
                     TextTable::fmt_u(row.failures),
                     TextTable::fmt_pct(row.avf.estimate)});
    }
    out += table.render();
  }
  if (!report.by_opcode.empty()) {
    out += "vulnerability by opcode:\n";
    TextTable table({"opcode", "trials", "failures", "avf"});
    for (const auto& row : report.by_opcode) {
      table.add_row({row.site, TextTable::fmt_u(row.trials),
                     TextTable::fmt_u(row.failures),
                     TextTable::fmt_pct(row.avf.estimate)});
    }
    out += table.render();
  }

  out += "symptom latency (retired instructions to first symptom):\n";
  {
    TextTable table({"detector", "fired", "total", "p50", "p90", "p99"});
    for (const auto& row : report.latencies) {
      table.add_row({row.detector, TextTable::fmt_u(row.fired),
                     TextTable::fmt_u(row.total), TextTable::fmt_u(row.p50),
                     TextTable::fmt_u(row.p90), TextTable::fmt_u(row.p99)});
    }
    out += table.render();
  }

  out += "workload x detector defeat matrix (failures the detector never saw):\n";
  {
    TextTable table({"workload", "detector", "failures", "defeated"});
    for (const auto& row : report.defeats) {
      table.add_row({row.workload, row.detector, TextTable::fmt_u(row.failures),
                     TextTable::fmt_u(row.defeated)});
    }
    out += table.render();
  }
  return out;
}

void write_trials_csv(std::ostream& out, const ColumnStoreReader& store) {
  if (store.footer().kind == "vm") {
    std::vector<faultinject::VmTrialResult> trials;
    for (auto& record : reconstruct_vm_trials(store)) {
      trials.push_back(std::move(record.trial));
    }
    faultinject::write_vm_trials_csv(out, trials);
  } else {
    std::vector<faultinject::UarchTrialRecord> trials;
    for (auto& record : reconstruct_uarch_trials(store)) {
      trials.push_back(std::move(record.trial));
    }
    faultinject::write_uarch_trials_csv(out, trials);
  }
}

// ---- campaign status ----

namespace {

std::vector<faultinject::ModelBreakdownRow> trace_breakdown(
    std::istream& trace, const std::string& kind, u64 interval) {
  if (kind == "vm") {
    std::vector<faultinject::VmTrialResult> trials;
    for (auto& parsed : faultinject::read_vm_trials_jsonl(trace)) {
      trials.push_back(std::move(parsed.trial));
    }
    return faultinject::model_breakdown(trials);
  }
  std::vector<faultinject::UarchTrialRecord> trials;
  for (auto& parsed : faultinject::read_uarch_trials_jsonl(trace)) {
    trials.push_back(std::move(parsed.trial));
  }
  return faultinject::model_breakdown(trials,
                                      faultinject::DetectorModel::kPerfectCfv,
                                      faultinject::ProtectionModel::kBaseline,
                                      interval);
}

TraceStatus trace_status(const std::string& path, u64 interval) {
  TraceStatus status;
  status.path = path;
  const auto manifest_path = faultinject::manifest_path_for(path);
  try {
    status.manifest = faultinject::read_manifest(manifest_path);
    if (!status.manifest) status.error = "no manifest at " + manifest_path;
  } catch (const std::exception& e) {
    status.error = e.what();
  }
  if (!status.manifest) {
    status.exit_code = kStatusUnreadable;
    return status;
  }
  const auto& manifest = *status.manifest;
  for (const u64 trials : manifest.completed_trials) status.trials_done += trials;
  for (const u64 ms : manifest.wall_ms) status.wall_ms += ms;
  status.shards_done = manifest.completed.size();
  try {
    std::ifstream trace(path);
    if (!trace) throw std::runtime_error("cannot open " + path);
    status.breakdown = trace_breakdown(trace, manifest.kind, interval);
  } catch (const std::exception& e) {
    status.error = std::string("trace unreadable, outcome breakdown omitted: ") +
                   e.what();
    status.exit_code = kStatusUnreadable;
  }
  if (manifest.has_quarantine() || manifest.has_node_quarantine()) {
    status.exit_code = kStatusQuarantined;
  }
  return status;
}

// Completed trials over the summed shard wall time ("-" before any shard).
std::string fmt_rate(u64 trials, u64 wall_ms) {
  if (wall_ms == 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f",
                static_cast<double>(trials) * 1000.0 / static_cast<double>(wall_ms));
  return buf;
}

std::string fmt_progress(u64 done, u64 total) {
  return TextTable::fmt_u(done) + "/" + TextTable::fmt_u(total);
}

std::string quarantine_json(const faultinject::CampaignManifest& manifest) {
  std::vector<std::string> items;
  for (std::size_t i = 0; i < manifest.quarantined.size(); ++i) {
    items.push_back(JsonBuilder()
                        .field("shard", manifest.quarantined[i])
                        .field("workload", manifest.quarantine_workloads[i])
                        .field("attempts", manifest.quarantine_attempts[i])
                        .field("error", manifest.quarantine_errors[i])
                        .str());
  }
  return json_array(items);
}

std::string node_quarantine_json(const faultinject::CampaignManifest& manifest) {
  std::vector<std::string> items;
  for (std::size_t i = 0; i < manifest.node_quarantined.size(); ++i) {
    items.push_back(JsonBuilder()
                        .field("node", manifest.node_quarantined[i])
                        .field("faults", manifest.node_faults[i])
                        .field("error", manifest.node_errors[i])
                        .str());
  }
  return json_array(items);
}

std::string trace_status_json(const TraceStatus& status) {
  JsonBuilder doc;
  doc.field("trace", std::string_view(status.path));
  if (status.manifest) {
    const auto& manifest = *status.manifest;
    char hash[24];
    std::snprintf(hash, sizeof hash, "%016" PRIx64, manifest.config_hash);
    doc.field("kind", std::string_view(manifest.kind))
        .field("seed", manifest.seed)
        .field("config_hash", std::string_view(hash))
        .field("shard_trials", manifest.shard_trials)
        .field("shards_done", status.shards_done)
        .field("shards_total", manifest.total_shards)
        .field("trials_done", status.trials_done)
        .field("trials_total", manifest.total_trials)
        .field("wall_ms", status.wall_ms);
  }
  doc.field("state", status.state());
  if (status.manifest) {
    doc.raw("quarantined", quarantine_json(*status.manifest))
        .raw("node_quarantined", node_quarantine_json(*status.manifest));
  }
  if (status.breakdown) doc.raw("breakdown", breakdown_json(*status.breakdown));
  if (!status.error.empty()) doc.field("error", std::string_view(status.error));
  doc.field("exit", static_cast<u64>(status.exit_code));
  return doc.str();
}

}  // namespace

std::string_view TraceStatus::state() const {
  if (!manifest) return "unreadable";
  if (manifest->has_quarantine()) return "quarantined";
  if (shards_done == manifest->total_shards) {
    // Complete bytes, but a fleet node was benched getting there: the trace
    // is trustworthy (its shards were re-leased), the host is not.
    return manifest->has_node_quarantine() ? "node-quarantine" : "complete";
  }
  return "resumable";
}

StatusReport status_report(const std::vector<std::string>& trace_paths,
                           u64 interval) {
  StatusReport report;
  std::map<std::pair<std::string, std::string>, u64> counts;
  for (const auto& path : trace_paths) {
    auto status = trace_status(path, interval);
    report.worst_exit = std::max(report.worst_exit, status.exit_code);
    if (status.manifest) {
      const auto& manifest = *status.manifest;
      report.shards_done += status.shards_done;
      report.shards_total += manifest.total_shards;
      report.quarantined_shards += manifest.quarantined.size();
      report.trials_done += status.trials_done;
      report.trials_total += manifest.total_trials;
      report.wall_ms += status.wall_ms;
      if (status.shards_done == manifest.total_shards) ++report.complete;
    }
    if (status.breakdown) {
      for (const auto& row : *status.breakdown) {
        counts[{row.model, row.outcome}] += row.count;
      }
    }
    report.traces.push_back(std::move(status));
  }
  for (const auto& [key, count] : counts) {
    report.breakdown.push_back({key.first, key.second, count});
  }
  return report;
}

std::string status_json(const StatusReport& report) {
  std::vector<std::string> traces;
  traces.reserve(report.traces.size());
  for (const auto& status : report.traces) {
    traces.push_back(trace_status_json(status));
  }
  const std::string totals =
      JsonBuilder()
          .field("traces", static_cast<u64>(report.traces.size()))
          .field("complete", report.complete)
          .field("shards_done", report.shards_done)
          .field("shards_total", report.shards_total)
          .field("quarantined_shards", report.quarantined_shards)
          .field("trials_done", report.trials_done)
          .field("trials_total", report.trials_total)
          .field("wall_ms", report.wall_ms)
          .str();
  return JsonBuilder()
      .raw("traces", json_array(traces))
      .raw("totals", totals)
      .raw("breakdown", breakdown_json(report.breakdown))
      .field("worst_exit", static_cast<u64>(report.worst_exit))
      .str();
}

std::string status_text(const StatusReport& report) {
  TextTable table({"trace", "kind", "shards", "quarantined", "trials", "trials/s",
                   "state", "exit"});
  std::string details;
  for (const auto& status : report.traces) {
    const auto exit_code = std::to_string(status.exit_code);
    if (!status.manifest) {
      table.add_row({status.path, "?", "-", "-", "-", "-",
                     std::string(status.state()), exit_code});
    } else {
      const auto& manifest = *status.manifest;
      table.add_row({status.path, manifest.kind,
                     fmt_progress(status.shards_done, manifest.total_shards),
                     TextTable::fmt_u(manifest.quarantined.size()),
                     fmt_progress(status.trials_done, manifest.total_trials),
                     fmt_rate(status.trials_done, status.wall_ms),
                     std::string(status.state()), exit_code});
      for (std::size_t i = 0; i < manifest.quarantined.size(); ++i) {
        details += status.path + ": quarantined shard " +
                   std::to_string(manifest.quarantined[i]) + " (" +
                   manifest.quarantine_workloads[i] + "), " +
                   std::to_string(manifest.quarantine_attempts[i]) +
                   " attempts, last error: " + manifest.quarantine_errors[i] +
                   " (a --resume re-attempts it)\n";
      }
      for (std::size_t i = 0; i < manifest.node_quarantined.size(); ++i) {
        details += status.path + ": quarantined fleet node " +
                   manifest.node_quarantined[i] + ", " +
                   std::to_string(manifest.node_faults[i]) +
                   " transport faults, last error: " + manifest.node_errors[i] +
                   " (its shards were re-leased)\n";
      }
    }
    if (!status.error.empty()) details += status.path + ": " + status.error + "\n";
  }
  table.add_row({"total", "", fmt_progress(report.shards_done, report.shards_total),
                 TextTable::fmt_u(report.quarantined_shards),
                 fmt_progress(report.trials_done, report.trials_total),
                 fmt_rate(report.trials_done, report.wall_ms), "",
                 std::to_string(report.worst_exit)});
  std::string out = table.render() + details;

  if (!report.breakdown.empty()) {
    std::map<std::string, u64> model_totals;
    for (const auto& row : report.breakdown) model_totals[row.model] += row.count;
    TextTable outcomes({"model", "outcome", "count", "share"});
    for (const auto& row : report.breakdown) {
      outcomes.add_row({row.model, row.outcome, TextTable::fmt_u(row.count),
                        TextTable::fmt_pct(static_cast<double>(row.count) /
                                               static_cast<double>(model_totals[row.model]),
                                           1)});
    }
    out += "outcomes on disk (uarch classified perfect-cfv/baseline):\n";
    out += outcomes.render();
  }
  char summary[160];
  std::snprintf(summary, sizeof summary,
                "%zu trace(s): %llu complete, %llu quarantined shard(s), worst "
                "exit %d\n",
                report.traces.size(), static_cast<unsigned long long>(report.complete),
                static_cast<unsigned long long>(report.quarantined_shards),
                report.worst_exit);
  return out + summary;
}

}  // namespace restore::analytics
