// Report rendering for restore-analyze and restorectl analyze: a small
// deterministic JSON builder (nested objects/arrays over the same escaping
// rules as common/flatjson), renderers for the query engine's aggregate rows
// as text tables or JSON documents, the per-trial CSV export of a store, and
// the campaign status report over live traces.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analytics/column_store.hpp"
#include "analytics/queries.hpp"
#include "faultinject/campaign_io.hpp"
#include "faultinject/export.hpp"

namespace restore::analytics {

// Builds one JSON object field-by-field; values added in call order. Nested
// values (arrays of objects) are passed pre-rendered via raw(). Doubles
// render with %.10g, so equal inputs render to equal bytes.
class JsonBuilder {
 public:
  JsonBuilder& field(std::string_view key, u64 value);
  JsonBuilder& field(std::string_view key, bool value);
  JsonBuilder& field(std::string_view key, std::string_view value);
  JsonBuilder& field_f(std::string_view key, double value);
  JsonBuilder& raw(std::string_view key, std::string_view rendered_json);
  std::string str() const;  // "{...}"

 private:
  std::string body_;
};

// "[item,item,...]" over pre-rendered JSON items.
std::string json_array(const std::vector<std::string>& items);

// ---- aggregate-row renderers ----

// One row per (model, outcome): {"model":...,"outcome":...,"count":N}. The
// outcomes query and the status report both emit this array, so scripts can
// diff a live trace's breakdown against its compacted store's directly.
std::string breakdown_json(const std::vector<faultinject::ModelBreakdownRow>& rows);

std::string avf_json(const std::vector<StructureAvfRow>& rows);
std::string sites_json(const std::vector<SiteVulnRow>& rows);
std::string latency_json(const std::vector<LatencyStatsRow>& rows);
std::string defeat_json(const std::vector<DefeatRow>& rows);
std::string report_json(const AnalysisReport& report);

// Human-readable rendering of the full report (TextTable sections).
std::string report_text(const AnalysisReport& report);

// Per-trial CSV of a whole store (faultinject::write_{vm,uarch}_trials_csv
// over the reconstructed trials, in stored order): byte-identical to the CSV
// of the in-memory trial list the campaign returned.
void write_trials_csv(std::ostream& out, const ColumnStoreReader& store);

// ---- campaign status ----
//
// Progress and outcomes of campaign traces as they sit on disk. Status reads
// the JSONL and its manifest directly, never a compacted store, so it works
// on partial and interrupted traces too.

// Exit codes of the status report. With several traces the worst one wins;
// a quarantine outranks an unreadable trace, so a partial campaign never
// reads as merely unreadable.
inline constexpr int kStatusHealthy = 0;
inline constexpr int kStatusUnreadable = 1;
inline constexpr int kStatusQuarantined = 3;

// One trace and its manifest.
struct TraceStatus {
  std::string path;
  std::optional<faultinject::CampaignManifest> manifest;  // nullopt: unreadable
  u64 shards_done = 0;
  u64 trials_done = 0;
  u64 wall_ms = 0;  // summed shard wall time
  // Per-model outcome breakdown of the trials on disk (uarch classified with
  // the perfect-cfv detector and baseline pipeline); nullopt when the trace
  // cannot be read.
  std::optional<std::vector<faultinject::ModelBreakdownRow>> breakdown;
  std::string error;  // why the manifest or trace is unreadable ("" = neither)
  int exit_code = kStatusHealthy;

  // complete | resumable | quarantined | node-quarantine | unreadable
  std::string_view state() const;
};

struct StatusReport {
  std::vector<TraceStatus> traces;
  u64 complete = 0;  // traces with every shard done
  u64 shards_done = 0;
  u64 shards_total = 0;
  u64 quarantined_shards = 0;
  u64 trials_done = 0;
  u64 trials_total = 0;
  u64 wall_ms = 0;
  std::vector<faultinject::ModelBreakdownRow> breakdown;  // over all traces
  int worst_exit = kStatusHealthy;
};

// Reads every trace (manifest at manifest_path_for(path)); never throws on a
// missing or malformed file, which is recorded in that trace's status.
StatusReport status_report(const std::vector<std::string>& trace_paths,
                           u64 interval);

// {"traces":[...],"totals":{...},"breakdown":[...],"worst_exit":N}
std::string status_json(const StatusReport& report);
// One row per trace plus totals, quarantine and error details, and the
// outcome breakdown over all readable traces.
std::string status_text(const StatusReport& report);

}  // namespace restore::analytics
