// Shared helpers for the figure-reproduction binaries.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/shutdown.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "faultinject/classify.hpp"
#include "faultinject/export.hpp"
#include "faultinject/orchestrator.hpp"
#include "faultinject/uarch_campaign.hpp"

namespace restore::bench {

// Campaign exit statuses shared by every campaign-driving binary.
inline constexpr int kExitComplete = 0;
inline constexpr int kExitQuarantined = 3;  // partial: quarantined shards remain
inline constexpr int kExitStopped = 130;    // SIGINT/SIGTERM graceful shutdown

// Shared campaign plumbing for every campaign-driving binary: maps the
// --out-jsonl/--resume/--workers/--shard-trials/--max-shards/--heartbeat/
// --shard-retries/--retry-backoff-ms flags onto run options (workers default
// to hardware concurrency - 1), and arms graceful shutdown: the first
// SIGINT/SIGTERM lets in-flight shards finish and flushes the trace/manifest;
// a second one exits immediately.
inline faultinject::CampaignRunOptions campaign_options(const CliArgs& args) {
  install_shutdown_signal_handlers();
  auto opts =
      faultinject::campaign_options_from_cli(args, default_campaign_workers());
  opts.stop_flag = shutdown_flag();
  return opts;
}

// The per-trial containment budget requested on the command line
// (--trial-max-insns/-cycles/-pages/-bytes; all default to unlimited).
inline ResourceBudget cli_trial_budget(const CliArgs& args) {
  return resolve_campaign_cli(args).trial_budget;
}

// Post-run observability: a one-line summary on stderr (kept off stdout so
// figure output stays deterministic), every quarantined shard with its error,
// and, with --shard-stats PATH, the per-shard wall-time table as CSV.
// Returns the process exit status the binary should propagate: 0 for a
// complete campaign, kExitStopped after a graceful shutdown, kExitQuarantined
// when quarantined shards keep the campaign partial.
inline int report_campaign(const faultinject::CampaignTelemetry& telemetry,
                           const CliArgs& args) {
  const char* state = "";
  if (telemetry.stopped) {
    state = ", STOPPED: shutdown requested";
  } else if (!telemetry.quarantined.empty()) {
    state = ", PARTIAL: shards quarantined";
  } else if (!telemetry.complete) {
    state = ", INCOMPLETE: shard budget hit";
  }
  std::fprintf(stderr,
               "[campaign] %llu trials in %.0f ms (%llu resumed, %zu shards%s)\n",
               static_cast<unsigned long long>(telemetry.trials_total),
               telemetry.wall_ms,
               static_cast<unsigned long long>(telemetry.resumed_trials),
               telemetry.shards.size(), state);
  for (const auto& failure : telemetry.quarantined) {
    std::fprintf(stderr,
                 "[campaign] quarantined shard %llu (%s) after %llu attempts: %s\n",
                 static_cast<unsigned long long>(failure.shard),
                 failure.workload.c_str(),
                 static_cast<unsigned long long>(failure.attempts),
                 failure.error.c_str());
  }
  if (const auto path = resolve_campaign_cli(args).shard_stats) {
    faultinject::write_shard_stats_csv(*path, telemetry.shards);
    std::fprintf(stderr, "[campaign] wrote shard stats to %s\n", path->c_str());
  }
  if (telemetry.stopped) return kExitStopped;
  if (!telemetry.quarantined.empty()) return kExitQuarantined;
  return kExitComplete;
}

inline std::string latency_label(u64 edge) {
  if (edge == kNever) return "inf";
  if (edge >= 1000 && edge % 1000 == 0) return std::to_string(edge / 1000) + "k";
  return std::to_string(edge);
}

}  // namespace restore::bench
