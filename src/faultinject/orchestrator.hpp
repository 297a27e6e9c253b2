// Sharded campaign orchestration.
//
// A campaign is split into deterministic shards: contiguous trial ranges of
// one workload, each sampling its randomness from an independent RNG stream
// derived from (root seed, workload name, shard ordinal). Shard results
// therefore depend only on the campaign config and shard geometry — not on
// the worker count, the order shards happen to finish in, or whether the
// campaign was interrupted and resumed — so the assembled trial list (and
// anything exported from it) is byte-identical across all of those.
//
// With an output path set, the runner streams each completed shard to a
// JSONL trace and records it in a sidecar manifest; `resume` trusts the
// manifest, reloads the completed shards from the trace and only runs the
// rest. On clean completion the trace is rewritten in canonical
// (shard, slot) order, so complete traces are byte-identical too.
//
// Supervision: a shard whose runner throws is retried with bounded
// exponential backoff (shards are deterministic, so only transient *host*
// failures — bad_alloc, I/O — can succeed on retry). A shard that keeps
// failing is quarantined: recorded in the manifest with its error, reported
// in telemetry, and skipped while every other shard completes. Quarantined
// shards are not marked completed, so a later --resume re-attempts exactly
// them. A stop flag (see common/shutdown.hpp) requests graceful shutdown:
// no new shard starts, in-flight shards finish and are flushed to the
// trace/manifest, and --resume continues from that consistent pair.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/thread_annotations.hpp"
#include "common/thread_pool.hpp"
#include "faultinject/campaign_io.hpp"
#include "faultinject/progress.hpp"

namespace restore::faultinject {

// Default trials per shard: small enough that a default 150-trial workload
// splits into several resumable units, large enough that per-shard golden
// warm-up stays amortized.
inline constexpr u64 kDefaultShardTrials = 32;

struct CampaignRunOptions {
  std::size_t workers = 0;   // 0 = run shards inline on the calling thread
  u64 shard_trials = kDefaultShardTrials;  // part of the campaign identity
  std::string out_jsonl;     // empty = in-memory only (no files)
  bool resume = false;       // reuse completed shards from the manifest
  u64 max_shards = 0;        // stop after N newly-run shards (0 = run all);
                             // the campaign-replay "kill after k shards" hook
  u64 heartbeat_every_shards = 0;  // 0 = no heartbeat
  std::FILE* heartbeat_stream = nullptr;  // default stderr
  // Shard supervision: a throwing shard is re-run up to `shard_retries`
  // times (attempt k sleeps retry_backoff_ms << (k-1) first), then
  // quarantined. Retries re-run the same deterministic shard, so results are
  // unaffected; only transient host failures are papered over.
  u64 shard_retries = 2;
  u64 retry_backoff_ms = 50;
  // Graceful-shutdown flag, polled between shard starts (never mid-shard).
  // Usually common/shutdown.hpp's process-wide flag; tests pass their own.
  const std::atomic<bool>* stop_flag = nullptr;
  // Structured progress observer. Every heartbeat/attempt-failure line plus
  // shard-done/quarantine/complete events flow through one mutex-guarded
  // ProgressSink, so the callback sees the same total order the stream
  // prints. Called with the sink mutex held — must not block on campaign
  // work (the `restored` service forwards events to subscribers from here).
  CampaignEventCallback on_event;
};

// One planned shard: trials [trial_begin, trial_begin + trial_count) of
// `workload`, sampled from an Rng seeded with `seed`.
struct ShardSpec {
  u64 index = 0;  // global shard index (manifest/JSONL key)
  std::string workload;
  u64 trial_begin = 0;
  u64 trial_count = 0;
  u64 seed = 0;
};

struct ShardStats {
  u64 shard = 0;
  std::string workload;
  u64 trials = 0;
  double wall_ms = 0.0;
  bool resumed = false;  // reloaded from the trace instead of re-run
};

// A shard the supervisor gave up on (or, with `attempts` below the retry
// budget, one whose results could not be committed to the trace).
struct ShardFailure {
  u64 shard = 0;
  std::string workload;
  u64 attempts = 0;       // attempts made (1 + retries used)
  std::string error;      // the last attempt's what()
};

// Cycles a uarch campaign simulated, per phase, over the shards it ran (a
// resumed shard adds nothing). Every count but golden_pass is a pure
// function of the campaign config and shard geometry, identical at any
// worker count; golden_pass depends on which passes the process already
// held. Telemetry only: never in the trace or the manifest.
struct UarchPhaseCounters {
  u64 golden_pass = 0;   // clean runs this campaign computed (golden passes)
  u64 advance = 0;       // golden core from a rung to each injection point
  u64 continuation = 0;  // lazy golden continuations the trials read
  u64 faulty = 0;        // faulty cores over their monitor windows
  u64 catchup = 0;       // faulty cores catching up to golden's retire count

  UarchPhaseCounters& operator+=(const UarchPhaseCounters& other) noexcept {
    golden_pass += other.golden_pass;
    advance += other.advance;
    continuation += other.continuation;
    faulty += other.faulty;
    catchup += other.catchup;
    return *this;
  }
};

struct CampaignTelemetry {
  std::vector<ShardStats> shards;  // shard-index order
  std::vector<ShardFailure> quarantined;  // quarantine order
  u64 trials_total = 0;
  u64 resumed_trials = 0;
  double wall_ms = 0.0;
  bool complete = true;  // false when max_shards / quarantine / stop cut the run
  bool stopped = false;  // the stop flag ended the campaign early
  UarchPhaseCounters uarch;  // zero for VM campaigns
};

// Seed for one shard's RNG stream: mixes the root seed with the workload
// name and the shard's ordinal within that workload, so streams are
// independent of workload order and count.
u64 shard_stream_seed(u64 root_seed, const std::string& workload, u64 ordinal);

// Seed for a tagged substream *within* one shard's stream. Non-default fault
// models draw their injection plans from Rng(model_stream_seed(shard.seed,
// tag)) instead of the shard's primary Rng, so (a) the primary stream's draw
// sequence — and with it every existing single-bit trace — is untouched, and
// (b) the substream is still a pure function of the shard, preserving byte
// identity at any worker count and across interrupt+resume. Pure mixing, no
// Rng is constructed or mutated (Rng::fork advances the parent, which would
// break (a)).
u64 model_stream_seed(u64 shard_seed, u64 stream_tag) noexcept;

// Cut every workload's trial count into shards of (at most) shard_trials.
std::vector<ShardSpec> plan_shards(u64 root_seed,
                                   const std::vector<std::string>& workloads,
                                   u64 trials_per_workload, u64 shard_trials);

// Map shared CLI flags onto run options (workers falls back to
// `default_workers` when --workers is absent).
CampaignRunOptions campaign_options_from_cli(const CliArgs& args,
                                             std::size_t default_workers);

// ---- fleet lease accounting ----
//
// Book-keeping for shard leases handed to remote workers by the fleet
// coordinator (service/fleet_coordinator.hpp). Pure state machine: the
// caller holds one mutex around every call and passes time in as a plain
// millisecond count, so the book is deterministic and unit-testable without
// sockets or clocks.
//
// Lifecycle of a shard: pending -> leased (possibly to several nodes at once
// via stealing) -> done | quarantined. Shards are deterministic, so duplicate
// execution is harmless; commits are first-wins and every later commit or
// release of a stale lease id is a no-op.
class ShardLeaseBook {
 public:
  explicit ShardLeaseBook(std::size_t shard_count);

  struct Lease {
    u64 id = 0;
    u64 shard = 0;
    bool stolen = false;  // duplicate of a still-outstanding straggler lease
  };

  // Mark a shard terminal without a lease (resume reloaded it from the trace).
  void mark_done(u64 shard);
  // Remove a shard from circulation without completing it (shard quarantine:
  // the shard itself keeps failing on every node). Counts toward
  // all_terminal() but not done_count().
  void mark_quarantined(u64 shard);

  // Hand out the next lease for `node`: the oldest pending shard (FIFO), or —
  // when nothing is pending — a *steal*: a duplicate lease on the oldest
  // outstanding shard whose lease is at least steal_age_ms old, is held by a
  // different node, and is not already co-leased to `node`. nullopt when
  // neither exists. Stealing bounds the campaign tail by the fastest healthy
  // node instead of the slowest straggler.
  std::optional<Lease> acquire(const std::string& node, u64 now_ms,
                               u64 steal_age_ms);

  // The lease's shard results were merged. True exactly once per shard: the
  // first commit wins, every later (stolen-duplicate or stale) lease id
  // returns false and must not be merged again.
  bool commit(u64 lease_id);

  // The lease failed (transport fault, node death, or worker-side shard
  // failure): requeue its shard unless it is terminal, still outstanding
  // under another node's lease, or already queued. Unknown ids are ignored.
  void release(u64 lease_id);

  // Leases issued for the shard so far (feeds the shard-quarantine budget).
  u64 attempts(u64 shard) const noexcept;

  bool done(u64 shard) const noexcept;
  bool all_terminal() const noexcept;  // every shard done or quarantined
  u64 done_count() const noexcept { return done_n_; }
  u64 pending_count() const noexcept { return pending_.size(); }
  u64 outstanding_count() const noexcept { return leases_.size(); }

 private:
  struct Outstanding {
    u64 shard = 0;
    std::string node;
    u64 since_ms = 0;
  };
  bool terminal(u64 shard) const noexcept {
    return shard < done_.size() && (done_[shard] != 0 || quarantined_[shard] != 0);
  }

  std::vector<u64> pending_;           // shard indices awaiting a lease (FIFO)
  std::size_t pending_head_ = 0;       // consumed prefix of pending_
  std::map<u64, Outstanding> leases_;  // lease id -> holder, issue order
  std::vector<char> done_;
  std::vector<char> quarantined_;
  std::vector<u64> attempts_;
  u64 next_lease_ = 1;
  u64 done_n_ = 0;
  u64 terminal_n_ = 0;
};

// ---- the generic runner ----
//
// Record      trial record type (VmTrialResult / UarchTrialRecord)
// run_shard   ShardSpec -> std::vector<Record>; must be deterministic and
//             thread-safe (shards run concurrently)
// to_line     (shard, slot, Record) -> JSONL line (no newline)
// from_line   line -> optional<tuple<shard, slot, Record>>
// outcome_tag Record -> short string for the heartbeat's outcome counts
template <class Record, class RunShard, class ToLine, class FromLine,
          class OutcomeTag>
std::vector<Record> run_sharded_campaign(const std::vector<ShardSpec>& shards,
                                         CampaignManifest identity,
                                         const CampaignRunOptions& opts,
                                         const RunShard& run_shard,
                                         const ToLine& to_line,
                                         const FromLine& from_line,
                                         const OutcomeTag& outcome_tag,
                                         CampaignTelemetry* telemetry) {
  using Clock = std::chrono::steady_clock;
  const auto campaign_start = Clock::now();
  const auto ms_since = [](Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  };

  identity.total_shards = shards.size();
  identity.total_trials = 0;
  for (const auto& shard : shards) identity.total_trials += shard.trial_count;
  identity.completed.clear();
  identity.completed_trials.clear();
  identity.wall_ms.clear();

  std::vector<std::vector<Record>> per_shard(shards.size());
  std::vector<char> done(shards.size(), 0);
  std::vector<ShardStats> stats(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    stats[s].shard = shards[s].index;
    stats[s].workload = shards[s].workload;
  }

  const bool streaming = !opts.out_jsonl.empty();
  const std::string manifest_path =
      streaming ? manifest_path_for(opts.out_jsonl) : std::string();

  // -- resume: trust the manifest, reload completed shards from the trace --
  if (streaming && opts.resume) {
    if (const auto prior = read_manifest(manifest_path)) {
      if (!prior->matches(identity)) {
        throw std::runtime_error(
            "campaign resume rejected: manifest at " + manifest_path +
            " was written by a different campaign (config/seed/shard geometry "
            "mismatch); delete the trace or rerun without --resume");
      }
      std::map<u64, u64> expected_trials;  // shard -> trials the manifest saw
      for (std::size_t i = 0; i < prior->completed.size(); ++i) {
        expected_trials[prior->completed[i]] = prior->completed_trials[i];
        if (prior->completed[i] < stats.size()) {
          stats[prior->completed[i]].wall_ms =
              static_cast<double>(prior->wall_ms[i]);
        }
      }

      std::ifstream trace(opts.out_jsonl);
      std::vector<std::vector<char>> filled(shards.size());
      std::string line;
      while (trace && std::getline(trace, line)) {
        if (line.empty()) continue;
        auto parsed = from_line(line);
        if (!parsed) continue;  // torn tail line from a killed writer
        auto& [shard, slot, record] = *parsed;
        if (shard >= shards.size() || !expected_trials.count(shard)) continue;
        if (slot >= shards[shard].trial_count) continue;
        auto& bucket = per_shard[shard];
        auto& mask = filled[shard];
        if (bucket.empty()) {
          bucket.resize(shards[shard].trial_count);
          mask.assign(shards[shard].trial_count, 0);
        }
        if (!mask[slot]) {
          bucket[slot] = std::move(record);
          mask[slot] = 1;
        }
      }
      for (const auto& [shard, trials] : expected_trials) {
        if (shard >= shards.size()) continue;
        u64 have = 0;
        for (const char f : filled[shard]) have += f;
        // Only shards whose every recorded trial survived in the trace are
        // trusted; anything torn is re-run.
        if (have == trials && trials <= shards[shard].trial_count) {
          per_shard[shard].resize(trials);
          done[shard] = 1;
          stats[shard].resumed = true;
          stats[shard].trials = trials;
        } else {
          per_shard[shard].clear();
        }
      }
    }
  }

  // -- stream bookkeeping (shared by workers, guarded by io_mutex) --
  Mutex io_mutex;
  std::ofstream trace_out;
  if (streaming) {
    // Start the trace fresh with the resumed shards in canonical order; the
    // manifest is rewritten to match, so a crash mid-campaign always leaves a
    // consistent (trace, manifest) pair behind.
    trace_out.open(opts.out_jsonl, std::ios::trunc);
    if (!trace_out) {
      throw std::runtime_error("cannot open campaign trace for writing: " +
                               opts.out_jsonl);
    }
    trace_out << trace_header_line(identity.kind) << '\n';
    for (std::size_t s = 0; s < shards.size(); ++s) {
      if (!done[s]) continue;
      for (std::size_t slot = 0; slot < per_shard[s].size(); ++slot) {
        trace_out << to_line(shards[s].index, slot, per_shard[s][slot]) << '\n';
      }
      identity.completed.push_back(shards[s].index);
      identity.completed_trials.push_back(per_shard[s].size());
      identity.wall_ms.push_back(static_cast<u64>(stats[s].wall_ms));
    }
    trace_out.flush();
    write_manifest(manifest_path, identity);
  }

  u64 trials_done = 0, resumed_trials = 0;
  std::map<std::string, u64> outcome_counts;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (!done[s]) continue;
    trials_done += per_shard[s].size();
    for (const auto& record : per_shard[s]) ++outcome_counts[outcome_tag(record)];
  }
  resumed_trials = trials_done;
  u64 shards_completed = 0;
  for (const char d : done) shards_completed += d;
  const u64 resumed_shards = shards_completed;

  // -- the serialized progress sink --
  //
  // Every progress line and structured event funnels through this one
  // mutex-guarded sink: lines cannot tear or interleave under high worker
  // counts, and an on_event observer (the `restored` service multiplexing
  // the stream to socket subscribers) sees events in the exact order the
  // stream printed them.
  ProgressSink sink(
      opts.heartbeat_stream != nullptr ? opts.heartbeat_stream : stderr,
      opts.on_event);
  // Snapshot the shared counters into an event. Callers hold io_mutex (or
  // run before/after the worker pool), so the counts are consistent.
  const auto make_event = [&](CampaignEvent::Kind kind) {
    CampaignEvent event;
    event.kind = kind;
    event.campaign_kind = identity.kind;
    event.shards_done = shards_completed;
    event.shards_total = shards.size();
    event.trials_done = trials_done;
    event.trials_total = identity.total_trials;
    const double elapsed_s = ms_since(campaign_start) / 1000.0;
    const u64 fresh = trials_done - resumed_trials;
    event.rate = elapsed_s > 0 ? static_cast<double>(fresh) / elapsed_s : 0.0;
    return event;
  };

  const auto heartbeat = [&] {
    auto event = make_event(CampaignEvent::Kind::kHeartbeat);
    const double rate = event.rate;
    const u64 remaining = identity.total_trials - trials_done;
    std::string outcomes;
    for (const auto& [tag, n] : outcome_counts) {
      outcomes += ' ' + tag + '=' + std::to_string(n);
    }
    char head[160];
    std::snprintf(head, sizeof head,
                  "[campaign %s] shard %llu/%llu | %llu/%llu trials | "
                  "%.0f trials/s | ETA %.1fs |",
                  identity.kind.c_str(),
                  static_cast<unsigned long long>(shards_completed),
                  static_cast<unsigned long long>(shards.size()),
                  static_cast<unsigned long long>(trials_done),
                  static_cast<unsigned long long>(identity.total_trials),
                  rate, rate > 0 ? static_cast<double>(remaining) / rate : 0.0);
    event.text = head + outcomes;
    sink.emit(event);
  };

  // -- run the pending shards under supervision --
  std::vector<ShardFailure> failures;
  u64 submitted = 0;
  bool budget_exhausted = false;
  const auto stop_requested = [&opts] {
    return opts.stop_flag != nullptr &&
           opts.stop_flag->load(std::memory_order_relaxed);
  };
  // Extract a what() from the in-flight exception of a catch(...) handler.
  const auto current_what = [] {
    try {
      throw;
    } catch (const std::exception& e) {
      return std::string(e.what());
    } catch (...) {
      return std::string("non-standard exception");
    }
  };
  // Every failing attempt of every shard is logged (never just the first):
  // diagnosing a sick host needs the full failure pattern.
  const auto log_attempt_failure = [&](const ShardSpec& shard, u64 attempt,
                                       u64 attempts_max, const std::string& what) {
    char head[128];
    std::snprintf(head, sizeof head,
                  "[campaign %s] shard %llu (%s) attempt %llu/%llu failed: ",
                  identity.kind.c_str(),
                  static_cast<unsigned long long>(shard.index),
                  shard.workload.c_str(),
                  static_cast<unsigned long long>(attempt),
                  static_cast<unsigned long long>(attempts_max));
    auto event = make_event(CampaignEvent::Kind::kAttemptFailed);
    event.shard = shard.index;
    event.workload = shard.workload;
    event.attempt = attempt;
    event.attempts_max = attempts_max;
    event.error = what;
    event.text = head + what;
    sink.emit(event);
  };
  // Record a quarantine in telemetry and (when streaming) the manifest, so
  // `restore-analyze status` can report it. The shard is *not* completed, so a
  // plain --resume re-attempts it; the resume-time manifest rewrite above
  // drops the stale quarantine record.
  const auto quarantine_locked = [&](const ShardSpec& shard, u64 attempts,
                                     const std::string& what) {
    failures.push_back(ShardFailure{shard.index, shard.workload, attempts, what});
    if (streaming) {
      identity.quarantined.push_back(shard.index);
      identity.quarantine_attempts.push_back(attempts);
      identity.quarantine_workloads.push_back(shard.workload);
      identity.quarantine_errors.push_back(what);
      try {
        write_manifest(manifest_path, identity);
      } catch (...) {
        // The quarantine is still in telemetry; a host that cannot even
        // write the manifest has nothing better to offer.
      }
    }
    // No line of its own (the last kAttemptFailed already printed the error);
    // subscribers still need the structured terminal verdict for the shard.
    auto event = make_event(CampaignEvent::Kind::kQuarantine);
    event.shard = shard.index;
    event.workload = shard.workload;
    event.attempt = attempts;
    event.attempts_max = opts.shard_retries + 1;
    event.error = what;
    sink.emit(event);
  };
  {
    ThreadPool pool(opts.workers);
    for (std::size_t s = 0; s < shards.size(); ++s) {
      if (done[s]) continue;
      if (stop_requested()) break;
      if (opts.max_shards != 0 && submitted >= opts.max_shards) {
        budget_exhausted = true;
        break;
      }
      ++submitted;
      pool.submit([&, s] {
        // A stop requested while this shard sat in the queue: skip it. An
        // already-*running* shard is never interrupted.
        if (stop_requested()) return;
        const u64 attempts_max = opts.shard_retries + 1;
        for (u64 attempt = 1; attempt <= attempts_max; ++attempt) {
          std::vector<Record> records;
          double wall = 0.0;
          try {
            const auto shard_start = Clock::now();
            records = run_shard(shards[s]);
            wall = ms_since(shard_start);
          } catch (...) {
            const std::string what = current_what();
            MutexLock lock(io_mutex);
            log_attempt_failure(shards[s], attempt, attempts_max, what);
            if (attempt == attempts_max) {
              quarantine_locked(shards[s], attempt, what);
              return;
            }
            if (stop_requested()) return;  // don't backoff-spin into a stop
            // Bounded exponential backoff before the next attempt. Wall
            // clock only paces the retry; it never enters any record.
            const u64 backoff_ms = opts.retry_backoff_ms << (attempt - 1);
            if (backoff_ms != 0) {
              std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
            }
            continue;
          }

          // Commit. A commit failure is host I/O trouble with the trace
          // already part-written, so it quarantines immediately instead of
          // retrying (a re-run would duplicate trace lines).
          try {
            MutexLock lock(io_mutex);
            if (streaming) {
              for (std::size_t slot = 0; slot < records.size(); ++slot) {
                trace_out << to_line(shards[s].index, slot, records[slot]) << '\n';
              }
              trace_out.flush();
              identity.completed.push_back(shards[s].index);
              identity.completed_trials.push_back(records.size());
              identity.wall_ms.push_back(static_cast<u64>(wall));
              write_manifest(manifest_path, identity);
            }
            stats[s].trials = records.size();
            stats[s].wall_ms = wall;
            for (const auto& record : records) ++outcome_counts[outcome_tag(record)];
            trials_done += records.size();
            ++shards_completed;
            per_shard[s] = std::move(records);
            done[s] = 1;
            {
              auto event = make_event(CampaignEvent::Kind::kShardDone);
              event.shard = shards[s].index;
              event.workload = shards[s].workload;
              sink.emit(event);
            }
            if (opts.heartbeat_every_shards != 0 &&
                (shards_completed - resumed_shards) % opts.heartbeat_every_shards ==
                    0) {
              heartbeat();
            }
          } catch (...) {
            const std::string what = current_what();
            MutexLock lock(io_mutex);
            log_attempt_failure(shards[s], attempt, attempts_max, what);
            quarantine_locked(shards[s], attempt, what);
          }
          return;
        }
      });
    }
    pool.wait_idle();
  }
  const bool stopped = stop_requested();

  const bool complete = shards_completed == shards.size();
  if (streaming && complete) {
    // Canonicalize: rewrite the trace in (shard, slot) order so a complete
    // trace is byte-identical however the campaign was scheduled.
    trace_out.close();
    std::ofstream canonical(opts.out_jsonl, std::ios::trunc);
    canonical << trace_header_line(identity.kind) << '\n';
    identity.completed.clear();
    identity.completed_trials.clear();
    identity.wall_ms.clear();
    for (std::size_t s = 0; s < shards.size(); ++s) {
      for (std::size_t slot = 0; slot < per_shard[s].size(); ++slot) {
        canonical << to_line(shards[s].index, slot, per_shard[s][slot]) << '\n';
      }
      identity.completed.push_back(shards[s].index);
      identity.completed_trials.push_back(per_shard[s].size());
      identity.wall_ms.push_back(static_cast<u64>(stats[s].wall_ms));
    }
    canonical.flush();
    write_manifest(manifest_path, identity);
  }

  sink.emit(make_event(CampaignEvent::Kind::kComplete));

  if (telemetry != nullptr) {
    telemetry->shards.clear();
    for (std::size_t s = 0; s < shards.size(); ++s) {
      if (done[s]) telemetry->shards.push_back(stats[s]);
    }
    telemetry->quarantined = failures;
    telemetry->trials_total = trials_done;
    telemetry->resumed_trials = resumed_trials;
    telemetry->wall_ms = ms_since(campaign_start);
    telemetry->complete = complete && !budget_exhausted;
    telemetry->stopped = stopped;
  }

  std::vector<Record> out;
  out.reserve(trials_done);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    for (auto& record : per_shard[s]) out.push_back(std::move(record));
  }
  return out;
}

}  // namespace restore::faultinject
