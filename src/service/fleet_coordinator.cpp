#include "service/fleet_coordinator.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdarg>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/thread_annotations.hpp"
#include "faultinject/campaign_io.hpp"
#include "faultinject/orchestrator.hpp"
#include "service/job_queue.hpp"

namespace restore::service {

namespace {

using faultinject::CampaignManifest;
using faultinject::ShardLeaseBook;
using faultinject::ShardSpec;
using Clock = std::chrono::steady_clock;

// Receive-poll granularity: how often a blocked lease read re-checks the
// stop flag and the whole-lease deadline.
constexpr int kRecvPollMs = 200;

u64 ms_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::milliseconds>(to - from).count());
}

void logf(std::FILE* stream, const char* format, ...) {
  if (stream == nullptr) return;
  std::va_list args;
  va_start(args, format);
  std::vfprintf(stream, format, args);
  va_end(args);
  std::fputc('\n', stream);
  std::fflush(stream);
}

// How one lease ended, from the coordinator's point of view.
struct LeaseOutcome {
  enum class Status {
    kOk,           // blob holds the shard's verified-length byte stream
    kShardFailed,  // the worker ran the shard and the shard threw
    kFault,        // transport trouble: the node, not the shard, is suspect
  };
  Status status = Status::kFault;
  std::string blob;  // newline-terminated shard JSONL (kOk only)
  u64 trials = 0;
  bool cached = false;
  std::string error;
};

// The blob a worker returned must be exactly the shard's planned lines:
// trial_count of them, keyed (shard.index, slot) in slot order. Anything
// else means a corrupt or confused node and is treated as a transport fault.
std::optional<std::string> verify_blob(const ShardSpec& shard,
                                       const std::string& blob) {
  u64 slot = 0;
  std::size_t pos = 0;
  while (pos < blob.size()) {
    const auto newline = blob.find('\n', pos);
    if (newline == std::string::npos) {
      return std::string("shard blob is not newline-terminated");
    }
    const auto key = faultinject::trial_line_key(blob.substr(pos, newline - pos));
    if (!key) {
      return "unparseable trial line at slot " + std::to_string(slot);
    }
    if (key->first != shard.index || key->second != slot) {
      return "trial line keyed (" + std::to_string(key->first) + "," +
             std::to_string(key->second) + ") where (" +
             std::to_string(shard.index) + "," + std::to_string(slot) +
             ") was expected";
    }
    ++slot;
    pos = newline + 1;
  }
  if (slot != shard.trial_count) {
    return "shard produced " + std::to_string(slot) + " trials, plan expects " +
           std::to_string(shard.trial_count);
  }
  return std::nullopt;
}

// Drive one lease against one worker: connect (with bounded retry), send the
// lease, collect the streamed reply. Never touches shared campaign state.
LeaseOutcome execute_lease(const std::string& address, const FleetOptions& opts,
                           const WireMessage& lease_msg,
                           const std::atomic<bool>& halted) {
  LeaseOutcome outcome;
  const auto stop_requested = [&] {
    return halted.load(std::memory_order_relaxed) ||
           (opts.stop_flag != nullptr &&
            opts.stop_flag->load(std::memory_order_relaxed));
  };

  // Bounded connect retry: a worker mid-restart deserves a second chance, a
  // dead host should fail fast and feed the node-fault budget.
  int fd = -1;
  std::string connect_error;
  const u64 attempts = 1 + opts.node_retries;
  for (u64 attempt = 1; attempt <= attempts && fd < 0; ++attempt) {
    fd = connect_tcp_timeout(address, opts.connect_timeout_ms, &connect_error);
    if (fd >= 0 || attempt == attempts || stop_requested()) break;
    const u64 backoff_ms = opts.retry_backoff_ms << (attempt - 1);
    if (backoff_ms != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    }
  }
  if (fd < 0) {
    outcome.error = connect_error.empty() ? "connect failed" : connect_error;
    return outcome;
  }

  if (!send_all(fd, encode_frame(encode_message(lease_msg)))) {
    ::close(fd);
    outcome.error = "lease send failed: " + std::string(std::strerror(errno));
    return outcome;
  }

  timeval tv{};
  tv.tv_usec = kRecvPollMs * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);

  const auto deadline = Clock::now() + std::chrono::milliseconds(
                                           opts.lease_deadline_ms);
  FrameReader reader;
  char buffer[16 * 1024];
  bool settled = false;
  while (!settled) {
    if (stop_requested()) {
      outcome.error = "stopped while waiting for the lease";
      break;
    }
    if (Clock::now() >= deadline) {
      outcome.error = "lease deadline blown (" +
                      std::to_string(opts.lease_deadline_ms) + " ms)";
      break;
    }
    const auto n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      outcome.error = std::string("recv failed: ") + std::strerror(errno);
      break;
    }
    if (n == 0) {
      reader.finish();
      outcome.error = reader.error_code() == FrameError::kTruncated
                          ? "connection closed mid-frame (node died)"
                          : "connection closed before the lease settled";
      break;
    }
    reader.feed(buffer, static_cast<std::size_t>(n));
    while (auto payload = reader.next()) {
      const auto msg = decode_message(*payload);
      if (!msg || msg->lease != lease_msg.lease) continue;
      if (msg->type == MessageType::kLeaseData) {
        outcome.blob += msg->data;
      } else if (msg->type == MessageType::kLeaseResult) {
        if (msg->bytes != outcome.blob.size()) {
          outcome.error = "lease stream sheared: result claims " +
                          std::to_string(msg->bytes) + " bytes, received " +
                          std::to_string(outcome.blob.size());
        } else {
          outcome.status = LeaseOutcome::Status::kOk;
          outcome.trials = msg->trials_done;
          outcome.cached = msg->cached;
        }
        settled = true;
        break;
      } else if (msg->type == MessageType::kLeaseFailed) {
        outcome.status = LeaseOutcome::Status::kShardFailed;
        outcome.error = msg->text;
        settled = true;
        break;
      }
    }
    if (reader.error()) {
      outcome.status = LeaseOutcome::Status::kFault;
      outcome.error =
          std::string("frame error: ") + std::string(to_string(reader.error_code()));
      break;
    }
  }
  ::close(fd);
  return outcome;
}

}  // namespace

int connect_tcp_timeout(const std::string& address, u64 timeout_ms,
                        std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return -1;
  };
  const auto endpoint = parse_host_port(address, /*allow_ephemeral=*/false);
  if (!endpoint) {
    return fail(address.find(':') == std::string::npos
                    ? "expected HOST:PORT, got '" + address + "'"
                    : "bad port in '" + address + "'");
  }
  const std::string& host = endpoint->host;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint->port);
  const std::string ip = host.empty() || host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    return fail("bad host in '" + address + "'");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail("socket(AF_INET) failed");
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno != EINPROGRESS) {
      const std::string what = std::strerror(errno);
      ::close(fd);
      return fail("cannot connect to '" + address + "': " + what);
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
    if (ready <= 0) {
      ::close(fd);
      return fail("connect to '" + address + "' timed out after " +
                  std::to_string(timeout_ms) + " ms");
    }
    int so_error = 0;
    socklen_t len = sizeof so_error;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
    if (so_error != 0) {
      ::close(fd);
      return fail("cannot connect to '" + address +
                  "': " + std::strerror(so_error));
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking for framed sends
  return fd;
}

int run_fleet_campaign(const JobSpec& spec, const FleetOptions& opts,
                       FleetTelemetry* telemetry_out) {
  if (opts.nodes.empty()) {
    throw std::runtime_error("fleet: no worker nodes given (--nodes)");
  }
  if (opts.out_jsonl.empty()) {
    throw std::runtime_error("fleet: an output trace path is required (--out)");
  }
  if (const auto error = spec_error(spec)) {
    throw std::runtime_error("fleet: " + *error);
  }
  std::FILE* log_stream = opts.quiet ? nullptr
                          : opts.log_stream != nullptr ? opts.log_stream
                                                       : stderr;

  const auto shards = spec_shard_plan(spec);
  CampaignManifest identity = spec_identity_manifest(spec);
  identity.total_shards = shards.size();
  identity.total_trials = 0;
  for (const auto& shard : shards) identity.total_trials += shard.trial_count;
  const std::string manifest_path = faultinject::manifest_path_for(opts.out_jsonl);

  // -- resume: trust the manifest, reload completed shard blobs byte-for-byte --
  //
  // The coordinator never materializes trial records: a completed shard is
  // trusted only if every slot the manifest recorded survived in the trace,
  // and its blob is reassembled in slot order — the exact bytes the worker
  // streamed, so resume cannot perturb byte identity.
  std::vector<std::string> blobs(shards.size());
  std::vector<char> resumed(shards.size(), 0);
  std::vector<u64> wall_ms(shards.size(), 0);
  if (opts.resume) {
    if (const auto prior = faultinject::read_manifest(manifest_path)) {
      if (!prior->matches(identity)) {
        throw std::runtime_error(
            "fleet resume rejected: manifest at " + manifest_path +
            " was written by a different campaign (config/seed/shard geometry "
            "mismatch); delete the trace or rerun without --resume");
      }
      std::map<u64, u64> expected;  // shard -> trials the manifest saw
      for (std::size_t i = 0; i < prior->completed.size(); ++i) {
        expected[prior->completed[i]] = prior->completed_trials[i];
        if (prior->completed[i] < shards.size()) {
          wall_ms[prior->completed[i]] = prior->wall_ms[i];
        }
      }
      std::map<u64, std::map<u64, std::string>> lines;  // shard -> slot -> line
      std::ifstream trace(opts.out_jsonl);
      std::string line;
      while (trace && std::getline(trace, line)) {
        const auto key = faultinject::trial_line_key(line);
        if (!key || !expected.count(key->first)) continue;
        if (key->first >= shards.size() ||
            key->second >= shards[key->first].trial_count) {
          continue;
        }
        lines[key->first].emplace(key->second, line);
      }
      for (const auto& [shard, trials] : expected) {
        if (shard >= shards.size()) continue;
        const auto it = lines.find(shard);
        if (it == lines.end() || it->second.size() != trials ||
            trials > shards[shard].trial_count) {
          continue;  // torn shard: re-run it
        }
        // std::map iterates slots ascending; size==trials plus the last key
        // being trials-1 means the slots are exactly 0..trials-1.
        if (trials != 0 && it->second.rbegin()->first != trials - 1) continue;
        std::string blob;
        for (const auto& [slot, text] : it->second) {
          blob += text;
          blob.push_back('\n');
        }
        blobs[shard] = std::move(blob);
        resumed[shard] = 1;
      }
    }
  }

  // -- start the merged trace fresh with the resumed shards up front --
  std::ofstream trace_out(opts.out_jsonl, std::ios::trunc);
  if (!trace_out) {
    throw std::runtime_error("fleet: cannot open campaign trace for writing: " +
                             opts.out_jsonl);
  }
  trace_out << faultinject::trace_header_line(identity.kind) << '\n';
  u64 trials_done = 0;
  u64 resumed_shards = 0;
  ShardLeaseBook book(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (!resumed[s]) continue;
    trace_out << blobs[s];
    identity.completed.push_back(shards[s].index);
    identity.completed_trials.push_back(shards[s].trial_count);
    identity.wall_ms.push_back(wall_ms[s]);
    trials_done += shards[s].trial_count;
    ++resumed_shards;
    book.mark_done(shards[s].index);
  }
  trace_out.flush();
  faultinject::write_manifest(manifest_path, identity);

  FleetTelemetry telemetry;
  telemetry.nodes.resize(opts.nodes.size());
  for (std::size_t i = 0; i < opts.nodes.size(); ++i) {
    telemetry.nodes[i].address = opts.nodes[i];
  }
  telemetry.shards_total = shards.size();
  telemetry.resumed_shards = resumed_shards;

  // -- one thread per node, all sharing the lease book under one mutex --
  Mutex mutex;
  CondVar cv;
  std::atomic<bool> halted{false};  // max_shards budget spent
  u64 fresh_commits = 0;
  const auto campaign_start = Clock::now();
  const auto stop_requested = [&] {
    return halted.load(std::memory_order_relaxed) ||
           (opts.stop_flag != nullptr &&
            opts.stop_flag->load(std::memory_order_relaxed));
  };

  const auto node_loop = [&](std::size_t node_index) {
    const std::string& address = opts.nodes[node_index];
    FleetNodeTelemetry& node = telemetry.nodes[node_index];
    for (;;) {
      // -- acquire phase: lease a shard and build its message, locked --
      std::optional<faultinject::ShardLeaseBook::Lease> lease;
      WireMessage msg;
      {
        MutexLock lock(mutex);
        for (;;) {
          if (stop_requested() || book.all_terminal()) {
            cv.notify_all();
            return;
          }
          lease = book.acquire(address,
                               ms_between(campaign_start, Clock::now()),
                               opts.steal_after_ms);
          if (lease) break;
          // Every live shard is leased out and too young to steal; wake on a
          // commit/release notify, or time out so steal age can accrue.
          cv.wait_for_locked(lock, std::chrono::milliseconds(100));
        }
        const ShardSpec& shard = shards[lease->shard];
        msg.type = MessageType::kLease;
        msg.lease = lease->id;
        msg.shard = shard.index;
        msg.spec = spec;
        msg.deadline_ms = opts.lease_deadline_ms;
      }

      // -- execute phase: drive the remote lease with no lock held --
      const auto lease_start = Clock::now();
      LeaseOutcome outcome = execute_lease(address, opts, msg, halted);
      const u64 lease_wall = ms_between(lease_start, Clock::now());

      // -- settle phase: commit/release under the lock; backoff after --
      u64 backoff_ms = 0;
      {
        MutexLock lock(mutex);
        const ShardSpec& shard = shards[lease->shard];

        if (outcome.status == LeaseOutcome::Status::kOk) {
          // A node that streams a wrong-shaped blob is corrupt, not slow:
          // demote the outcome to a transport fault so the fault budget (and
          // eventually quarantine) applies.
          if (const auto bad = verify_blob(shard, outcome.blob)) {
            outcome.status = LeaseOutcome::Status::kFault;
            outcome.error = *bad;
          }
        }

        if (outcome.status == LeaseOutcome::Status::kOk) {
          if (book.commit(lease->id)) {
            trace_out << outcome.blob;
            trace_out.flush();
            identity.completed.push_back(shard.index);
            identity.completed_trials.push_back(outcome.trials);
            identity.wall_ms.push_back(lease_wall);
            faultinject::write_manifest(manifest_path, identity);
            blobs[lease->shard] = std::move(outcome.blob);
            wall_ms[lease->shard] = lease_wall;
            trials_done += outcome.trials;
            ++node.shards_committed;
            if (outcome.cached) ++node.cache_hits;
            if (lease->stolen) ++node.stolen_commits;
            logf(log_stream,
                 "fleet: shard %llu (%s) committed by %s (%llu trials%s%s)",
                 static_cast<unsigned long long>(shard.index),
                 shard.workload.c_str(), address.c_str(),
                 static_cast<unsigned long long>(outcome.trials),
                 outcome.cached ? ", cached" : "",
                 lease->stolen ? ", stolen" : "");
            if (opts.max_shards != 0 && ++fresh_commits >= opts.max_shards) {
              halted.store(true, std::memory_order_relaxed);
            }
          }
          // A losing duplicate (the shard committed first elsewhere): nothing
          // to do, commit() already refused it.
          cv.notify_all();
          continue;
        }

        book.release(lease->id);
        if (outcome.status == LeaseOutcome::Status::kShardFailed) {
          logf(log_stream, "fleet: shard %llu (%s) failed on %s: %s",
               static_cast<unsigned long long>(shard.index),
               shard.workload.c_str(), address.c_str(), outcome.error.c_str());
          // The shard itself is sick: after the lease budget, quarantine it
          // (exactly like the local orchestrator) so the rest can finish.
          if (!book.done(shard.index) &&
              book.attempts(shard.index) >= opts.shard_lease_attempts) {
            book.mark_quarantined(shard.index);
            identity.quarantined.push_back(shard.index);
            identity.quarantine_attempts.push_back(book.attempts(shard.index));
            identity.quarantine_workloads.push_back(shard.workload);
            identity.quarantine_errors.push_back(outcome.error);
            try {
              faultinject::write_manifest(manifest_path, identity);
            } catch (...) {
            }
            ++telemetry.quarantined_shards;
            logf(log_stream, "fleet: shard %llu quarantined after %llu leases",
                 static_cast<unsigned long long>(shard.index),
                 static_cast<unsigned long long>(book.attempts(shard.index)));
          }
          cv.notify_all();
          continue;
        }

        // Transport fault: the node, not the shard, is suspect.
        ++node.faults;
        node.last_error = outcome.error;
        logf(log_stream, "fleet: node %s fault %llu/%llu on shard %llu: %s",
             address.c_str(), static_cast<unsigned long long>(node.faults),
             static_cast<unsigned long long>(opts.node_faults_max),
             static_cast<unsigned long long>(shard.index), outcome.error.c_str());
        if (node.faults >= opts.node_faults_max) {
          node.quarantined = true;
          ++telemetry.quarantined_nodes;
          identity.node_quarantined.push_back(address);
          identity.node_faults.push_back(node.faults);
          identity.node_errors.push_back(node.last_error);
          try {
            faultinject::write_manifest(manifest_path, identity);
          } catch (...) {
          }
          logf(log_stream, "fleet: node %s quarantined (%s)", address.c_str(),
               node.last_error.c_str());
          cv.notify_all();
          return;  // this node is benched; its shards were released above
        }
        cv.notify_all();
        const u64 backoff_shift = node.faults > 6 ? 6 : node.faults - 1;
        backoff_ms = opts.retry_backoff_ms << backoff_shift;
      }  // settle phase ends; the backoff sleep runs with no lock held
      if (backoff_ms != 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      }
    }
  };

  {
    std::vector<std::thread> threads;
    threads.reserve(opts.nodes.size());
    for (std::size_t i = 0; i < opts.nodes.size(); ++i) {
      threads.emplace_back(node_loop, i);
    }
    for (auto& thread : threads) thread.join();
  }

  telemetry.trials_done = trials_done;
  telemetry.shards_done = book.done_count();
  for (const auto& node : telemetry.nodes) {
    telemetry.stolen_commits += node.stolen_commits;
  }
  telemetry.stopped = stop_requested();
  const bool complete = book.done_count() == shards.size();
  telemetry.complete = complete;

  if (complete) {
    // Canonicalize: rewrite the merged trace in (shard, slot) order — the
    // same rewrite the local orchestrator does, so a complete fleet trace is
    // byte-identical to the single-node one whatever the lease history was.
    trace_out.close();
    std::ofstream canonical(opts.out_jsonl, std::ios::trunc);
    canonical << faultinject::trace_header_line(identity.kind) << '\n';
    identity.completed.clear();
    identity.completed_trials.clear();
    identity.wall_ms.clear();
    for (std::size_t s = 0; s < shards.size(); ++s) {
      canonical << blobs[s];
      identity.completed.push_back(shards[s].index);
      identity.completed_trials.push_back(shards[s].trial_count);
      identity.wall_ms.push_back(wall_ms[s]);
    }
    canonical.flush();
    faultinject::write_manifest(manifest_path, identity);
  }

  logf(log_stream,
       "fleet: %llu/%llu shards (%llu resumed, %llu stolen), %llu trials, "
       "%llu shard quarantines, %llu node quarantines%s",
       static_cast<unsigned long long>(telemetry.shards_done),
       static_cast<unsigned long long>(telemetry.shards_total),
       static_cast<unsigned long long>(telemetry.resumed_shards),
       static_cast<unsigned long long>(telemetry.stolen_commits),
       static_cast<unsigned long long>(telemetry.trials_done),
       static_cast<unsigned long long>(telemetry.quarantined_shards),
       static_cast<unsigned long long>(telemetry.quarantined_nodes),
       telemetry.stopped ? " (stopped)" : "");

  if (telemetry_out != nullptr) *telemetry_out = telemetry;
  if (!complete) {
    if (telemetry.stopped) return 130;
    return telemetry.quarantined_shards != 0 || telemetry.quarantined_nodes != 0
               ? 3
               : 130;
  }
  return telemetry.quarantined_nodes != 0 ? 3 : 0;
}

}  // namespace restore::service
