#include "service/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdarg>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "analytics/column_store.hpp"
#include "analytics/compact.hpp"
#include "analytics/queries.hpp"
#include "analytics/report.hpp"
#include "faultinject/campaign_io.hpp"
#include "faultinject/orchestrator.hpp"

namespace restore::service {

namespace {

void set_nonblocking_cloexec(int fd) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  ::fcntl(fd, F_SETFD, ::fcntl(fd, F_GETFD, 0) | FD_CLOEXEC);
}

std::string_view event_name(faultinject::CampaignEvent::Kind kind) noexcept {
  using Kind = faultinject::CampaignEvent::Kind;
  switch (kind) {
    case Kind::kHeartbeat: return "heartbeat";
    case Kind::kShardDone: return "shard-done";
    case Kind::kAttemptFailed: return "attempt-failed";
    case Kind::kQuarantine: return "quarantine";
    case Kind::kComplete: return "complete";
  }
  return "?";
}

// The spool's manifest when it already holds the complete trace of `spec`:
// the sidecar names the same campaign identity, every shard committed and
// none is quarantined. (A running job's manifest fails the completeness
// check; an unreadable or alien manifest is simply "not cached".)
std::optional<faultinject::CampaignManifest> complete_spool_manifest(
    const JobSpec& spec, const std::string& trace_path) {
  std::optional<faultinject::CampaignManifest> manifest;
  try {
    manifest =
        faultinject::read_manifest(faultinject::manifest_path_for(trace_path));
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (!manifest) return std::nullopt;
  faultinject::CampaignManifest want;
  want.kind = spec.kind;
  want.config_hash = spec_config_hash(spec);
  want.seed = spec.seed;
  want.shard_trials = spec_shard_trials(spec);
  want.total_shards = manifest->total_shards;
  want.total_trials = manifest->total_trials;
  if (!manifest->matches(want) ||
      manifest->completed.size() != manifest->total_shards ||
      manifest->has_quarantine()) {
    return std::nullopt;
  }
  return manifest;
}

}  // namespace

CampaignServer::CampaignServer(ServerOptions opts) : opts_(std::move(opts)) {}

CampaignServer::~CampaignServer() {
  stop();
  for (auto& runner : runners_) {
    if (runner.joinable()) runner.join();
  }
  for (auto& [fd, client] : clients_) ::close(fd);
  clients_.clear();
  for (const int fd : {unix_listener_, tcp_listener_, notify_read_, notify_write_}) {
    if (fd >= 0) ::close(fd);
  }
  if (!opts_.socket_path.empty()) ::unlink(opts_.socket_path.c_str());
}

void CampaignServer::start() {
  if (opts_.socket_path.empty()) {
    throw std::runtime_error("socket_path is required");
  }
  std::error_code ec;
  std::filesystem::create_directories(opts_.spool_dir, ec);
  if (ec) {
    throw std::runtime_error("cannot create spool dir '" +
                             opts_.spool_dir + "': " + ec.message());
  }

  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) {
    throw std::runtime_error("pipe() failed");
  }
  notify_read_ = pipe_fds[0];
  notify_write_ = pipe_fds[1];
  set_nonblocking_cloexec(notify_read_);
  set_nonblocking_cloexec(notify_write_);

  // Unix-domain listener. A stale socket file from a previous run would make
  // bind fail, so remove it first (the daemon owns its socket path).
  unix_listener_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (unix_listener_ < 0) {
    throw std::runtime_error("socket(AF_UNIX) failed");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts_.socket_path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long: " +
                             opts_.socket_path);
  }
  std::strncpy(addr.sun_path, opts_.socket_path.c_str(),
               sizeof addr.sun_path - 1);
  ::unlink(opts_.socket_path.c_str());
  if (::bind(unix_listener_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(unix_listener_, 16) != 0) {
    throw std::runtime_error("cannot bind unix socket '" +
                             opts_.socket_path + "': " + std::strerror(errno));
  }
  set_nonblocking_cloexec(unix_listener_);

  if (!opts_.listen.empty()) {
    // The daemon never reports the port it bound, so no ephemeral port 0.
    const auto endpoint = parse_host_port(opts_.listen, /*allow_ephemeral=*/false);
    if (!endpoint) {
      throw std::runtime_error("bad --listen port in '" + opts_.listen + "'");
    }
    const std::string& host = endpoint->host;
    sockaddr_in inaddr{};
    inaddr.sin_family = AF_INET;
    inaddr.sin_port = htons(endpoint->port);
    if (host.empty() || host == "0.0.0.0") {
      inaddr.sin_addr.s_addr = htonl(INADDR_ANY);
    } else if (::inet_pton(AF_INET, host.c_str(), &inaddr.sin_addr) != 1) {
      throw std::runtime_error("bad --listen host in '" +
                               opts_.listen + "'");
    }
    tcp_listener_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_listener_ < 0) {
      throw std::runtime_error("socket(AF_INET) failed");
    }
    const int one = 1;
    ::setsockopt(tcp_listener_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(tcp_listener_, reinterpret_cast<const sockaddr*>(&inaddr),
               sizeof inaddr) != 0 ||
        ::listen(tcp_listener_, 16) != 0) {
      throw std::runtime_error("cannot bind tcp listener '" +
                               opts_.listen + "': " + std::strerror(errno));
    }
    set_nonblocking_cloexec(tcp_listener_);
  }

  runners_alive_.store(opts_.job_workers, std::memory_order_relaxed);
  runners_.reserve(opts_.job_workers);
  for (std::size_t i = 0; i < opts_.job_workers; ++i) {
    runners_.emplace_back([this] { runner_loop(); });
  }
  log("restored: listening on %s (%zu job workers)", opts_.socket_path.c_str(),
      opts_.job_workers);
}

void CampaignServer::stop() {
  if (stopping_.exchange(true, std::memory_order_relaxed)) return;
  // Wake the IO thread; push_notice also writes the pipe, but there may be
  // nothing in flight.
  if (notify_write_ >= 0) {
    const char byte = 1;
    [[maybe_unused]] const auto n = ::write(notify_write_, &byte, 1);
  }
}

// ---- runner side ----

void CampaignServer::runner_loop() {
  while (const auto id = queue_.pop_ready()) run_job(*id);
  runners_alive_.fetch_sub(1, std::memory_order_relaxed);
  push_notice(Notice{});  // wake the IO thread to notice the exit
}

void CampaignServer::run_job(u64 id) {
  const auto snap = queue_.snapshot(id);
  if (!snap) return;
  campaigns_run_.fetch_add(1, std::memory_order_relaxed);
  log("restored: job %llu starting (%s, trace %s)",
      static_cast<unsigned long long>(id), snap->spec.kind.c_str(),
      snap->trace_path.c_str());

  faultinject::CampaignRunOptions run;
  run.workers = opts_.campaign_workers;
  run.shard_trials = spec_shard_trials(snap->spec);
  run.out_jsonl = snap->trace_path;
  run.resume = true;  // converge on whatever a previous daemon left behind
  run.heartbeat_every_shards = opts_.heartbeat_every_shards;
  run.heartbeat_stream = opts_.log_stream;
  run.shard_retries = opts_.shard_retries;
  run.retry_backoff_ms = opts_.retry_backoff_ms;
  run.stop_flag = opts_.stop_flag;
  const auto quarantined = std::make_shared<std::atomic<u64>>(0);
  run.on_event = [this, id, quarantined](const faultinject::CampaignEvent& event) {
    if (event.kind == faultinject::CampaignEvent::Kind::kQuarantine) {
      quarantined->fetch_add(1, std::memory_order_relaxed);
    }
    queue_.update_progress(id, event.trials_done, event.trials_total,
                           event.shards_done, event.shards_total,
                           quarantined->load(std::memory_order_relaxed),
                           static_cast<u64>(event.rate * 1000.0));
    Notice notice;
    notice.job = id;
    notice.event = event;
    push_notice(std::move(notice));
  };

  JobState state = JobState::kDone;
  std::string error;
  try {
    faultinject::CampaignTelemetry telemetry;
    if (snap->spec.kind == "uarch") {
      faultinject::run_uarch_campaign(uarch_config_for(snap->spec), run,
                                      &telemetry);
    } else {
      faultinject::run_vm_campaign(vm_config_for(snap->spec), run, &telemetry);
    }
    if (telemetry.stopped) {
      state = JobState::kStopped;
      error = "campaign stopped before completion (resumable)";
    } else if (!telemetry.quarantined.empty()) {
      state = JobState::kQuarantined;
      error = telemetry.quarantined.front().error;
    }
  } catch (const std::exception& e) {
    state = JobState::kFailed;
    error = e.what();
  }
  queue_.mark_finished(id, state, error);
  log("restored: job %llu finished: %s", static_cast<unsigned long long>(id),
      std::string(to_string(state)).c_str());

  // Background compaction: fold the finished trace into its columnar store
  // while still on the runner thread, so the first analyze over this job is a
  // cache-warm read instead of a JSONL parse on the IO thread. Failure is
  // logged, never fatal — analyze re-attempts on demand.
  if (state == JobState::kDone) {
    try {
      const auto store = ensure_store(snap->trace_path);
      log("restored: job %llu compacted to %s",
          static_cast<unsigned long long>(id), store.c_str());
    } catch (const std::exception& e) {
      log("restored: job %llu compaction failed: %s",
          static_cast<unsigned long long>(id), e.what());
    }
  }

  Notice notice;
  notice.job = id;
  notice.finished = true;
  push_notice(std::move(notice));
}

void CampaignServer::push_notice(Notice notice) {
  {
    MutexLock lock(notice_mutex_);
    notices_.push_back(std::move(notice));
  }
  if (notify_write_ >= 0) {
    const char byte = 1;
    [[maybe_unused]] const auto n = ::write(notify_write_, &byte, 1);
  }
}

// ---- IO side ----

int CampaignServer::run() {
  while (true) {
    const bool external_stop =
        opts_.stop_flag != nullptr &&
        opts_.stop_flag->load(std::memory_order_relaxed);
    if ((stopping_.load(std::memory_order_relaxed) || external_stop) &&
        !draining_) {
      begin_drain();
    }
    if (draining_ && runners_alive_.load(std::memory_order_relaxed) == 0) {
      finish_drain();
      return 0;
    }

    std::vector<pollfd> fds;
    fds.push_back({notify_read_, POLLIN, 0});
    if (opts_.wake_fd >= 0) fds.push_back({opts_.wake_fd, POLLIN, 0});
    if (unix_listener_ >= 0) fds.push_back({unix_listener_, POLLIN, 0});
    if (tcp_listener_ >= 0) fds.push_back({tcp_listener_, POLLIN, 0});
    const std::size_t first_client = fds.size();
    for (const auto& [fd, client] : clients_) {
      short events = POLLIN;
      if (!client.outbuf.empty()) events |= POLLOUT;
      fds.push_back({fd, events, 0});
    }

    // The self-pipe wakes us for notices and stop(); the timeout is only a
    // backstop for an externally-set stop flag with no wake fd.
    const int ready = ::poll(fds.data(), fds.size(), 500);
    if (ready < 0 && errno != EINTR) return 1;

    // Drain wakeup bytes before acting on their reasons.
    for (const int fd : {notify_read_, opts_.wake_fd}) {
      if (fd < 0) continue;
      char sink[256];
      while (::read(fd, sink, sizeof sink) > 0) {
      }
    }
    if (opts_.wake_fd >= 0) {
      for (const auto& p : fds) {
        if (p.fd == opts_.wake_fd && (p.revents & POLLIN) != 0) stop();
      }
    }

    for (const auto& p : fds) {
      if (p.fd == unix_listener_ && (p.revents & POLLIN) != 0) {
        accept_clients(unix_listener_);
      }
      if (tcp_listener_ >= 0 && p.fd == tcp_listener_ &&
          (p.revents & POLLIN) != 0) {
        accept_clients(tcp_listener_);
      }
    }

    drain_notices();

    // Snapshot the fds before touching clients_: handlers may close clients.
    std::vector<std::pair<int, short>> client_events;
    for (std::size_t i = first_client; i < fds.size(); ++i) {
      client_events.emplace_back(fds[i].fd, fds[i].revents);
    }
    for (const auto& [fd, revents] : client_events) {
      const auto it = clients_.find(fd);
      if (it == clients_.end()) continue;
      if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          (revents & POLLIN) == 0) {
        close_client(fd);
        continue;
      }
      if ((revents & POLLIN) != 0) read_client(it->second);
    }
    // Flush after handling: replies usually fit the socket buffer, so most
    // round trips complete without waiting for the next POLLOUT.
    std::vector<int> flushable;
    for (const auto& [fd, client] : clients_) {
      if (!client.outbuf.empty() || client.closing) flushable.push_back(fd);
    }
    for (const int fd : flushable) {
      const auto it = clients_.find(fd);
      if (it != clients_.end()) flush_client(it->second);
    }
  }
}

void CampaignServer::accept_clients(int listener) {
  while (true) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    if (draining_) {  // no new work during a drain
      ::close(fd);
      continue;
    }
    set_nonblocking_cloexec(fd);
    Client client;
    client.fd = fd;
    clients_.emplace(fd, std::move(client));
  }
}

void CampaignServer::read_client(Client& client) {
  char buffer[64 * 1024];
  while (true) {
    const auto n = ::recv(client.fd, buffer, sizeof buffer, 0);
    if (n == 0) {  // clean disconnect; a mid-stream subscriber just vanishes
      close_client(client.fd);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      close_client(client.fd);
      return;
    }
    client.reader.feed(buffer, static_cast<std::size_t>(n));
    if (static_cast<std::size_t>(n) < sizeof buffer) break;
  }
  while (const auto payload = client.reader.next()) {
    const auto msg = decode_message(*payload);
    if (!msg) {
      send_error(client, "malformed message");
      client.closing = true;
      return;
    }
    handle_message(client, *msg);
    if (client.closing) return;
  }
  if (client.reader.error()) {
    send_error(client, client.reader.error_text());
    client.closing = true;
  }
}

void CampaignServer::flush_client(Client& client) {
  while (!client.outbuf.empty()) {
    const auto n = ::send(client.fd, client.outbuf.data(), client.outbuf.size(),
                          MSG_NOSIGNAL);
    if (n < 0) {
      // EINTR is not back-pressure: retry immediately instead of parking the
      // partial frame until the next POLLOUT (a signal-heavy host would shear
      // frames across poll rounds for no reason).
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      close_client(client.fd);
      return;
    }
    client.outbuf.erase(0, static_cast<std::size_t>(n));
  }
  if (client.closing) close_client(client.fd);
}

void CampaignServer::close_client(int fd) {
  const auto it = clients_.find(fd);
  if (it == clients_.end()) return;
  ::close(fd);
  clients_.erase(it);
}

void CampaignServer::send_message(Client& client, const WireMessage& msg) {
  client.outbuf += encode_frame(encode_message(msg));
}

void CampaignServer::send_error(Client& client, const std::string& text) {
  WireMessage msg;
  msg.type = MessageType::kError;
  msg.text = text;
  send_message(client, msg);
}

void CampaignServer::handle_message(Client& client, const WireMessage& msg) {
  switch (msg.type) {
    case MessageType::kPing: {
      WireMessage reply;
      reply.type = MessageType::kPong;
      reply.version = kProtocolVersion;
      send_message(client, reply);
      return;
    }
    case MessageType::kSubmit:
      handle_submit(client, msg);
      return;
    case MessageType::kStatus: {
      const auto snap = queue_.snapshot(msg.job);
      if (!snap) {
        send_error(client, "unknown job " + std::to_string(msg.job));
        return;
      }
      send_message(client, job_status_message(*snap));
      return;
    }
    case MessageType::kList: {
      const auto ids = queue_.job_ids();
      for (const u64 id : ids) {
        if (const auto snap = queue_.snapshot(id)) {
          send_message(client, job_status_message(*snap));
        }
      }
      WireMessage end;
      end.type = MessageType::kListEnd;
      end.count = ids.size();
      send_message(client, end);
      return;
    }
    case MessageType::kSubscribe: {
      const auto snap = queue_.snapshot(msg.job);
      if (!snap) {
        send_error(client, "unknown job " + std::to_string(msg.job));
        return;
      }
      send_message(client, job_status_message(*snap));
      if (job_state_terminal(snap->state)) {
        send_message(client, done_message(*snap));
      } else {
        client.subscriptions.insert(msg.job);
      }
      return;
    }
    case MessageType::kFetch:
      handle_fetch(client, msg);
      return;
    case MessageType::kAnalyze:
      handle_analyze(client, msg);
      return;
    default:
      send_error(client, "unexpected message type '" +
                             std::string(to_string(msg.type)) + "'");
      return;
  }
}

void CampaignServer::handle_submit(Client& client, const WireMessage& msg) {
  if (const auto problem = spec_error(msg.spec)) {
    send_error(client, *problem);
    return;
  }
  const std::string trace_path =
      opts_.spool_dir + "/" + spec_trace_filename(msg.spec);

  WireMessage reply;
  reply.type = MessageType::kSubmitted;
  reply.config_hash = spec_config_hash(msg.spec);
  reply.trace = trace_path;

  if (const auto manifest = complete_spool_manifest(msg.spec, trace_path)) {
    // Cache hit: the identical campaign already ran to completion. Record a
    // pre-finished job so status/list/fetch see it, and answer immediately.
    const auto submitted =
        queue_.submit(msg.spec, msg.priority, trace_path, /*already_complete=*/true);
    queue_.update_progress(submitted.id, manifest->total_trials,
                           manifest->total_trials, manifest->total_shards,
                           manifest->total_shards, 0, 0);
    reply.job = submitted.id;
    reply.state = std::string(to_string(JobState::kDone));
    reply.cached = true;
    send_message(client, reply);
    log("restored: job %llu served from spool (%s)",
        static_cast<unsigned long long>(submitted.id), trace_path.c_str());
    if (msg.want_events) {
      if (const auto snap = queue_.snapshot(submitted.id)) {
        send_message(client, done_message(*snap));
      }
    }
    return;
  }

  const auto submitted =
      queue_.submit(msg.spec, msg.priority, trace_path, /*already_complete=*/false);
  reply.job = submitted.id;
  reply.state = std::string(to_string(submitted.state));
  reply.attached = submitted.attached;
  send_message(client, reply);
  log("restored: job %llu %s (%s)", static_cast<unsigned long long>(submitted.id),
      submitted.attached ? "attached" : "queued", trace_path.c_str());
  if (msg.want_events) client.subscriptions.insert(submitted.id);
}

void CampaignServer::handle_fetch(Client& client, const WireMessage& msg) {
  const auto snap = queue_.snapshot(msg.job);
  if (!snap) {
    send_error(client, "unknown job " + std::to_string(msg.job));
    return;
  }
  std::ifstream in(snap->trace_path, std::ios::binary);
  if (!in) {
    send_error(client, "no trace on disk for job " + std::to_string(msg.job) +
                           " (state " + std::string(to_string(snap->state)) + ")");
    return;
  }
  u64 total = 0;
  std::string chunk(kTraceChunkBytes, '\0');
  while (in.read(chunk.data(), static_cast<std::streamsize>(chunk.size())) ||
         in.gcount() > 0) {
    WireMessage data;
    data.type = MessageType::kTraceData;
    data.job = msg.job;
    data.data.assign(chunk.data(), static_cast<std::size_t>(in.gcount()));
    total += static_cast<u64>(in.gcount());
    send_message(client, data);
  }
  WireMessage end;
  end.type = MessageType::kTraceEnd;
  end.job = msg.job;
  end.bytes = total;
  send_message(client, end);
}

std::string CampaignServer::ensure_store(const std::string& trace_path) {
  const std::string store_path = analytics::store_path_for(trace_path);
  std::error_code ec;
  if (std::filesystem::exists(store_path, ec)) return store_path;
  analytics::compact_trace(trace_path, store_path, analytics::CompactOptions{});
  return store_path;
}

void CampaignServer::handle_analyze(Client& client, const WireMessage& msg) {
  const auto snap = queue_.snapshot(msg.job);
  if (!snap) {
    send_error(client, "unknown job " + std::to_string(msg.job));
    return;
  }
  if (snap->state != JobState::kDone) {
    send_error(client, "job " + std::to_string(msg.job) +
                           " is not complete (state " +
                           std::string(to_string(snap->state)) +
                           "); analyze needs a finished trace");
    return;
  }
  const u64 interval = msg.interval == 0 ? 100 : msg.interval;
  const auto key = std::make_tuple(msg.job, interval, msg.json);

  WireMessage reply;
  reply.type = MessageType::kAnalyzeResult;
  reply.job = msg.job;
  reply.json = msg.json;
  {
    MutexLock lock(analytics_mutex_);
    const auto it = analytics_cache_.find(key);
    if (it != analytics_cache_.end()) {
      reply.data = it->second;
      reply.cached = true;
      send_message(client, reply);
      return;
    }
  }
  std::string rendered;
  try {
    // Jobs answered straight from the spool never ran a runner, so their
    // store may not exist yet; derive it here (byte-deterministic either way).
    const analytics::ColumnStoreReader store(ensure_store(snap->trace_path));
    analytics::QueryOptions options;
    options.interval = interval;
    const auto report = analytics::analyze(store, options);
    rendered = msg.json ? analytics::report_json(report)
                        : analytics::report_text(report);
  } catch (const std::exception& e) {
    send_error(client, "analyze failed for job " + std::to_string(msg.job) +
                           ": " + e.what());
    return;
  }
  {
    MutexLock lock(analytics_mutex_);
    analytics_cache_.emplace(key, rendered);
  }
  reply.data = std::move(rendered);
  reply.cached = false;
  send_message(client, reply);
  log("restored: job %llu analyzed (interval %llu, %s)",
      static_cast<unsigned long long>(msg.job),
      static_cast<unsigned long long>(interval), msg.json ? "json" : "text");
}

// ---- notices -> subscriber frames ----

void CampaignServer::drain_notices() {
  std::deque<Notice> batch;
  {
    MutexLock lock(notice_mutex_);
    batch.swap(notices_);
  }
  for (const auto& notice : batch) {
    if (notice.job == 0) continue;  // runner-exit wakeup
    if (notice.finished) {
      broadcast_done(notice.job);
      continue;
    }
    WireMessage msg;
    msg.type = MessageType::kEvent;
    msg.job = notice.job;
    msg.event = std::string(event_name(notice.event.kind));
    msg.shard = notice.event.shard;
    msg.workload = notice.event.workload;
    msg.attempt = notice.event.attempt;
    msg.attempts_max = notice.event.attempts_max;
    msg.shards_done = notice.event.shards_done;
    msg.shards_total = notice.event.shards_total;
    msg.trials_done = notice.event.trials_done;
    msg.trials_total = notice.event.trials_total;
    msg.rate_milli = static_cast<u64>(notice.event.rate * 1000.0);
    msg.text = notice.event.text.empty() ? notice.event.error : notice.event.text;
    for (auto& [fd, client] : clients_) {
      if (client.subscriptions.count(notice.job) != 0) {
        send_message(client, msg);
      }
    }
  }
}

void CampaignServer::broadcast_done(u64 job) {
  const auto snap = queue_.snapshot(job);
  if (!snap) return;
  const auto msg = done_message(*snap);
  for (auto& [fd, client] : clients_) {
    if (client.subscriptions.erase(job) != 0) send_message(client, msg);
  }
}

WireMessage CampaignServer::job_status_message(const JobSnapshot& snap) const {
  WireMessage msg;
  msg.type = MessageType::kJobStatus;
  msg.job = snap.id;
  msg.spec.kind = snap.spec.kind;
  msg.state = std::string(to_string(snap.state));
  msg.config_hash = snap.config_hash;
  msg.priority = snap.priority;
  msg.trials_done = snap.trials_done;
  msg.trials_total = snap.trials_total;
  msg.rate_milli = snap.rate_milli;
  msg.shards_done = snap.shards_done;
  msg.shards_total = snap.shards_total;
  msg.quarantined = snap.quarantined_shards;
  msg.exit_code = snap.exit_code;
  msg.trace = snap.trace_path;
  msg.text = snap.error;
  return msg;
}

WireMessage CampaignServer::done_message(const JobSnapshot& snap) const {
  WireMessage msg;
  msg.type = MessageType::kDone;
  msg.job = snap.id;
  msg.state = std::string(to_string(snap.state));
  msg.exit_code = snap.exit_code;
  msg.trials_done = snap.trials_done;
  msg.trace = snap.trace_path;
  msg.text = snap.error;
  return msg;
}

// ---- drain ----

void CampaignServer::begin_drain() {
  draining_ = true;
  log("restored: draining (in-flight campaigns finish their running shards)");
  for (int* listener : {&unix_listener_, &tcp_listener_}) {
    if (*listener >= 0) {
      ::close(*listener);
      *listener = -1;
    }
  }
  // Runners still inside a campaign observe the shared stop flag and return
  // with their in-flight shards committed; idle runners wake and exit.
  queue_.shutdown();
}

void CampaignServer::finish_drain() {
  drain_notices();  // final events from the last campaign to return
  for (const u64 id : queue_.stop_queued()) broadcast_done(id);
  WireMessage bye;
  bye.type = MessageType::kShutdown;
  bye.text = "daemon draining; queued jobs are stopped and resumable";
  for (auto& [fd, client] : clients_) {
    // Jobs that finished terminal states already broadcast their `done`;
    // anything a client still subscribes to was stopped mid-run.
    for (const u64 job : client.subscriptions) {
      if (const auto snap = queue_.snapshot(job)) {
        send_message(client, done_message(*snap));
      }
    }
    client.subscriptions.clear();
    send_message(client, bye);
  }
  // Best-effort flush; a slow client cannot hold the drain hostage forever.
  for (int round = 0; round < 50; ++round) {
    bool pending = false;
    std::vector<int> fds;
    for (const auto& [fd, client] : clients_) fds.push_back(fd);
    for (const int fd : fds) {
      const auto it = clients_.find(fd);
      if (it == clients_.end()) continue;
      flush_client(it->second);
      const auto again = clients_.find(fd);
      if (again != clients_.end() && !again->second.outbuf.empty()) {
        pending = true;
      }
    }
    if (!pending) break;
    ::poll(nullptr, 0, 20);
  }
  log("restored: drain complete");
}

void CampaignServer::log(const char* format, ...) {
  if (opts_.log_stream == nullptr) return;
  std::va_list args;
  va_start(args, format);
  std::vfprintf(opts_.log_stream, format, args);
  va_end(args);
  std::fputc('\n', opts_.log_stream);
  std::fflush(opts_.log_stream);
}

}  // namespace restore::service
