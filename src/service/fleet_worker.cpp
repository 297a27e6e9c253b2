#include "service/fleet_worker.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdarg>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "service/job_queue.hpp"

namespace restore::service {

namespace {

// Receive-poll granularity: how often a blocked read re-checks the stop flag.
constexpr int kPollMs = 200;

// The cache directory for one campaign identity: the trace filename stem
// (config_hash x shard geometry), so distinct campaigns can never collide.
std::string cache_key(const JobSpec& spec) {
  std::string key = spec_trace_filename(spec);
  const auto dot = key.rfind(".jsonl");
  if (dot != std::string::npos) key.resize(dot);
  return key;
}

}  // namespace

FleetWorker::FleetWorker(FleetWorkerOptions opts) : opts_(std::move(opts)) {
  if (opts_.log_stream == nullptr && !opts_.quiet) opts_.log_stream = stderr;
  if (opts_.quiet) opts_.log_stream = nullptr;
}

FleetWorker::~FleetWorker() {
  stop();
  {
    MutexLock lock(threads_mutex_);
    for (auto& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
    threads_.clear();
  }
  if (listener_ >= 0) ::close(listener_);
}

void FleetWorker::start() {
  const auto endpoint = parse_host_port(opts_.listen, /*allow_ephemeral=*/true);
  if (!endpoint) {
    throw std::runtime_error("fleet-worker: bad port in '" + opts_.listen + "'");
  }
  const std::string& host = endpoint->host;
  host_ = host.empty() ? "0.0.0.0" : host;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint->port);
  if (host.empty() || host == "0.0.0.0") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("fleet-worker: bad listen host in '" +
                             opts_.listen + "'");
  }
  listener_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener_ < 0) {
    throw std::runtime_error("fleet-worker: socket(AF_INET) failed");
  }
  const int one = 1;
  ::setsockopt(listener_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(listener_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listener_, 16) != 0) {
    throw std::runtime_error("fleet-worker: cannot bind '" + opts_.listen +
                             "': " + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listener_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  log("fleet-worker: listening on %s:%u%s", host_.c_str(),
      static_cast<unsigned>(port_),
      opts_.cache_dir.empty() ? "" : (" (cache " + opts_.cache_dir + ")").c_str());
}

std::string FleetWorker::address() const {
  return host_ + ":" + std::to_string(port_);
}

void FleetWorker::run() {
  const auto stop_requested = [this] {
    return stopping_.load(std::memory_order_relaxed) ||
           (opts_.stop_flag != nullptr &&
            opts_.stop_flag->load(std::memory_order_relaxed));
  };
  while (!stop_requested()) {
    pollfd pfd{listener_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listener_, nullptr, nullptr);
    if (fd < 0) continue;
    MutexLock lock(threads_mutex_);
    threads_.emplace_back([this, fd] { serve_connection(fd); });
  }
  MutexLock lock(threads_mutex_);
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
}

void FleetWorker::stop() { stopping_.store(true, std::memory_order_relaxed); }

void FleetWorker::serve_connection(int fd) {
  // Bounded receive timeout so the connection loop re-checks the stop flag
  // even against a silent peer.
  timeval tv{};
  tv.tv_usec = kPollMs * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);

  FrameReader reader;
  char buffer[16 * 1024];
  bool open = true;
  while (open) {
    if (stopping_.load(std::memory_order_relaxed) ||
        (opts_.stop_flag != nullptr &&
         opts_.stop_flag->load(std::memory_order_relaxed))) {
      break;
    }
    const auto n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      break;
    }
    if (n == 0) {
      reader.finish();  // clean or truncated EOF — either way, we're done
      break;
    }
    reader.feed(buffer, static_cast<std::size_t>(n));
    while (open) {
      const auto payload = reader.next();
      if (!payload) {
        if (reader.error()) open = false;  // oversize frame: hostile peer
        break;
      }
      const auto msg = decode_message(*payload);
      if (!msg) continue;  // unknown/malformed message: ignore, stay alive
      switch (msg->type) {
        case MessageType::kPing: {
          WireMessage pong;
          pong.type = MessageType::kPong;
          pong.version = kProtocolVersion;
          open = send_all(fd, encode_frame(encode_message(pong)));
          break;
        }
        case MessageType::kWorkerStatus: {
          WireMessage info;
          info.type = MessageType::kWorkerInfo;
          info.version = kProtocolVersion;
          info.leases_done = leases_served_.load();
          info.cache_hits = cache_hits_.load();
          info.failures = lease_failures_.load();
          info.active = active_.load();
          open = send_all(fd, encode_frame(encode_message(info)));
          break;
        }
        case MessageType::kLease:
          open = handle_lease(fd, *msg);
          break;
        case MessageType::kLeaseCancel:
          // Best-effort: a lease we already answered (or never saw). Nothing
          // to unwind — shard execution is idempotent.
          break;
        default:
          break;  // not a coordinator->worker message; ignore
      }
    }
  }
  ::close(fd);
}

bool FleetWorker::handle_lease(int fd, const WireMessage& msg) {
  // Chaos hook: emulate a node crash by dropping the connection without a
  // word once the configured lease budget is spent.
  if (opts_.fail_after_leases != 0 &&
      leases_served_.load() >= opts_.fail_after_leases) {
    log("fleet-worker: chaos hook tripped, dropping lease %llu (shard %llu)",
        static_cast<unsigned long long>(msg.lease),
        static_cast<unsigned long long>(msg.shard));
    return false;
  }

  active_.fetch_add(1);
  struct ActiveGuard {
    std::atomic<u64>& n;
    ~ActiveGuard() { n.fetch_sub(1); }
  } guard{active_};

  const auto fail = [&](const std::string& error) {
    lease_failures_.fetch_add(1);
    log("fleet-worker: lease %llu shard %llu failed: %s",
        static_cast<unsigned long long>(msg.lease),
        static_cast<unsigned long long>(msg.shard), error.c_str());
    WireMessage reply;
    reply.type = MessageType::kLeaseFailed;
    reply.lease = msg.lease;
    reply.shard = msg.shard;
    reply.text = error;
    return send_all(fd, encode_frame(encode_message(reply)));
  };

  if (const auto error = spec_error(msg.spec)) return fail(*error);
  const auto plan = spec_shard_plan(msg.spec);
  if (msg.shard >= plan.size()) {
    return fail("shard index " + std::to_string(msg.shard) +
                " out of range (plan has " + std::to_string(plan.size()) +
                " shards)");
  }

  // Content-addressed cache: identity key x shard index. A hit is served
  // byte-for-byte; shards are deterministic, so cached bytes equal recomputed
  // bytes by construction.
  std::string cache_path;
  std::string lines;
  bool cached = false;
  if (!opts_.cache_dir.empty()) {
    cache_path = opts_.cache_dir + "/" + cache_key(msg.spec) + "/shard-" +
                 std::to_string(msg.shard) + ".jsonl";
    std::ifstream in(cache_path, std::ios::binary);
    if (in) {
      std::ostringstream blob;
      blob << in.rdbuf();
      lines = blob.str();
      cached = !lines.empty();
    }
  }
  if (!cached) {
    try {
      lines = spec_shard_jsonl(msg.spec, plan[msg.shard]);
    } catch (const std::exception& e) {
      return fail(e.what());
    }
    if (!cache_path.empty()) {
      // Atomic publish (tmp + rename): a reader never sees a torn cache
      // entry, and concurrent writers of the same shard write the same bytes.
      std::error_code ec;
      std::filesystem::create_directories(
          std::filesystem::path(cache_path).parent_path(), ec);
      if (!ec) {
        const std::string tmp = cache_path + ".tmp." + std::to_string(fd);
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out << lines;
        out.flush();
        if (out) {
          std::filesystem::rename(tmp, cache_path, ec);
        }
        if (!out || ec) std::filesystem::remove(tmp, ec);
      }
    }
  } else {
    cache_hits_.fetch_add(1);
  }

  // Stream the shard in bounded chunks, then seal with the result frame.
  for (std::size_t offset = 0; offset < lines.size(); offset += kTraceChunkBytes) {
    WireMessage chunk;
    chunk.type = MessageType::kLeaseData;
    chunk.lease = msg.lease;
    chunk.data = lines.substr(offset, kTraceChunkBytes);
    if (!send_all(fd, encode_frame(encode_message(chunk)))) return false;
  }
  u64 trials = 0;
  for (const char c : lines) trials += c == '\n';
  WireMessage result;
  result.type = MessageType::kLeaseResult;
  result.lease = msg.lease;
  result.shard = msg.shard;
  result.trials_done = trials;
  result.bytes = lines.size();
  result.cached = cached;
  if (!send_all(fd, encode_frame(encode_message(result)))) return false;
  leases_served_.fetch_add(1);
  log("fleet-worker: lease %llu shard %llu served (%llu trials, %zu bytes%s)",
      static_cast<unsigned long long>(msg.lease),
      static_cast<unsigned long long>(msg.shard),
      static_cast<unsigned long long>(trials), lines.size(),
      cached ? ", cached" : "");
  return true;
}

void FleetWorker::log(const char* format, ...) {
  if (opts_.log_stream == nullptr) return;
  std::va_list args;
  va_start(args, format);
  std::vfprintf(opts_.log_stream, format, args);
  va_end(args);
  std::fputc('\n', opts_.log_stream);
  std::fflush(opts_.log_stream);
}

}  // namespace restore::service
