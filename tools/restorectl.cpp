// restorectl — client for the restored campaign daemon.
//
//   restorectl [--socket PATH | --connect HOST:PORT] <command> [flags]
//
// Commands:
//   ping                 round-trip check; prints the protocol version
//   submit               submit a campaign job
//     --kind vm|uarch --seed N --trials N --shard-trials N
//     --workloads a,b,c --low32 --model result|register --latches-only
//     --fault-model single|multi|burst|set|targeted|rate
//     --fault-bits K --burst-entries N --fault-target load|store
//     --vdd-mv MV --freq-mhz MHZ --upset-ppm PPM
//                        expanded fault model (RESTORE_FAULT_MODEL env
//                        fallback for the model name); part of the job's
//                        campaign identity, so differently-modelled
//                        submissions never dedup onto each other
//     --priority N       higher runs earlier
//     --follow           stream events until the job is done; exit with the
//                        job's exit code (0 done, 3 quarantined, 130 stopped,
//                        1 failed)
//     --fetch PATH       after --follow completes, download the trace to PATH
//   status --job N       one job's status line
//   list                 every job the daemon knows about
//   subscribe --job N    stream events of an in-flight job until done
//   fetch --job N --out PATH
//                        download a job's trace ("-" = stdout)
//   analyze --job N [--interval N] [--json]
//                        full analysis report over a finished job's compacted
//                        trial store (AVF per structure, symptom latencies,
//                        root-cause ranking); the daemon caches rendered
//                        reports, so repeat calls are a map lookup
//   fleet-status         probe a fleet worker (--connect HOST:PORT) and print
//                        its lease counters
//
// TCP connections honor --connect-timeout-ms N: each attempt gets a bounded
// non-blocking connect, retried up to 3 times with doubling backoff before
// giving up (0 or absent = a single blocking connect, as before).
//
// The daemon answers a duplicate submission (same campaign identity) with
// attached=true (still running) or cached=true (served from the spool); in
// both cases --follow converges on the same trace bytes.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include <chrono>
#include <thread>

#include "common/cli.hpp"
#include "service/fleet_coordinator.hpp"
#include "service/job_queue.hpp"
#include "service/protocol.hpp"

namespace {

using namespace restore;
using service::FrameReader;
using service::MessageType;
using service::WireMessage;

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(AF_UNIX) failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    ::close(fd);
    throw std::runtime_error("socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to '" + path +
                             "': " + std::strerror(errno));
  }
  return fd;
}

int connect_tcp(const std::string& target) {
  const auto endpoint = service::parse_host_port(target, /*allow_ephemeral=*/false);
  if (!endpoint) {
    throw std::runtime_error(target.find(':') == std::string::npos
                                 ? "--connect expects HOST:PORT, got '" + target + "'"
                                 : "bad --connect port in '" + target + "'");
  }
  const std::string& host = endpoint->host;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint->port);
  const std::string ip = host.empty() || host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("bad --connect host in '" + target + "'");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(AF_INET) failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to '" + target +
                             "': " + std::strerror(errno));
  }
  return fd;
}

// --connect-timeout-ms: bounded non-blocking connect with up to 3 attempts
// and doubling backoff, so a client script probing a worker that is still
// binding fails fast instead of hanging in a blocking connect().
int connect_tcp_bounded(const std::string& target, u64 timeout_ms) {
  if (timeout_ms == 0) return connect_tcp(target);
  std::string error;
  for (u64 attempt = 1; attempt <= 3; ++attempt) {
    const int fd = service::connect_tcp_timeout(target, timeout_ms, &error);
    if (fd >= 0) return fd;
    if (attempt < 3) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(u64{100} << (attempt - 1)));
    }
  }
  throw std::runtime_error(error);
}

// One blocking client connection: framed writes, framed blocking reads.
class Connection {
 public:
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send(const WireMessage& msg) {
    const std::string frame =
        service::encode_frame(service::encode_message(msg));
    std::size_t off = 0;
    while (off < frame.size()) {
      const auto n = ::send(fd_, frame.data() + off, frame.size() - off, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("send failed: " + std::string(std::strerror(errno)));
      }
      off += static_cast<std::size_t>(n);
    }
  }

  WireMessage receive() {
    while (true) {
      if (const auto payload = reader_.next()) {
        const auto msg = service::decode_message(*payload);
        if (!msg) throw std::runtime_error("malformed frame from daemon");
        return *msg;
      }
      if (reader_.error()) {
        throw std::runtime_error("protocol error: " + reader_.error_text());
      }
      char buffer[64 * 1024];
      const auto n = ::recv(fd_, buffer, sizeof buffer, 0);
      if (n == 0) throw std::runtime_error("daemon closed the connection");
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("recv failed: " + std::string(std::strerror(errno)));
      }
      reader_.feed(buffer, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  FrameReader reader_;
};

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const auto comma = text.find(',', begin);
    const auto end = comma == std::string::npos ? text.size() : comma;
    if (end > begin) out.push_back(text.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

service::JobSpec spec_from_cli(const CliArgs& args) {
  service::JobSpec spec;
  spec.kind = args.value("kind").value_or("vm");
  spec.seed = resolve_seed(args, spec.seed);
  spec.trials = resolve_trial_count(args, 0);
  spec.shard_trials = args.value_u64("shard-trials", 0);
  if (const auto names = args.value("workloads")) {
    spec.workloads = split_csv(*names);
  }
  spec.low32 = args.has_flag("low32");
  spec.model = args.value("model").value_or("result");
  spec.latches_only = args.has_flag("latches-only");
  spec.fault_model = resolve_fault_model_name(args).value_or("single");
  spec.fault_bits = args.value_u64("fault-bits", spec.fault_bits);
  spec.burst_entries = args.value_u64("burst-entries", spec.burst_entries);
  spec.fault_target = args.value("fault-target").value_or(spec.fault_target);
  spec.vdd_mv = args.value_u64("vdd-mv", spec.vdd_mv);
  spec.freq_mhz = args.value_u64("freq-mhz", spec.freq_mhz);
  spec.upset_ppm = args.value_u64("upset-ppm", spec.upset_ppm);
  return spec;
}

void print_job_status(const WireMessage& msg) {
  std::printf("job %llu  %-11s %-5s config %016llx  shards %llu/%llu  "
              "trials %llu/%llu  %.1f trials/s  quarantined %llu  exit %llu  %s\n",
              static_cast<unsigned long long>(msg.job), msg.state.c_str(),
              msg.spec.kind.c_str(),
              static_cast<unsigned long long>(msg.config_hash),
              static_cast<unsigned long long>(msg.shards_done),
              static_cast<unsigned long long>(msg.shards_total),
              static_cast<unsigned long long>(msg.trials_done),
              static_cast<unsigned long long>(msg.trials_total),
              static_cast<double>(msg.rate_milli) / 1000.0,
              static_cast<unsigned long long>(msg.quarantined),
              static_cast<unsigned long long>(msg.exit_code),
              msg.trace.c_str());
  if (!msg.text.empty()) std::printf("  note: %s\n", msg.text.c_str());
}

void print_event(const WireMessage& msg) {
  if (!msg.text.empty()) {
    std::printf("[job %llu] %s\n", static_cast<unsigned long long>(msg.job),
                msg.text.c_str());
  } else {
    std::printf("[job %llu] %s shard %llu (%s) | %llu/%llu shards | "
                "%llu/%llu trials | %.1f trials/s\n",
                static_cast<unsigned long long>(msg.job), msg.event.c_str(),
                static_cast<unsigned long long>(msg.shard), msg.workload.c_str(),
                static_cast<unsigned long long>(msg.shards_done),
                static_cast<unsigned long long>(msg.shards_total),
                static_cast<unsigned long long>(msg.trials_done),
                static_cast<unsigned long long>(msg.trials_total),
                static_cast<double>(msg.rate_milli) / 1000.0);
  }
  std::fflush(stdout);
}

// Download one job's trace over the connection into `path` ("-" = stdout).
int fetch_trace(Connection& conn, u64 job, const std::string& path) {
  WireMessage fetch;
  fetch.type = MessageType::kFetch;
  fetch.job = job;
  conn.send(fetch);

  std::FILE* out = path == "-" ? stdout : std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "restorectl: cannot open '%s' for writing\n",
                 path.c_str());
    return 1;
  }
  u64 bytes = 0;
  while (true) {
    const auto msg = conn.receive();
    if (msg.type == MessageType::kTraceData) {
      std::fwrite(msg.data.data(), 1, msg.data.size(), out);
      bytes += msg.data.size();
      continue;
    }
    if (msg.type == MessageType::kTraceEnd) {
      if (out != stdout) std::fclose(out);
      if (bytes != msg.bytes) {
        std::fprintf(stderr, "restorectl: trace stream truncated (%llu of %llu bytes)\n",
                     static_cast<unsigned long long>(bytes),
                     static_cast<unsigned long long>(msg.bytes));
        return 1;
      }
      if (out != stdout) {
        std::fprintf(stderr, "restorectl: wrote %llu bytes to %s\n",
                     static_cast<unsigned long long>(bytes), path.c_str());
      }
      return 0;
    }
    if (msg.type == MessageType::kError) {
      if (out != stdout) std::fclose(out);
      std::fprintf(stderr, "restorectl: %s\n", msg.text.c_str());
      return 1;
    }
    // Late events of a concurrent subscription interleave legally; skip them.
    if (msg.type == MessageType::kEvent) continue;
    if (out != stdout) std::fclose(out);
    std::fprintf(stderr, "restorectl: unexpected %s during fetch\n",
                 std::string(service::to_string(msg.type)).c_str());
    return 1;
  }
}

// Consume events until the job's `done` frame; returns the job's exit code.
int follow_job(Connection& conn, u64 job) {
  while (true) {
    const auto msg = conn.receive();
    if (msg.type == MessageType::kEvent && msg.job == job) {
      print_event(msg);
      continue;
    }
    if (msg.type == MessageType::kDone && msg.job == job) {
      std::printf("job %llu %s (exit %llu)%s%s\n",
                  static_cast<unsigned long long>(msg.job), msg.state.c_str(),
                  static_cast<unsigned long long>(msg.exit_code),
                  msg.text.empty() ? "" : ": ", msg.text.c_str());
      return static_cast<int>(msg.exit_code);
    }
    if (msg.type == MessageType::kShutdown) {
      std::fprintf(stderr, "restorectl: daemon shut down: %s\n", msg.text.c_str());
      return 130;
    }
    if (msg.type == MessageType::kError) {
      std::fprintf(stderr, "restorectl: %s\n", msg.text.c_str());
      return 1;
    }
  }
}

int run(const CliArgs& args) {
  const auto& positional = args.positional();
  if (positional.empty()) {
    std::fprintf(stderr,
                 "usage: restorectl [--socket PATH | --connect HOST:PORT] "
                 "ping|submit|status|list|subscribe|fetch|analyze|fleet-status"
                 " [flags]\n");
    return 2;
  }
  const std::string& command = positional.front();

  const auto tcp_target = args.value("connect");
  Connection conn(tcp_target
                      ? connect_tcp_bounded(*tcp_target,
                                            args.value_u64("connect-timeout-ms", 0))
                      : connect_unix(resolve_socket_path(args, "restored.sock")));

  if (command == "fleet-status") {
    WireMessage probe;
    probe.type = MessageType::kWorkerStatus;
    conn.send(probe);
    const auto info = conn.receive();
    if (info.type != MessageType::kWorkerInfo) {
      std::fprintf(stderr, "restorectl: unexpected reply to fleet-status\n");
      return 1;
    }
    std::printf("fleet worker (protocol %llu): %llu leases served, "
                "%llu cache hits, %llu failures, %llu active\n",
                static_cast<unsigned long long>(info.version),
                static_cast<unsigned long long>(info.leases_done),
                static_cast<unsigned long long>(info.cache_hits),
                static_cast<unsigned long long>(info.failures),
                static_cast<unsigned long long>(info.active));
    return 0;
  }

  if (command == "ping") {
    WireMessage ping;
    ping.type = MessageType::kPing;
    conn.send(ping);
    const auto pong = conn.receive();
    if (pong.type != MessageType::kPong) {
      std::fprintf(stderr, "restorectl: unexpected reply to ping\n");
      return 1;
    }
    std::printf("pong (protocol version %llu)\n",
                static_cast<unsigned long long>(pong.version));
    return 0;
  }

  if (command == "submit") {
    WireMessage submit;
    submit.type = MessageType::kSubmit;
    submit.spec = spec_from_cli(args);
    submit.priority = args.value_u64("priority", 0);
    submit.want_events = args.has_flag("follow");
    conn.send(submit);
    const auto reply = conn.receive();
    if (reply.type == MessageType::kError) {
      std::fprintf(stderr, "restorectl: %s\n", reply.text.c_str());
      return 1;
    }
    if (reply.type != MessageType::kSubmitted) {
      std::fprintf(stderr, "restorectl: unexpected reply to submit\n");
      return 1;
    }
    std::printf("job %llu %s%s%s  config %016llx  trace %s\n",
                static_cast<unsigned long long>(reply.job), reply.state.c_str(),
                reply.attached ? " (attached to in-flight job)" : "",
                reply.cached ? " (served from spool)" : "",
                static_cast<unsigned long long>(reply.config_hash),
                reply.trace.c_str());
    std::fflush(stdout);
    if (!args.has_flag("follow")) return 0;
    const int code = follow_job(conn, reply.job);
    if (code == 0) {
      if (const auto out = args.value("fetch")) {
        return fetch_trace(conn, reply.job, *out);
      }
    }
    return code;
  }

  if (command == "status") {
    WireMessage status;
    status.type = MessageType::kStatus;
    status.job = args.value_u64("job", 0);
    conn.send(status);
    const auto reply = conn.receive();
    if (reply.type == MessageType::kError) {
      std::fprintf(stderr, "restorectl: %s\n", reply.text.c_str());
      return 1;
    }
    print_job_status(reply);
    return static_cast<int>(reply.exit_code);
  }

  if (command == "list") {
    WireMessage list;
    list.type = MessageType::kList;
    conn.send(list);
    u64 count = 0;
    while (true) {
      const auto reply = conn.receive();
      if (reply.type == MessageType::kJobStatus) {
        print_job_status(reply);
        ++count;
        continue;
      }
      if (reply.type == MessageType::kListEnd) {
        std::printf("%llu job(s)\n", static_cast<unsigned long long>(reply.count));
        return 0;
      }
      if (reply.type == MessageType::kError) {
        std::fprintf(stderr, "restorectl: %s\n", reply.text.c_str());
        return 1;
      }
    }
  }

  if (command == "subscribe") {
    WireMessage sub;
    sub.type = MessageType::kSubscribe;
    sub.job = args.value_u64("job", 0);
    conn.send(sub);
    const auto ack = conn.receive();
    if (ack.type == MessageType::kError) {
      std::fprintf(stderr, "restorectl: %s\n", ack.text.c_str());
      return 1;
    }
    print_job_status(ack);
    return follow_job(conn, sub.job);
  }

  if (command == "fetch") {
    return fetch_trace(conn, args.value_u64("job", 0),
                       args.value("out").value_or("-"));
  }

  if (command == "analyze") {
    WireMessage req;
    req.type = MessageType::kAnalyze;
    req.job = args.value_u64("job", 0);
    req.interval = args.value_u64("interval", 0);
    req.json = args.has_flag("json");
    conn.send(req);
    const auto reply = conn.receive();
    if (reply.type == MessageType::kError) {
      std::fprintf(stderr, "restorectl: %s\n", reply.text.c_str());
      return 1;
    }
    if (reply.type != MessageType::kAnalyzeResult) {
      std::fprintf(stderr, "restorectl: unexpected reply to analyze\n");
      return 1;
    }
    std::fputs(reply.data.c_str(), stdout);
    if (reply.data.empty() || reply.data.back() != '\n') std::fputc('\n', stdout);
    return 0;
  }

  std::fprintf(stderr, "restorectl: unknown command '%s'\n", command.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(restore::CliArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "restorectl: %s\n", e.what());
    return 1;
  }
}
