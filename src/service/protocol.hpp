// Wire protocol of the `restored` campaign service.
//
// Transport: a byte stream (Unix-domain or TCP socket) carrying framed
// messages. Each frame is a 4-byte big-endian payload length followed by
// exactly that many payload bytes; payloads larger than kMaxFramePayload are
// a protocol error and poison the connection (a stream cannot be resynced
// once a length prefix is untrusted). FrameReader reassembles frames from
// arbitrarily split or coalesced reads, so callers just feed it whatever
// recv() returned.
//
// Payloads are flat JSON objects (common/flatjson.hpp) with a mandatory
// "type" field. The full message grammar lives in docs/ARCHITECTURE.md;
// in short:
//
//   client -> server   ping | submit | status | list | subscribe | fetch |
//                      analyze
//   server -> client   pong | submitted | event | done | job-status |
//                      list-end | trace-data | trace-end | analyze-result |
//                      error | shutdown
//
// The fleet fabric (fleet_coordinator.hpp / fleet_worker.hpp) rides the same
// framing with its own message family:
//
//   coordinator -> worker   lease | lease-cancel | worker-status
//   worker -> coordinator   lease-data | lease-result | lease-failed |
//                           worker-info
//
// Every value is an unsigned integer, bool, string, or string array, so a
// decoded message reconstructs the encoded one bit-for-bit (round-trip
// exactness is what lets the service hand back byte-identical traces).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace restore::service {

// ---- framing ----

inline constexpr std::size_t kFrameHeaderBytes = 4;
// Generous for control messages and trace chunks alike; a frame above this is
// a corrupt or hostile stream, not a big message.
inline constexpr u32 kMaxFramePayload = 1u << 20;
// Trace bytes are streamed in chunks of this size (before JSON escaping).
inline constexpr std::size_t kTraceChunkBytes = 48 * 1024;
inline constexpr u64 kProtocolVersion = 1;

// Length-prefix `payload`; throws std::length_error above kMaxFramePayload.
std::string encode_frame(std::string_view payload);

// Why a framed decode failed. The distinction matters to callers: kOversize
// means a corrupt or hostile peer (drop immediately, never retry), while
// kTruncated means the stream ended mid-frame (a crashed peer; the work it
// carried may be retried elsewhere).
enum class FrameError : u8 {
  kNone,
  kOversize,   // length prefix beyond the payload limit
  kTruncated,  // EOF with a partial header or payload buffered (see finish())
};

std::string_view to_string(FrameError error) noexcept;

// Incremental frame reassembly over a byte stream. Feed it raw read() data in
// any fragmentation; next() yields complete payloads in order. An oversize
// length prefix puts the reader in a permanent error state (and next()
// returns nullopt forever): the connection must be dropped.
//
// The payload limit is kMaxFramePayload by default; adversarial-input tests
// (and embedders fronting untrusted networks) can pass a smaller one. The
// limit bounds allocation: a hostile 4-byte header can never make the reader
// buffer more than `max_payload` bytes past the frames already delivered.
class FrameReader {
 public:
  FrameReader() = default;
  explicit FrameReader(u32 max_payload) : max_payload_(max_payload) {}

  void feed(const char* data, std::size_t size);
  std::optional<std::string> next();

  // Signal end-of-stream: bytes still buffered mean the peer died mid-frame,
  // which poisons the reader with kTruncated. Idempotent; a clean EOF (no
  // pending bytes) leaves the reader error-free.
  void finish();

  bool error() const noexcept { return error_ != FrameError::kNone; }
  FrameError error_code() const noexcept { return error_; }
  const std::string& error_text() const noexcept { return error_text_; }
  // Bytes buffered but not yet returned (tests).
  std::size_t pending_bytes() const noexcept { return buffer_.size() - cursor_; }

 private:
  std::string buffer_;
  std::size_t cursor_ = 0;  // consumed prefix of buffer_
  u32 max_payload_ = kMaxFramePayload;
  FrameError error_ = FrameError::kNone;
  std::string error_text_;
};

// Write all of `bytes` to a socket fd, retrying short writes and EINTR (with
// MSG_NOSIGNAL, so a dead peer surfaces as false instead of SIGPIPE). A frame
// passed through here can never shear mid-stream. Returns false on any other
// send error.
bool send_all(int fd, std::string_view bytes) noexcept;

// ---- addresses ----

// A TCP endpoint given as "HOST:PORT". HOST may be empty (each caller picks
// its default). PORT is one to five decimal digits with a value of at most
// 65535: no sign, spaces or trailing text. Port 0 asks the kernel for an
// ephemeral port, so it is accepted only for a listener that reports the
// port it bound (`allow_ephemeral`); nullopt on anything else.
struct HostPort {
  std::string host;
  u16 port = 0;
};
std::optional<HostPort> parse_host_port(std::string_view address,
                                        bool allow_ephemeral);

// ---- messages ----

enum class MessageType : u8 {
  // client -> server
  kPing,
  kSubmit,
  kStatus,
  kList,
  kSubscribe,
  kFetch,
  kAnalyze,  // aggregate report over a finished job's compacted trial store
  // server -> client
  kPong,
  kSubmitted,
  kEvent,
  kDone,
  kJobStatus,
  kListEnd,
  kTraceData,
  kTraceEnd,
  kAnalyzeResult,  // rendered analysis report (kAnalyze reply)
  kError,
  kShutdown,
  // fleet: coordinator -> worker
  kLease,         // run one shard of a campaign spec under a lease id
  kLeaseCancel,   // best-effort: the lease was re-leased elsewhere
  kWorkerStatus,  // liveness + counters probe
  // fleet: worker -> coordinator
  kLeaseData,    // chunk of the shard's JSONL lines (kTraceChunkBytes-sized)
  kLeaseResult,  // terminal success: trial count, byte count, cache provenance
  kLeaseFailed,  // terminal failure: the shard itself threw on the worker
  kWorkerInfo,   // kWorkerStatus reply
};

// Number of MessageType enumerators. Every schema surface keys off this:
// protocol.cpp static_asserts the kTypeNames table against it, the protocol
// test iterates 0..kMessageTypeCount-1 for to_string/from_string coverage,
// and the simlint SCHEMA family cross-checks it against the enum body.
inline constexpr std::size_t kMessageTypeCount = 25;

std::string_view to_string(MessageType type) noexcept;
std::optional<MessageType> message_type_from_string(std::string_view name) noexcept;

// A campaign job as submitted over the wire. Maps 1:1 onto the fields of
// VmCampaignConfig / UarchCampaignConfig that the service exposes; the
// server derives the campaign identity (config_hash) from it, so two
// submissions with equal specs are the same job.
struct JobSpec {
  std::string kind = "vm";  // "vm" | "uarch"
  u64 seed = 0x5EED;
  u64 trials = 0;           // trials per workload; 0 = campaign default
  u64 shard_trials = 0;     // shard geometry; 0 = orchestrator default
  std::vector<std::string> workloads;  // empty = all seven
  bool low32 = false;                  // vm: restrict flips to low 32 bits
  std::string model = "result";        // vm: "result" | "register"
  bool latches_only = false;           // uarch: pipeline latches only

  // Expanded fault model (faultinject/fault_model.hpp): the model token plus
  // every model knob. Encoded on the wire only when `fault_model` is not
  // "single", so pre-existing submit encodings — and their dedup identity —
  // are byte-unchanged.
  std::string fault_model = "single";
  u64 fault_bits = 2;        // multi: adjacent bits per upset
  u64 burst_entries = 2;     // burst: consecutive SRAM entries in the column
  std::string fault_target = "load";  // targeted: "load" | "store"
  u64 vdd_mv = 1000;         // rate: operating point
  u64 freq_mhz = 1000;
  u64 upset_ppm = 1'000'000;

  bool operator==(const JobSpec&) const = default;
};

// One decoded protocol message: the `type` tag plus the superset of fields
// the individual types use. encode_message writes only the fields relevant
// for msg.type; decode_message validates the type-specific required fields.
struct WireMessage {
  MessageType type = MessageType::kPing;

  JobSpec spec;              // submit
  u64 priority = 0;          // submit (higher runs earlier), job-status
  bool want_events = false;  // submit: stream events until done

  u64 job = 0;          // every job-scoped message
  u64 config_hash = 0;  // submitted, job-status
  std::string state;    // submitted, job-status, done
  bool attached = false;  // submitted: deduped onto an in-flight job
  bool cached = false;    // submitted: served complete from the spool;
                          // analyze-result: report served from the daemon's
                          // aggregate cache
  std::string trace;      // submitted, job-status, done: spool trace path

  std::string event;     // event: heartbeat|shard-done|attempt-failed|
                         //        quarantine|complete
  u64 shard = 0;         // event (shard-scoped kinds)
  std::string workload;  // event (shard-scoped kinds)
  u64 attempt = 0;       // event
  u64 attempts_max = 0;  // event
  u64 shards_done = 0;   // event, job-status
  u64 shards_total = 0;  // event, job-status
  u64 trials_done = 0;   // event, job-status
  u64 trials_total = 0;  // event, job-status
  u64 rate_milli = 0;    // event, job-status: live trials/sec * 1000
  u64 quarantined = 0;   // job-status: quarantined shard count

  u64 exit_code = 0;  // done, job-status
  u64 count = 0;      // list-end: job-status frames that preceded it
  u64 bytes = 0;      // trace-end: total trace bytes streamed;
                      // lease-result: shard JSONL bytes that were streamed
  u64 version = 0;    // pong, worker-info
  std::string data;   // trace-data / lease-data chunk, analyze-result document
  std::string text;   // error/shutdown message, event line, done/job-status
                      // failure detail, lease-failed error

  // ---- analytics fields ----
  u64 interval = 0;   // analyze: uarch classification interval (0 = default)
  bool json = false;  // analyze: render the report as JSON instead of text;
                      // analyze-result: how `data` was rendered

  // ---- fleet fields ----
  u64 lease = 0;        // every lease-scoped message: coordinator-issued id
  u64 deadline_ms = 0;  // lease: worker-side execution deadline hint
  u64 leases_done = 0;  // worker-info: leases served since start
  u64 cache_hits = 0;   // worker-info: leases answered from the shard cache
  u64 failures = 0;     // worker-info: leases that ended in lease-failed
  u64 active = 0;       // worker-info: leases executing right now
};

// Serialize one message as a flat-JSON payload (no framing).
std::string encode_message(const WireMessage& msg);

// Parse a payload; nullopt on malformed JSON, unknown type, or a missing
// required field for the tagged type.
std::optional<WireMessage> decode_message(const std::string& payload);

}  // namespace restore::service
