#include "service/protocol.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <iterator>
#include <stdexcept>

#include "common/flatjson.hpp"

namespace restore::service {

// ---- framing ----

std::string encode_frame(std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    throw std::length_error("service frame payload exceeds kMaxFramePayload (" +
                            std::to_string(payload.size()) + " bytes)");
  }
  const u32 size = static_cast<u32>(payload.size());
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.push_back(static_cast<char>((size >> 24) & 0xff));
  out.push_back(static_cast<char>((size >> 16) & 0xff));
  out.push_back(static_cast<char>((size >> 8) & 0xff));
  out.push_back(static_cast<char>(size & 0xff));
  out.append(payload);
  return out;
}

std::string_view to_string(FrameError error) noexcept {
  switch (error) {
    case FrameError::kNone: return "none";
    case FrameError::kOversize: return "oversize";
    case FrameError::kTruncated: return "truncated";
  }
  return "?";
}

void FrameReader::feed(const char* data, std::size_t size) {
  if (error()) return;  // a poisoned stream never resyncs
  buffer_.append(data, size);
}

void FrameReader::finish() {
  if (error()) return;
  if (pending_bytes() == 0) return;  // clean EOF on a frame boundary
  error_ = FrameError::kTruncated;
  error_text_ = "truncated stream: peer closed with " +
                std::to_string(pending_bytes()) +
                " bytes of an incomplete frame buffered";
  buffer_.clear();
  cursor_ = 0;
}

std::optional<std::string> FrameReader::next() {
  if (error()) return std::nullopt;
  if (buffer_.size() - cursor_ < kFrameHeaderBytes) return std::nullopt;
  const auto* head = reinterpret_cast<const unsigned char*>(buffer_.data() + cursor_);
  const u32 size = (static_cast<u32>(head[0]) << 24) |
                   (static_cast<u32>(head[1]) << 16) |
                   (static_cast<u32>(head[2]) << 8) | static_cast<u32>(head[3]);
  if (size > max_payload_) {
    error_ = FrameError::kOversize;
    error_text_ = "oversize frame: " + std::to_string(size) +
                  " bytes exceeds the " + std::to_string(max_payload_) +
                  "-byte payload limit";
    buffer_.clear();
    cursor_ = 0;
    return std::nullopt;
  }
  if (buffer_.size() - cursor_ < kFrameHeaderBytes + size) return std::nullopt;
  std::string payload = buffer_.substr(cursor_ + kFrameHeaderBytes, size);
  cursor_ += kFrameHeaderBytes + size;
  // Compact once the consumed prefix dominates, so a long-lived connection
  // does not grow its buffer without bound.
  if (cursor_ > 4096 && cursor_ * 2 >= buffer_.size()) {
    buffer_.erase(0, cursor_);
    cursor_ = 0;
  }
  return payload;
}

bool send_all(int fd, std::string_view bytes) noexcept {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const auto n = ::send(fd, bytes.data() + off, bytes.size() - off,
                          MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// ---- addresses ----

std::optional<HostPort> parse_host_port(std::string_view address,
                                        bool allow_ephemeral) {
  const auto colon = address.rfind(':');
  if (colon == std::string_view::npos) return std::nullopt;
  const std::string_view digits = address.substr(colon + 1);
  if (digits.empty() || digits.size() > 5) return std::nullopt;
  u32 port = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    port = port * 10 + static_cast<u32>(c - '0');
  }
  if (port > 65535 || (port == 0 && !allow_ephemeral)) return std::nullopt;
  return HostPort{std::string(address.substr(0, colon)), static_cast<u16>(port)};
}

// ---- message type tags ----

namespace {

struct TypeName {
  MessageType type;
  std::string_view name;
};

constexpr TypeName kTypeNames[] = {
    {MessageType::kPing, "ping"},
    {MessageType::kSubmit, "submit"},
    {MessageType::kStatus, "status"},
    {MessageType::kList, "list"},
    {MessageType::kSubscribe, "subscribe"},
    {MessageType::kFetch, "fetch"},
    {MessageType::kAnalyze, "analyze"},
    {MessageType::kPong, "pong"},
    {MessageType::kSubmitted, "submitted"},
    {MessageType::kEvent, "event"},
    {MessageType::kDone, "done"},
    {MessageType::kJobStatus, "job-status"},
    {MessageType::kListEnd, "list-end"},
    {MessageType::kTraceData, "trace-data"},
    {MessageType::kTraceEnd, "trace-end"},
    {MessageType::kAnalyzeResult, "analyze-result"},
    {MessageType::kError, "error"},
    {MessageType::kShutdown, "shutdown"},
    {MessageType::kLease, "lease"},
    {MessageType::kLeaseCancel, "lease-cancel"},
    {MessageType::kWorkerStatus, "worker-status"},
    {MessageType::kLeaseData, "lease-data"},
    {MessageType::kLeaseResult, "lease-result"},
    {MessageType::kLeaseFailed, "lease-failed"},
    {MessageType::kWorkerInfo, "worker-info"},
};

static_assert(std::size(kTypeNames) == kMessageTypeCount,
              "every MessageType enumerator needs a wire name (and vice "
              "versa); update kMessageTypeCount when the enum grows");

}  // namespace

std::string_view to_string(MessageType type) noexcept {
  for (const auto& entry : kTypeNames) {
    if (entry.type == type) return entry.name;
  }
  return "?";
}

std::optional<MessageType> message_type_from_string(std::string_view name) noexcept {
  for (const auto& entry : kTypeNames) {
    if (entry.name == name) return entry.type;
  }
  return std::nullopt;
}

// ---- message codec ----

namespace {

using flatjson::append_field;
using flatjson::get_bool;
using flatjson::get_string;
using flatjson::get_uint;

void field(std::string& out, std::string_view key, u64 value) {
  out.push_back(',');
  append_field(out, key, value);
}
void field(std::string& out, std::string_view key, bool value) {
  out.push_back(',');
  append_field(out, key, value);
}
void field(std::string& out, std::string_view key, std::string_view value) {
  out.push_back(',');
  append_field(out, key, value);
}
void field(std::string& out, std::string_view key,
           const std::vector<std::string>& values) {
  out.push_back(',');
  append_field(out, key, values);
}

bool job_scoped(MessageType type) {
  switch (type) {
    case MessageType::kStatus:
    case MessageType::kSubscribe:
    case MessageType::kFetch:
    case MessageType::kAnalyze:
    case MessageType::kSubmitted:
    case MessageType::kEvent:
    case MessageType::kDone:
    case MessageType::kJobStatus:
    case MessageType::kTraceData:
    case MessageType::kTraceEnd:
    case MessageType::kAnalyzeResult:
      return true;
    default:
      return false;
  }
}

// Fleet messages are scoped by the coordinator-issued lease id instead of a
// job id (a lease can be re-issued for the same shard; replies must bind to
// the issue, not the shard).
bool lease_scoped(MessageType type) {
  switch (type) {
    case MessageType::kLease:
    case MessageType::kLeaseCancel:
    case MessageType::kLeaseData:
    case MessageType::kLeaseResult:
    case MessageType::kLeaseFailed:
      return true;
    default:
      return false;
  }
}

// The campaign spec fields shared by kSubmit and kLease. Kept byte-for-byte
// identical to the historical submit layout (fault-model fields ride only on
// non-default models) so submit dedup identity is unchanged.
void encode_spec_fields(std::string& out, const JobSpec& spec) {
  field(out, "kind", std::string_view(spec.kind));
  field(out, "seed", spec.seed);
  field(out, "trials", spec.trials);
  field(out, "shard_trials", spec.shard_trials);
  if (!spec.workloads.empty()) field(out, "workloads", spec.workloads);
  field(out, "low32", spec.low32);
  field(out, "model", std::string_view(spec.model));
  field(out, "latches_only", spec.latches_only);
  if (spec.fault_model != "single") {
    field(out, "fault_model", std::string_view(spec.fault_model));
    field(out, "fault_bits", spec.fault_bits);
    field(out, "burst_entries", spec.burst_entries);
    field(out, "fault_target", std::string_view(spec.fault_target));
    field(out, "vdd_mv", spec.vdd_mv);
    field(out, "freq_mhz", spec.freq_mhz);
    field(out, "upset_ppm", spec.upset_ppm);
  }
}

bool decode_spec_fields(const flatjson::Object& obj, JobSpec& spec) {
  const auto kind = get_string(obj, "kind");
  const auto seed = get_uint(obj, "seed");
  if (!kind || !seed) return false;
  spec.kind = *kind;
  spec.seed = *seed;
  spec.trials = get_uint(obj, "trials").value_or(0);
  spec.shard_trials = get_uint(obj, "shard_trials").value_or(0);
  if (const auto* v = flatjson::find(obj, "workloads")) {
    if (v->kind == flatjson::Value::Kind::kStringArray) {
      spec.workloads = v->str_array;
    } else if (!(v->kind == flatjson::Value::Kind::kUintArray &&
                 v->array.empty())) {
      return false;
    }
  }
  spec.low32 = get_bool(obj, "low32").value_or(false);
  spec.model = get_string(obj, "model").value_or("result");
  spec.latches_only = get_bool(obj, "latches_only").value_or(false);
  spec.fault_model = get_string(obj, "fault_model").value_or("single");
  spec.fault_bits = get_uint(obj, "fault_bits").value_or(2);
  spec.burst_entries = get_uint(obj, "burst_entries").value_or(2);
  spec.fault_target = get_string(obj, "fault_target").value_or("load");
  spec.vdd_mv = get_uint(obj, "vdd_mv").value_or(1000);
  spec.freq_mhz = get_uint(obj, "freq_mhz").value_or(1000);
  spec.upset_ppm = get_uint(obj, "upset_ppm").value_or(1'000'000);
  return true;
}

}  // namespace

std::string encode_message(const WireMessage& msg) {
  std::string out = "{";
  flatjson::append_field(out, "type", to_string(msg.type));
  if (job_scoped(msg.type)) field(out, "job", msg.job);
  if (lease_scoped(msg.type)) field(out, "lease", msg.lease);
  switch (msg.type) {
    case MessageType::kPing:
    case MessageType::kList:
    case MessageType::kStatus:
    case MessageType::kSubscribe:
    case MessageType::kFetch:
    case MessageType::kWorkerStatus:
    case MessageType::kLeaseCancel:
      break;
    case MessageType::kAnalyze:
      field(out, "interval", msg.interval);
      field(out, "json", msg.json);
      break;
    case MessageType::kAnalyzeResult:
      field(out, "data", std::string_view(msg.data));
      field(out, "json", msg.json);
      field(out, "cached", msg.cached);
      break;
    case MessageType::kPong:
      field(out, "version", msg.version);
      break;
    case MessageType::kSubmit:
      encode_spec_fields(out, msg.spec);
      field(out, "priority", msg.priority);
      field(out, "subscribe", msg.want_events);
      break;
    case MessageType::kLease:
      encode_spec_fields(out, msg.spec);
      field(out, "shard", msg.shard);
      field(out, "deadline_ms", msg.deadline_ms);
      break;
    case MessageType::kLeaseData:
      field(out, "data", std::string_view(msg.data));
      break;
    case MessageType::kLeaseResult:
      field(out, "shard", msg.shard);
      field(out, "trials_done", msg.trials_done);
      field(out, "bytes", msg.bytes);
      field(out, "cached", msg.cached);
      break;
    case MessageType::kLeaseFailed:
      field(out, "shard", msg.shard);
      field(out, "text", std::string_view(msg.text));
      break;
    case MessageType::kWorkerInfo:
      field(out, "version", msg.version);
      field(out, "leases_done", msg.leases_done);
      field(out, "cache_hits", msg.cache_hits);
      field(out, "failures", msg.failures);
      field(out, "active", msg.active);
      break;
    case MessageType::kSubmitted:
      field(out, "config_hash", msg.config_hash);
      field(out, "state", std::string_view(msg.state));
      field(out, "attached", msg.attached);
      field(out, "cached", msg.cached);
      field(out, "trace", std::string_view(msg.trace));
      break;
    case MessageType::kEvent:
      field(out, "event", std::string_view(msg.event));
      field(out, "shard", msg.shard);
      if (!msg.workload.empty()) field(out, "workload", std::string_view(msg.workload));
      field(out, "attempt", msg.attempt);
      field(out, "attempts_max", msg.attempts_max);
      field(out, "shards_done", msg.shards_done);
      field(out, "shards_total", msg.shards_total);
      field(out, "trials_done", msg.trials_done);
      field(out, "trials_total", msg.trials_total);
      field(out, "rate_milli", msg.rate_milli);
      if (!msg.text.empty()) field(out, "text", std::string_view(msg.text));
      break;
    case MessageType::kDone:
      field(out, "state", std::string_view(msg.state));
      field(out, "exit_code", msg.exit_code);
      field(out, "trials_done", msg.trials_done);
      field(out, "trace", std::string_view(msg.trace));
      if (!msg.text.empty()) field(out, "text", std::string_view(msg.text));
      break;
    case MessageType::kJobStatus:
      field(out, "kind", std::string_view(msg.spec.kind));
      field(out, "state", std::string_view(msg.state));
      field(out, "config_hash", msg.config_hash);
      field(out, "priority", msg.priority);
      field(out, "trials_done", msg.trials_done);
      field(out, "trials_total", msg.trials_total);
      field(out, "rate_milli", msg.rate_milli);
      field(out, "shards_done", msg.shards_done);
      field(out, "shards_total", msg.shards_total);
      field(out, "quarantined", msg.quarantined);
      field(out, "exit_code", msg.exit_code);
      field(out, "trace", std::string_view(msg.trace));
      if (!msg.text.empty()) field(out, "text", std::string_view(msg.text));
      break;
    case MessageType::kListEnd:
      field(out, "count", msg.count);
      break;
    case MessageType::kTraceData:
      field(out, "data", std::string_view(msg.data));
      break;
    case MessageType::kTraceEnd:
      field(out, "bytes", msg.bytes);
      break;
    case MessageType::kError:
    case MessageType::kShutdown:
      field(out, "text", std::string_view(msg.text));
      break;
  }
  out.push_back('}');
  return out;
}

std::optional<WireMessage> decode_message(const std::string& payload) {
  const auto obj = flatjson::parse(payload);
  if (!obj) return std::nullopt;
  const auto type_name = get_string(*obj, "type");
  if (!type_name) return std::nullopt;
  const auto type = message_type_from_string(*type_name);
  if (!type) return std::nullopt;

  WireMessage msg;
  msg.type = *type;
  if (job_scoped(msg.type)) {
    const auto job = get_uint(*obj, "job");
    if (!job) return std::nullopt;
    msg.job = *job;
  }
  if (lease_scoped(msg.type)) {
    const auto lease = get_uint(*obj, "lease");
    if (!lease) return std::nullopt;
    msg.lease = *lease;
  }
  switch (msg.type) {
    case MessageType::kPing:
    case MessageType::kList:
    case MessageType::kStatus:
    case MessageType::kSubscribe:
    case MessageType::kFetch:
    case MessageType::kWorkerStatus:
    case MessageType::kLeaseCancel:
      break;
    case MessageType::kAnalyze:
      msg.interval = get_uint(*obj, "interval").value_or(0);
      msg.json = get_bool(*obj, "json").value_or(false);
      break;
    case MessageType::kAnalyzeResult: {
      const auto data = get_string(*obj, "data");
      if (!data) return std::nullopt;
      msg.data = *data;
      msg.json = get_bool(*obj, "json").value_or(false);
      msg.cached = get_bool(*obj, "cached").value_or(false);
      break;
    }
    case MessageType::kPong:
      msg.version = get_uint(*obj, "version").value_or(0);
      break;
    case MessageType::kSubmit: {
      if (!decode_spec_fields(*obj, msg.spec)) return std::nullopt;
      msg.priority = get_uint(*obj, "priority").value_or(0);
      msg.want_events = get_bool(*obj, "subscribe").value_or(false);
      break;
    }
    case MessageType::kLease: {
      if (!decode_spec_fields(*obj, msg.spec)) return std::nullopt;
      const auto shard = get_uint(*obj, "shard");
      if (!shard) return std::nullopt;
      msg.shard = *shard;
      msg.deadline_ms = get_uint(*obj, "deadline_ms").value_or(0);
      break;
    }
    case MessageType::kLeaseData: {
      const auto data = get_string(*obj, "data");
      if (!data) return std::nullopt;
      msg.data = *data;
      break;
    }
    case MessageType::kLeaseResult: {
      const auto shard = get_uint(*obj, "shard");
      if (!shard) return std::nullopt;
      msg.shard = *shard;
      msg.trials_done = get_uint(*obj, "trials_done").value_or(0);
      msg.bytes = get_uint(*obj, "bytes").value_or(0);
      msg.cached = get_bool(*obj, "cached").value_or(false);
      break;
    }
    case MessageType::kLeaseFailed: {
      const auto shard = get_uint(*obj, "shard");
      const auto text = get_string(*obj, "text");
      if (!shard || !text) return std::nullopt;
      msg.shard = *shard;
      msg.text = *text;
      break;
    }
    case MessageType::kWorkerInfo:
      msg.version = get_uint(*obj, "version").value_or(0);
      msg.leases_done = get_uint(*obj, "leases_done").value_or(0);
      msg.cache_hits = get_uint(*obj, "cache_hits").value_or(0);
      msg.failures = get_uint(*obj, "failures").value_or(0);
      msg.active = get_uint(*obj, "active").value_or(0);
      break;
    case MessageType::kSubmitted: {
      const auto state = get_string(*obj, "state");
      if (!state) return std::nullopt;
      msg.state = *state;
      msg.config_hash = get_uint(*obj, "config_hash").value_or(0);
      msg.attached = get_bool(*obj, "attached").value_or(false);
      msg.cached = get_bool(*obj, "cached").value_or(false);
      msg.trace = get_string(*obj, "trace").value_or("");
      break;
    }
    case MessageType::kEvent: {
      const auto event = get_string(*obj, "event");
      if (!event) return std::nullopt;
      msg.event = *event;
      msg.shard = get_uint(*obj, "shard").value_or(0);
      msg.workload = get_string(*obj, "workload").value_or("");
      msg.attempt = get_uint(*obj, "attempt").value_or(0);
      msg.attempts_max = get_uint(*obj, "attempts_max").value_or(0);
      msg.shards_done = get_uint(*obj, "shards_done").value_or(0);
      msg.shards_total = get_uint(*obj, "shards_total").value_or(0);
      msg.trials_done = get_uint(*obj, "trials_done").value_or(0);
      msg.trials_total = get_uint(*obj, "trials_total").value_or(0);
      msg.rate_milli = get_uint(*obj, "rate_milli").value_or(0);
      msg.text = get_string(*obj, "text").value_or("");
      break;
    }
    case MessageType::kDone: {
      const auto state = get_string(*obj, "state");
      if (!state) return std::nullopt;
      msg.state = *state;
      msg.exit_code = get_uint(*obj, "exit_code").value_or(0);
      msg.trials_done = get_uint(*obj, "trials_done").value_or(0);
      msg.trace = get_string(*obj, "trace").value_or("");
      msg.text = get_string(*obj, "text").value_or("");
      break;
    }
    case MessageType::kJobStatus: {
      const auto state = get_string(*obj, "state");
      if (!state) return std::nullopt;
      msg.state = *state;
      msg.spec.kind = get_string(*obj, "kind").value_or("");
      msg.config_hash = get_uint(*obj, "config_hash").value_or(0);
      msg.priority = get_uint(*obj, "priority").value_or(0);
      msg.trials_done = get_uint(*obj, "trials_done").value_or(0);
      msg.trials_total = get_uint(*obj, "trials_total").value_or(0);
      msg.rate_milli = get_uint(*obj, "rate_milli").value_or(0);
      msg.shards_done = get_uint(*obj, "shards_done").value_or(0);
      msg.shards_total = get_uint(*obj, "shards_total").value_or(0);
      msg.quarantined = get_uint(*obj, "quarantined").value_or(0);
      msg.exit_code = get_uint(*obj, "exit_code").value_or(0);
      msg.trace = get_string(*obj, "trace").value_or("");
      msg.text = get_string(*obj, "text").value_or("");
      break;
    }
    case MessageType::kListEnd:
      msg.count = get_uint(*obj, "count").value_or(0);
      break;
    case MessageType::kTraceData: {
      const auto data = get_string(*obj, "data");
      if (!data) return std::nullopt;
      msg.data = *data;
      break;
    }
    case MessageType::kTraceEnd:
      msg.bytes = get_uint(*obj, "bytes").value_or(0);
      break;
    case MessageType::kError:
    case MessageType::kShutdown: {
      const auto text = get_string(*obj, "text");
      if (!text) return std::nullopt;
      msg.text = *text;
      break;
    }
  }
  return msg;
}

}  // namespace restore::service
