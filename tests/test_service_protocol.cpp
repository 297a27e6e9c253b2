// Wire-protocol tests for the restored campaign service: framing under
// arbitrary fragmentation (fuzzed with the repo's deterministic Rng),
// oversize-frame poisoning, and exact round-trips of every message type.
#include "service/protocol.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "service/job_queue.hpp"

using namespace restore;
using service::FrameReader;
using service::JobSpec;
using service::MessageType;
using service::WireMessage;

namespace {

std::vector<std::string> sample_payloads() {
  std::vector<std::string> payloads;
  payloads.push_back("");
  payloads.push_back("x");
  payloads.push_back(R"({"type":"ping"})");
  payloads.push_back(std::string(4096, 'a'));
  payloads.push_back(std::string("\x00\x01\xff\x7f bin", 8));
  payloads.push_back(std::string(service::kMaxFramePayload, 'z'));
  return payloads;
}

}  // namespace

TEST(ServiceFraming, RoundTripWhole) {
  FrameReader reader;
  std::string stream;
  const auto payloads = sample_payloads();
  for (const auto& payload : payloads) {
    stream += service::encode_frame(payload);
  }
  reader.feed(stream.data(), stream.size());
  for (const auto& payload : payloads) {
    const auto got = reader.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, payload);
  }
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.error());
  EXPECT_EQ(reader.pending_bytes(), 0u);
}

TEST(ServiceFraming, ByteAtATime) {
  FrameReader reader;
  const std::string frame = service::encode_frame("hello frames");
  for (const char c : frame) {
    // Nothing may surface until the final byte arrives.
    const bool last = &c == &frame.back();
    if (!last) {
      EXPECT_FALSE(reader.next().has_value());
    }
    reader.feed(&c, 1);
  }
  const auto got = reader.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "hello frames");
}

TEST(ServiceFraming, FuzzedSplitAndCoalescedReads) {
  // 100 rounds of random payload batches, each delivered in random-sized
  // chunks (frequently cutting length prefixes in half and coalescing
  // adjacent frames). The reader must reproduce every payload in order.
  Rng rng(0xF7A3E5);
  for (int round = 0; round < 100; ++round) {
    std::vector<std::string> payloads;
    const u64 count = rng.range(1, 8);
    std::string stream;
    for (u64 i = 0; i < count; ++i) {
      std::string payload;
      const u64 size = rng.below(3) == 0 ? rng.below(4) : rng.below(9000);
      payload.reserve(size);
      for (u64 b = 0; b < size; ++b) {
        payload.push_back(static_cast<char>(rng.below(256)));
      }
      stream += service::encode_frame(payload);
      payloads.push_back(std::move(payload));
    }

    FrameReader reader;
    std::vector<std::string> decoded;
    std::size_t offset = 0;
    while (offset < stream.size()) {
      const u64 chunk = rng.range(1, 257);
      const std::size_t take = std::min<std::size_t>(chunk, stream.size() - offset);
      reader.feed(stream.data() + offset, take);
      offset += take;
      while (const auto payload = reader.next()) decoded.push_back(*payload);
    }
    ASSERT_FALSE(reader.error()) << "round " << round;
    ASSERT_EQ(decoded.size(), payloads.size()) << "round " << round;
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      EXPECT_EQ(decoded[i], payloads[i]) << "round " << round << " frame " << i;
    }
    EXPECT_EQ(reader.pending_bytes(), 0u);
  }
}

TEST(ServiceFraming, FinishFlagsTruncatedStreams) {
  // EOF mid-payload: the peer died with a frame in flight.
  {
    FrameReader reader;
    const std::string frame = service::encode_frame("cut short");
    reader.feed(frame.data(), frame.size() - 3);
    EXPECT_FALSE(reader.next().has_value());
    reader.finish();
    EXPECT_TRUE(reader.error());
    EXPECT_EQ(reader.error_code(), service::FrameError::kTruncated);
    EXPECT_EQ(reader.pending_bytes(), 0u);  // poisoned readers hold nothing
  }
  // EOF mid-header: even a partial length prefix counts as truncation.
  {
    FrameReader reader;
    const char header_byte = 0;
    reader.feed(&header_byte, 1);
    reader.finish();
    EXPECT_EQ(reader.error_code(), service::FrameError::kTruncated);
  }
  // Clean EOF between frames is not an error, and finish() is idempotent.
  {
    FrameReader reader;
    const std::string frame = service::encode_frame("whole");
    reader.feed(frame.data(), frame.size());
    EXPECT_TRUE(reader.next().has_value());
    reader.finish();
    reader.finish();
    EXPECT_FALSE(reader.error());
    EXPECT_EQ(reader.error_code(), service::FrameError::kNone);
  }
}

TEST(ServiceFraming, CustomPayloadLimitBoundsAllocation) {
  // An embedder fronting an untrusted network can cap payloads below the
  // protocol-wide limit; a frame over the cap poisons with kOversize.
  FrameReader reader(64);
  const std::string small = service::encode_frame(std::string(64, 's'));
  reader.feed(small.data(), small.size());
  ASSERT_TRUE(reader.next().has_value());

  const std::string big = service::encode_frame(std::string(65, 'b'));
  reader.feed(big.data(), big.size());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.error_code(), service::FrameError::kOversize);
}

TEST(ServiceFraming, MalformedByteSoupNeverThrowsOrOverbuffers) {
  // Adversarial-input property: feed random byte soup (which constantly
  // fabricates wild length prefixes) through a capped reader. The reader
  // must never throw, and — poisoned or not — must never buffer more than
  // one max-size payload beyond what it already delivered.
  constexpr u32 kCap = 4096;
  Rng rng(0xBADF00D);
  for (int round = 0; round < 200; ++round) {
    FrameReader reader(kCap);
    const u64 total = rng.range(1, 8192);
    u64 fed = 0;
    while (fed < total) {
      char chunk[257];
      const u64 take = std::min<u64>(rng.range(1, 257), total - fed);
      for (u64 i = 0; i < take; ++i) {
        chunk[i] = static_cast<char>(rng.below(256));
      }
      reader.feed(chunk, take);
      fed += take;
      while (reader.next()) {
      }
      ASSERT_LE(reader.pending_bytes(), static_cast<std::size_t>(kCap) + 4)
          << "round " << round;
    }
    reader.finish();
    // After EOF the reader has a definite verdict; byte soup almost always
    // ends poisoned, but a lucky clean parse is legal too.
    if (reader.error()) {
      EXPECT_NE(reader.error_code(), service::FrameError::kNone);
    }
  }
}

TEST(ServiceFraming, EncodeRejectsOversizePayload) {
  EXPECT_THROW(
      service::encode_frame(std::string(service::kMaxFramePayload + 1, 'x')),
      std::length_error);
}

TEST(ServiceFraming, OversizeFramePoisonsTheStream) {
  FrameReader reader;
  // A hand-built header claiming kMaxFramePayload+1 bytes.
  const u32 size = service::kMaxFramePayload + 1;
  char header[4] = {static_cast<char>(size >> 24), static_cast<char>(size >> 16),
                    static_cast<char>(size >> 8), static_cast<char>(size)};
  reader.feed(header, sizeof header);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.error());
  EXPECT_NE(reader.error_text().find("oversize"), std::string::npos);

  // A poisoned stream never resyncs: even a well-formed frame afterwards
  // yields nothing.
  const std::string good = service::encode_frame("too late");
  reader.feed(good.data(), good.size());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.error());
}

namespace {

// Every message type with every type-relevant field set to a distinctive
// value, so encode -> decode -> encode proves the wire form is a fixpoint.
std::vector<WireMessage> one_of_each_type() {
  std::vector<WireMessage> messages;

  WireMessage ping;
  ping.type = MessageType::kPing;
  messages.push_back(ping);

  WireMessage submit;
  submit.type = MessageType::kSubmit;
  submit.spec.kind = "uarch";
  submit.spec.seed = 0xC0FFEE;
  submit.spec.trials = 24;
  submit.spec.shard_trials = 8;
  submit.spec.workloads = {"gzip", "mcf"};
  submit.spec.low32 = true;
  submit.spec.model = "register";
  submit.spec.latches_only = true;
  submit.priority = 7;
  submit.want_events = true;
  messages.push_back(submit);

  WireMessage status;
  status.type = MessageType::kStatus;
  status.job = 3;
  messages.push_back(status);

  WireMessage list;
  list.type = MessageType::kList;
  messages.push_back(list);

  WireMessage subscribe;
  subscribe.type = MessageType::kSubscribe;
  subscribe.job = 9;
  messages.push_back(subscribe);

  WireMessage fetch;
  fetch.type = MessageType::kFetch;
  fetch.job = 4;
  messages.push_back(fetch);

  WireMessage analyze;
  analyze.type = MessageType::kAnalyze;
  analyze.job = 4;
  analyze.interval = 250;
  analyze.json = true;
  messages.push_back(analyze);

  WireMessage pong;
  pong.type = MessageType::kPong;
  pong.version = service::kProtocolVersion;
  messages.push_back(pong);

  WireMessage submitted;
  submitted.type = MessageType::kSubmitted;
  submitted.job = 11;
  submitted.config_hash = 0x123456789abcdef0ULL;
  submitted.state = "queued";
  submitted.attached = true;
  submitted.cached = false;
  submitted.trace = "spool/vm-123-s8.jsonl";
  messages.push_back(submitted);

  WireMessage event;
  event.type = MessageType::kEvent;
  event.job = 11;
  event.event = "attempt-failed";
  event.shard = 5;
  event.workload = "vortex";
  event.attempt = 2;
  event.attempts_max = 3;
  event.shards_done = 4;
  event.shards_total = 12;
  event.trials_done = 32;
  event.trials_total = 96;
  event.text = "shard 5 (vortex) attempt 2/3 failed: boom";
  messages.push_back(event);

  WireMessage done;
  done.type = MessageType::kDone;
  done.job = 11;
  done.state = "quarantined";
  done.exit_code = 3;
  done.trials_done = 88;
  done.trace = "spool/vm-123-s8.jsonl";
  done.text = "shard 5 kept throwing";
  messages.push_back(done);

  WireMessage job_status;
  job_status.type = MessageType::kJobStatus;
  job_status.job = 12;
  job_status.spec.kind = "vm";
  job_status.state = "running";
  job_status.config_hash = 0xfeedface;
  job_status.priority = 1;
  job_status.trials_done = 10;
  job_status.trials_total = 20;
  job_status.shards_done = 2;
  job_status.shards_total = 4;
  job_status.quarantined = 1;
  job_status.exit_code = 0;
  job_status.trace = "spool/vm-feed-s4.jsonl";
  job_status.text = "";
  messages.push_back(job_status);

  WireMessage list_end;
  list_end.type = MessageType::kListEnd;
  list_end.count = 2;
  messages.push_back(list_end);

  WireMessage trace_data;
  trace_data.type = MessageType::kTraceData;
  trace_data.job = 12;
  trace_data.data = "{\"shard\":0}\n{\"shard\":1}\nwith \"quotes\" \\ and\ttabs";
  messages.push_back(trace_data);

  WireMessage trace_end;
  trace_end.type = MessageType::kTraceEnd;
  trace_end.job = 12;
  trace_end.bytes = 1605;
  messages.push_back(trace_end);

  WireMessage analyze_result;
  analyze_result.type = MessageType::kAnalyzeResult;
  analyze_result.job = 4;
  analyze_result.data = "{\"kind\":\"vm\",\"rows\":168,\"outcomes\":[]}";
  analyze_result.json = true;
  analyze_result.cached = true;
  messages.push_back(analyze_result);

  WireMessage error;
  error.type = MessageType::kError;
  error.text = "unknown workload 'spice'";
  messages.push_back(error);

  WireMessage shutdown;
  shutdown.type = MessageType::kShutdown;
  shutdown.text = "daemon draining";
  messages.push_back(shutdown);

  WireMessage lease;
  lease.type = MessageType::kLease;
  lease.lease = 17;
  lease.shard = 5;
  lease.deadline_ms = 60'000;
  lease.spec.kind = "vm";
  lease.spec.seed = 7;
  lease.spec.trials = 8;
  lease.spec.shard_trials = 4;
  lease.spec.workloads = {"gzip", "mcf"};
  messages.push_back(lease);

  WireMessage lease_cancel;
  lease_cancel.type = MessageType::kLeaseCancel;
  lease_cancel.lease = 17;
  messages.push_back(lease_cancel);

  WireMessage worker_status;
  worker_status.type = MessageType::kWorkerStatus;
  messages.push_back(worker_status);

  WireMessage lease_data;
  lease_data.type = MessageType::kLeaseData;
  lease_data.lease = 17;
  lease_data.data = "{\"shard\":5,\"slot\":0}\n";
  messages.push_back(lease_data);

  WireMessage lease_result;
  lease_result.type = MessageType::kLeaseResult;
  lease_result.lease = 17;
  lease_result.shard = 5;
  lease_result.trials_done = 4;
  lease_result.bytes = 512;
  lease_result.cached = true;
  messages.push_back(lease_result);

  WireMessage lease_failed;
  lease_failed.type = MessageType::kLeaseFailed;
  lease_failed.lease = 18;
  lease_failed.shard = 6;
  lease_failed.text = "bad_alloc running the shard";
  messages.push_back(lease_failed);

  WireMessage worker_info;
  worker_info.type = MessageType::kWorkerInfo;
  worker_info.version = service::kProtocolVersion;
  worker_info.leases_done = 42;
  worker_info.cache_hits = 7;
  worker_info.failures = 1;
  worker_info.active = 2;
  messages.push_back(worker_info);

  return messages;
}

}  // namespace

TEST(ServiceMessages, EveryTypeRoundTripsExactly) {
  const auto messages = one_of_each_type();
  ASSERT_EQ(messages.size(), service::kMessageTypeCount);  // one per MessageType
  for (const auto& msg : messages) {
    const std::string wire = service::encode_message(msg);
    const auto decoded = service::decode_message(wire);
    ASSERT_TRUE(decoded.has_value()) << wire;
    EXPECT_EQ(decoded->type, msg.type) << wire;
    // The wire form must be a fixpoint: re-encoding the decoded message
    // reproduces the bytes, so no field is lost or reordered.
    EXPECT_EQ(service::encode_message(*decoded), wire);
  }
}

TEST(ServiceMessages, SubmitFieldsSurviveDecode) {
  WireMessage submit;
  submit.type = MessageType::kSubmit;
  submit.spec.kind = "vm";
  submit.spec.seed = 7;
  submit.spec.trials = 8;
  submit.spec.shard_trials = 4;
  submit.spec.workloads = {"gzip", "mcf"};
  submit.spec.model = "result";
  submit.priority = 3;
  submit.want_events = true;

  const auto decoded = service::decode_message(service::encode_message(submit));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->spec, submit.spec);
  EXPECT_EQ(decoded->priority, 3u);
  EXPECT_TRUE(decoded->want_events);
}

TEST(ServiceMessages, DecodeRejectsMalformedInput) {
  EXPECT_FALSE(service::decode_message("not json").has_value());
  EXPECT_FALSE(service::decode_message("{}").has_value());
  EXPECT_FALSE(service::decode_message(R"({"type":"teleport"})").has_value());
  // Job-scoped without a job id.
  EXPECT_FALSE(service::decode_message(R"({"type":"status"})").has_value());
  // Submit without the required kind/seed.
  EXPECT_FALSE(service::decode_message(R"({"type":"submit"})").has_value());
  EXPECT_FALSE(
      service::decode_message(R"({"type":"submit","kind":"vm"})").has_value());
  // Event without its tag; error without text.
  EXPECT_FALSE(service::decode_message(R"({"type":"event","job":1})").has_value());
  EXPECT_FALSE(service::decode_message(R"({"type":"error"})").has_value());
  // Analyze without a job id; analyze-result without its document.
  EXPECT_FALSE(service::decode_message(R"({"type":"analyze"})").has_value());
  EXPECT_FALSE(
      service::decode_message(R"({"type":"analyze-result","job":1})").has_value());
  // Lease-scoped without a lease id.
  EXPECT_FALSE(service::decode_message(R"({"type":"lease-cancel"})").has_value());
  EXPECT_FALSE(
      service::decode_message(R"({"type":"lease-data","data":"x"})").has_value());
  // Lease without its shard/spec; lease-result without a shard; lease-failed
  // without its error text.
  EXPECT_FALSE(service::decode_message(R"({"type":"lease","lease":1})").has_value());
  EXPECT_FALSE(
      service::decode_message(R"({"type":"lease","lease":1,"shard":0})").has_value());
  EXPECT_FALSE(
      service::decode_message(R"({"type":"lease-result","lease":1})").has_value());
  EXPECT_FALSE(service::decode_message(
                   R"({"type":"lease-failed","lease":1,"shard":0})")
                   .has_value());
}

TEST(ServiceMessages, TypeNamesRoundTrip) {
  for (const auto& msg : one_of_each_type()) {
    const auto name = service::to_string(msg.type);
    const auto back = service::message_type_from_string(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, msg.type);
  }
  EXPECT_FALSE(service::message_type_from_string("nope").has_value());
}

// Generated exhaustiveness sweep: iterate the raw enumerator range instead of
// a hand-maintained list, so a new MessageType that is missing a wire name, a
// from_string mapping, or a one_of_each_type() entry fails here even if every
// hand-written test above was left untouched.
TEST(ServiceMessages, MessageTypeSurfaceIsExhaustive) {
  std::set<MessageType> built;
  for (const auto& msg : one_of_each_type()) {
    EXPECT_TRUE(built.insert(msg.type).second)
        << "duplicate one_of_each_type() entry for "
        << service::to_string(msg.type);
  }
  for (std::size_t raw = 0; raw < service::kMessageTypeCount; ++raw) {
    const auto type = static_cast<MessageType>(raw);
    const auto name = service::to_string(type);
    EXPECT_NE(name, "?") << "enumerator " << raw << " has no wire name";
    const auto back = service::message_type_from_string(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, type) << name;
    EXPECT_TRUE(built.count(type))
        << "one_of_each_type() never builds '" << name
        << "', so its encode/decode round trip is untested";
  }
}

TEST(ServiceJobSpec, IdentityKeyCoversGeometry) {
  JobSpec a;
  a.kind = "vm";
  a.seed = 7;
  a.trials = 8;
  a.shard_trials = 4;
  JobSpec b = a;
  EXPECT_EQ(service::spec_trace_filename(a), service::spec_trace_filename(b));
  b.shard_trials = 8;  // same config_hash, different sampling geometry
  EXPECT_EQ(service::spec_config_hash(a), service::spec_config_hash(b));
  EXPECT_NE(service::spec_trace_filename(a), service::spec_trace_filename(b));
  b.shard_trials = a.shard_trials;
  b.seed = 8;  // different campaign entirely
  EXPECT_NE(service::spec_config_hash(a), service::spec_config_hash(b));
  EXPECT_NE(service::spec_trace_filename(a), service::spec_trace_filename(b));
}

TEST(ServiceAddress, ParsesHostAndPort) {
  const auto endpoint = service::parse_host_port("127.0.0.1:7701", false);
  ASSERT_TRUE(endpoint.has_value());
  EXPECT_EQ(endpoint->host, "127.0.0.1");
  EXPECT_EQ(endpoint->port, 7701);
  const auto any_host = service::parse_host_port(":65535", false);
  ASSERT_TRUE(any_host.has_value());
  EXPECT_EQ(any_host->host, "");
  EXPECT_EQ(any_host->port, 65535);
}

TEST(ServiceAddress, RejectsMalformedPorts) {
  for (const bool listener : {true, false}) {
    EXPECT_FALSE(service::parse_host_port("127.0.0.1:abc", listener));
    EXPECT_FALSE(service::parse_host_port("127.0.0.1:7x", listener));
    EXPECT_FALSE(service::parse_host_port("127.0.0.1:70000", listener));
    EXPECT_FALSE(service::parse_host_port("127.0.0.1:", listener));
    EXPECT_FALSE(service::parse_host_port("127.0.0.1:-1", listener));
    EXPECT_FALSE(service::parse_host_port("127.0.0.1: 80", listener));
    EXPECT_FALSE(service::parse_host_port("127.0.0.1:0000080", listener));
    EXPECT_FALSE(service::parse_host_port("127.0.0.1", listener));
  }
}

TEST(ServiceAddress, PortZeroOnlyForAnEphemeralListener) {
  const auto listener = service::parse_host_port("127.0.0.1:0", true);
  ASSERT_TRUE(listener.has_value());
  EXPECT_EQ(listener->port, 0);
  EXPECT_FALSE(service::parse_host_port("127.0.0.1:0", false));
  EXPECT_FALSE(service::parse_host_port(":0", false));
}
