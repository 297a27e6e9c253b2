#include "analytics/compact.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "faultinject/vm_campaign.hpp"
#include "isa/instruction.hpp"

namespace restore::analytics {

namespace {

using faultinject::ParsedUarchTrial;
using faultinject::ParsedVmTrial;

[[noreturn]] void bad_trace(const std::string& what) {
  throw std::runtime_error("compact: " + what);
}

// Split the trace into its header (if any) and trial lines.
struct TraceLines {
  u64 source_schema_version = 1;  // 1 = legacy header-less trace
  std::vector<std::string> lines;
};

TraceLines read_trace_lines(const std::string& jsonl_path, u64& jsonl_bytes) {
  std::ifstream in(jsonl_path, std::ios::binary);
  if (!in) bad_trace("cannot open " + jsonl_path);
  TraceLines out;
  std::string line;
  bool first = true;
  jsonl_bytes = 0;
  while (std::getline(in, line)) {
    jsonl_bytes += line.size() + 1;
    if (line.empty()) continue;
    if (first) {
      first = false;
      if (const auto header = faultinject::parse_trace_header(line)) {
        if (header->schema_version > faultinject::kCampaignSchemaVersion) {
          bad_trace(jsonl_path + " was written by a future schema version");
        }
        out.source_schema_version = header->schema_version;
        continue;
      }
    }
    out.lines.push_back(line);
  }
  return out;
}

template <class Parsed, class ParseLine>
std::vector<Parsed> parse_lines(const std::vector<std::string>& lines,
                                std::size_t threads, const ParseLine& parse_line) {
  std::vector<Parsed> records(lines.size());
  std::vector<u8> ok(lines.size(), 0);
  ThreadPool pool(threads);
  pool.parallel_for(lines.size(), [&](std::size_t i) {
    if (auto parsed = parse_line(lines[i])) {
      auto& [shard, slot, trial] = *parsed;
      records[i].shard = shard;
      records[i].slot = slot;
      records[i].trial = std::move(trial);
      ok[i] = 1;
    }
  });
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!ok[i]) bad_trace("malformed trial line: " + lines[i]);
  }
  return records;
}

std::vector<std::pair<std::size_t, std::size_t>> group_ranges(std::size_t rows) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (std::size_t begin = 0; begin < rows; begin += kRowGroupRows) {
    ranges.emplace_back(begin, std::min(rows, begin + kRowGroupRows));
  }
  if (ranges.empty()) ranges.emplace_back(0, 0);  // empty trace: one empty group
  return ranges;
}

StoreFooter footer_for(const faultinject::CampaignManifest& manifest,
                       u64 source_schema_version,
                       std::vector<std::string> columns,
                       std::vector<std::string> encodings) {
  StoreFooter footer;
  footer.kind = manifest.kind;
  footer.config_hash = manifest.config_hash;
  footer.seed = manifest.seed;
  footer.shard_trials = manifest.shard_trials;
  footer.total_shards = manifest.total_shards;
  footer.total_trials = manifest.total_trials;
  footer.source_schema_version = source_schema_version;
  footer.columns = std::move(columns);
  footer.encodings = std::move(encodings);
  return footer;
}

CompactResult compact_vm(const std::string& store_path,
                         const faultinject::CampaignManifest& manifest,
                         const TraceLines& trace, u64 jsonl_bytes,
                         const CompactOptions& options) {
  const auto records = parse_lines<ParsedVmTrial>(
      trace.lines, options.threads, faultinject::vm_trial_from_jsonl);

  // Golden passes for the root-cause columns, one per workload present (the
  // campaign's own when it ran in this process). An unknown workload has
  // none, and its rows keep "?"/0.
  std::map<std::string, const faultinject::VmGoldenPass*> passes;
  if (options.derive_root_cause) {
    for (const auto& record : records) {
      const auto [it, inserted] = passes.try_emplace(record.trial.workload, nullptr);
      if (!inserted) continue;
      try {
        it->second = &faultinject::vm_golden_pass(it->first);
      } catch (const std::exception&) {
        // unknown workload: no pass
      }
    }
  }

  std::vector<std::string> columns = {
      "shard",      "slot",      "workload", "outcome",    "latency",
      "inject_index", "bit",     "abort_type", "abort_msg", "model",
      "extra_bits", "upset"};
  std::vector<std::string> encodings = {
      "varint", "varint", "dict", "dict", "latency",
      "varint", "varint", "dict", "dict", "dict",
      "list",   "bitmap"};
  if (options.derive_root_cause) {
    columns.insert(columns.end(), {"pc", "opcode"});
    encodings.insert(encodings.end(), {"varint", "dict"});
  }
  ColumnStoreWriter writer(
      footer_for(manifest, trace.source_schema_version, columns, encodings));

  for (const auto& [begin, end] : group_ranges(records.size())) {
    const std::size_t rows = end - begin;
    std::vector<u64> shard(rows), slot(rows), latency(rows), inject(rows),
        bit(rows);
    std::vector<std::string> workload(rows), outcome(rows), abort_type(rows),
        abort_msg(rows), model(rows);
    std::vector<std::vector<u64>> extra_bits(rows);
    std::vector<bool> upset(rows);
    std::vector<u64> pc(rows);
    std::vector<std::string> opcode(rows, "?");  // "?" = site not derivable
    for (std::size_t i = 0; i < rows; ++i) {
      const auto& record = records[begin + i];
      const auto& trial = record.trial;
      shard[i] = record.shard;
      slot[i] = record.slot;
      workload[i] = trial.workload;
      outcome[i] = std::string(to_string(trial.outcome));
      latency[i] = encode_latency_value(trial.latency);
      inject[i] = trial.inject_index;
      bit[i] = trial.bit;
      abort_type[i] = trial.abort_type;
      abort_msg[i] = trial.abort_message;
      model[i] = trial.model;
      extra_bits[i] = trial.extra_bits;
      upset[i] = trial.upset;
      if (options.derive_root_cause) {
        const faultinject::VmGoldenPass* pass = passes.at(trial.workload);
        if (pass != nullptr && trial.inject_index < pass->records.size()) {
          const faultinject::VmGoldenRecord& site = pass->records[trial.inject_index];
          pc[i] = site.pc;
          const isa::DecodedInst inst = isa::decode(site.insn);
          opcode[i] = inst.valid ? isa::mnemonic(inst.op) : "?";
        }
      }
    }
    std::vector<std::string> segments = {
        encode_u64_column(shard),        encode_u64_column(slot),
        encode_dict_column(workload),    encode_dict_column(outcome),
        encode_u64_column(latency),      encode_u64_column(inject),
        encode_u64_column(bit),          encode_dict_column(abort_type),
        encode_dict_column(abort_msg),   encode_dict_column(model),
        encode_list_column(extra_bits),  encode_bool_column(upset)};
    if (options.derive_root_cause) {
      segments.push_back(encode_u64_column(pc));
      segments.push_back(encode_dict_column(opcode));
    }
    writer.add_group(rows, std::move(segments));
  }
  CompactResult result;
  result.rows = records.size();
  result.jsonl_bytes = jsonl_bytes;
  writer.write(store_path);
  {
    std::ifstream in(store_path, std::ios::binary | std::ios::ate);
    result.store_bytes = in ? static_cast<u64>(in.tellg()) : 0;
  }
  return result;
}

CompactResult compact_uarch(const std::string& store_path,
                            const faultinject::CampaignManifest& manifest,
                            const TraceLines& trace, u64 jsonl_bytes,
                            const CompactOptions& options) {
  const auto records = parse_lines<ParsedUarchTrial>(
      trace.lines, options.threads, faultinject::uarch_trial_from_jsonl);

  const std::vector<std::string> columns = {
      "shard",          "slot",        "workload",       "field",
      "entry",          "bit",         "field_name",     "storage",
      "protection",     "lat_exception", "lat_cfv",      "lat_hiconf",
      "lat_deadlock",   "lat_illegal_flow", "lat_cache_burst",
      "trace_diverged", "arch_corrupt", "uarch_equal",   "live_diff",
      "end_status",     "abort_type",  "abort_msg",      "abort_resource",
      "model",          "extra_bits",  "upset"};
  const std::vector<std::string> encodings = {
      "varint",  "varint",  "dict",    "varint",
      "varint",  "varint",  "dict",    "dict",
      "dict",    "latency", "latency", "latency",
      "latency", "latency", "latency",
      "bitmap",  "bitmap",  "bitmap",  "bitmap",
      "varint",  "dict",    "dict",    "bitmap",
      "dict",    "list",    "bitmap"};
  ColumnStoreWriter writer(
      footer_for(manifest, trace.source_schema_version, columns, encodings));

  for (const auto& [begin, end] : group_ranges(records.size())) {
    const std::size_t rows = end - begin;
    std::vector<u64> shard(rows), slot(rows), field(rows), entry(rows), bit(rows),
        lat_exception(rows), lat_cfv(rows), lat_hiconf(rows), lat_deadlock(rows),
        lat_illegal_flow(rows), lat_cache_burst(rows), end_status(rows);
    std::vector<std::string> workload(rows), field_name(rows), storage(rows),
        protection(rows), abort_type(rows), abort_msg(rows), model(rows);
    std::vector<bool> trace_diverged(rows), arch_corrupt(rows), uarch_equal(rows),
        live_diff(rows), abort_resource(rows), upset(rows);
    std::vector<std::vector<u64>> extra_bits(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      const auto& record = records[begin + i];
      const auto& trial = record.trial;
      shard[i] = record.shard;
      slot[i] = record.slot;
      workload[i] = trial.workload;
      field[i] = trial.bit.field;
      entry[i] = trial.bit.entry;
      bit[i] = trial.bit.bit;
      field_name[i] = trial.field_name;
      storage[i] = std::string(faultinject::to_string(trial.storage));
      protection[i] = std::string(faultinject::to_string(trial.protection));
      lat_exception[i] = encode_latency_value(trial.lat_exception);
      lat_cfv[i] = encode_latency_value(trial.lat_cfv);
      lat_hiconf[i] = encode_latency_value(trial.lat_hiconf);
      lat_deadlock[i] = encode_latency_value(trial.lat_deadlock);
      lat_illegal_flow[i] = encode_latency_value(trial.lat_illegal_flow);
      lat_cache_burst[i] = encode_latency_value(trial.lat_cache_burst);
      trace_diverged[i] = trial.trace_diverged;
      arch_corrupt[i] = trial.arch_corrupt_at_end;
      uarch_equal[i] = trial.uarch_state_equal;
      live_diff[i] = trial.live_state_diff;
      end_status[i] = static_cast<u64>(trial.end_status);
      abort_type[i] = trial.abort_type;
      abort_msg[i] = trial.abort_message;
      abort_resource[i] = trial.abort_resource;
      model[i] = trial.model;
      extra_bits[i] = trial.extra_bits;
      upset[i] = trial.upset;
    }
    std::vector<std::string> segments = {
        encode_u64_column(shard),
        encode_u64_column(slot),
        encode_dict_column(workload),
        encode_u64_column(field),
        encode_u64_column(entry),
        encode_u64_column(bit),
        encode_dict_column(field_name),
        encode_dict_column(storage),
        encode_dict_column(protection),
        encode_u64_column(lat_exception),
        encode_u64_column(lat_cfv),
        encode_u64_column(lat_hiconf),
        encode_u64_column(lat_deadlock),
        encode_u64_column(lat_illegal_flow),
        encode_u64_column(lat_cache_burst),
        encode_bool_column(trace_diverged),
        encode_bool_column(arch_corrupt),
        encode_bool_column(uarch_equal),
        encode_bool_column(live_diff),
        encode_u64_column(end_status),
        encode_dict_column(abort_type),
        encode_dict_column(abort_msg),
        encode_bool_column(abort_resource),
        encode_dict_column(model),
        encode_list_column(extra_bits),
        encode_bool_column(upset)};
    writer.add_group(rows, std::move(segments));
  }
  CompactResult result;
  result.rows = records.size();
  result.jsonl_bytes = jsonl_bytes;
  writer.write(store_path);
  {
    std::ifstream in(store_path, std::ios::binary | std::ios::ate);
    result.store_bytes = in ? static_cast<u64>(in.tellg()) : 0;
  }
  return result;
}

}  // namespace

CompactResult compact_trace(const std::string& jsonl_path,
                            const std::string& store_path,
                            const CompactOptions& options) {
  const auto manifest =
      faultinject::read_manifest(faultinject::manifest_path_for(jsonl_path));
  if (!manifest) {
    bad_trace("no manifest for " + jsonl_path +
              " — only completed campaigns compact");
  }
  u64 jsonl_bytes = 0;
  const TraceLines trace = read_trace_lines(jsonl_path, jsonl_bytes);
  if (manifest->kind == "vm") {
    return compact_vm(store_path, *manifest, trace, jsonl_bytes, options);
  }
  if (manifest->kind == "uarch") {
    return compact_uarch(store_path, *manifest, trace, jsonl_bytes, options);
  }
  bad_trace("unknown campaign kind '" + manifest->kind + "'");
}

std::vector<ParsedVmTrial> reconstruct_vm_group(const ColumnStoreReader& store,
                                                std::size_t g) {
  if (store.footer().kind != "vm") bad_trace("store is not a vm trace");
  std::vector<ParsedVmTrial> records;
  {
    const u64 rows = store.group_rows(g);
    records.reserve(rows);
    const auto shard = store.u64_column(g, "shard");
    const auto slot = store.u64_column(g, "slot");
    const auto workload = store.string_column(g, "workload");
    const auto outcome = store.string_column(g, "outcome");
    const auto latency = store.u64_column(g, "latency");
    const auto inject = store.u64_column(g, "inject_index");
    const auto bit = store.u64_column(g, "bit");
    const auto abort_type = store.string_column(g, "abort_type");
    const auto abort_msg = store.string_column(g, "abort_msg");
    const auto model = store.string_column(g, "model");
    const auto extra_bits = store.list_column(g, "extra_bits");
    const auto upset = store.bool_column(g, "upset");
    for (u64 i = 0; i < rows; ++i) {
      ParsedVmTrial record;
      record.shard = shard[i];
      record.slot = slot[i];
      record.trial.workload = workload[i];
      const auto parsed_outcome = faultinject::vm_outcome_from_string(outcome[i]);
      if (!parsed_outcome) bad_trace("store holds unknown outcome " + outcome[i]);
      record.trial.outcome = *parsed_outcome;
      record.trial.latency = decode_latency_value(latency[i]);
      record.trial.inject_index = inject[i];
      record.trial.bit = static_cast<u32>(bit[i]);
      record.trial.abort_type = abort_type[i];
      record.trial.abort_message = abort_msg[i];
      record.trial.model = model[i];
      record.trial.extra_bits = extra_bits[i];
      record.trial.upset = upset[i];
      records.push_back(std::move(record));
    }
  }
  return records;
}

std::vector<ParsedVmTrial> reconstruct_vm_trials(const ColumnStoreReader& store) {
  std::vector<ParsedVmTrial> records;
  records.reserve(store.footer().rows);
  for (std::size_t g = 0; g < store.group_count(); ++g) {
    auto group = reconstruct_vm_group(store, g);
    for (auto& record : group) records.push_back(std::move(record));
  }
  return records;
}

std::vector<ParsedUarchTrial> reconstruct_uarch_group(
    const ColumnStoreReader& store, std::size_t g) {
  if (store.footer().kind != "uarch") bad_trace("store is not a uarch trace");
  std::vector<ParsedUarchTrial> records;
  {
    const u64 rows = store.group_rows(g);
    records.reserve(rows);
    const auto shard = store.u64_column(g, "shard");
    const auto slot = store.u64_column(g, "slot");
    const auto workload = store.string_column(g, "workload");
    const auto field = store.u64_column(g, "field");
    const auto entry = store.u64_column(g, "entry");
    const auto bit = store.u64_column(g, "bit");
    const auto field_name = store.string_column(g, "field_name");
    const auto storage = store.string_column(g, "storage");
    const auto protection = store.string_column(g, "protection");
    const auto lat_exception = store.u64_column(g, "lat_exception");
    const auto lat_cfv = store.u64_column(g, "lat_cfv");
    const auto lat_hiconf = store.u64_column(g, "lat_hiconf");
    const auto lat_deadlock = store.u64_column(g, "lat_deadlock");
    const auto lat_illegal_flow = store.u64_column(g, "lat_illegal_flow");
    const auto lat_cache_burst = store.u64_column(g, "lat_cache_burst");
    const auto trace_diverged = store.bool_column(g, "trace_diverged");
    const auto arch_corrupt = store.bool_column(g, "arch_corrupt");
    const auto uarch_equal = store.bool_column(g, "uarch_equal");
    const auto live_diff = store.bool_column(g, "live_diff");
    const auto end_status = store.u64_column(g, "end_status");
    const auto abort_type = store.string_column(g, "abort_type");
    const auto abort_msg = store.string_column(g, "abort_msg");
    const auto abort_resource = store.bool_column(g, "abort_resource");
    const auto model = store.string_column(g, "model");
    const auto extra_bits = store.list_column(g, "extra_bits");
    const auto upset = store.bool_column(g, "upset");
    for (u64 i = 0; i < rows; ++i) {
      ParsedUarchTrial record;
      record.shard = shard[i];
      record.slot = slot[i];
      auto& trial = record.trial;
      trial.workload = workload[i];
      trial.bit.field = static_cast<u32>(field[i]);
      trial.bit.entry = static_cast<u32>(entry[i]);
      trial.bit.bit = static_cast<u32>(bit[i]);
      trial.field_name = field_name[i];
      const auto parsed_storage = faultinject::storage_from_string(storage[i]);
      const auto parsed_protection =
          faultinject::protection_from_string(protection[i]);
      if (!parsed_storage || !parsed_protection) {
        bad_trace("store holds unknown storage/protection token");
      }
      trial.storage = *parsed_storage;
      trial.protection = *parsed_protection;
      trial.lat_exception = decode_latency_value(lat_exception[i]);
      trial.lat_cfv = decode_latency_value(lat_cfv[i]);
      trial.lat_hiconf = decode_latency_value(lat_hiconf[i]);
      trial.lat_deadlock = decode_latency_value(lat_deadlock[i]);
      trial.lat_illegal_flow = decode_latency_value(lat_illegal_flow[i]);
      trial.lat_cache_burst = decode_latency_value(lat_cache_burst[i]);
      trial.trace_diverged = trace_diverged[i];
      trial.arch_corrupt_at_end = arch_corrupt[i];
      trial.uarch_state_equal = uarch_equal[i];
      trial.live_state_diff = live_diff[i];
      trial.end_status = static_cast<uarch::Core::Status>(end_status[i]);
      trial.abort_type = abort_type[i];
      trial.abort_message = abort_msg[i];
      trial.abort_resource = abort_resource[i];
      trial.model = model[i];
      trial.extra_bits = extra_bits[i];
      trial.upset = upset[i];
      records.push_back(std::move(record));
    }
  }
  return records;
}

std::vector<ParsedUarchTrial> reconstruct_uarch_trials(
    const ColumnStoreReader& store) {
  std::vector<ParsedUarchTrial> records;
  records.reserve(store.footer().rows);
  for (std::size_t g = 0; g < store.group_count(); ++g) {
    auto group = reconstruct_uarch_group(store, g);
    for (auto& record : group) records.push_back(std::move(record));
  }
  return records;
}

std::string reconstruct_trace_jsonl(const ColumnStoreReader& store) {
  std::string out;
  const StoreFooter& footer = store.footer();
  if (footer.source_schema_version >= 2) {
    out = faultinject::trace_header_line(footer.kind);
    out.push_back('\n');
  }
  if (footer.kind == "vm") {
    for (const auto& record : reconstruct_vm_trials(store)) {
      out += faultinject::vm_trial_to_jsonl(record.shard, record.slot, record.trial);
      out.push_back('\n');
    }
  } else {
    for (const auto& record : reconstruct_uarch_trials(store)) {
      out += faultinject::uarch_trial_to_jsonl(record.shard, record.slot,
                                               record.trial);
      out.push_back('\n');
    }
  }
  return out;
}

}  // namespace restore::analytics
