// Trace compaction: JSONL trial trace + sidecar manifest -> columnar store
// (column_store.hpp), and exact reconstruction back.
//
// Compaction parses trial lines in parallel (the only data-parallel stage),
// then encodes columns sequentially in the trace's line order, so the output
// bytes are identical at any thread count. For vm traces it also derives the
// root-cause columns — the pc and opcode mnemonic of the corrupted
// instruction — by indexing each workload's VM golden pass
// (faultinject::vm_golden_pass, shared with any campaign in the same process)
// with `inject_index`; derived columns are analysis products and take no part
// in the round trip.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analytics/column_store.hpp"
#include "faultinject/campaign_io.hpp"

namespace restore::analytics {

struct CompactOptions {
  std::size_t threads = 0;  // JSONL parse parallelism; 0 = inline
  // Derive vm root-cause pc/opcode columns from each workload's golden pass.
  // Off saves building the passes when only outcome/latency queries are
  // needed (the columns are then absent from the store).
  bool derive_root_cause = true;
};

struct CompactResult {
  u64 rows = 0;
  u64 jsonl_bytes = 0;  // source trace size
  u64 store_bytes = 0;  // compacted size
};

// Compact `jsonl_path` (manifest required at manifest_path_for(jsonl_path))
// into `store_path`, atomically. Throws std::runtime_error on a missing or
// malformed trace/manifest.
CompactResult compact_trace(const std::string& jsonl_path,
                            const std::string& store_path,
                            const CompactOptions& options = {});

// Reconstruct the typed records of one row group, in stored (source line)
// order — the query engine's unit of streaming.
std::vector<faultinject::ParsedVmTrial> reconstruct_vm_group(
    const ColumnStoreReader& store, std::size_t group);
std::vector<faultinject::ParsedUarchTrial> reconstruct_uarch_group(
    const ColumnStoreReader& store, std::size_t group);

// Reconstruct the typed records of the whole store.
std::vector<faultinject::ParsedVmTrial> reconstruct_vm_trials(
    const ColumnStoreReader& store);
std::vector<faultinject::ParsedUarchTrial> reconstruct_uarch_trials(
    const ColumnStoreReader& store);

// Reconstruct the canonical trace bytes: the v2 header line (when the source
// had one) followed by every trial line, exactly as campaign_io serializes
// them — byte-identical to the complete source trace.
std::string reconstruct_trace_jsonl(const ColumnStoreReader& store);

}  // namespace restore::analytics
