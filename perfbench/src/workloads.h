// The three benchmark workloads and the stacks they drive.
//
//   local_zipf      Frontend -> QueryEngine -> sharded(flat), in process,
//                   Zipf-popular stream over ~1k random-wildcard templates.
//   remote_uniform  the same front door and engine over sharded(remote):
//                   four EventShardServers on 127.0.0.1, one pipelined
//                   wire-v2 connection per shard, nearly every query
//                   distinct.
//   ingest_sweep    Coordinator over four fresh shard servers through
//                   RemoteDistWorkers: BulkLoad, then the full fig-1 Sweep.
//
// Every host-derived setting (thread counts, windows, budgets, task
// sizes) is pinned in the workload configs below; the seed only selects
// the generated records and queries.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dist/coordinator.h"
#include "engine/query_engine.h"
#include "front/frontend.h"
#include "hashing/multikey_hash.h"
#include "net/event_shard_server.h"
#include "sim/storage_backend.h"

namespace perfbench {

struct QueryWorkload {
  std::string name;
  bool remote = false;
  std::vector<std::uint64_t> field_sizes;  ///< F_i
  std::uint64_t devices = 0;               ///< M (= shard count)
  std::uint64_t records = 0;
  std::uint64_t domain = 0;                ///< distinct values per field
  double specified_probability = 0.5;
  /// Queries with fewer specified fields are redrawn, so no query asks
  /// for a whole-file dump (see README.md).
  unsigned min_specified = 4;
  /// > 0: Zipf stream over this many templates; 0: every query drawn
  /// from the whole record pool.
  std::size_t templates = 0;
  double zipf_theta = 0.0;
  unsigned clients = 4;
  // Pinned serving settings.
  unsigned engine_threads = 4;
  /// ResultCache budget, one value for both query workloads.  It holds
  /// local_zipf's hot results but not its Zipf tail, so the stream sends
  /// the tail's queries to the engine.  Shards and TTL keep the program's
  /// defaults (16 shards, no expiry).
  std::uint64_t cache_bytes = 768ull << 10;
  unsigned server_workers = 2;
  std::size_t mux_window = 32;
  std::size_t insert_chunk = 16384;  ///< records per setup InsertBatch call
  std::uint64_t placement_seed = 42;
};

struct IngestWorkload {
  std::vector<std::uint64_t> field_sizes;
  std::uint64_t devices = 0;
  std::uint64_t domain = 0;
  std::uint64_t records_per_job = 0;
  unsigned workers = 4;
  std::uint64_t records_per_task = 0;
  std::uint64_t buckets_per_task = 0;
  unsigned server_workers = 2;
  std::size_t mux_window = 32;
  std::uint64_t placement_seed = 42;
};

QueryWorkload LocalZipf();
QueryWorkload RemoteUniform();
IngestWorkload IngestSweep();

fxdist::Schema MakeSchema(const std::vector<std::uint64_t>& field_sizes);
std::vector<fxdist::Record> MakeRecords(const QueryWorkload& workload,
                                        std::uint64_t seed);
/// The template set of a Zipf workload (empty for a uniform one).
std::vector<fxdist::ValueQuery> MakeTemplates(
    const QueryWorkload& workload, const std::vector<fxdist::Record>& pool,
    std::uint64_t seed);

/// One client's deterministic query stream: a pure function of (seed,
/// client), so the verifier can replay exactly what a client sent.
class QueryStream {
 public:
  QueryStream(const QueryWorkload& workload,
              const std::vector<fxdist::Record>& pool,
              const std::vector<fxdist::ValueQuery>& templates,
              std::uint64_t seed, unsigned client);
  ~QueryStream();
  QueryStream(QueryStream&&) noexcept;
  QueryStream(const QueryStream&) = delete;
  QueryStream& operator=(const QueryStream&) = delete;

  /// Next query; `template_index` is set for template streams.
  fxdist::ValueQuery Next(std::size_t* template_index);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Number of fields a query specifies (the rest are wildcards).
unsigned SpecifiedFields(const fxdist::ValueQuery& query);

/// Order-independent digest of a record multiset.
std::uint64_t RecordsDigest(const std::vector<fxdist::Record>& records);

/// Backend(s), servers, engine and front door of one query workload.
/// With `traced`, every shard child, server backend, transport and the
/// top-level backend is wrapped in its timing decorator.
class ServingStack {
 public:
  static fxdist::Result<std::unique_ptr<ServingStack>> Build(
      const QueryWorkload& workload, const std::vector<fxdist::Record>& records,
      bool traced);
  ~ServingStack();
  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  fxdist::Frontend& frontend() { return *frontend_; }
  fxdist::QueryEngine& engine() { return *engine_; }
  /// ApproxMemoryBytes summed over the backends that hold the records
  /// (shard children in process, server backends for remote).
  std::uint64_t StoredBytes() const;
  /// Protocol errors and read pauses, summed over the servers.
  fxdist::EventServerStats ServerStats() const;

 private:
  ServingStack() = default;

  std::vector<std::unique_ptr<fxdist::StorageBackend>> server_backends_;
  std::vector<std::unique_ptr<fxdist::StorageBackend>> server_decorators_;
  std::vector<std::unique_ptr<fxdist::EventShardServer>> servers_;
  std::vector<const fxdist::StorageBackend*> storage_;  ///< StoredBytes
  std::unique_ptr<fxdist::StorageBackend> top_;
  std::unique_ptr<fxdist::QueryEngine> engine_;
  std::unique_ptr<fxdist::Frontend> frontend_;
};

/// Four fresh shard servers plus a coordinator over them.
class IngestFleet {
 public:
  static fxdist::Result<std::unique_ptr<IngestFleet>> Start(
      const IngestWorkload& workload, bool traced);
  ~IngestFleet();
  IngestFleet(const IngestFleet&) = delete;
  IngestFleet& operator=(const IngestFleet&) = delete;

  fxdist::Coordinator& coordinator() { return *coordinator_; }
  std::uint64_t StoredBytes() const;
  fxdist::EventServerStats ServerStats() const;
  /// Per-device record counts of every server backend, in worker order.
  std::vector<std::vector<std::uint64_t>> ServerRecordCounts() const;

 private:
  IngestFleet() = default;

  std::vector<std::unique_ptr<fxdist::StorageBackend>> backends_;
  std::vector<std::unique_ptr<fxdist::StorageBackend>> decorators_;
  std::vector<std::unique_ptr<fxdist::EventShardServer>> servers_;
  std::unique_ptr<fxdist::Coordinator> coordinator_;
};

fxdist::IngestSpec MakeIngestSpec(const IngestWorkload& workload,
                                  std::uint64_t seed);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string span_dir;  ///< where the traced run writes its spans
};

struct RunReport {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

bool IsWorkload(const std::string& name);
/// Runs one workload; prints its human-readable report to stdout.
RunReport RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
