// Span recording and the timing decorators of the traced run.
//
// The traced run wraps the program's public extension points from the
// outside: a StorageBackend decorator on the top-level serving backend,
// on every shard child and on every server-side backend, a Transport
// decorator under every RemoteBackend, and a DistWorker decorator under
// the coordinator.  Each decorator forwards every virtual to the wrapped
// object and records one span per heavy call (scans, inserts, query
// hashing, round trips, coordinator tasks).  Cheap per-bucket calls
// (IsBucketLive, ServingDevice, ...) are forwarded without a span so the
// traced path does not drown in bookkeeping.
//
// Spans live in per-thread buffers (no lock on the recording path), carry
// the enclosing span of the same thread as their parent, and are drained
// once every traced thread has been joined.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dist/coordinator.h"
#include "net/transport.h"
#include "sim/storage_backend.h"

namespace perfbench {

enum class SpanKind : std::uint16_t {
  kClientQuery,   ///< Frontend::Submit until the future is ready
  kFrontSubmit,   ///< time inside Frontend::Submit
  kHashQuery,     ///< StorageBackend::HashQuery on the serving backend
  kChildScan,     ///< ScanMany/ScanBucket on a shard child (arg: buckets)
  kChildInsert,   ///< Insert/InsertBatch on a shard child (arg: records)
  kServerScan,    ///< ScanMany/ScanBucket on a server backend
  kServerInsert,  ///< Insert/InsertBatch on a server backend
  kRpc,           ///< Transport::RoundTrip (arg: bytes, unit: wire op)
  kDistIngest,    ///< DistWorker::Ingest (arg: records)
  kDistAnalyze,   ///< DistWorker::Analyze (arg: buckets)
};

const char* SpanName(SpanKind kind);

struct Span {
  std::int64_t start_ns = 0;  ///< steady clock, ns
  std::int64_t end_ns = 0;
  std::uint64_t arg = 0;      ///< kind-specific count (see SpanKind)
  std::int64_t parent = -1;   ///< index into the drained vector, -1: none
  std::uint32_t unit = 0;     ///< shard / worker index, or wire op
  std::uint16_t kind = 0;
  std::uint16_t thread = 0;

  double micros() const {
    return static_cast<double>(end_ns - start_ns) / 1e3;
  }
};

std::int64_t NowNs();

/// Process-wide span store.  Recording is off until Enable(true).
class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled();
  /// Opens a span on this thread; returns a handle for End (-1 when
  /// tracing is off or the span budget is spent).
  static std::int64_t Begin(SpanKind kind, std::uint32_t unit);
  static void End(std::int64_t handle, std::uint64_t arg);
  /// Moves every recorded span out, parents remapped to indices of the
  /// returned vector.  Call only after every recording thread has been
  /// joined or is idle.
  static std::vector<Span> Drain();
  /// Spans refused because the budget was spent.
  static std::uint64_t dropped();
  /// When the first span was refused (0: never); spans after it are
  /// missing, so windowed figures must end there.
  static std::int64_t exhausted_ns();
  /// Discards every span and clears the budget counters.
  static void Reset();
  /// Writes spans as CSV (kind,thread,start_ns,end_ns,parent,unit,arg).
  static bool WriteCsv(const std::string& path, const std::vector<Span>& spans);
};

/// RAII span; `arg` may be set before the scope closes.
class ScopedSpan {
 public:
  ScopedSpan(SpanKind kind, std::uint32_t unit = 0)
      : handle_(Tracer::Begin(kind, unit)) {}
  ~ScopedSpan() { Tracer::End(handle_, arg); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t arg = 0;

 private:
  std::int64_t handle_;
};

/// StorageBackend decorator.  Forwards every virtual; records spans for
/// HashQuery (top role), scans and inserts (child and server roles).
class TimingBackend final : public fxdist::StorageBackend {
 public:
  enum class Role { kTop, kChild, kServer };

  /// Owning: the decorator destroys `inner` with itself.
  TimingBackend(std::unique_ptr<fxdist::StorageBackend> inner, Role role,
                std::uint32_t unit);
  /// Non-owning: `inner` must outlive the decorator.
  TimingBackend(fxdist::StorageBackend& inner, Role role, std::uint32_t unit);

  std::uint64_t MutationEpoch() const override;
  std::string backend_name() const override;
  const fxdist::FieldSpec& spec() const override;
  const fxdist::DistributionMethod& method() const override;
  const fxdist::DeviceMap& device_map() const override;
  std::uint64_t num_records() const override;
  fxdist::Status Insert(fxdist::Record record) override;
  fxdist::Status InsertBatch(std::vector<fxdist::Record> records) override;
  fxdist::Result<std::uint64_t> Delete(
      const fxdist::ValueQuery& query) override;
  fxdist::Result<fxdist::PartialMatchQuery> HashQuery(
      const fxdist::ValueQuery& query) const override;
  fxdist::Result<fxdist::BucketId> HashRecord(
      const fxdist::Record& record) const override;
  std::uint64_t ServingDevice(std::uint64_t device,
                              std::uint64_t linear_bucket) const override;
  bool HasDegradedRouting() const override;
  fxdist::Status Health() const override;
  bool IsBucketLive(std::uint64_t device,
                    std::uint64_t linear_bucket) const override;
  void ScanBucket(
      std::uint64_t device, std::uint64_t linear_bucket,
      const std::function<bool(const fxdist::Record&)>& fn) const override;
  void ScanMany(const std::vector<fxdist::BucketRef>& refs,
                const std::function<bool(std::size_t, const fxdist::Record&)>&
                    fn) const override;
  bool ScanPrefersFanout() const override;
  bool ScanRecordsAreStable() const override;
  bool IsReadOnly() const override;
  std::uint64_t TopologyVersion() const override;
  std::uint64_t BucketsInMigration() const override;
  const fxdist::StorageBackend& ServingPlane() const override;
  std::vector<fxdist::ValueType> FieldTypes() const override;
  std::uint64_t ApproxMemoryBytes() const override;
  fxdist::Result<fxdist::QueryResult> Execute(
      const fxdist::ValueQuery& query) const override;
  std::vector<std::uint64_t> RecordCountsPerDevice() const override;
  void SaveParams(std::ostream& out) const override;
  void ForEachLiveRecord(
      const std::function<void(const fxdist::Record&)>& fn) const override;

  fxdist::StorageBackend& inner() { return inner_; }

 private:
  SpanKind ScanKind() const {
    return role_ == Role::kServer ? SpanKind::kServerScan
                                  : SpanKind::kChildScan;
  }
  SpanKind InsertKind() const {
    return role_ == Role::kServer ? SpanKind::kServerInsert
                                  : SpanKind::kChildInsert;
  }

  std::unique_ptr<fxdist::StorageBackend> owned_;
  fxdist::StorageBackend& inner_;
  const Role role_;
  const std::uint32_t unit_;
};

/// Transport decorator: one kRpc span per round trip, tagged with the
/// request's wire op (read from the frame header via DecodeFrame) and
/// the request + reply byte count.
class TimingTransport final : public fxdist::Transport {
 public:
  TimingTransport(std::unique_ptr<fxdist::Transport> inner,
                  std::uint32_t shard)
      : inner_(std::move(inner)), shard_(shard) {}

  fxdist::Result<std::string> RoundTrip(const std::string& request) override;

 private:
  std::unique_ptr<fxdist::Transport> inner_;
  const std::uint32_t shard_;
};

/// DistWorker decorator: one span per Ingest / Analyze task.
class TimingDistWorker final : public fxdist::DistWorker {
 public:
  TimingDistWorker(std::unique_ptr<fxdist::DistWorker> inner,
                   std::uint32_t unit)
      : inner_(std::move(inner)), unit_(unit) {}

  std::string name() const override { return inner_->name(); }
  fxdist::Status Ingest(const std::vector<fxdist::Record>& records,
                        std::uint64_t token) override;
  fxdist::Result<fxdist::RangePartial> Analyze(std::uint64_t mask,
                                               std::uint64_t start,
                                               std::uint64_t end) override;
  fxdist::Result<std::uint64_t> NumRecords() const override {
    return inner_->NumRecords();
  }
  const fxdist::DeviceMap* placement() const override {
    return inner_->placement();
  }

 private:
  std::unique_ptr<fxdist::DistWorker> inner_;
  const std::uint32_t unit_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
