#include "trace.h"

#include <chrono>
#include <fstream>
#include <mutex>

#include "net/wire.h"

namespace perfbench {

using fxdist::BucketRef;
using fxdist::Record;
using fxdist::Result;
using fxdist::Status;
using fxdist::StorageBackend;
using fxdist::ValueQuery;

namespace {

// Enough for several seconds of the busiest traced workload; past it,
// spans are counted as dropped instead of growing memory without bound.
constexpr std::uint64_t kSpanBudget = 2'000'000;

struct ThreadBuffer {
  std::vector<Span> spans;        // parent: index into this buffer
  std::vector<std::int64_t> open;  // stack of open span indices
  std::uint16_t thread = 0;
};

std::mutex g_registry_mutex;
std::vector<std::shared_ptr<ThreadBuffer>> g_buffers;  // guarded
std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_recorded{0};
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<std::int64_t> g_exhausted_ns{0};
thread_local std::shared_ptr<ThreadBuffer> t_buffer;

ThreadBuffer& LocalBuffer() {
  if (!t_buffer) {
    auto buffer = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    buffer->thread = static_cast<std::uint16_t>(g_buffers.size());
    g_buffers.push_back(buffer);
    t_buffer = std::move(buffer);
  }
  return *t_buffer;
}

}  // namespace

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kClientQuery: return "client.query";
    case SpanKind::kFrontSubmit: return "front.submit";
    case SpanKind::kHashQuery: return "hashing.hash_query";
    case SpanKind::kChildScan: return "child.scan";
    case SpanKind::kChildInsert: return "child.insert";
    case SpanKind::kServerScan: return "server.scan";
    case SpanKind::kServerInsert: return "server.insert";
    case SpanKind::kRpc: return "net.rpc";
    case SpanKind::kDistIngest: return "dist.ingest";
    case SpanKind::kDistAnalyze: return "dist.analyze";
  }
  return "?";
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::Enable(bool on) { g_enabled.store(on, std::memory_order_release); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_acquire); }

std::int64_t Tracer::Begin(SpanKind kind, std::uint32_t unit) {
  if (!enabled()) return -1;
  if (g_recorded.fetch_add(1, std::memory_order_relaxed) >= kSpanBudget) {
    if (g_dropped.fetch_add(1, std::memory_order_relaxed) == 0) {
      g_exhausted_ns.store(NowNs(), std::memory_order_relaxed);
    }
    return -1;
  }
  ThreadBuffer& buffer = LocalBuffer();
  Span span;
  span.kind = static_cast<std::uint16_t>(kind);
  span.unit = unit;
  span.thread = buffer.thread;
  span.parent = buffer.open.empty() ? -1 : buffer.open.back();
  const auto index = static_cast<std::int64_t>(buffer.spans.size());
  buffer.open.push_back(index);
  span.start_ns = NowNs();
  buffer.spans.push_back(span);
  return index;
}

void Tracer::End(std::int64_t handle, std::uint64_t arg) {
  if (handle < 0) return;
  const std::int64_t now = NowNs();
  ThreadBuffer& buffer = *t_buffer;
  Span& span = buffer.spans[static_cast<std::size_t>(handle)];
  span.end_ns = now;
  span.arg = arg;
  buffer.open.pop_back();
}

std::vector<Span> Tracer::Drain() {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& buffer : g_buffers) {
    const auto offset = static_cast<std::int64_t>(out.size());
    for (Span span : buffer->spans) {
      if (span.parent >= 0) span.parent += offset;
      out.push_back(span);
    }
    buffer->spans.clear();
    buffer->open.clear();
  }
  g_recorded.store(0, std::memory_order_relaxed);
  return out;
}

std::uint64_t Tracer::dropped() {
  return g_dropped.load(std::memory_order_relaxed);
}

std::int64_t Tracer::exhausted_ns() {
  return g_exhausted_ns.load(std::memory_order_relaxed);
}

void Tracer::Reset() {
  Drain();
  g_dropped.store(0, std::memory_order_relaxed);
  g_exhausted_ns.store(0, std::memory_order_relaxed);
}

bool Tracer::WriteCsv(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  out << "kind,thread,start_ns,end_ns,parent,unit,arg\n";
  for (const Span& s : spans) {
    out << SpanName(static_cast<SpanKind>(s.kind)) << ',' << s.thread << ','
        << s.start_ns << ',' << s.end_ns << ',' << s.parent << ',' << s.unit
        << ',' << s.arg << '\n';
  }
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------
// TimingBackend

TimingBackend::TimingBackend(std::unique_ptr<StorageBackend> inner, Role role,
                             std::uint32_t unit)
    : owned_(std::move(inner)), inner_(*owned_), role_(role), unit_(unit) {}

TimingBackend::TimingBackend(StorageBackend& inner, Role role,
                             std::uint32_t unit)
    : inner_(inner), role_(role), unit_(unit) {}

std::uint64_t TimingBackend::MutationEpoch() const {
  return inner_.MutationEpoch();
}
std::string TimingBackend::backend_name() const {
  return inner_.backend_name();
}
const fxdist::FieldSpec& TimingBackend::spec() const { return inner_.spec(); }
const fxdist::DistributionMethod& TimingBackend::method() const {
  return inner_.method();
}
const fxdist::DeviceMap& TimingBackend::device_map() const {
  return inner_.device_map();
}
std::uint64_t TimingBackend::num_records() const {
  return inner_.num_records();
}

Status TimingBackend::Insert(Record record) {
  ScopedSpan span(InsertKind(), unit_);
  span.arg = 1;
  return inner_.Insert(std::move(record));
}

Status TimingBackend::InsertBatch(std::vector<Record> records) {
  ScopedSpan span(InsertKind(), unit_);
  span.arg = records.size();
  return inner_.InsertBatch(std::move(records));
}

Result<std::uint64_t> TimingBackend::Delete(const ValueQuery& query) {
  return inner_.Delete(query);
}

Result<fxdist::PartialMatchQuery> TimingBackend::HashQuery(
    const ValueQuery& query) const {
  if (role_ != Role::kTop) return inner_.HashQuery(query);
  ScopedSpan span(SpanKind::kHashQuery, unit_);
  return inner_.HashQuery(query);
}

Result<fxdist::BucketId> TimingBackend::HashRecord(const Record& record) const {
  return inner_.HashRecord(record);
}
std::uint64_t TimingBackend::ServingDevice(std::uint64_t device,
                                           std::uint64_t linear_bucket) const {
  return inner_.ServingDevice(device, linear_bucket);
}
bool TimingBackend::HasDegradedRouting() const {
  return inner_.HasDegradedRouting();
}
Status TimingBackend::Health() const { return inner_.Health(); }
bool TimingBackend::IsBucketLive(std::uint64_t device,
                                 std::uint64_t linear_bucket) const {
  return inner_.IsBucketLive(device, linear_bucket);
}

void TimingBackend::ScanBucket(
    std::uint64_t device, std::uint64_t linear_bucket,
    const std::function<bool(const Record&)>& fn) const {
  if (role_ == Role::kTop) return inner_.ScanBucket(device, linear_bucket, fn);
  ScopedSpan span(ScanKind(), unit_);
  span.arg = 1;
  inner_.ScanBucket(device, linear_bucket, fn);
}

void TimingBackend::ScanMany(
    const std::vector<BucketRef>& refs,
    const std::function<bool(std::size_t, const Record&)>& fn) const {
  if (role_ == Role::kTop) return inner_.ScanMany(refs, fn);
  ScopedSpan span(ScanKind(), unit_);
  span.arg = refs.size();
  inner_.ScanMany(refs, fn);
}

bool TimingBackend::ScanPrefersFanout() const {
  return inner_.ScanPrefersFanout();
}
bool TimingBackend::ScanRecordsAreStable() const {
  return inner_.ScanRecordsAreStable();
}
bool TimingBackend::IsReadOnly() const { return inner_.IsReadOnly(); }
std::uint64_t TimingBackend::TopologyVersion() const {
  return inner_.TopologyVersion();
}
std::uint64_t TimingBackend::BucketsInMigration() const {
  return inner_.BucketsInMigration();
}
const StorageBackend& TimingBackend::ServingPlane() const {
  return inner_.ServingPlane();
}
std::vector<fxdist::ValueType> TimingBackend::FieldTypes() const {
  return inner_.FieldTypes();
}
std::uint64_t TimingBackend::ApproxMemoryBytes() const {
  return inner_.ApproxMemoryBytes();
}
Result<fxdist::QueryResult> TimingBackend::Execute(
    const ValueQuery& query) const {
  return inner_.Execute(query);
}
std::vector<std::uint64_t> TimingBackend::RecordCountsPerDevice() const {
  return inner_.RecordCountsPerDevice();
}
void TimingBackend::SaveParams(std::ostream& out) const {
  inner_.SaveParams(out);
}
void TimingBackend::ForEachLiveRecord(
    const std::function<void(const Record&)>& fn) const {
  inner_.ForEachLiveRecord(fn);
}

// ---------------------------------------------------------------------
// TimingTransport / TimingDistWorker

Result<std::string> TimingTransport::RoundTrip(const std::string& request) {
  std::uint32_t op = 0;
  if (auto frame = fxdist::DecodeFrame(request, fxdist::kWireMaxPayloadCeiling);
      frame.ok()) {
    op = static_cast<std::uint32_t>(frame->op);
  }
  ScopedSpan span(SpanKind::kRpc, (op << 16) | shard_);
  auto reply = inner_->RoundTrip(request);
  span.arg = request.size() + (reply.ok() ? reply->size() : 0);
  return reply;
}

Status TimingDistWorker::Ingest(const std::vector<Record>& records,
                                std::uint64_t token) {
  ScopedSpan span(SpanKind::kDistIngest, unit_);
  span.arg = records.size();
  return inner_->Ingest(records, token);
}

Result<fxdist::RangePartial> TimingDistWorker::Analyze(std::uint64_t mask,
                                                       std::uint64_t start,
                                                       std::uint64_t end) {
  ScopedSpan span(SpanKind::kDistAnalyze, unit_);
  span.arg = end - start;
  return inner_->Analyze(mask, start, end);
}

}  // namespace perfbench
