#include "workloads.h"

#include <bit>
#include <cstring>

#include "net/backend_spec.h"
#include "net/mux_transport.h"
#include "net/remote_backend.h"
#include "net/socket_transport.h"
#include "sim/composite_backend.h"
#include "trace.h"
#include "util/random.h"
#include "workload/query_gen.h"
#include "workload/record_gen.h"

namespace perfbench {

using fxdist::Record;
using fxdist::Result;
using fxdist::Status;
using fxdist::StorageBackend;
using fxdist::ValueQuery;

QueryWorkload LocalZipf() {
  QueryWorkload w;
  w.name = "local_zipf";
  w.remote = false;
  // Four fields smaller than M = 16, so FX is not always strict optimal.
  w.field_sizes = {2, 2, 4, 4, 8, 16};
  w.devices = 16;
  w.records = 1u << 18;
  w.domain = 512;
  w.templates = 1024;
  w.zipf_theta = 1.1;
  return w;
}

QueryWorkload RemoteUniform() {
  QueryWorkload w = LocalZipf();
  w.name = "remote_uniform";
  w.remote = true;
  w.devices = 4;
  w.templates = 0;
  w.zipf_theta = 0.0;
  return w;
}

IngestWorkload IngestSweep() {
  IngestWorkload w;
  w.field_sizes = {8, 8, 8, 16, 8, 8};
  w.devices = 16;
  w.domain = 512;
  w.records_per_job = 1u << 17;
  w.workers = 4;
  w.records_per_task = 16384;
  w.buckets_per_task = 65536;
  return w;
}

fxdist::Schema MakeSchema(const std::vector<std::uint64_t>& field_sizes) {
  std::vector<fxdist::FieldDecl> fields;
  for (std::size_t i = 0; i < field_sizes.size(); ++i) {
    fields.push_back(
        {"f" + std::to_string(i), fxdist::ValueType::kInt64, field_sizes[i]});
  }
  return fxdist::Schema::Create(std::move(fields)).value();
}

namespace {

std::uint64_t Mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t salt) {
  return Mix64(seed * 0x9e3779b97f4a7c15ull + salt);
}

std::vector<fxdist::FieldDistribution> UniformDistributions(
    std::size_t fields, std::uint64_t domain) {
  fxdist::FieldDistribution d;
  d.kind = fxdist::FieldDistribution::Kind::kUniform;
  d.domain = domain;
  return std::vector<fxdist::FieldDistribution>(fields, d);
}

std::uint64_t ValueHash(const fxdist::FieldValue& value) {
  if (const auto* i = std::get_if<std::int64_t>(&value)) {
    return Mix64(static_cast<std::uint64_t>(*i));
  }
  if (const auto* d = std::get_if<double>(&value)) {
    return Mix64(std::bit_cast<std::uint64_t>(*d) ^ 0x5555);
  }
  return Mix64(std::hash<std::string>{}(std::get<std::string>(value)) ^ 0xaaaa);
}

}  // namespace

unsigned SpecifiedFields(const ValueQuery& query) {
  unsigned n = 0;
  for (const auto& v : query) n += v.has_value() ? 1u : 0u;
  return n;
}

std::vector<Record> MakeRecords(const QueryWorkload& workload,
                                std::uint64_t seed) {
  auto gen = fxdist::RecordGenerator::Create(
                 MakeSchema(workload.field_sizes),
                 UniformDistributions(workload.field_sizes.size(),
                                      workload.domain),
                 DeriveSeed(seed, 1))
                 .value();
  return gen.Take(workload.records);
}

namespace {

ValueQuery DrawQuery(fxdist::QueryGenerator& gen, unsigned min_specified) {
  for (;;) {
    ValueQuery q = gen.Next();
    if (SpecifiedFields(q) >= min_specified) return q;
  }
}

}  // namespace

std::vector<ValueQuery> MakeTemplates(const QueryWorkload& workload,
                                      const std::vector<Record>& pool,
                                      std::uint64_t seed) {
  std::vector<ValueQuery> templates;
  if (workload.templates == 0) return templates;
  auto gen = fxdist::QueryGenerator::Create(
                 &pool, workload.specified_probability, DeriveSeed(seed, 2))
                 .value();
  templates.reserve(workload.templates);
  for (std::size_t i = 0; i < workload.templates; ++i) {
    templates.push_back(DrawQuery(gen, workload.min_specified));
  }
  return templates;
}

struct QueryStream::State {
  State(const QueryWorkload& w, const std::vector<Record>& pool,
        const std::vector<ValueQuery>& t, std::uint64_t seed)
      : min_specified(w.min_specified),
        templates(&t),
        gen(fxdist::QueryGenerator::Create(&pool, w.specified_probability,
                                           seed)
                .value()),
        rng(seed) {
    if (!t.empty()) zipf = std::make_unique<fxdist::ZipfSampler>(
        t.size(), w.zipf_theta);
  }

  unsigned min_specified;
  const std::vector<ValueQuery>* templates;
  fxdist::QueryGenerator gen;
  fxdist::Xoshiro256 rng;
  std::unique_ptr<fxdist::ZipfSampler> zipf;
};

QueryStream::QueryStream(const QueryWorkload& workload,
                         const std::vector<Record>& pool,
                         const std::vector<ValueQuery>& templates,
                         std::uint64_t seed, unsigned client)
    : state_(std::make_unique<State>(workload, pool, templates,
                                     DeriveSeed(seed, 100 + client))) {}

QueryStream::~QueryStream() = default;
QueryStream::QueryStream(QueryStream&&) noexcept = default;

ValueQuery QueryStream::Next(std::size_t* template_index) {
  if (state_->zipf) {
    const std::size_t i =
        static_cast<std::size_t>(state_->zipf->Sample(&state_->rng)) %
        state_->templates->size();
    *template_index = i;
    return (*state_->templates)[i];
  }
  *template_index = 0;
  return DrawQuery(state_->gen, state_->min_specified);
}

std::uint64_t RecordsDigest(const std::vector<Record>& records) {
  std::uint64_t digest = 0;
  for (const Record& record : records) {
    std::uint64_t h = 0x6a09e667f3bcc909ull;
    for (const auto& value : record) h = Mix64(h ^ ValueHash(value));
    digest += Mix64(h);
  }
  return digest;
}

// ---------------------------------------------------------------------
// Stacks

namespace {

fxdist::RemoteBackend::Options RemoteOptions(std::size_t window) {
  fxdist::RemoteBackend::Options options;
  options.pipeline_window = window;
  return options;
}

/// Dials a shard the way RemoteBackend::ConnectTcp does (a MuxTransport
/// over a SocketFrameChannel), with a TimingTransport slotted between the
/// mux and the backend when traced.
Result<std::unique_ptr<fxdist::RemoteBackend>> ConnectShard(
    std::uint16_t port, fxdist::RemoteBackend::Options options, bool traced,
    std::uint32_t unit) {
  const std::string host_port = "127.0.0.1:" + std::to_string(port);
  if (!traced) return fxdist::RemoteBackend::ConnectTcp(host_port, options);
  fxdist::SocketTransportOptions socket_options;
  socket_options.io_timeout_ms = options.deadline_ms;
  auto channel =
      fxdist::SocketFrameChannel::ConnectSpec(host_port, socket_options);
  FXDIST_RETURN_NOT_OK(channel.status());
  fxdist::MuxTransportOptions mux_options;
  mux_options.window = options.pipeline_window;
  mux_options.call_timeout_ms =
      static_cast<std::uint64_t>(std::max(1, options.deadline_ms));
  auto transport = std::make_unique<TimingTransport>(
      std::make_unique<fxdist::MuxTransport>(*std::move(channel), mux_options),
      unit);
  return fxdist::RemoteBackend::Connect(std::move(transport),
                                        std::move(options));
}

Result<std::unique_ptr<fxdist::EventShardServer>> StartServer(
    StorageBackend& backend, unsigned workers) {
  fxdist::EventShardServerOptions options;
  options.workers = workers;
  return fxdist::EventShardServer::Start(backend, options);
}

fxdist::EventServerStats SumStats(
    const std::vector<std::unique_ptr<fxdist::EventShardServer>>& servers) {
  fxdist::EventServerStats sum;
  for (const auto& server : servers) {
    const fxdist::EventServerStats s = server->Stats();
    sum.protocol_errors += s.protocol_errors;
    sum.reads_paused += s.reads_paused;
  }
  return sum;
}

}  // namespace

Result<std::unique_ptr<ServingStack>> ServingStack::Build(
    const QueryWorkload& w, const std::vector<Record>& records, bool traced) {
  std::unique_ptr<ServingStack> stack(new ServingStack());
  const fxdist::Schema schema = MakeSchema(w.field_sizes);
  std::vector<std::unique_ptr<StorageBackend>> children;
  for (std::uint32_t s = 0; s < w.devices; ++s) {
    auto backend = fxdist::MakeChildBackend("flat", schema, w.devices,
                                            "fx-iu2", w.placement_seed);
    FXDIST_RETURN_NOT_OK(backend.status());
    stack->storage_.push_back(backend->get());
    std::unique_ptr<StorageBackend> child;
    if (!w.remote) {
      child = *std::move(backend);
    } else {
      StorageBackend* served = backend->get();
      stack->server_backends_.push_back(*std::move(backend));
      if (traced) {
        stack->server_decorators_.push_back(std::make_unique<TimingBackend>(
            *served, TimingBackend::Role::kServer, s));
        served = stack->server_decorators_.back().get();
      }
      auto server = StartServer(*served, w.server_workers);
      FXDIST_RETURN_NOT_OK(server.status());
      const std::uint16_t port = (*server)->port();
      stack->servers_.push_back(*std::move(server));
      auto remote = ConnectShard(
          port,
          RemoteOptions(w.mux_window), traced, s);
      FXDIST_RETURN_NOT_OK(remote.status());
      child = *std::move(remote);
    }
    if (traced) {
      child = std::make_unique<TimingBackend>(std::move(child),
                                              TimingBackend::Role::kChild, s);
    }
    children.push_back(std::move(child));
  }
  auto sharded = fxdist::ShardedBackend::Create(std::move(children));
  FXDIST_RETURN_NOT_OK(sharded.status());
  stack->top_ = std::make_unique<fxdist::ShardedBackend>(*std::move(sharded));
  if (traced) {
    stack->top_ = std::make_unique<TimingBackend>(
        std::move(stack->top_), TimingBackend::Role::kTop, 0);
  }
  for (std::size_t i = 0; i < records.size(); i += w.insert_chunk) {
    const std::size_t end = std::min(records.size(), i + w.insert_chunk);
    FXDIST_RETURN_NOT_OK(stack->top_->InsertBatch(
        std::vector<Record>(records.begin() + static_cast<std::ptrdiff_t>(i),
                            records.begin() + static_cast<std::ptrdiff_t>(end))));
  }

  fxdist::EngineOptions engine_options;
  engine_options.num_threads = w.engine_threads;
  stack->engine_ =
      std::make_unique<fxdist::QueryEngine>(*stack->top_, engine_options);

  fxdist::FrontendOptions front_options;
  front_options.cache.max_bytes = w.cache_bytes;
  stack->frontend_ =
      std::make_unique<fxdist::Frontend>(*stack->engine_, front_options);
  return stack;
}

ServingStack::~ServingStack() = default;

std::uint64_t ServingStack::StoredBytes() const {
  std::uint64_t bytes = 0;
  for (const StorageBackend* backend : storage_) {
    bytes += backend->ApproxMemoryBytes();
  }
  return bytes;
}

fxdist::EventServerStats ServingStack::ServerStats() const {
  return SumStats(servers_);
}

Result<std::unique_ptr<IngestFleet>> IngestFleet::Start(
    const IngestWorkload& w, bool traced) {
  std::unique_ptr<IngestFleet> fleet(new IngestFleet());
  const fxdist::Schema schema = MakeSchema(w.field_sizes);
  std::vector<std::unique_ptr<fxdist::DistWorker>> workers;
  for (std::uint32_t i = 0; i < w.workers; ++i) {
    auto backend = fxdist::MakeChildBackend("flat", schema, w.devices,
                                            "fx-iu2", w.placement_seed);
    FXDIST_RETURN_NOT_OK(backend.status());
    StorageBackend* served = backend->get();
    fleet->backends_.push_back(*std::move(backend));
    if (traced) {
      fleet->decorators_.push_back(std::make_unique<TimingBackend>(
          *served, TimingBackend::Role::kServer, i));
      served = fleet->decorators_.back().get();
    }
    auto server = StartServer(*served, w.server_workers);
    FXDIST_RETURN_NOT_OK(server.status());
    const std::uint16_t port = (*server)->port();
    fleet->servers_.push_back(*std::move(server));
    auto remote = ConnectShard(
        port, RemoteOptions(w.mux_window), traced, i);
    FXDIST_RETURN_NOT_OK(remote.status());
    std::unique_ptr<fxdist::DistWorker> worker =
        std::make_unique<fxdist::RemoteDistWorker>("w" + std::to_string(i),
                                                   *std::move(remote));
    if (traced) {
      worker = std::make_unique<TimingDistWorker>(std::move(worker), i);
    }
    workers.push_back(std::move(worker));
  }
  fxdist::CoordinatorOptions options;
  options.records_per_task = w.records_per_task;
  options.buckets_per_task = w.buckets_per_task;
  auto coordinator = fxdist::Coordinator::Create(std::move(workers), options);
  FXDIST_RETURN_NOT_OK(coordinator.status());
  fleet->coordinator_ = *std::move(coordinator);
  return fleet;
}

IngestFleet::~IngestFleet() = default;

std::uint64_t IngestFleet::StoredBytes() const {
  std::uint64_t bytes = 0;
  for (const auto& backend : backends_) bytes += backend->ApproxMemoryBytes();
  return bytes;
}

fxdist::EventServerStats IngestFleet::ServerStats() const {
  return SumStats(servers_);
}

std::vector<std::vector<std::uint64_t>> IngestFleet::ServerRecordCounts()
    const {
  std::vector<std::vector<std::uint64_t>> counts;
  for (const auto& backend : backends_) {
    counts.push_back(backend->RecordCountsPerDevice());
  }
  return counts;
}

fxdist::IngestSpec MakeIngestSpec(const IngestWorkload& w,
                                  std::uint64_t seed) {
  fxdist::IngestSpec spec{MakeSchema(w.field_sizes),
                          UniformDistributions(w.field_sizes.size(), w.domain),
                          DeriveSeed(seed, 3), w.records_per_job};
  return spec;
}

}  // namespace perfbench
