// Decorator identity test: at small size, every workload must return the
// same records and QueryStats (and, for ingest_sweep, the same ingest
// counts and merged sweep) with and without the timing decorators of the
// traced run, and the decorators must forward the virtuals that steer
// the serving path.  Exits nonzero on any difference.
//
//   perfbench_identity_test

#include <cstdio>
#include <string>
#include <vector>

#include "net/backend_spec.h"
#include "net/event_shard_server.h"
#include "net/remote_backend.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool SameStats(const fxdist::QueryStats& a, const fxdist::QueryStats& b) {
  return a.qualified_per_device == b.qualified_per_device &&
         a.total_qualified == b.total_qualified &&
         a.largest_response == b.largest_response &&
         a.optimal_bound == b.optimal_bound &&
         a.strict_optimal == b.strict_optimal &&
         a.records_examined == b.records_examined &&
         a.records_matched == b.records_matched &&
         a.disk_timing.parallel_ms == b.disk_timing.parallel_ms &&
         a.disk_timing.serial_ms == b.disk_timing.serial_ms;
}

bool SameResult(const fxdist::Result<fxdist::QueryResult>& a,
                const fxdist::Result<fxdist::QueryResult>& b) {
  if (a.ok() != b.ok()) return false;
  if (!a.ok()) return a.status().ToString() == b.status().ToString();
  return a->records == b->records && SameStats(a->stats, b->stats);
}

void QueryIdentity(QueryWorkload w) {
  w.records = 8192;
  if (w.templates > 0) w.templates = 64;
  const std::uint64_t seed = 7;
  const std::vector<fxdist::Record> pool = MakeRecords(w, seed);
  const std::vector<fxdist::ValueQuery> templates =
      MakeTemplates(w, pool, seed);
  QueryStream stream(w, pool, templates, seed, 0);
  std::vector<fxdist::ValueQuery> queries;
  std::size_t unused = 0;
  for (int i = 0; i < 256; ++i) queries.push_back(stream.Next(&unused));

  auto plain = ServingStack::Build(w, pool, false);
  Tracer::Enable(true);
  auto traced = ServingStack::Build(w, pool, true);
  Check(plain.ok() && traced.ok(), w.name + ": stacks build");
  if (!plain.ok() || !traced.ok()) {
    Tracer::Enable(false);
    return;
  }
  Check((*plain)->StoredBytes() == (*traced)->StoredBytes(),
        w.name + ": stored bytes");

  // Engine path, in batches, bypassing the cache.
  bool engine_same = true;
  for (std::size_t i = 0; i < queries.size(); i += 16) {
    const std::vector<fxdist::ValueQuery> batch(
        queries.begin() + static_cast<std::ptrdiff_t>(i),
        queries.begin() + static_cast<std::ptrdiff_t>(i + 16));
    auto a = (*plain)->engine().ExecuteBatch(batch);
    auto b = (*traced)->engine().ExecuteBatch(batch);
    if (!a.ok() || !b.ok() || a->size() != b->size()) {
      engine_same = false;
      continue;
    }
    for (std::size_t j = 0; j < a->size(); ++j) {
      engine_same = engine_same && (*a)[j].records == (*b)[j].records &&
                    SameStats((*a)[j].stats, (*b)[j].stats);
    }
  }
  Check(engine_same, w.name + ": engine batches bit-identical");

  // Front door, one query at a time (cache hits included).
  bool front_same = true;
  for (const fxdist::ValueQuery& q : queries) {
    auto a = (*plain)->frontend()
                 .Submit("c", fxdist::QueryPriority::kInteractive, q)
                 .get();
    auto b = (*traced)->frontend()
                 .Submit("c", fxdist::QueryPriority::kInteractive, q)
                 .get();
    front_same = front_same && SameResult(a, b);
  }
  Check(front_same, w.name + ": front door answers bit-identical");
  plain->reset();
  traced->reset();
  Tracer::Enable(false);
  const std::vector<Span> spans = Tracer::Drain();
  Check(!spans.empty(), w.name + ": traced stack recorded spans");
}

void IngestIdentity() {
  IngestWorkload w = IngestSweep();
  w.field_sizes = {4, 4, 4, 8};
  w.devices = 8;
  w.records_per_job = 6000;
  w.records_per_task = 500;
  w.buckets_per_task = 64;
  const fxdist::IngestSpec spec = MakeIngestSpec(w, 11);

  struct Outcome {
    fxdist::Result<fxdist::IngestReport> load = fxdist::Status::Internal("not run");
    fxdist::Result<fxdist::SweepReport> sweep = fxdist::Status::Internal("not run");
    std::vector<std::vector<std::uint64_t>> counts;
  };
  auto run = [&](bool traced) {
    Outcome out;
    Tracer::Enable(traced);
    auto fleet = IngestFleet::Start(w, traced);
    if (!fleet.ok()) return out;
    out.load = (*fleet)->coordinator().BulkLoad(spec);
    out.sweep = (*fleet)->coordinator().Sweep();
    out.counts = (*fleet)->ServerRecordCounts();
    fleet->reset();
    Tracer::Enable(false);
    return out;
  };
  const Outcome a = run(false);
  const Outcome b = run(true);
  Check(a.load.ok() && b.load.ok() && a.sweep.ok() && b.sweep.ok(),
        "ingest_sweep: jobs succeed");
  if (!a.load.ok() || !b.load.ok() || !a.sweep.ok() || !b.sweep.ok()) return;
  Check(a.load->records_sent == b.load->records_sent &&
            a.load->records_per_worker == b.load->records_per_worker &&
            a.counts == b.counts,
        "ingest_sweep: ingest counts identical");
  bool sweep_same = a.sweep->masks.size() == b.sweep->masks.size();
  for (std::size_t m = 0; sweep_same && m < a.sweep->masks.size(); ++m) {
    const auto& x = a.sweep->masks[m];
    const auto& y = b.sweep->masks[m];
    sweep_same = x.unspecified_mask == y.unspecified_mask &&
                 x.response.per_device == y.response.per_device &&
                 x.qualified == y.qualified && x.bound == y.bound &&
                 x.strict_optimal == y.strict_optimal;
  }
  sweep_same = sweep_same &&
               a.sweep->probability.optimal_masks ==
                   b.sweep->probability.optimal_masks &&
               a.sweep->fallback_tasks == b.sweep->fallback_tasks;
  Check(sweep_same, "ingest_sweep: merged sweep identical");
  const std::vector<Span> spans = Tracer::Drain();
  Check(!spans.empty(), "ingest_sweep: traced fleet recorded spans");
}

/// The virtuals whose default would silently change the measured path.
void ForwardingChecks() {
  const QueryWorkload w = RemoteUniform();
  const fxdist::Schema schema = MakeSchema(w.field_sizes);
  auto flat = fxdist::MakeChildBackend("flat", schema, w.devices, "fx-iu2",
                                       w.placement_seed)
                  .value();
  fxdist::StorageBackend& inner = *flat;
  TimingBackend wrapped(inner, TimingBackend::Role::kChild, 0);
  std::vector<fxdist::Record> records = MakeRecords(w, 3);
  records.resize(100);
  Check(wrapped.InsertBatch(records).ok(), "forward: InsertBatch");
  Check(wrapped.MutationEpoch() == inner.MutationEpoch() &&
            inner.MutationEpoch() > 0,
        "forward: MutationEpoch");
  Check(&wrapped.ServingPlane() == &inner.ServingPlane(),
        "forward: ServingPlane");
  Check(wrapped.ScanRecordsAreStable() == inner.ScanRecordsAreStable() &&
            wrapped.IsReadOnly() == inner.IsReadOnly() &&
            wrapped.TopologyVersion() == inner.TopologyVersion() &&
            wrapped.ApproxMemoryBytes() == inner.ApproxMemoryBytes(),
        "forward: stable/read-only/topology/memory");

  // ScanPrefersFanout is true only on a remote child.
  auto server = fxdist::EventShardServer::Start(inner);
  Check(server.ok(), "forward: shard server starts");
  if (!server.ok()) return;
  auto remote = fxdist::RemoteBackend::ConnectTcp(
      "127.0.0.1:" + std::to_string((*server)->port()));
  Check(remote.ok(), "forward: remote connects");
  if (!remote.ok()) return;
  const bool remote_fanout = (*remote)->ScanPrefersFanout();
  TimingBackend remote_child(*std::move(remote), TimingBackend::Role::kChild,
                             0);
  Check(remote_fanout && remote_child.ScanPrefersFanout() &&
            !wrapped.ScanPrefersFanout(),
        "forward: ScanPrefersFanout");
  Check(remote_child.MutationEpoch() == remote_child.inner().MutationEpoch() &&
            remote_child.num_records() == records.size(),
        "forward: remote epoch and count");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::ForwardingChecks();
  perfbench::QueryIdentity(perfbench::LocalZipf());
  perfbench::QueryIdentity(perfbench::RemoteUniform());
  perfbench::IngestIdentity();
  std::printf("%s\n", perfbench::g_failures == 0 ? "identity: all passed"
                                                 : "identity: FAILED");
  return perfbench::g_failures == 0 ? 0 : 1;
}
