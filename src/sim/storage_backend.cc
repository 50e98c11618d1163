#include "sim/storage_backend.h"

#include <algorithm>
#include <chrono>
#include <variant>

#include "analysis/optimality.h"

namespace fxdist {

Status StorageBackend::InsertBatch(std::vector<Record> records) {
  for (Record& record : records) {
    FXDIST_RETURN_NOT_OK(Insert(std::move(record)));
  }
  return Status::OK();
}

bool StorageBackend::IsBucketLive(std::uint64_t device,
                                  std::uint64_t linear_bucket) const {
  bool live = false;
  ScanBucket(device, linear_bucket, [&live](const Record&) {
    live = true;
    return false;
  });
  return live;
}

void StorageBackend::ScanMany(
    const std::vector<BucketRef>& refs,
    const std::function<bool(std::size_t, const Record&)>& fn) const {
  bool cancelled = false;
  for (std::size_t i = 0; i < refs.size() && !cancelled; ++i) {
    ScanBucket(refs[i].device, refs[i].linear_bucket,
               [&fn, &cancelled, i](const Record& record) {
                 if (!fn(i, record)) {
                   cancelled = true;
                   return false;
                 }
                 return true;
               });
  }
}

Result<QueryResult> StorageBackend::Execute(const ValueQuery& query) const {
  // A composite poisoned by a child outgrowing its plane, or a packed
  // image already found corrupt, must not even plan against its map.
  FXDIST_RETURN_NOT_OK(Health());
  auto hashed = HashQuery(query);
  FXDIST_RETURN_NOT_OK(hashed.status());

  using Clock = std::chrono::steady_clock;
  const auto millis_since = [](Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  };
  const DeviceMap& map = device_map();
  const std::uint64_t m = map.spec().num_devices();
  const bool rerouting = HasDegradedRouting();

  QueryResult result;
  QueryStats& stats = result.stats;
  stats.qualified_per_device.assign(m, 0);
  stats.device_wall_ms.assign(m, 0.0);

  // Enumerates device d's qualified buckets in ascending linear order,
  // charging each to the one device that serves it.  Dead buckets are
  // not probed for here: a local ScanMany skips an empty bucket with the
  // same one lookup a liveness probe would cost (unlike the engine's
  // batch planner, whose per-bucket bookkeeping the sparse filter saves).
  const auto plan_device = [&](std::uint64_t d,
                               std::vector<BucketRef>* refs) {
    map.ForEachQualifiedLinearOnDevice(
        *hashed, d, [&](std::uint64_t linear) {
          ++stats.qualified_per_device[rerouting ? ServingDevice(d, linear)
                                                 : d];
          refs->push_back({d, linear});
          return true;
        });
  };

  const auto start = Clock::now();
  std::vector<BucketRef> refs;
  if (!ScanPrefersFanout()) {
    // Local storage: gather device by device, so each device's share is
    // timed on its own; the gather is serial and in ref order, so
    // counters and the result vector are written directly.
    const std::function<bool(std::size_t, const Record&)> filter =
        [&](std::size_t, const Record& record) {
          ++stats.records_examined;
          if (RecordMatchesValueQuery(query, record)) {
            ++stats.records_matched;
            result.records.push_back(record);
          }
          return true;
        };
    for (std::uint64_t d = 0; d < m; ++d) {
      const auto device_start = Clock::now();
      refs.clear();
      plan_device(d, &refs);
      ScanMany(refs, filter);
      stats.device_wall_ms[d] = millis_since(device_start);
    }
  } else {
    // Wire-bound storage: one ScanMany over every device, so a remote
    // shard sees one frame per chunk and a composite overlaps its
    // children.  Distinct ref indices may be visited concurrently, so
    // each bucket stages into its own slot and the serial assembly
    // below restores enumeration order.  Per-device walls are not
    // attributable in the overlapped gather and stay zero.
    for (std::uint64_t d = 0; d < m; ++d) plan_device(d, &refs);
    std::vector<std::uint64_t> examined(refs.size(), 0);
    std::vector<std::vector<Record>> matched(refs.size());
    ScanMany(refs, [&](std::size_t i, const Record& record) {
      ++examined[i];
      if (RecordMatchesValueQuery(query, record)) {
        matched[i].push_back(record);
      }
      return true;
    });
    for (std::size_t i = 0; i < refs.size(); ++i) {
      stats.records_examined += examined[i];
      stats.records_matched += matched[i].size();
      for (Record& record : matched[i]) {
        result.records.push_back(std::move(record));
      }
    }
  }
  stats.wall_ms = millis_since(start);

  for (std::uint64_t c : stats.qualified_per_device) {
    stats.total_qualified += c;
    stats.largest_response = std::max(stats.largest_response, c);
  }
  stats.optimal_bound = StrictOptimalBound(map.spec(), *hashed);
  stats.strict_optimal = stats.largest_response <= stats.optimal_bound;
  stats.disk_timing = DiskQueryTiming(stats.qualified_per_device);
  // ScanBucket cannot report errors; storage that died mid-sweep (a
  // remote shard past its retry budget, a corrupt packed block) visited
  // nothing more, so re-check health rather than return partial results.
  FXDIST_RETURN_NOT_OK(Health());
  return result;
}

std::vector<ValueType> StorageBackend::FieldTypes() const {
  std::vector<ValueType> types;
  bool probed = false;
  ForEachLiveRecord([&types, &probed](const Record& record) {
    if (probed) return;
    probed = true;
    types.reserve(record.size());
    for (const FieldValue& value : record) types.push_back(TypeOf(value));
  });
  return types;
}

std::uint64_t StorageBackend::ApproxMemoryBytes() const {
  std::uint64_t bytes = 0;
  ForEachLiveRecord(
      [&bytes](const Record& record) { bytes += ApproxRecordBytes(record); });
  return bytes;
}

std::uint64_t ApproxRecordBytes(const Record& record) {
  std::uint64_t bytes =
      sizeof(Record) + record.capacity() * sizeof(FieldValue);
  for (const FieldValue& value : record) {
    if (const auto* s = std::get_if<std::string>(&value)) {
      // Count only heap allocations past the small-string buffer.
      if (s->capacity() > sizeof(std::string) - 1) bytes += s->capacity() + 1;
    }
  }
  return bytes;
}

bool RecordMatchesValueQuery(const ValueQuery& query, const Record& record) {
  for (std::size_t f = 0; f < query.size(); ++f) {
    if (query[f].has_value() && record[f] != *query[f]) return false;
  }
  return true;
}

}  // namespace fxdist
