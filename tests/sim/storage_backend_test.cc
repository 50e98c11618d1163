// StorageBackend contract tests: every local backend kind behind one
// base pointer, the v2 persistence round-trip (save any backend, load it
// back by kind token, get bit-identical query results), and what the one
// shared Execute must keep on every kind — measured per-device walls and
// qualified-bucket accounting that charges dead buckets too.

#include "sim/storage_backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "sim/composite_backend.h"
#include "sim/dynamic_parallel_file.h"
#include "sim/packed_backend.h"
#include "sim/paged_parallel_file.h"
#include "sim/parallel_file.h"
#include "sim/persistence.h"
#include "support/temp_path.h"
#include "workload/query_gen.h"
#include "workload/record_gen.h"

namespace fxdist {
namespace {

constexpr std::uint64_t kSeed = 11;

Schema TestSchema() {
  return Schema::Create({
                            {"id", ValueType::kInt64, 8},
                            {"tag", ValueType::kString, 4},
                            {"score", ValueType::kInt64, 4},
                        })
      .value();
}

std::vector<Record> MakeRecords(std::size_t count) {
  auto gen = RecordGenerator::Uniform(TestSchema(), kSeed).value();
  return gen.Take(count);
}

std::vector<ValueQuery> MakeQueries(const std::vector<Record>& records,
                                    std::size_t count) {
  auto gen = QueryGenerator::Create(&records, 0.5, kSeed + 1).value();
  std::vector<ValueQuery> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) queries.push_back(gen.Next());
  return queries;
}

void ExpectSameExecution(const StorageBackend& a, const StorageBackend& b,
                         const std::vector<ValueQuery>& queries,
                         const std::string& context) {
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto ra = a.Execute(queries[i]);
    auto rb = b.Execute(queries[i]);
    ASSERT_TRUE(ra.ok()) << context << " query " << i;
    ASSERT_TRUE(rb.ok()) << context << " query " << i;
    EXPECT_EQ(ra->records, rb->records) << context << " query " << i;
    EXPECT_EQ(ra->stats.records_matched, rb->stats.records_matched)
        << context << " query " << i;
    EXPECT_EQ(ra->stats.qualified_per_device,
              rb->stats.qualified_per_device)
        << context << " query " << i;
    EXPECT_EQ(ra->stats.largest_response, rb->stats.largest_response)
        << context << " query " << i;
  }
}

std::unique_ptr<StorageBackend> MakeFlat() {
  return std::make_unique<ParallelFile>(
      ParallelFile::Create(TestSchema(), 8, "fx-iu2", kSeed).value());
}

// One factory per backend kind so the round-trip test is uniform.
// "packed" is a flat file packed and reopened read-only; "sharded(flat)"
// is one flat child per device.
std::unique_ptr<StorageBackend> MakeBackend(const std::string& kind,
                                            const std::vector<Record>& data) {
  if (kind == "packed") {
    const auto source = MakeBackend("flat", data);
    const std::string path = UniqueTempPath("packed.fxpk");
    EXPECT_TRUE(PackBackend(*source, path).ok());
    auto packed = PackedBackend::Open(path);
    EXPECT_TRUE(packed.ok()) << packed.status().ToString();
    std::remove(path.c_str());  // the open image outlives its name
    return *std::move(packed);
  }
  std::unique_ptr<StorageBackend> backend;
  if (kind == "flat") {
    backend = MakeFlat();
  } else if (kind == "sharded(flat)") {
    std::vector<std::unique_ptr<StorageBackend>> children;
    for (int d = 0; d < 8; ++d) children.push_back(MakeFlat());
    backend = std::make_unique<ShardedBackend>(
        ShardedBackend::Create(std::move(children)).value());
  } else if (kind == "paged") {
    backend = std::make_unique<PagedParallelFile>(
        PagedParallelFile::Create(TestSchema(), 8, "fx-iu2", 3, kSeed)
            .value());
  } else {
    backend = std::make_unique<DynamicParallelFile>(
        DynamicParallelFile::Create({{"id", ValueType::kInt64},
                                     {"tag", ValueType::kString},
                                     {"score", ValueType::kInt64}},
                                    8, 4, PlanFamily::kIU2, kSeed)
            .value());
  }
  for (const Record& r : data) {
    EXPECT_TRUE(backend->Insert(r).ok());
  }
  return backend;
}

// The kind token a backend reports: "sharded(flat)" is a "sharded".
std::string KindName(const std::string& kind) {
  return kind.substr(0, kind.find('('));
}

class StorageBackendTest : public testing::TestWithParam<std::string> {};

TEST_P(StorageBackendTest, NameMatchesKind) {
  const auto backend = MakeBackend(GetParam(), {});
  EXPECT_EQ(backend->backend_name(), KindName(GetParam()));
}

TEST_P(StorageBackendTest, SaveLoadRoundTripIsBitIdentical) {
  const auto data = MakeRecords(300);
  const auto queries = MakeQueries(data, 40);
  const auto backend = MakeBackend(GetParam(), data);

  const std::string path = UniqueTempPath("backend.fxdist");
  ASSERT_TRUE(SaveBackend(*backend, path).ok());
  auto loaded = LoadBackend(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // A packed save unpacks to the kind it was packed from.
  EXPECT_EQ((*loaded)->backend_name(),
            GetParam() == "packed" ? "flat" : KindName(GetParam()));
  EXPECT_EQ((*loaded)->num_records(), backend->num_records());
  EXPECT_EQ((*loaded)->RecordCountsPerDevice(),
            backend->RecordCountsPerDevice());
  ExpectSameExecution(*backend, **loaded, queries, GetParam());
  std::remove(path.c_str());
}

TEST_P(StorageBackendTest, ScanBucketCoversEveryMatch) {
  // Summing ScanBucket visits over every qualified bucket of the
  // whole-file query must see exactly the live records.
  const auto data = MakeRecords(200);
  const auto backend = MakeBackend(GetParam(), data);
  const ValueQuery whole(3);
  const PartialMatchQuery hashed = backend->HashQuery(whole).value();
  std::uint64_t seen = 0;
  for (std::uint64_t d = 0; d < backend->num_devices(); ++d) {
    backend->device_map().ForEachQualifiedLinearOnDevice(
        hashed, d, [&](std::uint64_t linear) {
          backend->ScanBucket(d, linear, [&](const Record&) {
            ++seen;
            return true;
          });
          return true;
        });
  }
  EXPECT_EQ(seen, backend->num_records());
}

TEST_P(StorageBackendTest, DefaultVirtualsReportMutableStableBackend) {
  const auto data = MakeRecords(50);
  const auto backend = MakeBackend(GetParam(), data);
  // Packed is the one immutable kind, decoding out of a bounded cache.
  const bool packed = GetParam() == "packed";
  EXPECT_EQ(backend->ScanRecordsAreStable(), !packed);
  EXPECT_EQ(backend->IsReadOnly(), packed);
  EXPECT_EQ(backend->FieldTypes(),
            (std::vector<ValueType>{ValueType::kInt64, ValueType::kString,
                                    ValueType::kInt64}));
  // ApproxMemoryBytes must at least account for the stored payloads.
  EXPECT_GT(backend->ApproxMemoryBytes(), 50 * sizeof(Record));
}

TEST_P(StorageBackendTest, ScanManyFalseCancelsWholeScatter) {
  // The contract: fn returning false abandons not just the current
  // bucket but every remaining ref of the scatter.
  const auto data = MakeRecords(200);
  const auto backend = MakeBackend(GetParam(), data);
  const PartialMatchQuery hashed = backend->HashQuery(ValueQuery(3)).value();
  std::vector<BucketRef> refs;
  for (std::uint64_t d = 0; d < backend->num_devices(); ++d) {
    backend->device_map().ForEachQualifiedLinearOnDevice(
        hashed, d, [&refs, d](std::uint64_t linear) {
          refs.push_back({d, linear});
          return true;
        });
  }
  ASSERT_GT(refs.size(), 1u);

  // Cancel on the very first record: exactly one delivery.
  std::size_t delivered = 0;
  backend->ScanMany(refs, [&delivered](std::size_t, const Record&) {
    ++delivered;
    return false;
  });
  EXPECT_EQ(delivered, 1u);

  // Cancel midway: deliveries stop at the limit even though later refs
  // still hold records.
  const std::size_t limit = backend->num_records() / 2;
  delivered = 0;
  backend->ScanMany(refs, [&delivered, limit](std::size_t, const Record&) {
    ++delivered;
    return delivered < limit;
  });
  EXPECT_EQ(delivered, limit);
}

TEST_P(StorageBackendTest, ExecuteTimesEveryDevice) {
  // Local kinds gather device by device, so each device's share carries
  // its own measured wall (bench/parallel_speedup divides by it).
  const auto backend = MakeBackend(GetParam(), MakeRecords(200));
  ASSERT_FALSE(backend->ScanPrefersFanout());
  const QueryResult result = backend->Execute(ValueQuery(3)).value();
  const std::vector<double>& walls = result.stats.device_wall_ms;
  ASSERT_EQ(walls.size(), backend->num_devices());
  EXPECT_GT(std::accumulate(walls.begin(), walls.end(), 0.0), 0.0);
  EXPECT_LE(*std::max_element(walls.begin(), walls.end()),
            result.stats.wall_ms);
}

TEST_P(StorageBackendTest, QualifiedCountsIncludeDeadBuckets) {
  // Every qualified bucket is charged, live or not, whether the scan
  // finds records there or skips it as empty.  The grown dynamic
  // directories are the sparse case: mostly dead buckets.
  const auto data = MakeRecords(300);
  const auto backend = MakeBackend(GetParam(), data);
  if (GetParam() == "dynamic") {
    ASSERT_GT(backend->spec().TotalBuckets(), 4 * backend->num_records());
  }
  std::vector<ValueQuery> queries = MakeQueries(data, 40);
  queries.push_back(ValueQuery(3));
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const QueryResult result = backend->Execute(queries[i]).value();
    const PartialMatchQuery hashed = backend->HashQuery(queries[i]).value();
    EXPECT_EQ(result.stats.total_qualified,
              hashed.NumQualifiedBuckets(backend->spec()))
        << "query " << i;
    EXPECT_EQ(std::accumulate(result.stats.qualified_per_device.begin(),
                              result.stats.qualified_per_device.end(),
                              std::uint64_t{0}),
              result.stats.total_qualified)
        << "query " << i;
  }
  EXPECT_EQ(backend->Execute(ValueQuery(3))->stats.records_matched,
            data.size());
}

INSTANTIATE_TEST_SUITE_P(Kinds, StorageBackendTest,
                         testing::Values("flat", "paged", "dynamic", "packed",
                                         "sharded(flat)"));

TEST(StorageBackendDeleteTest, FlatAndPagedDeleteDynamicRefuses) {
  const auto data = MakeRecords(120);
  for (const std::string kind : {"flat", "paged"}) {
    const auto backend = MakeBackend(kind, data);
    auto removed = backend->Delete(ValueQuery(3));
    ASSERT_TRUE(removed.ok()) << kind;
    EXPECT_EQ(*removed, 120u) << kind;
    EXPECT_EQ(backend->num_records(), 0u) << kind;
  }
  const auto dynamic = MakeBackend("dynamic", data);
  auto removed = dynamic->Delete(ValueQuery(3));
  ASSERT_FALSE(removed.ok());
  EXPECT_EQ(removed.status().code(), StatusCode::kUnimplemented)
      << removed.status().ToString();
  EXPECT_EQ(dynamic->num_records(), 120u);
}

TEST(StorageBackendPersistenceTest, UnknownKindRejected) {
  const std::string path = UniqueTempPath("unknown_kind.fxdist");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("fxdist-backend v2\nkind tape\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadBackend(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fxdist
