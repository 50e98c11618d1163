// PackedBackend differential wall: a packed file must be observationally
// identical to the flat backend it was packed from — same records, same
// QueryStats bit for bit, same ScanBucket/ScanMany delivery order —
// across device counts, record counts (empty file and single-bucket
// devices included), tiny decode caches, sharded composition, and
// concurrent readers.

#include "sim/packed_backend.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/query_engine.h"
#include "sim/composite_backend.h"
#include "sim/parallel_file.h"
#include "sim/persistence.h"
#include "support/temp_path.h"
#include "workload/query_gen.h"
#include "workload/record_gen.h"

namespace fxdist {
namespace {

constexpr std::uint64_t kSeed = 23;

Schema TestSchema() {
  return Schema::Create({
                            {"id", ValueType::kInt64, 8},
                            {"tag", ValueType::kString, 4},
                            {"score", ValueType::kInt64, 4},
                        })
      .value();
}

std::vector<Record> MakeRecords(std::size_t count) {
  if (count == 0) return {};
  auto gen = RecordGenerator::Uniform(TestSchema(), kSeed).value();
  return gen.Take(count);
}

std::vector<ValueQuery> MakeQueries(const std::vector<Record>& records,
                                    std::size_t count) {
  std::vector<ValueQuery> queries;
  // Always exercise the whole-file wildcard and a literal miss.
  queries.emplace_back(3);
  ValueQuery miss(3);
  miss[0] = FieldValue{std::int64_t{-9999}};
  queries.push_back(std::move(miss));
  if (!records.empty()) {
    auto gen = QueryGenerator::Create(&records, 0.5, kSeed + 1).value();
    for (std::size_t i = 0; i < count; ++i) queries.push_back(gen.Next());
  }
  return queries;
}

ParallelFile MakeFlat(std::uint64_t num_devices,
                      const std::vector<Record>& records) {
  auto file =
      ParallelFile::Create(TestSchema(), num_devices, "fx-iu2", kSeed)
          .value();
  for (const Record& r : records) {
    EXPECT_TRUE(file.Insert(r).ok());
  }
  return file;
}

std::string TempPath(const std::string& name) {
  return UniqueTempPath(name + ".fxpk");
}

std::unique_ptr<PackedBackend> PackAndOpen(const StorageBackend& source,
                                           const std::string& name,
                                           PackedOptions options = {}) {
  const std::string path = TempPath(name);
  auto written = PackBackend(source, path, options);
  EXPECT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(*written, source.num_records());
  auto opened = PackedBackend::Open(path, options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  std::remove(path.c_str());  // the open mapping keeps the inode alive
  return *std::move(opened);
}

/// Full-stats equality: everything solo Execute reports except wall
/// clocks must match bit for bit.
void ExpectSameStats(const QueryStats& a, const QueryStats& b,
                     const std::string& context) {
  EXPECT_EQ(a.qualified_per_device, b.qualified_per_device) << context;
  EXPECT_EQ(a.total_qualified, b.total_qualified) << context;
  EXPECT_EQ(a.largest_response, b.largest_response) << context;
  EXPECT_EQ(a.optimal_bound, b.optimal_bound) << context;
  EXPECT_EQ(a.strict_optimal, b.strict_optimal) << context;
  EXPECT_EQ(a.records_examined, b.records_examined) << context;
  EXPECT_EQ(a.records_matched, b.records_matched) << context;
}

void ExpectSameExecution(const StorageBackend& flat,
                         const StorageBackend& packed,
                         const std::vector<ValueQuery>& queries,
                         const std::string& context) {
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::string where = context + " query " + std::to_string(i);
    auto rf = flat.Execute(queries[i]);
    auto rp = packed.Execute(queries[i]);
    ASSERT_TRUE(rf.ok()) << where << ": " << rf.status().ToString();
    ASSERT_TRUE(rp.ok()) << where << ": " << rp.status().ToString();
    EXPECT_EQ(rf->records, rp->records) << where;
    ExpectSameStats(rf->stats, rp->stats, where);
  }
}

/// Every (device, linear) bucket pair of the whole-file query, in plan
/// order — the refs both backends must deliver identically.
std::vector<BucketRef> AllBuckets(const StorageBackend& backend) {
  const PartialMatchQuery hashed =
      backend.HashQuery(ValueQuery(3)).value();
  std::vector<BucketRef> refs;
  for (std::uint64_t d = 0; d < backend.num_devices(); ++d) {
    backend.device_map().ForEachQualifiedLinearOnDevice(
        hashed, d, [&refs, d](std::uint64_t linear) {
          refs.push_back({d, linear});
          return true;
        });
  }
  return refs;
}

using Delivery = std::vector<std::pair<std::size_t, Record>>;

Delivery GatherScanMany(const StorageBackend& backend,
                        const std::vector<BucketRef>& refs) {
  Delivery out;
  backend.ScanMany(refs, [&out](std::size_t s, const Record& record) {
    out.emplace_back(s, record);
    return true;
  });
  return out;
}

struct DifferentialCase {
  std::uint64_t num_devices;
  std::size_t num_records;
};

class PackedDifferentialTest
    : public testing::TestWithParam<DifferentialCase> {};

TEST_P(PackedDifferentialTest, MatchesFlatBitForBit) {
  const auto [num_devices, num_records] = GetParam();
  const std::string context = "M=" + std::to_string(num_devices) + " n=" +
                              std::to_string(num_records);
  const auto records = MakeRecords(num_records);
  const auto queries = MakeQueries(records, 25);
  const ParallelFile flat = MakeFlat(num_devices, records);
  const auto packed = PackAndOpen(
      flat, "diff_m" + std::to_string(num_devices) + "_n" +
                std::to_string(num_records));

  EXPECT_EQ(packed->backend_name(), "packed");
  EXPECT_EQ(packed->source_kind(), "flat");
  EXPECT_EQ(packed->num_records(), flat.num_records());
  EXPECT_EQ(packed->RecordCountsPerDevice(), flat.RecordCountsPerDevice());
  EXPECT_EQ(packed->FieldTypes(), flat.FieldTypes());
  EXPECT_EQ(packed->spec().ToString(), flat.spec().ToString());

  ExpectSameExecution(flat, *packed, queries, context);

  const std::vector<BucketRef> refs = AllBuckets(flat);
  EXPECT_EQ(GatherScanMany(flat, refs), GatherScanMany(*packed, refs))
      << context;

  // IsBucketLive agrees bucket by bucket.
  for (const BucketRef& ref : refs) {
    EXPECT_EQ(packed->IsBucketLive(ref.device, ref.linear_bucket),
              flat.IsBucketLive(ref.device, ref.linear_bucket))
        << context << " bucket (" << ref.device << ", " << ref.linear_bucket
        << ")";
  }
  EXPECT_TRUE(packed->Health().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PackedDifferentialTest,
    testing::Values(DifferentialCase{1, 0}, DifferentialCase{1, 17},
                    DifferentialCase{2, 1}, DifferentialCase{2, 500},
                    DifferentialCase{4, 0}, DifferentialCase{4, 17},
                    DifferentialCase{8, 1}, DifferentialCase{8, 500}),
    [](const testing::TestParamInfo<DifferentialCase>& p) {
      return "M" + std::to_string(p.param.num_devices) + "n" +
             std::to_string(p.param.num_records);
    });

TEST(PackedBackendTest, TinyCacheAndTinyBlocksStayExact) {
  // One-record blocks and a single-slot cache force an eviction on
  // nearly every posting lookup; results must not change.
  const auto records = MakeRecords(137);
  const auto queries = MakeQueries(records, 30);
  const ParallelFile flat = MakeFlat(4, records);
  PackedOptions options;
  options.records_per_block = 1;
  options.cache_blocks = 1;
  const auto packed = PackAndOpen(flat, "tiny_cache", options);
  ExpectSameExecution(flat, *packed, queries, "tiny cache");
  const std::vector<BucketRef> refs = AllBuckets(flat);
  EXPECT_EQ(GatherScanMany(flat, refs), GatherScanMany(*packed, refs));
}

TEST(PackedBackendTest, VerifyAllChecksumsAcceptsHealthyFile) {
  const auto records = MakeRecords(64);
  const ParallelFile flat = MakeFlat(2, records);
  PackedOptions options;
  options.verify_all_checksums = true;
  const auto packed = PackAndOpen(flat, "verify_all", options);
  ExpectSameExecution(flat, *packed, MakeQueries(records, 10),
                      "verify-all");
}

TEST(PackedBackendTest, InsertAndDeleteAreFailedPrecondition) {
  const auto records = MakeRecords(10);
  const ParallelFile flat = MakeFlat(2, records);
  auto packed = PackAndOpen(flat, "read_only");
  EXPECT_TRUE(packed->IsReadOnly());
  EXPECT_FALSE(packed->ScanRecordsAreStable());

  auto insert = packed->Insert(records.front());
  EXPECT_EQ(insert.code(), StatusCode::kFailedPrecondition)
      << insert.ToString();
  auto removed = packed->Delete(ValueQuery(3));
  ASSERT_FALSE(removed.ok());
  EXPECT_EQ(removed.status().code(), StatusCode::kFailedPrecondition);
  // A refused mutation must not disturb the data.
  EXPECT_EQ(packed->num_records(), 10u);
  EXPECT_TRUE(packed->Health().ok());
}

TEST(PackedBackendTest, SaveLoadUnpacksToSourceKind) {
  const auto records = MakeRecords(80);
  const auto queries = MakeQueries(records, 15);
  const ParallelFile flat = MakeFlat(4, records);
  const auto packed = PackAndOpen(flat, "unpack_src");

  const std::string path = TempPath("unpack_saved");
  ASSERT_TRUE(SaveBackend(*packed, path).ok());
  auto loaded = LoadBackend(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  // The load "unpacks": the reconstructed backend is the mutable source
  // kind, holding the same records in the same placement.
  EXPECT_EQ((*loaded)->backend_name(), "flat");
  EXPECT_EQ((*loaded)->num_records(), packed->num_records());
  ExpectSameExecution(**loaded, *packed, queries, "unpacked");
}

TEST(PackedBackendTest, PerDeviceShardsComposeIntoSharded) {
  const std::uint64_t num_devices = 4;
  const auto records = MakeRecords(220);
  const auto queries = MakeQueries(records, 20);
  const ParallelFile flat = MakeFlat(num_devices, records);

  // One packed file per device (only_device filter), composed back into
  // a ShardedBackend: the read-only children arrive full, which Create
  // must accept.
  std::vector<std::unique_ptr<StorageBackend>> children;
  std::uint64_t sharded_total = 0;
  for (std::uint64_t d = 0; d < num_devices; ++d) {
    const std::string path = TempPath("shard_dev" + std::to_string(d));
    auto written = PackBackend(flat, path, {}, d);
    ASSERT_TRUE(written.ok()) << written.status().ToString();
    sharded_total += *written;
    auto opened = PackedBackend::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::remove(path.c_str());
    children.push_back(*std::move(opened));
  }
  EXPECT_EQ(sharded_total, flat.num_records());

  auto sharded = ShardedBackend::Create(std::move(children));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded->num_records(), flat.num_records());
  EXPECT_EQ(sharded->RecordCountsPerDevice(),
            flat.RecordCountsPerDevice());
  ExpectSameExecution(flat, *sharded, queries, "packed shards");
  // The composite inherits the children's instability and read-only
  // refusal.
  EXPECT_FALSE(sharded->ScanRecordsAreStable());
  EXPECT_EQ(sharded->Insert(records.front()).code(),
            StatusCode::kFailedPrecondition);
}

TEST(PackedBackendTest, ScanManyFalseCancelsWholeScatter) {
  const auto records = MakeRecords(150);
  const ParallelFile flat = MakeFlat(2, records);
  const auto packed = PackAndOpen(flat, "cancel");
  const std::vector<BucketRef> refs = AllBuckets(flat);
  ASSERT_GT(refs.size(), 1u);
  std::size_t delivered = 0;
  packed->ScanMany(refs, [&delivered](std::size_t, const Record&) {
    ++delivered;
    return false;
  });
  EXPECT_EQ(delivered, 1u);
}

TEST(PackedBackendTest, ApproxMemoryIsBoundedByCacheNotFile) {
  // Large enough that record payloads dominate the per-bucket
  // directory floor and the resident mapped pages.
  const auto records = MakeRecords(4000);
  const ParallelFile flat = MakeFlat(4, records);
  PackedOptions options;
  options.cache_blocks = 2;
  const auto packed = PackAndOpen(flat, "memory", options);
  // Touch everything so the cache and mapping are warm.
  for (const ValueQuery& q : MakeQueries(records, 10)) {
    (void)packed->Execute(q);
  }
  // The resident cost must stay well under the flat backend's: the
  // cache holds at most 2 decoded blocks, not 800 records.
  EXPECT_LT(packed->ApproxMemoryBytes(), flat.ApproxMemoryBytes() / 2);
}

// Suite name keyed into the TSan CI filter: concurrent const scans
// share the decode cache under a mutex and must be race-free.
TEST(PackedConcurrentScanTest, ParallelReadersSeeIdenticalResults) {
  const auto records = MakeRecords(300);
  const auto queries = MakeQueries(records, 12);
  const ParallelFile flat = MakeFlat(4, records);
  PackedOptions options;
  options.cache_blocks = 2;  // force eviction churn across threads
  const auto packed = PackAndOpen(flat, "concurrent", options);

  std::vector<QueryResult> expected;
  for (const ValueQuery& q : queries) {
    expected.push_back(flat.Execute(q).value());
  }

  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  // Not vector<bool>: adjacent bits share a byte and the per-thread
  // writes would race.
  std::vector<char> ok(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      bool all_match = true;
      for (int rep = 0; rep < 3; ++rep) {
        for (std::size_t i = 0; i < queries.size(); ++i) {
          auto result = packed->Execute(queries[i]);
          if (!result.ok() || result->records != expected[i].records ||
              result->stats.records_matched !=
                  expected[i].stats.records_matched) {
            all_match = false;
          }
        }
      }
      ok[static_cast<std::size_t>(t)] = all_match;
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(t)]) << "thread " << t;
  }
  EXPECT_TRUE(packed->Health().ok());
}

// Suite name keyed into the TSan CI filter: the engine's shared sweep
// over an unstable-scan backend copies records instead of keeping
// pointers into the decode cache.
TEST(PackedEngineTest, BatchedResultsMatchFlatSerial) {
  const auto records = MakeRecords(400);
  const auto queries = MakeQueries(records, 60);
  const ParallelFile flat = MakeFlat(4, records);
  PackedOptions options;
  options.cache_blocks = 2;  // evictions during the batch would dangle
                             // pointers if the engine kept references
  const auto packed = PackAndOpen(flat, "engine", options);

  EngineOptions engine_options;
  engine_options.max_batch_size = 16;
  QueryEngine engine(*packed, engine_options);
  auto batched = engine.ExecuteBatch(queries);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_EQ(batched->size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto serial = flat.Execute(queries[i]);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ((*batched)[i].records, serial->records) << "query " << i;
    ExpectSameStats((*batched)[i].stats, serial->stats,
                    "query " + std::to_string(i));
  }
}

}  // namespace
}  // namespace fxdist
