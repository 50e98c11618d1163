// RemoteBackend::ConnectTcp at pipeline_window 1 — the connection
// `fxdistctl serve-bench --remote ... --window 1` dials: a MuxTransport
// that admits one request at a time, over a real socket, to an
// EventShardServer.  Four threads share that one connection, issuing
// InsertBatch, then Execute and ScanMany; every answer must be
// bit-identical to the local backend holding the same records.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/event_shard_server.h"
#include "net/remote_backend.h"
#include "sim/parallel_file.h"
#include "workload/query_gen.h"
#include "workload/record_gen.h"

namespace fxdist {
namespace {

constexpr std::uint64_t kDevices = 4;
constexpr std::uint64_t kSeed = 23;
constexpr std::size_t kThreads = 4;

Schema TestSchema() {
  return Schema::Create({{"f0", ValueType::kInt64, 8},
                         {"f1", ValueType::kInt64, 8}})
      .value();
}

ParallelFile MakeFlat() {
  return ParallelFile::Create(TestSchema(), kDevices, "fx-iu2", kSeed)
      .value();
}

/// Records visited by ScanMany, one list per ref, in delivery order.
std::vector<std::vector<Record>> Gather(const StorageBackend& backend,
                                        const std::vector<BucketRef>& refs) {
  std::vector<std::vector<Record>> lists(refs.size());
  backend.ScanMany(refs, [&lists](std::size_t i, const Record& record) {
    lists[i].push_back(record);
    return true;
  });
  return lists;
}

void ExpectSameResult(const QueryResult& a, const QueryResult& b,
                      std::size_t query) {
  EXPECT_EQ(a.records, b.records) << "query " << query;
  EXPECT_EQ(a.stats.qualified_per_device, b.stats.qualified_per_device)
      << "query " << query;
  EXPECT_EQ(a.stats.total_qualified, b.stats.total_qualified)
      << "query " << query;
  EXPECT_EQ(a.stats.largest_response, b.stats.largest_response)
      << "query " << query;
  EXPECT_EQ(a.stats.records_examined, b.stats.records_examined)
      << "query " << query;
  EXPECT_EQ(a.stats.records_matched, b.stats.records_matched)
      << "query " << query;
  EXPECT_EQ(a.stats.disk_timing.parallel_ms, b.stats.disk_timing.parallel_ms)
      << "query " << query;
}

TEST(TcpWindowOneTest, ConcurrentCallsMatchTheLocalBackend) {
  ParallelFile local = MakeFlat();
  ParallelFile served = MakeFlat();
  auto server = EventShardServer::Start(served);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  RemoteBackend::Options options;
  options.pipeline_window = 1;
  options.insert_batch_chunk = 32;  // several frames per thread
  options.scan_many_chunk = 16;
  auto remote = RemoteBackend::ConnectTcp(
      "127.0.0.1:" + std::to_string((*server)->port()), options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  // Thread t inserts only the records placed on devices d with
  // d % kThreads == t, so each device's storage sees one thread's order;
  // the local backend replays those slices one after another.
  std::vector<std::vector<Record>> slices(kThreads);
  for (const Record& record :
       RecordGenerator::Uniform(TestSchema(), kSeed + 1).value().Take(600)) {
    const std::uint64_t device =
        local.method().DeviceOf(local.HashRecord(record).value());
    slices[device % kThreads].push_back(record);
  }
  for (const auto& slice : slices) {
    for (const Record& record : slice) ASSERT_TRUE(local.Insert(record).ok());
  }
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        EXPECT_TRUE((*remote)->InsertBatch(slices[t]).ok()) << "thread " << t;
      });
    }
    for (auto& thread : threads) thread.join();
  }
  ASSERT_EQ((*remote)->num_records(), local.num_records());

  std::vector<Record> records;
  local.ForEachLiveRecord([&](const Record& r) { records.push_back(r); });
  auto query_gen = QueryGenerator::Create(&records, 0.5, kSeed + 2).value();
  std::vector<ValueQuery> queries;
  std::vector<QueryResult> expected;
  while (queries.size() < 32) {
    queries.push_back(query_gen.Next());
    expected.push_back(local.Execute(queries.back()).value());
  }
  std::vector<BucketRef> refs;
  for (std::uint64_t d = 0; d < kDevices; ++d) {
    for (std::uint64_t b = 0; b < local.spec().TotalBuckets(); ++b) {
      refs.push_back({d, b});
    }
  }
  const auto expected_lists = Gather(local, refs);

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < queries.size(); i += kThreads) {
        auto result = (*remote)->Execute(queries[i]);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ExpectSameResult(*result, expected[i], i);
      }
      EXPECT_EQ(Gather(**remote, refs), expected_lists) << "thread " << t;
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_TRUE((*remote)->Health().ok());
}

}  // namespace
}  // namespace fxdist
