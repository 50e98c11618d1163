// The pipelined wire layer: a golden frame blob pinning the header
// layout, frame-limit and length-slot hardening, the MuxTransport
// ordering/association contract (out-of-order completion, stale drops,
// desync rejection, window back-pressure), jittered retry backoff, the
// handshake's retry, the server's correlation-id echo on damaged
// requests, and a differential proving a ShardedBackend of pipelined
// RemoteBackends is bit-identical to the in-process ShardedBackend it
// mirrors.
//
// Everything runs in-process (LoopbackFrameChannel / scripted channels),
// so the suite is deterministic and TSan-clean.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/query_engine.h"
#include "net/mux_transport.h"
#include "net/remote_backend.h"
#include "net/shard_server.h"
#include "net/transport.h"
#include "net/wire.h"
#include "sim/composite_backend.h"
#include "sim/parallel_file.h"
#include "support/version1_frame.h"
#include "workload/query_gen.h"
#include "workload/record_gen.h"

namespace fxdist {
namespace {

using namespace std::string_literals;

// ---------------------------------------------------------------------
// Golden frame: a byte-for-byte pin of the header layout.  If it stops
// matching, the build no longer interoperates with deployed peers — fix
// the code, never the blob.

// v2 kScanMany request, correlation id 0x1122334455667788, one ref
// (device=1, bucket=7).
const std::string kGoldenV2ScanMany =
    "\x21\x57\x58\x46\x02\x00\x0c\x00\x88\x77\x66\x55\x44\x33\x22\x11\x18"
    "\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00"
    "\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00\x46\x51\x77\xad\xd2\x8d\x69"
    "\x97"s;

TEST(WireLimitsTest, GoldenV2FrameIsStable) {
  PayloadWriter writer;
  writer.U64(1);
  writer.U64(1);
  writer.U64(7);
  WireFrame frame{WireOp::kScanMany, false, writer.Take()};
  frame.correlation_id = 0x1122334455667788ull;
  EXPECT_EQ(EncodeFrame(frame), kGoldenV2ScanMany);

  auto decoded = DecodeFrame(kGoldenV2ScanMany);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->op, WireOp::kScanMany);
  EXPECT_EQ(decoded->correlation_id, 0x1122334455667788ull);

  auto size = FrameSizeFromHeader(kGoldenV2ScanMany);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, kGoldenV2ScanMany.size());
  auto cid = WireCorrelationId(kGoldenV2ScanMany);
  ASSERT_TRUE(cid.ok());
  EXPECT_EQ(*cid, 0x1122334455667788ull);
}

// The correlation id is readable from the first 16 bytes alone (a mux
// routes on it before the length slot matters), but only after magic and
// version check out: a version-1 frame's bytes 8..15 are its length and
// payload, not an id.
TEST(WireLimitsTest, CorrelationIdReadsSixteenValidatedBytes) {
  auto cid = WireCorrelationId(kGoldenV2ScanMany.substr(0, 16));
  ASSERT_TRUE(cid.ok()) << cid.status().ToString();
  EXPECT_EQ(*cid, 0x1122334455667788ull);

  auto truncated = WireCorrelationId(kGoldenV2ScanMany.substr(0, 15));
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kDataLoss);

  std::string bad_magic = kGoldenV2ScanMany;
  bad_magic[0] ^= 0x01;
  auto magic = WireCorrelationId(bad_magic);
  ASSERT_FALSE(magic.ok());
  EXPECT_EQ(magic.status().code(), StatusCode::kInvalidArgument);

  auto v1 = WireCorrelationId(
      EncodeVersion1Frame(WireOp::kScanMany, kGoldenV2ScanMany.substr(20)));
  ASSERT_FALSE(v1.ok());
  EXPECT_EQ(v1.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(v1.status().message().find("wire version mismatch"),
            std::string::npos)
      << v1.status().ToString();
}

// Satellite: an announced length past the frame limit must be rejected
// from the header alone — DataLoss, before any payload allocation.
TEST(WireLimitsTest, OversizedAnnouncedLengthIsDataLossNotAnAllocation) {
  std::string header = kGoldenV2ScanMany.substr(0, kWireHeaderSize);
  const auto poke_len = [&header](std::uint32_t len) {
    for (std::size_t i = 0; i < 4; ++i) {
      header[kWireHeaderSize - 4 + i] =
          static_cast<char>((len >> (8 * i)) & 0xff);
    }
  };

  poke_len(kWireMaxPayload + 1);
  auto size = FrameSizeFromHeader(header);
  ASSERT_FALSE(size.ok());
  EXPECT_EQ(size.status().code(), StatusCode::kDataLoss);
  EXPECT_FALSE(DecodeFrame(header).ok());

  // A handshake-negotiated cap tightens the same check...
  poke_len(1024);
  EXPECT_FALSE(FrameSizeFromHeader(header, /*max_payload=*/512).ok());
  EXPECT_TRUE(FrameSizeFromHeader(header, /*max_payload=*/2048).ok());

  // ...and nothing can negotiate past the absolute ceiling.
  poke_len(kWireMaxPayloadCeiling + 1);
  EXPECT_FALSE(FrameSizeFromHeader(header, 0xffffffffu).ok());
}

TEST(WireLimitsTest, EncodeBoundedRefusesOversizedPayloads) {
  WireFrame frame{WireOp::kScanBucket, false, std::string(1025, 'x')};
  auto encoded = EncodeFrameBounded(frame, /*max_payload=*/1024);
  ASSERT_FALSE(encoded.ok());
  EXPECT_EQ(encoded.status().code(), StatusCode::kInvalidArgument);
  frame.payload.resize(1024);
  EXPECT_TRUE(EncodeFrameBounded(frame, 1024).ok());
}

// Satellite: a string whose size cannot be represented in the 32-bit
// wire length slot must poison the writer instead of silently truncating
// the length (and then desyncing every later field).  The oversized
// string_view is fabricated — the writer must reject it from the size
// alone, without touching the bytes.
TEST(WireLimitsTest, WriterPoisonsOnLengthSlotOverflow) {
  const char byte = 'x';
  const std::string_view fabricated(&byte, (1ull << 32));

  PayloadWriter writer;
  writer.U32(7);
  const std::size_t before = writer.payload().size();
  writer.Str(fabricated);
  EXPECT_FALSE(writer.ok());
  EXPECT_EQ(writer.payload().size(), before);  // nothing half-appended

  writer.U64(42);  // sticky: later writes are no-ops
  EXPECT_EQ(writer.payload().size(), before);

  const Status status = writer.CheckOk();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);

  PayloadWriter fine;
  fine.Str("small");
  EXPECT_TRUE(fine.ok());
  EXPECT_TRUE(fine.CheckOk().ok());
}

// ---------------------------------------------------------------------
// MuxTransport contract, driven through scripted channels.

std::string EchoReply(const std::string& request) {
  auto frame = DecodeFrame(request);
  EXPECT_TRUE(frame.ok()) << frame.status().ToString();
  WireFrame reply;
  reply.op = frame->op;
  reply.is_reply = true;
  reply.payload = frame->payload;
  reply.correlation_id = frame->correlation_id;
  return EncodeFrame(reply);
}

std::string MuxRequest(std::uint64_t cid, std::string payload) {
  WireFrame frame{WireOp::kExecute, false, std::move(payload)};
  frame.correlation_id = cid;
  return EncodeFrame(frame);
}

// Holds every reply until `hold` requests have been sent, then releases
// them in reverse arrival order — forces out-of-order completion.
class ReorderingChannel final : public FrameChannel {
 public:
  explicit ReorderingChannel(std::size_t hold) : hold_(hold) {}

  Status Send(const std::string& frame) override {
    std::string reply = EchoReply(frame);
    std::lock_guard<std::mutex> lock(mutex_);
    held_.push_back(std::move(reply));
    if (held_.size() >= hold_) {
      while (!held_.empty()) {
        ready_.push_back(std::move(held_.back()));
        held_.pop_back();
      }
      cv_.notify_all();
    }
    return Status::OK();
  }

  Result<std::string> Recv() override {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return shutdown_ || !ready_.empty(); });
    if (ready_.empty()) return Status::Unavailable("channel shut down");
    std::string reply = std::move(ready_.front());
    ready_.pop_front();
    return reply;
  }

  void Shutdown() override {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    cv_.notify_all();
  }

 private:
  const std::size_t hold_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::string> held_;
  std::deque<std::string> ready_;
  bool shutdown_ = false;
};

// Records every sent frame and delivers only replies pushed by the test.
class ScriptedChannel final : public FrameChannel {
 public:
  Status Send(const std::string& frame) override {
    std::lock_guard<std::mutex> lock(mutex_);
    sent_.push_back(frame);
    cv_.notify_all();
    return Status::OK();
  }

  Result<std::string> Recv() override {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return shutdown_ || !replies_.empty(); });
    if (replies_.empty()) return Status::Unavailable("channel shut down");
    std::string reply = std::move(replies_.front());
    replies_.pop_front();
    return reply;
  }

  void Shutdown() override {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    cv_.notify_all();
  }

  void Push(std::string reply) {
    std::lock_guard<std::mutex> lock(mutex_);
    replies_.push_back(std::move(reply));
    cv_.notify_all();
  }

  /// Blocks until at least `count` frames were sent; returns a copy.
  std::vector<std::string> WaitForSends(std::size_t count) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this, count] { return sent_.size() >= count; });
    return sent_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::string> sent_;
  std::deque<std::string> replies_;
  bool shutdown_ = false;
};

TEST(MuxTransportTest, OutOfOrderRepliesCompleteTheRightWaiters) {
  MuxTransport mux(std::make_unique<ReorderingChannel>(/*hold=*/2));
  Result<std::string> first = Status::Internal("unset");
  Result<std::string> second = Status::Internal("unset");
  std::thread t1([&] { first = mux.RoundTrip(MuxRequest(1, "alpha")); });
  std::thread t2([&] { second = mux.RoundTrip(MuxRequest(2, "beta")); });
  t1.join();
  t2.join();

  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  auto reply1 = DecodeFrame(*first);
  auto reply2 = DecodeFrame(*second);
  ASSERT_TRUE(reply1.ok() && reply2.ok());
  EXPECT_EQ(reply1->payload, "alpha");
  EXPECT_EQ(reply1->correlation_id, 1u);
  EXPECT_EQ(reply2->payload, "beta");
  EXPECT_EQ(reply2->correlation_id, 2u);
  EXPECT_EQ(mux.max_in_flight(), 2u);
  EXPECT_EQ(mux.stale_replies(), 0u);
}

TEST(MuxTransportTest, StaleReplyIsDroppedNotMisdelivered) {
  auto channel = std::make_unique<ScriptedChannel>();
  ScriptedChannel* script = channel.get();
  MuxTransport mux(std::move(channel));

  Result<std::string> first = Status::Internal("unset");
  std::thread t1([&] { first = mux.RoundTrip(MuxRequest(5, "one")); });
  script->Push(EchoReply(script->WaitForSends(1)[0]));
  t1.join();
  ASSERT_TRUE(first.ok());

  Result<std::string> second = Status::Internal("unset");
  std::thread t2([&] { second = mux.RoundTrip(MuxRequest(7, "two")); });
  const auto sent = script->WaitForSends(2);
  // Replay the completed call's reply (id 5 was issued, is no longer
  // pending): it must be dropped, and the real reply must still land.
  script->Push(EchoReply(sent[0]));
  script->Push(EchoReply(sent[1]));
  t2.join();

  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(DecodeFrame(*second)->payload, "two");
  EXPECT_EQ(mux.stale_replies(), 1u);
}

TEST(MuxTransportTest, NeverIssuedCorrelationIdBreaksThenHeals) {
  auto channel = std::make_unique<ScriptedChannel>();
  ScriptedChannel* script = channel.get();
  MuxTransport mux(std::move(channel));

  Result<std::string> first = Status::Internal("unset");
  std::thread t1([&] { first = mux.RoundTrip(MuxRequest(3, "doomed")); });
  script->WaitForSends(1);
  // A reply naming an id this connection never issued means the peer is
  // answering someone else's stream: every pending call must fail.
  script->Push(EchoReply(MuxRequest(999999, "from another stream")));
  t1.join();
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kDataLoss);

  // The connection healed lazily (nothing pending): the next call works.
  Result<std::string> second = Status::Internal("unset");
  std::thread t2([&] { second = mux.RoundTrip(MuxRequest(4, "healed")); });
  script->Push(EchoReply(script->WaitForSends(2)[1]));
  t2.join();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(DecodeFrame(*second)->payload, "healed");
}

TEST(MuxTransportTest, Version1ReplyIsDataLossAndBreaksTheConnection) {
  auto channel = std::make_unique<ScriptedChannel>();
  ScriptedChannel* script = channel.get();
  MuxTransport mux(std::move(channel));

  Result<std::string> first = Status::Internal("unset");
  std::thread t1([&] { first = mux.RoundTrip(MuxRequest(1, "v1 peer")); });
  script->WaitForSends(1);
  // A version-1 frame carries no correlation id: nothing can route it.
  script->Push(EncodeVersion1Frame(WireOp::kExecute, "v1 peer"));
  t1.join();
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kDataLoss);

  Result<std::string> second = Status::Internal("unset");
  std::thread t2([&] { second = mux.RoundTrip(MuxRequest(2, "healed")); });
  script->Push(EchoReply(script->WaitForSends(2)[1]));
  t2.join();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
}

TEST(MuxTransportTest, WindowSaturationBlocksUntilASlotFrees) {
  auto channel = std::make_unique<ScriptedChannel>();
  ScriptedChannel* script = channel.get();
  MuxTransportOptions options;
  options.window = 2;
  MuxTransport mux(std::move(channel), options);

  std::vector<Result<std::string>> results(3, Status::Internal("unset"));
  std::vector<std::thread> callers;
  for (std::uint64_t i = 0; i < 3; ++i) {
    callers.emplace_back([&mux, &results, i] {
      results[i] = mux.RoundTrip(MuxRequest(i + 1, "r" + std::to_string(i)));
    });
  }
  // Only two fit the window; the third caller is parked.  Releasing one
  // reply frees a slot and the third request reaches the channel.
  auto sent = script->WaitForSends(2);
  script->Push(EchoReply(sent[0]));
  sent = script->WaitForSends(3);
  script->Push(EchoReply(sent[1]));
  script->Push(EchoReply(sent[2]));
  for (auto& t : callers) t.join();

  for (const auto& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_EQ(mux.max_in_flight(), 2u);
}

TEST(MuxTransportTest, TimedOutCallAbandonsItsIdAndLateReplyIsStale) {
  auto channel = std::make_unique<ScriptedChannel>();
  ScriptedChannel* script = channel.get();
  MuxTransportOptions options;
  options.call_timeout_ms = 50;
  MuxTransport mux(std::move(channel), options);

  auto slow = mux.RoundTrip(MuxRequest(1, "never answered"));
  ASSERT_FALSE(slow.ok());
  EXPECT_EQ(slow.status().code(), StatusCode::kDeadlineExceeded);

  // The late reply names an issued-but-abandoned id: dropped as stale,
  // and the connection keeps working.
  script->Push(EchoReply(script->WaitForSends(1)[0]));
  Result<std::string> next = Status::Internal("unset");
  std::thread t([&] { next = mux.RoundTrip(MuxRequest(2, "alive")); });
  script->Push(EchoReply(script->WaitForSends(2)[1]));
  t.join();
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(mux.stale_replies(), 1u);
}

// ---------------------------------------------------------------------
// Pipelined RemoteBackend rigs.

Schema RigSchema() {
  return Schema::Create({{"f0", ValueType::kInt64, 8},
                         {"f1", ValueType::kInt64, 8}})
      .value();
}

Record RigRecord(std::int64_t a, std::int64_t b) {
  return {FieldValue{a}, FieldValue{b}};
}

ValueQuery QueryFor(const Record& record) {
  ValueQuery query(record.size());
  query[0] = record[0];
  return query;
}

struct PipelinedRig {
  std::shared_ptr<ParallelFile> served;
  std::shared_ptr<ShardService> service;
  FaultInjectingTransport* faults = nullptr;  // owned by `remote`
  std::unique_ptr<RemoteBackend> remote;
};

PipelinedRig MakePipelinedRig(RemoteBackend::Options options = [] {
  RemoteBackend::Options o;
  o.backoff_initial_ms = 0;
  return o;
}()) {
  PipelinedRig rig;
  rig.served = std::make_shared<ParallelFile>(
      ParallelFile::Create(RigSchema(), 2, "fx-iu2", 7).value());
  rig.service = std::make_shared<ShardService>(*rig.served);
  auto channel = std::make_unique<LoopbackFrameChannel>(
      [served = rig.served, service = rig.service](
          const std::string& request) {
        return service->HandleFrame(request);
      });
  auto faulty = std::make_unique<FaultInjectingTransport>(
      std::make_unique<MuxTransport>(std::move(channel)));
  rig.faults = faulty.get();
  auto remote = RemoteBackend::Connect(std::move(faulty), options);
  EXPECT_TRUE(remote.ok()) << remote.status().ToString();
  rig.remote = *std::move(remote);
  return rig;
}

TEST(PipelinedRemoteTest, NegotiatesV2AndScanMany) {
  PipelinedRig rig = MakePipelinedRig();
  EXPECT_EQ(rig.remote->negotiated_max_payload(), kWireMaxPayload);

  ASSERT_TRUE(rig.remote->Insert(RigRecord(1, 2)).ok());
  ASSERT_TRUE(rig.remote->Insert(RigRecord(3, 4)).ok());

  // One kScanMany frame gathers the whole bucket space.
  std::vector<BucketRef> refs;
  const std::uint64_t total = rig.remote->spec().TotalBuckets();
  for (std::uint64_t d = 0; d < rig.remote->num_devices(); ++d) {
    for (std::uint64_t b = 0; b < total; ++b) refs.push_back({d, b});
  }
  const std::uint64_t calls_before = rig.faults->calls();
  std::uint64_t visited = 0;
  rig.remote->ScanMany(refs, [&visited](std::size_t, const Record&) {
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, 2u);
  EXPECT_EQ(rig.faults->calls() - calls_before, 1u);  // one frame, not 128
}

// A server that withholds ScanMany or InsertBatch speaks an older wire
// than this client: Connect refuses it instead of degrading to per-bucket
// or per-record round trips.
TEST(PipelinedRemoteTest, ConnectRequiresScanManyAndInsertBatch) {
  for (const std::uint32_t withheld :
       {kWireFeatureScanMany, kWireFeatureInsertBatch}) {
    auto served = std::make_shared<ParallelFile>(
        ParallelFile::Create(RigSchema(), 2, "fx-iu2", 7).value());
    auto service = std::make_shared<ShardService>(*served);
    auto channel = std::make_unique<LoopbackFrameChannel>(
        [service, withheld](const std::string& request) {
          auto frame = DecodeFrame(request);
          if (frame.ok() && frame->op == WireOp::kHandshake) {
            PayloadReader reader(frame->payload);
            const std::uint64_t client_max = reader.U64().ValueOr(0);
            const std::uint32_t wants = reader.U32().ValueOr(0);
            PayloadWriter hello;
            hello.U64(client_max);
            hello.U32(wants & ~withheld);
            frame->payload = hello.Take();
            return service->HandleFrame(EncodeFrame(*frame));
          }
          return service->HandleFrame(request);
        });
    RemoteBackend::Options options;
    options.backoff_initial_ms = 0;
    auto remote = RemoteBackend::Connect(
        std::make_unique<MuxTransport>(std::move(channel)), options);
    ASSERT_FALSE(remote.ok()) << "withheld feature " << withheld;
    EXPECT_EQ(remote.status().code(), StatusCode::kFailedPrecondition)
        << remote.status().ToString();
  }
}

TEST(PipelinedRemoteTest, RetriesKeepExactCallCountsThroughTheMux) {
  PipelinedRig rig = MakePipelinedRig();
  ASSERT_TRUE(rig.remote->Insert(RigRecord(1, 2)).ok());

  const std::uint64_t calls_before = rig.faults->calls();
  rig.faults->InjectFault(FaultKind::kDrop, 2);
  auto result = rig.remote->Execute(QueryFor(RigRecord(1, 2)));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.records_matched, 1u);
  EXPECT_EQ(rig.faults->calls() - calls_before, 3u);
  EXPECT_TRUE(rig.remote->Health().ok());
}

// The handshake is an idempotent call like any other: a dropped request
// or a lost reply is retried (the server re-answers an announced client
// without listing it twice), and a server that never answers fails
// Connect after max_attempts round trips.
TEST(PipelinedRemoteTest, HandshakeRetriesLikeAnyIdempotentCall) {
  auto served = std::make_shared<ParallelFile>(
      ParallelFile::Create(RigSchema(), 2, "fx-iu2", 7).value());
  auto service = std::make_shared<ShardService>(*served);
  const auto faulty_transport = [&service]() {
    return std::make_unique<FaultInjectingTransport>(
        std::make_unique<MuxTransport>(std::make_unique<LoopbackFrameChannel>(
            [service](const std::string& request) {
              return service->HandleFrame(request);
            })));
  };
  RemoteBackend::Options options;
  options.backoff_initial_ms = 0;
  options.client_id = "tenant-3";

  for (const FaultKind kind :
       {FaultKind::kDrop, FaultKind::kDelayPastDeadline}) {
    auto transport = faulty_transport();
    FaultInjectingTransport* faults = transport.get();
    faults->InjectFault(kind, 2);
    auto remote = RemoteBackend::Connect(std::move(transport), options);
    ASSERT_TRUE(remote.ok()) << static_cast<int>(kind) << ": "
                             << remote.status().ToString();
    EXPECT_EQ(faults->calls(), 3u);
    EXPECT_EQ(faults->faulted(), 2u);
    EXPECT_EQ((*remote)->negotiated_max_payload(), kWireMaxPayload);
    ASSERT_TRUE((*remote)->Insert(RigRecord(5, 6)).ok());
  }
  const auto clients = service->AnnouncedClients();
  ASSERT_EQ(clients.size(), 1u);
  EXPECT_EQ(clients[0], "tenant-3");
  EXPECT_EQ(served->num_records(), 2u);

  auto transport = faulty_transport();
  FaultInjectingTransport* faults = transport.get();
  faults->InjectFault(FaultKind::kDrop, -1);
  auto refused = RemoteBackend::Connect(std::move(transport), options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable)
      << refused.status().ToString();
  EXPECT_EQ(faults->calls(), static_cast<std::uint64_t>(options.max_attempts));
  EXPECT_EQ(faults->delivered(), 0u);
}

// A request the server cannot decode is answered with a kError reply
// that carries the request's correlation id whenever the header is good
// enough to yield one (so the client's mux can wake the right waiter),
// and id 0 when it is not.
TEST(ShardErrorReplyTest, EchoesTheCorrelationIdOfADamagedRequest) {
  auto served = std::make_shared<ParallelFile>(
      ParallelFile::Create(RigSchema(), 2, "fx-iu2", 7).value());
  ShardService service(*served);

  struct Case {
    const char* name;
    std::string request;
    StatusCode code;
    std::uint64_t cid;
  };
  std::string bad_checksum = kGoldenV2ScanMany;
  bad_checksum.back() ^= 0x01;
  std::string bad_magic = kGoldenV2ScanMany;
  bad_magic[0] ^= 0x01;
  WireFrame reply_frame{WireOp::kNumRecords, /*is_reply=*/true, ""};
  reply_frame.correlation_id = 0x0102030405060708ull;
  const std::vector<Case> cases = {
      {"checksum", bad_checksum, StatusCode::kDataLoss, 0x1122334455667788ull},
      {"truncated", kGoldenV2ScanMany.substr(0, kGoldenV2ScanMany.size() - 1),
       StatusCode::kDataLoss, 0x1122334455667788ull},
      {"reply-as-request", EncodeFrame(reply_frame),
       StatusCode::kInvalidArgument, 0x0102030405060708ull},
      {"magic", bad_magic, StatusCode::kInvalidArgument, 0},
      {"short", kGoldenV2ScanMany.substr(0, 10), StatusCode::kDataLoss, 0},
  };
  for (const Case& c : cases) {
    auto reply = DecodeFrame(service.HandleFrame(c.request));
    ASSERT_TRUE(reply.ok()) << c.name << ": " << reply.status().ToString();
    EXPECT_EQ(reply->op, WireOp::kError) << c.name;
    EXPECT_TRUE(reply->is_reply) << c.name;
    EXPECT_EQ(reply->correlation_id, c.cid) << c.name;
    PayloadReader reader(reply->payload);
    Status status;
    ASSERT_TRUE(reader.ReadStatusInto(&status).ok()) << c.name;
    EXPECT_EQ(status.code(), c.code) << c.name << ": " << status.ToString();
    EXPECT_TRUE(reader.ExpectEnd().ok()) << c.name;
  }
  EXPECT_EQ(served->num_records(), 0u);
}

// Satellite: retry backoff draws decorrelated jitter from an injected
// seed (replayable schedules) and the total sleep is clamped to the
// deadline budget.
TEST(PipelinedRemoteTest, JitterBackoffIsDeterministicAndDeadlineClamped) {
  const auto run = [](std::uint64_t seed) {
    auto sleeps = std::make_shared<std::vector<std::uint64_t>>();
    auto served = std::make_shared<ParallelFile>(
        ParallelFile::Create(RigSchema(), 2, "fx-iu2", 7).value());
    auto service = std::make_shared<ShardService>(*served);
    auto loopback = std::make_unique<LoopbackTransport>(
        [served, service](const std::string& request) {
          return service->HandleFrame(request);
        });
    auto faulty =
        std::make_unique<FaultInjectingTransport>(std::move(loopback));
    FaultInjectingTransport* faults = faulty.get();
    RemoteBackend::Options options;
    options.max_attempts = 8;
    options.backoff_initial_ms = 5;
    options.backoff_max_ms = 40;
    options.deadline_ms = 60;
    options.backoff_seed = seed;
    options.sleep_fn = [sleeps](std::uint64_t ms) { sleeps->push_back(ms); };
    auto remote = RemoteBackend::Connect(std::move(faulty), options);
    EXPECT_TRUE(remote.ok()) << remote.status().ToString();
    faults->InjectFault(FaultKind::kDrop, -1);
    auto result = (*remote)->Execute(QueryFor(RigRecord(1, 2)));
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
    return *sleeps;
  };

  const auto a = run(123);
  const auto b = run(123);
  const auto c = run(77);
  EXPECT_EQ(a, b);  // same seed, same call history => same schedule
  EXPECT_NE(a, c);  // a different seed decorrelates
  ASSERT_FALSE(a.empty());
  EXPECT_GE(a.front(), 5u);  // first draw starts at backoff_initial
  std::uint64_t total = 0;
  for (std::uint64_t sleep : a) {
    EXPECT_LE(sleep, 40u);  // per-sleep cap
    total += sleep;
  }
  EXPECT_LE(total, 60u);  // clamped to the deadline budget
}

// ---------------------------------------------------------------------
// Differential: a ShardedBackend of pipelined remotes vs the in-process
// ShardedBackend it mirrors, serially and through the batch engine.

constexpr std::uint64_t kDevices = 4;
constexpr std::uint64_t kSeed = 11;
constexpr std::uint64_t kRecords = 400;

std::unique_ptr<StorageBackend> MakeFlatChild() {
  return std::make_unique<ParallelFile>(
      ParallelFile::Create(RigSchema(), kDevices, "fx-iu2", kSeed).value());
}

std::unique_ptr<StorageBackend> MakeLocalSharded() {
  std::vector<std::unique_ptr<StorageBackend>> children;
  for (std::uint64_t d = 0; d < kDevices; ++d) {
    children.push_back(MakeFlatChild());
  }
  auto created = ShardedBackend::Create(std::move(children));
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return std::make_unique<ShardedBackend>(*std::move(created));
}

std::unique_ptr<StorageBackend> MakePipelinedSharded() {
  std::vector<std::unique_ptr<StorageBackend>> children;
  for (std::uint64_t d = 0; d < kDevices; ++d) {
    auto served = std::shared_ptr<StorageBackend>(MakeFlatChild());
    auto service = std::make_shared<ShardService>(*served);
    auto channel = std::make_unique<LoopbackFrameChannel>(
        [served, service](const std::string& request) {
          return service->HandleFrame(request);
        });
    auto remote = RemoteBackend::Connect(
        std::make_unique<MuxTransport>(std::move(channel)));
    EXPECT_TRUE(remote.ok()) << remote.status().ToString();
    if (!remote.ok()) return nullptr;
    children.push_back(*std::move(remote));
  }
  auto created = ShardedBackend::Create(std::move(children));
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return std::make_unique<ShardedBackend>(*std::move(created));
}

void ExpectSameResult(const QueryResult& a, const QueryResult& b,
                      const char* context) {
  EXPECT_EQ(a.records, b.records) << context;
  EXPECT_EQ(a.stats.qualified_per_device, b.stats.qualified_per_device)
      << context;
  EXPECT_EQ(a.stats.total_qualified, b.stats.total_qualified) << context;
  EXPECT_EQ(a.stats.largest_response, b.stats.largest_response) << context;
  EXPECT_EQ(a.stats.optimal_bound, b.stats.optimal_bound) << context;
  EXPECT_EQ(a.stats.strict_optimal, b.stats.strict_optimal) << context;
  EXPECT_EQ(a.stats.records_examined, b.stats.records_examined) << context;
  EXPECT_EQ(a.stats.records_matched, b.stats.records_matched) << context;
  EXPECT_EQ(a.stats.disk_timing.parallel_ms, b.stats.disk_timing.parallel_ms)
      << context;
  EXPECT_EQ(a.stats.disk_timing.serial_ms, b.stats.disk_timing.serial_ms)
      << context;
}

TEST(PipelinedRemoteDifferentialTest, SerialAndBatchedAreBitIdentical) {
  auto local = MakeLocalSharded();
  auto remote = MakePipelinedSharded();
  ASSERT_NE(remote, nullptr);

  auto gen = RecordGenerator::Uniform(RigSchema(), kSeed + 1).value();
  for (const Record& record : gen.Take(kRecords)) {
    ASSERT_TRUE(local->Insert(record).ok());
    ASSERT_TRUE(remote->Insert(record).ok());
  }
  ASSERT_EQ(local->num_records(), remote->num_records());

  auto records = RecordGenerator::Uniform(RigSchema(), kSeed + 1)
                     .value()
                     .Take(kRecords);
  auto qgen = QueryGenerator::Create(&records, 0.5, kSeed + 2).value();
  std::vector<ValueQuery> queries;
  while (queries.size() < 40) queries.push_back(qgen.Next());

  // Serial plane.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto a = local->Execute(queries[i]);
    auto b = remote->Execute(queries[i]);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectSameResult(*a, *b, "serial");
  }

  // Batch engine plane: every bucket gather crosses the wire as frames
  // per shard, not per bucket, and must change nothing observable.
  EngineOptions engine_options;
  engine_options.num_threads = 4;
  QueryEngine local_engine(*local, engine_options);
  QueryEngine remote_engine(*remote, engine_options);
  auto a = local_engine.ExecuteBatch(queries);
  auto b = remote_engine.ExecuteBatch(queries);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    ExpectSameResult((*a)[i], (*b)[i], "batched");
  }
}

}  // namespace
}  // namespace fxdist
