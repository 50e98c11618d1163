// RemoteBackend: a StorageBackend whose storage lives behind a Transport.
//
// The handshake ships the server backend's construction blueprint
// (sim/persistence.h BackendBlueprintText); the client builds an *empty*
// placement-identical local twin from it.  Because all hashing and
// placement is deterministic in the blueprint, everything about *where*
// records go — spec(), method(), device_map(), HashQuery, HashRecord,
// ServingDevice — is answered by the twin with zero round trips, while
// everything about *what is stored* (Insert/Delete/Execute/ScanBucket/
// counts) goes over the wire.  This is what lets a ShardedBackend treat
// a remote shard exactly like a local child.
//
// Wire: one handshake round trip negotiates the frame limit and the
// features.  Connect fails with FailedPrecondition unless the server
// grants ScanMany and InsertBatch; AnalyzeRange stays optional.  Every
// request carries a fresh correlation id (new id per retry attempt, so a
// late reply to an abandoned attempt can never complete a newer one) and
// the reply — an error reply included — must echo it; a mismatch is
// DataLoss.  Payloads are bounded by the negotiated frame limit on both
// sides.  The batched scatter-gather op crosses the wire as one
// kScanMany frame per chunk of bucket refs, and a batch insert as one
// kInsertBatch frame per chunk of records; only a chunk whose frame
// outgrows the limit falls back to per-bucket / per-record frames.
//
// Failure semantics (the transport taxonomy, net/transport.h):
//   * Unavailable replies are retried for every operation (the request
//     was never delivered), with decorrelated-jitter backoff (seeded RNG
//     so tests are deterministic; total sleep is clamped to the
//     remaining deadline budget, so retries can never overshoot the op
//     deadline).
//   * DeadlineExceeded / DataLoss are indeterminate — the request may
//     have executed — so only idempotent operations (reads) retry;
//     a mutation that hits one fails immediately rather than risking a
//     duplicate side effect.
//   * Once the retry budget is exhausted (or a mutation hit an
//     indeterminate failure), the backend enters a sticky *terminal*
//     state: every operation returns Unavailable, ScanBucket visits
//     nothing, and Health() reports the cause — the same shape as a
//     local dead child, so ShardedBackend/ReplicatedBackend degraded
//     routing and the executors' Health escalation react identically.
//   * A remote whose bucket space grew past the frozen plane (dynamic
//     directory growth, detected via the shape echoed by every Insert
//     reply) poisons the client with a sticky FailedPrecondition,
//     mirroring ShardedBackend's own frozen-plane contract.

#ifndef FXDIST_NET_REMOTE_BACKEND_H_
#define FXDIST_NET_REMOTE_BACKEND_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "analysis/range_sweep.h"
#include "net/transport.h"
#include "net/wire.h"
#include "sim/composite_backend.h"
#include "sim/storage_backend.h"
#include "util/status.h"

namespace fxdist {

struct RemoteBackendOptions {
  /// Socket-level per-operation deadline (ConnectTcp only; in-process
  /// transports have no deadline to miss).  Also the budget retry
  /// backoff sleeping is clamped to.
  int deadline_ms = 5000;
  /// Total tries per operation, including the first.
  int max_attempts = 4;
  /// Backoff between tries: decorrelated jitter drawn from
  /// [initial, 3 * previous), capped at max and at the remaining
  /// deadline budget.  0 disables sleeping (deterministic tests).
  int backoff_initial_ms = 1;
  int backoff_max_ms = 100;
  /// Seed of the jitter RNG — injected so tests replay exact schedules.
  std::uint64_t backoff_seed = 0x5eedafedf00dull;
  /// Test hook: replaces this_thread::sleep_for when set.  Receives the
  /// chosen sleep in milliseconds.
  std::function<void(std::uint64_t)> sleep_fn;
  /// Bucket refs per kScanMany frame; a chunk whose reply outgrows the
  /// frame limit falls back to per-bucket scans.
  std::size_t scan_many_chunk = 512;
  /// Records per kInsertBatch frame; a chunk whose request outgrows the
  /// frame limit falls back to per-record inserts.
  std::size_t insert_batch_chunk = 512;
  /// In-flight window of the MuxTransport ConnectTcp builds (0 acts as
  /// 1, which serializes the connection's calls).
  std::size_t pipeline_window = 32;
  /// Tenant identity announced in the handshake (a trailing optional
  /// field, sent only when set).  Empty means anonymous; servers use it
  /// for per-client admission/QoS accounting, never for placement.
  std::string client_id;
};

class RemoteBackend final : public StorageBackend {
 public:
  using Options = RemoteBackendOptions;

  /// Performs the handshake over `transport` and builds the local twin.
  /// FailedPrecondition when the server withholds ScanMany or
  /// InsertBatch.
  static Result<std::unique_ptr<RemoteBackend>> Connect(
      std::unique_ptr<Transport> transport, Options options = {});

  /// Dials "host:port", then Connect().  The connection is a
  /// MuxTransport over a SocketFrameChannel: up to pipeline_window
  /// requests overlap on the wire.
  static Result<std::unique_ptr<RemoteBackend>> ConnectTcp(
      const std::string& host_port, Options options = {});

  // -- Placement plane: answered locally by the twin -------------------
  std::string backend_name() const override { return twin_->backend_name(); }
  const FieldSpec& spec() const override { return twin_->spec(); }
  const DistributionMethod& method() const override {
    return twin_->method();
  }
  const DeviceMap& device_map() const override { return twin_->device_map(); }
  Result<PartialMatchQuery> HashQuery(
      const ValueQuery& query) const override {
    return twin_->HashQuery(query);
  }
  Result<BucketId> HashRecord(const Record& record) const override {
    return twin_->HashRecord(record);
  }
  std::uint64_t ServingDevice(std::uint64_t device,
                              std::uint64_t linear_bucket) const override {
    return twin_->ServingDevice(device, linear_bucket);
  }
  bool HasDegradedRouting() const override {
    return twin_->HasDegradedRouting();
  }
  std::vector<ValueType> FieldTypes() const override {
    return twin_->FieldTypes();
  }
  void SaveParams(std::ostream& out) const override {
    twin_->SaveParams(out);
  }

  // -- Storage plane: one round trip each ------------------------------
  std::uint64_t num_records() const override;
  Status Insert(Record record) override;
  /// One kInsertBatch frame per chunk (a migration copy crosses the wire
  /// as a handful of frames instead of one per record); a chunk whose
  /// frame outgrows the limit is inserted record by record.
  Status InsertBatch(std::vector<Record> records) override;
  /// InsertBatch with a caller-chosen dedup token: the server remembers
  /// the token with the applied count, so a chunk whose ack was lost can
  /// be *re-sent safely* — a duplicate token acks without re-applying.
  /// That makes tagged chunks effectively idempotent, so indeterminate
  /// failures retry here instead of failing the batch.  Chunks derive
  /// per-chunk tokens from `token` deterministically; the same (records,
  /// token, chunk size) always re-sends identical tagged chunks.  No
  /// per-record fallback: a chunk the frame limit cannot carry is an
  /// error (pick a smaller insert_batch_chunk).
  Status InsertBatchTagged(std::vector<Record> records, std::uint64_t token);
  Result<std::uint64_t> Delete(const ValueQuery& query) override;
  bool IsBucketLive(std::uint64_t device,
                    std::uint64_t linear_bucket) const override;
  void ScanBucket(
      std::uint64_t device, std::uint64_t linear_bucket,
      const std::function<bool(const Record&)>& fn) const override;
  /// One kScanMany frame per chunk; a chunk whose reply outgrows the
  /// frame limit is gathered with per-bucket kScanBucket round trips.
  void ScanMany(
      const std::vector<BucketRef>& refs,
      const std::function<bool(std::size_t, const Record&)>& fn)
      const override;
  /// Every gather is a round trip: a composite parent should overlap
  /// this shard's scans with its siblings'.
  bool ScanPrefersFanout() const override { return true; }
  /// Filter pushdown: one kExecute frame, which the server answers with
  /// the shared StorageBackend::Execute over its own backend — only the
  /// matched records cross the wire.
  Result<QueryResult> Execute(const ValueQuery& query) const override;
  std::vector<std::uint64_t> RecordCountsPerDevice() const override;
  void ForEachLiveRecord(
      const std::function<void(const Record&)>& fn) const override;

  /// Forwarded to the remote replica plane (Unimplemented when the
  /// remote backend is not replicated); on success the twin's device
  /// state is updated too, so degraded routing matches the server.
  Status MarkDown(std::uint64_t device);
  Status MarkUp(std::uint64_t device);

  /// Terminal (Unavailable) or poisoned (FailedPrecondition) state.
  Status Health() const override;

  /// Mutations observed, merging two monotone counters: the local count
  /// the base class keeps (mutations issued through this handle) and the
  /// server's authoritative count echoed on every mutating reply and on
  /// the kTopology probe.  The max of the two is what cache invalidation
  /// needs: it bumps when *any* writer's mutation has been observed, so
  /// a shared remote shard no longer serves stale hits forever (old
  /// servers echo nothing and behave exactly as before).
  std::uint64_t MutationEpoch() const override {
    return std::max(StorageBackend::MutationEpoch(),
                    server_epoch_.load(std::memory_order_acquire));
  }

  /// Server-side bucket-range sweep (kAnalyzeRange): per-device
  /// qualified counts of `unspecified_mask`'s representative query over
  /// linear buckets [start, end).  Unimplemented when the server did not
  /// grant the feature — callers fall back to AnalyzeBucketRange on
  /// device_map(), which computes the identical integers locally.
  Result<RangePartial> AnalyzeRange(std::uint64_t unspecified_mask,
                                    std::uint64_t start,
                                    std::uint64_t end) const;

  /// Negotiated optional feature and frame limit — diagnostics and tests.
  bool analyze_range_enabled() const {
    return (features_ & kWireFeatureAnalyzeRange) != 0;
  }
  std::uint32_t negotiated_max_payload() const {
    return negotiated_max_payload_;
  }

  /// What the server's topology plane reports right now (kTopology).
  /// An old server answers the unknown opcode with InvalidArgument.
  struct TopologySnapshot {
    std::uint64_t version = 1;
    std::uint64_t migrating_buckets = 0;
    std::string blueprint;  ///< serving plane's construction text
  };
  Result<TopologySnapshot> RemoteTopology() const;

 private:
  RemoteBackend(std::unique_ptr<Transport> transport, Options options)
      : transport_(std::move(transport)), options_(std::move(options)) {}

  /// One operation: encode, round-trip with retries, decode the reply
  /// status, return the body.  `idempotent` selects the retry policy.
  Result<std::string> Call(WireOp op, std::string payload,
                           bool idempotent) const;
  /// Parses a handshake reply body, records the negotiated limit and
  /// features, and builds the twin.
  Status FinishHandshake(const std::string& body);
  /// The per-bucket gather used by ScanBucket and by ScanMany for a
  /// chunk too large for one frame.
  void ScanBucketRemote(std::uint64_t device, std::uint64_t linear_bucket,
                        const std::function<bool(const Record&)>& fn) const;
  /// Parses the bucket-space shape every mutation reply echoes and
  /// poisons the client when the remote outgrew the frozen plane.
  Status CheckShapeEcho(PayloadReader& reader);
  /// Consumes an optional trailing authoritative-epoch field (absent
  /// from old servers) and folds it into server_epoch_ (max-observed).
  Status ObserveServerEpoch(PayloadReader& reader) const;
  /// Shared body of InsertBatch / InsertBatchTagged (tagged == token
  /// != nullptr).
  Status InsertBatchImpl(std::vector<Record> records,
                         const std::uint64_t* token);

  std::unique_ptr<Transport> transport_;
  const Options options_;
  std::unique_ptr<StorageBackend> twin_;
  ReplicatedBackend* twin_replicated_ = nullptr;

  /// Set during Connect, immutable afterwards.
  std::uint32_t features_ = 0;
  std::uint32_t negotiated_max_payload_ = kWireMaxPayload;

  /// Correlation ids and jitter streams (monotonic per connection — the
  /// mux's stale-reply tracking relies on it).
  mutable std::atomic<std::uint64_t> seq_{1};

  /// Highest authoritative epoch any reply has echoed (0 until the
  /// server answers a mutation or topology probe).
  mutable std::atomic<std::uint64_t> server_epoch_{0};

  /// Guards the sticky failure state and the scan pins.  NOT held over
  /// round trips: the transport is internally synchronized, so many
  /// calls may be on the wire at once (that is the point of the mux).
  mutable std::mutex mutex_;
  mutable std::string terminal_;  ///< non-empty: every op is Unavailable
  mutable std::string poisoned_;  ///< non-empty: every op FailedPrecondition

  /// ScanBucket callers (the QueryEngine's shared sweep) hold the
  /// `const Record&`s a scan visited until the batch is assembled, which
  /// local backends satisfy by handing out references into their own
  /// storage.  A remote scan decodes records off the wire, so the
  /// decoded vector is pinned here — one entry per (device, bucket),
  /// node-stable under concurrent scans of *other* buckets and
  /// invalidated by the next mutation (the same event that invalidates
  /// a local backend's references).
  mutable std::map<std::pair<std::uint64_t, std::uint64_t>,
                   std::vector<Record>>
      scan_pins_;
};

}  // namespace fxdist

#endif  // FXDIST_NET_REMOTE_BACKEND_H_
