// Server side of the shard transport: a StorageBackend behind a socket.
//
// ShardService is the transport-independent core — it turns one request
// frame into one reply frame, with the locking the StorageBackend
// contract requires (the backend is externally synchronized, so the
// service holds a shared lock for reads and an exclusive lock for
// Insert/Delete/MarkDown/MarkUp).  LoopbackTransport can call it
// directly for deterministic in-process tests.
//
// ShardServer puts a ShardService behind a listening TCP socket: an
// accept loop hands each connection to a small thread pool, and every
// connection serves frames until its peer disconnects.  Every reply
// echoes its request's correlation id and its payload starts with an
// encoded Status; an undecodable request gets a WireOp::kError reply
// (the stream itself stays framed, so one bad request does not desync
// the connection).  A header the wire layer refuses — bad magic, a
// version other than kWireVersion, an over-limit length — gets a kError
// reply and the connection is closed.

#ifndef FXDIST_NET_SHARD_SERVER_H_
#define FXDIST_NET_SHARD_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/wire.h"
#include "sim/composite_backend.h"
#include "sim/storage_backend.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace fxdist {

/// Encodes one reply frame: Status first in the payload, then `body`
/// (empty on errors).  Shared by the blocking and event-driven servers
/// so both produce byte-identical replies.
std::string EncodeShardReply(WireOp op, const Status& status,
                             const std::string& body,
                             std::uint64_t correlation_id = 0);

/// Error reply for a request that never decoded: best-effort echo of the
/// request's correlation id (a mux client needs the id to complete the
/// right waiter), 0 when the prefix is unreadable.  Also the shed frame
/// the event server sends a connection over the cap (kResourceExhausted,
/// empty request prefix).
std::string EncodeShardErrorReplyFor(std::string_view request,
                                     const Status& status);

class ShardService {
 public:
  /// The backend must outlive the service.  MarkDown/MarkUp are served
  /// only when the backend is a ReplicatedBackend (Unimplemented
  /// otherwise).
  explicit ShardService(StorageBackend& backend);

  /// One complete request frame in, one complete reply frame out.
  /// Thread-safe; never throws, never returns an unframed error.
  std::string HandleFrame(const std::string& request);

  /// Distinct tenant ids announced by handshakes so far, in first-seen
  /// order.  Anonymous clients (no trailing id) are not listed.
  std::vector<std::string> AnnouncedClients() const;

  /// Most recent distinct kInsertBatch dedup tokens remembered (FIFO
  /// eviction past this).  Sized so a coordinator's whole task graph
  /// fits with room to spare; a retry arriving after eviction is
  /// indistinguishable from a first send, which the client's bounded
  /// retry budget makes vanishingly unlikely.
  static constexpr std::size_t kMaxRememberedTokens = 65536;

 private:
  Result<std::string> Dispatch(WireOp op, PayloadReader& reader);

  StorageBackend& backend_;
  ReplicatedBackend* replicated_;  ///< backend_ downcast, or nullptr
  std::shared_mutex backend_mutex_;
  mutable std::mutex clients_mutex_;
  std::vector<std::string> announced_clients_;
  // Dedup registry for tagged kInsertBatch chunks: token -> applied
  // record count.  Guarded by the exclusive backend_mutex_ every
  // mutation already holds, so check-then-apply-then-remember is atomic
  // against concurrent writers.
  std::unordered_map<std::uint64_t, std::uint64_t> applied_tokens_;
  std::deque<std::uint64_t> token_order_;
};

struct ShardServerOptions {
  std::uint16_t port = 0;        ///< 0 picks an ephemeral port
  unsigned max_connections = 8;  ///< connection-handler pool size
  int listen_backlog = 128;      ///< pending-connection queue depth
};

/// A ShardService listening on a TCP port.
class ShardServer {
 public:
  using Options = ShardServerOptions;

  /// Binds, listens and starts the accept loop.  The backend must
  /// outlive the server.
  static Result<std::unique_ptr<ShardServer>> Start(StorageBackend& backend,
                                                    Options options = {});

  /// Stops the server (idempotent): wakes the accept loop, shuts every
  /// open connection and joins all threads.
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// The bound port (useful with Options::port == 0).
  std::uint16_t port() const { return port_; }

  /// Tenant ids announced by connected clients (see
  /// ShardService::AnnouncedClients).
  std::vector<std::string> AnnouncedClients() const {
    return service_.AnnouncedClients();
  }

  void Stop();
  /// Blocks until Stop() is called from another thread (or the process
  /// is killed) — the `fxdistctl shard-serve` main loop.
  void Wait();

 private:
  explicit ShardServer(StorageBackend& backend, Options options)
      : service_(backend), options_(options) {}

  void AcceptLoop();
  void ServeConnection(int fd);

  ShardService service_;
  const Options options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::unique_ptr<ThreadPool> pool_;
  std::thread accept_thread_;

  std::mutex mutex_;
  std::condition_variable stopped_;
  bool stopping_ = false;
  std::vector<int> connections_;
};

}  // namespace fxdist

#endif  // FXDIST_NET_SHARD_SERVER_H_
