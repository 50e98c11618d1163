// Per-tenant client ids on the wire handshake: a RemoteBackend with a
// configured client_id announces it in the hello, the server records it
// (ShardService::AnnouncedClients), and an empty id stays anonymous.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/mux_transport.h"
#include "net/remote_backend.h"
#include "net/shard_server.h"
#include "net/wire.h"
#include "sim/parallel_file.h"

namespace fxdist {
namespace {

Schema RigSchema() {
  return Schema::Create({
                            {"id", ValueType::kInt64, 4},
                            {"tag", ValueType::kString, 2},
                        })
      .value();
}

struct Rig {
  std::shared_ptr<ParallelFile> served;
  std::shared_ptr<ShardService> service;
  std::unique_ptr<RemoteBackend> remote;
};

Rig MakeRig(const std::string& client_id) {
  Rig rig;
  rig.served = std::make_shared<ParallelFile>(
      ParallelFile::Create(RigSchema(), 2, "fx-iu2", 7).value());
  rig.service = std::make_shared<ShardService>(*rig.served);
  auto channel = std::make_unique<LoopbackFrameChannel>(
      [served = rig.served, service = rig.service](
          const std::string& request) {
        return service->HandleFrame(request);
      });
  RemoteBackend::Options options;
  options.backoff_initial_ms = 0;
  options.client_id = client_id;
  auto remote = RemoteBackend::Connect(
      std::make_unique<MuxTransport>(std::move(channel)), options);
  EXPECT_TRUE(remote.ok()) << remote.status().ToString();
  rig.remote = *std::move(remote);
  return rig;
}

TEST(ClientIdTest, AnnouncedOnV2Handshake) {
  Rig rig = MakeRig("tenant-7");
  const auto clients = rig.service->AnnouncedClients();
  ASSERT_EQ(clients.size(), 1u);
  EXPECT_EQ(clients[0], "tenant-7");
}

TEST(ClientIdTest, EmptyIdStaysAnonymous) {
  Rig rig = MakeRig("");
  EXPECT_TRUE(rig.service->AnnouncedClients().empty());
}

TEST(ClientIdTest, ReconnectsDoNotDuplicate) {
  auto served = std::make_shared<ParallelFile>(
      ParallelFile::Create(RigSchema(), 2, "fx-iu2", 7).value());
  auto service = std::make_shared<ShardService>(*served);
  for (int i = 0; i < 3; ++i) {
    auto channel = std::make_unique<LoopbackFrameChannel>(
        [served, service](const std::string& request) {
          return service->HandleFrame(request);
        });
    RemoteBackend::Options options;
    options.backoff_initial_ms = 0;
    options.client_id = "tenant-7";
    auto remote = RemoteBackend::Connect(
        std::make_unique<MuxTransport>(std::move(channel)), options);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  }
  EXPECT_EQ(service->AnnouncedClients().size(), 1u);
}

}  // namespace
}  // namespace fxdist
