#ifndef MDS_TESTS_CHAOS_HARNESS_H_
#define MDS_TESTS_CHAOS_HARNESS_H_

// Cluster-under-chaos fixture: boots one mdsd QueryServer per (shard,
// replica), one ChaosProxy in front of each, and an mdsc Coordinator
// whose shard map points at the proxy ports — so every byte between the
// coordinator and its backends crosses a seeded fault injector, while
// the client-to-coordinator link stays clean.
//
// Proxies start fault-free so the coordinator's Start() probe always
// succeeds; tests apply the chaos policy afterwards (per-frame faults
// affect existing links, per-connection fates apply to links accepted
// later — run the coordinator with pool_connections_per_replica = 0 when
// a test needs every leg to draw a fresh connection fate).

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/chaos_proxy.h"
#include "common/result.h"
#include "server/coordinator.h"
#include "server/dataset.h"
#include "server/server.h"

namespace mds {
namespace chaos {

class ChaosCluster {
 public:
  using FrameObserver = std::function<void(const std::vector<uint8_t>&)>;

  /// `shards[s]` lists the datasets of shard s's replicas (replicas of
  /// one shard share a dataset). Proxy i (in boot order) is seeded
  /// `seed + i`, so one campaign seed fixes every link's fault schedule.
  ChaosCluster(std::vector<std::vector<std::shared_ptr<ServedDataset>>> shards,
               uint64_t seed, CoordinatorConfig config = {})
      : datasets_(std::move(shards)), seed_(seed), config_(config) {}

  ~ChaosCluster() { Shutdown(); }

  ChaosCluster(const ChaosCluster&) = delete;
  ChaosCluster& operator=(const ChaosCluster&) = delete;

  /// Registers an observer for every client->server frame payload on the
  /// (shard, replica) link. Must be called before Start().
  void ObserveClientFrames(size_t shard, size_t replica, FrameObserver fn) {
    pending_observers_.push_back({shard, replica, std::move(fn)});
  }

  Status Start() {
    uint64_t link = 0;
    ShardMap map;
    for (size_t s = 0; s < datasets_.size(); ++s) {
      std::vector<BackendAddress> addrs;
      backends_.emplace_back();
      proxies_.emplace_back();
      for (const std::shared_ptr<ServedDataset>& dataset : datasets_[s]) {
        auto server = std::make_unique<QueryServer>(dataset, ServerConfig{});
        MDS_RETURN_NOT_OK(server->Start());
        auto proxy = std::make_unique<ChaosProxy>(
            "127.0.0.1", server->port(), seed_ + link, ChaosPolicy{});
        for (const PendingObserver& pending : pending_observers_) {
          if (pending.shard == s && pending.replica == backends_[s].size()) {
            proxy->SetClientFrameObserver(pending.fn);
          }
        }
        MDS_RETURN_NOT_OK(proxy->Start());
        addrs.push_back({"127.0.0.1", proxy->port()});
        backends_[s].push_back(std::move(server));
        proxies_[s].push_back(std::move(proxy));
        ++link;
      }
      map.shards.push_back(std::move(addrs));
    }
    coordinator_ = std::make_unique<Coordinator>(map, config_);
    return coordinator_->Start();
  }

  /// Applies one policy to every link's proxy.
  void ApplyPolicyEverywhere(const ChaosPolicy& policy) {
    for (auto& shard : proxies_) {
      for (auto& proxy : shard) proxy->SetPolicy(policy);
    }
  }

  Coordinator& coordinator() { return *coordinator_; }
  uint16_t port() const { return coordinator_->port(); }

  ChaosProxy& proxy(size_t shard, size_t replica) {
    return *proxies_[shard][replica];
  }
  QueryServer& backend(size_t shard, size_t replica) {
    return *backends_[shard][replica];
  }
  /// Direct (unproxied) backend port — oracle queries go here.
  uint16_t backend_port(size_t shard, size_t replica) const {
    return backends_[shard][replica]->port();
  }

  /// Sum of every proxy's counters: proves a campaign's faults actually
  /// fired.
  ChaosProxy::Counters TotalProxyCounters() const {
    ChaosProxy::Counters total;
    for (const auto& shard : proxies_) {
      for (const auto& proxy : shard) {
        const ChaosProxy::Counters c = proxy->counters();
        total.connections_accepted += c.connections_accepted;
        total.connections_reset += c.connections_reset;
        total.connections_blackholed += c.connections_blackholed;
        total.frames_in += c.frames_in;
        total.frames_out += c.frames_out;
        total.frames_truncated += c.frames_truncated;
        total.frames_bitflipped += c.frames_bitflipped;
      }
    }
    return total;
  }

  /// Coordinator first (it waits out in-flight legs, which the proxies'
  /// fault deadlines bound), then the proxies, then the backends.
  void Shutdown() {
    if (coordinator_) coordinator_->Shutdown();
    for (auto& shard : proxies_) {
      for (auto& proxy : shard) proxy->Shutdown();
    }
    for (auto& shard : backends_) {
      for (auto& server : shard) server->Shutdown();
    }
  }

 private:
  struct PendingObserver {
    size_t shard = 0;
    size_t replica = 0;
    FrameObserver fn;
  };

  std::vector<std::vector<std::shared_ptr<ServedDataset>>> datasets_;
  uint64_t seed_;
  CoordinatorConfig config_;
  std::vector<PendingObserver> pending_observers_;

  std::vector<std::vector<std::unique_ptr<QueryServer>>> backends_;
  std::vector<std::vector<std::unique_ptr<ChaosProxy>>> proxies_;
  std::unique_ptr<Coordinator> coordinator_;
};

}  // namespace chaos
}  // namespace mds

#endif  // MDS_TESTS_CHAOS_HARNESS_H_
