// cobalt/dht/dht_base.hpp
//
// State and operations shared by the two balancing approaches of the
// paper: snode/vnode registries, the partition routing map, partition
// handovers and binary splits, and the greedy reassignment loop of
// section 2.5 (which the local approach reuses verbatim inside a group,
// section 3.6).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/dyadic.hpp"
#include "common/rng.hpp"
#include "dht/config.hpp"
#include "dht/entities.hpp"
#include "dht/partition_map.hpp"

namespace cobalt::dht {

/// Observes structural mutations of a DHT. The KV layer keeps its
/// shards aligned with the partition set through these callbacks, and
/// the protocol simulator derives message counts from them.
class MutationObserver {
 public:
  virtual ~MutationObserver() = default;

  /// `partition` moved from vnode `from` to vnode `to` (a handover).
  virtual void on_transfer(const Partition& partition, VNodeId from,
                           VNodeId to) = 0;

  /// `partition` was binary-split in place (owner keeps both halves).
  virtual void on_split(const Partition& partition, VNodeId owner) = 0;

  /// The two halves of `parent` were merged back, owned afterwards by
  /// `owner` (the even half's owner). `odd_owner` held the odd half
  /// until the merge: when it differs from `owner`, the odd half
  /// changed hands here, with no on_transfer of its own.
  virtual void on_merge(const Partition& parent, VNodeId owner,
                        VNodeId odd_owner) = 0;
};

/// Common machinery of GlobalDht and LocalDht. Not polymorphic-deletable
/// through this type; the concrete classes own the balancing policies.
class DhtBase {
  friend class SnapshotCodec;  // checkpoint/restore (snapshot.hpp)

 public:
  /// Registers a software node with the given relative capacity
  /// (enrollment level, section 2.1.2). Returns its id.
  SNodeId add_snode(double capacity = 1.0);

  /// Number of registered snodes.
  [[nodiscard]] std::size_t snode_count() const { return snodes_.size(); }

  /// Number of live vnodes.
  [[nodiscard]] std::size_t vnode_count() const { return alive_vnodes_; }

  /// Read access to entities (ids are stable; deleted vnodes keep their
  /// slot with alive == false).
  [[nodiscard]] const SNode& snode(SNodeId id) const;
  [[nodiscard]] const VNode& vnode(VNodeId id) const;

  /// Routing: the live partition containing `index` and its owner.
  [[nodiscard]] PartitionMap::Hit lookup(HashIndex index) const;

  /// The routing index itself (read-only).
  [[nodiscard]] const PartitionMap& partition_map() const { return pmap_; }

  /// Exact share of R_h bound to vnode `id` (sum of its partitions'
  /// quotas). Exact dyadic arithmetic; zero for deleted vnodes.
  [[nodiscard]] Dyadic exact_quota(VNodeId id) const;

  /// Model parameters.
  [[nodiscard]] const Config& config() const { return config_; }

  /// Ids of all live vnodes, ascending.
  [[nodiscard]] std::vector<VNodeId> live_vnodes() const;

  /// Registers (or clears, with nullptr) the mutation observer. The
  /// observer must outlive the DHT or be cleared first.
  void set_observer(MutationObserver* observer) { observer_ = observer; }

 protected:
  explicit DhtBase(Config config);
  ~DhtBase() = default;

  /// Allocates a vnode slot hosted by `host` (which must exist).
  VNodeId allocate_vnode(SNodeId host);

  /// Marks a vnode dead and unlinks it from its snode. The caller must
  /// already have drained its partitions.
  void retire_vnode(VNodeId id);

  /// Moves one partition (chosen per Config::pick) from `from` to `to`,
  /// updating the routing map and `record`.
  void transfer_one(VNodeId from, VNodeId to, DistributionRecord& record);

  /// Binary-splits every partition of every vnode in `members`,
  /// doubling their counts in `record`. The caller bumps its splitlevel.
  void split_all_partitions(std::span<const VNodeId> members,
                            DistributionRecord& record);

  /// The greedy reassignment loop of section 2.5, steps 2-4: while
  /// moving one partition from the vnode with the most partitions (the
  /// victim) to `newcomer` decreases sigma(Pv), do so.
  ///
  /// Moving one unit from count x to count y changes the sum of squared
  /// deviations by 2(y - x + 1) (the mean is unchanged), so the move
  /// decreases sigma exactly when x - y > 1; the loop below is the
  /// paper's algorithm with that test inlined.
  void greedy_handover(DistributionRecord& record, VNodeId newcomer);

  /// Rebalances `record` until no single move can lower sigma(Pv), i.e.
  /// max count - min count <= 1. Used by removal paths.
  void rebalance_pairwise(DistributionRecord& record);

  std::vector<SNode> snodes_;
  std::vector<VNode> vnodes_;
  std::size_t alive_vnodes_ = 0;
  PartitionMap pmap_;
  Config config_;
  Xoshiro256 rng_;
  MutationObserver* observer_ = nullptr;
};

}  // namespace cobalt::dht
