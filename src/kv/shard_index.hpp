// cobalt/kv/shard_index.hpp
//
// The KV store's resident-key index: hash-range shards backed by
// sorted bucket vectors, replacing the seed's node-based
// std::map<HashIndex, Bucket>.
//
// A shard covers one contiguous, inclusive range of R_h; the shards
// tile the whole range (shard i covers [shards[i].first,
// shards[i+1].first - 1], the last one up to 2^64 - 1). Within a shard
// the buckets are sorted by hash and binary-searched, so point
// operations cost one shard binary search plus one bucket binary
// search over at most kSplitBuckets contiguous elements - the cache
// behaviour a red-black tree walk cannot offer - and range counts sum
// cached per-shard entry totals instead of walking every bucket.
//
// The materialized replica set lives on the *shard*, not the bucket:
// the store's repair passes split shards at replica-set arc boundaries
// (when the arcs are at least kMinArcBuckets wide) so a shard lies
// inside one arc, which collapses the seed's one heap-allocated
// std::vector<NodeId> per resident hash to one per shard and lets
// repair planning skip whole shards by range. Where that cannot hold
// cheaply - a write into a range whose boundary no repair has seen
// yet, or schemes whose arcs are finer than kMinArcBuckets (the
// cell-grained grids) - the affected buckets keep a per-bucket
// *override* instead: O(1) at write time and never worse than the
// seed's per-bucket storage, dissolved whenever a repair finds the
// range uniform again.
//
// The index is a pure container: it never talks to a placement
// backend. The store decides replica sets and arc boundaries; the
// index provides the structural primitives (size splits, merges, the
// repair pass's wholesale adopt()) and keeps the tiling, ordering and
// entry-count bookkeeping honest.
//
// Synchronization story (used only when the store runs in concurrent
// mode - see kv/store.hpp "Threading model"; single-threaded callers
// never touch a lock). Two levels:
//   * structure_mutex_ - a reader/writer lock over the *tiling*: the
//     shards_ vector layout (shard count, boundaries, the bucket
//     vectors' identities). Point readers and in-shard writers hold
//     it shared; split/merge (put overflow, erase of a shard's last
//     bucket) and the repair walk, one shard visit at a time, hold it
//     exclusive.
//   * stripe locks - kLockStripes reader/writer locks tiling R_h by
//     its top bits. A reader of one bucket holds the single stripe of
//     its hash shared; a writer mutating anything inside shard i
//     (bucket entries, replica overrides, entry counts) holds the
//     shard's whole stripe span exclusive, ascending. Because a
//     bucket's stripe always lies inside its shard's span, one
//     in-shard writer excludes exactly the readers of that shard -
//     which is what lets gets proceed against shards other writers
//     are mutating.
// Lock order: structure before stripes, stripes ascending. The
// cross-shard total_entries_ counter is atomic so disjoint in-shard
// writers need no shared lock for it.
//
// Compile-time model (see common/thread_annotations.hpp). The tiling
// is literal: shards_ is GUARDED_BY(structure_mutex_) and structural
// mutators REQUIRE it exclusive. The stripe table is not - Thread
// Safety Analysis cannot track a loop over an array of locks - so one
// logical capability, stripes_cap_, stands for "adequate cover over
// shard contents": the span/stripe RAII types below claim it on
// behalf of the stripe locks they really take, the exclusive
// structure hold claims it too (an exclusive tiling hold excludes
// every content reader by the discipline above), and every method
// touching shard contents REQUIRES it. The ascending-acquisition rule
// within the table is checked by scripts/check_lock_order.py, which
// also pins all stripe locking to this file.

#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/thread_annotations.hpp"
#include "hashing/hash_space.hpp"
#include "placement/types.hpp"

namespace cobalt::kv {

/// Hash-range shards over sorted bucket vectors.
class ShardIndex {
 public:
  /// One resident key with its value.
  using Entry = std::pair<std::string, std::string>;

  /// One hash position's resident keys (collisions are possible but
  /// vanishingly rare at Bh = 64, so almost always one entry; order
  /// within a bucket is unspecified).
  struct Bucket {
    HashIndex hash = 0;
    std::vector<Entry> entries;

    /// Materialized replica-set override: empty means "the shard's
    /// set applies" (the common case); non-empty when this bucket's
    /// set differs from its shard's cached one (see the header).
    std::vector<placement::NodeId> replicas;
  };

  /// One contiguous hash range with its resident buckets and the
  /// materialized replica set shared by every non-overriding bucket.
  struct Shard {
    /// First hash index covered (the end is the next shard's first
    /// minus one; the last shard ends at HashSpace::kMaxIndex).
    HashIndex first = 0;

    /// Cached sum of entries over the shard's buckets.
    std::uint64_t entry_count = 0;

    /// Buckets carrying a replica override (fast-path gate: 0 lets
    /// per-node counts and repairs treat the shard as one arc).
    std::uint32_t override_count = 0;

    /// Resident buckets, sorted by hash.
    std::vector<Bucket> buckets;

    /// Materialized replica set of every non-overriding resident
    /// bucket (rank order; empty only while the shard has never been
    /// written).
    std::vector<placement::NodeId> replicas;
  };

  /// Buckets per shard above which an insert splits the shard at its
  /// median bucket. This bounds the per-insert memmove (the sorted
  /// vector's cost) and the bucket binary search; 128 keeps the move
  /// under ~4 KB while shard-level binary search stays shallow even
  /// at millions of keys.
  static constexpr std::size_t kSplitBuckets = 128;

  /// Minimum average buckets per piece for a repair pass to split a
  /// shard at replica-set arc boundaries: arcs finer than this (the
  /// cell-grained grid schemes) stay as per-bucket overrides instead
  /// of fragmenting the tiling into per-cell shards.
  static constexpr std::size_t kMinArcBuckets = 16;

  /// Stripe-lock table size (a power of two; 32 stripes keep sibling
  /// cache lines apart while a full-span writer pays at most 32 lock
  /// acquisitions even for a shard covering all of R_h). Capped well
  /// below 64 on purpose: full-span holders also stack the store's
  /// outer mutexes, and ThreadSanitizer's deadlock detector aborts at
  /// 64 locks held by one thread.
  static constexpr std::size_t kLockStripes = 32;
  static constexpr unsigned kLockStripeBits = 5;  // log2(kLockStripes)

  /// An index starts as one empty shard covering all of R_h.
  ShardIndex() : shards_(1) {}

  [[nodiscard]] std::size_t shard_count() const
      COBALT_REQUIRES_SHARED(structure_mutex_) {
    return shards_.size();
  }
  [[nodiscard]] const std::vector<Shard>& shards() const
      COBALT_REQUIRES_SHARED(structure_mutex_, stripes_cap_) {
    return shards_;
  }
  [[nodiscard]] Shard& shard(std::size_t i)
      COBALT_REQUIRES_SHARED(structure_mutex_)
          COBALT_REQUIRES(stripes_cap_) {
    return shards_[i];
  }
  [[nodiscard]] const Shard& shard(std::size_t i) const
      COBALT_REQUIRES_SHARED(structure_mutex_, stripes_cap_) {
    return shards_[i];
  }

  /// First hash index covered by shard `i`. Tiling metadata like
  /// shard_last: readable under the structure lock alone, without the
  /// stripe capability the full shard() accessors demand (the walk
  /// loops test shard boundaries before taking any stripe).
  [[nodiscard]] HashIndex shard_first(std::size_t i) const
      COBALT_REQUIRES_SHARED(structure_mutex_) {
    return shards_[i].first;
  }

  /// Last hash index covered by shard `i` (inclusive).
  [[nodiscard]] HashIndex shard_last(std::size_t i) const
      COBALT_REQUIRES_SHARED(structure_mutex_) {
    return i + 1 < shards_.size() ? shards_[i + 1].first - 1
                                  : HashSpace::kMaxIndex;
  }

  /// Total resident entries across all shards (atomic: disjoint
  /// in-shard writers update it without a shared lock).
  [[nodiscard]] std::uint64_t total_entries() const {
    return total_entries_.load(std::memory_order_relaxed);
  }

  /// Index of the shard whose range contains `index` (always exists:
  /// the shards tile R_h).
  [[nodiscard]] std::size_t shard_of(HashIndex index) const
      COBALT_REQUIRES_SHARED(structure_mutex_);

  /// The bucket at exactly `hash` inside shard `shard_index`, or
  /// nullptr. The mutable overload hands out a writable reference into
  /// shard contents, so it demands the content capability exclusively.
  [[nodiscard]] Bucket* find_bucket(std::size_t shard_index, HashIndex hash)
      COBALT_REQUIRES_SHARED(structure_mutex_) COBALT_REQUIRES(stripes_cap_);
  [[nodiscard]] const Bucket* find_bucket(std::size_t shard_index,
                                          HashIndex hash) const
      COBALT_REQUIRES_SHARED(structure_mutex_, stripes_cap_);

  /// Where insert_bucket put a bucket: the shard actually holding it
  /// (an oversized shard is split at its median first, so this may be
  /// the input shard + 1) and the bucket's position in that shard.
  struct BucketSlot {
    std::size_t shard;
    std::size_t position;
  };

  /// Inserts an empty bucket at `hash` into the shard containing it
  /// (which must be shard `shard_index` before any split). The bucket
  /// must not already exist. May split an oversized shard, so the
  /// caller needs the structure lock *exclusive* unless it verified no
  /// split is possible (buckets.size() < kSplitBuckets) under its
  /// span - the store's optimistic put path.
  BucketSlot insert_bucket(std::size_t shard_index, HashIndex hash)
      COBALT_REQUIRES_SHARED(structure_mutex_) COBALT_REQUIRES(stripes_cap_);

  /// Removes the (empty) bucket at `hash`; a shard left without
  /// buckets is merged into a neighbour (the tiling never fragments on
  /// a pure-erase workload) - always structural, hence the exclusive
  /// structure requirement.
  void erase_bucket(std::size_t shard_index, HashIndex hash)
      COBALT_REQUIRES(structure_mutex_, stripes_cap_);

  /// Adjusts the entry-count caches after the store added (`delta` =
  /// +1) or removed (-1) one entry in shard `shard_index`.
  void add_entries(std::size_t shard_index, std::int64_t delta)
      COBALT_REQUIRES_SHARED(structure_mutex_)
          COBALT_REQUIRES(stripes_cap_) {
    shards_[shard_index].entry_count =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(
            shards_[shard_index].entry_count) + delta);
    total_entries_.fetch_add(static_cast<std::uint64_t>(delta),
                             std::memory_order_relaxed);
  }

  /// Splits shard `i` at `boundary` (which must lie strictly inside
  /// its range): shard i keeps [first, boundary - 1], a new shard i+1
  /// takes [boundary, old end] with the buckets at or above `boundary`
  /// and a copy of the replica set.
  void split_shard(std::size_t i, HashIndex boundary)
      COBALT_REQUIRES(structure_mutex_, stripes_cap_);

  /// Merges shard `i + 1` into shard `i`. The caller must keep the
  /// non-overriding buckets meaningful: merge only equal-set
  /// neighbours, or pairs where one side has no buckets (the
  /// bucket-less side's cached set is only a write-path hint).
  void merge_with_next(std::size_t i)
      COBALT_REQUIRES(structure_mutex_, stripes_cap_);

  /// Entries whose hash falls inside [first, last]: whole shards by
  /// cached count, boundary shards by bucket scan.
  [[nodiscard]] std::uint64_t count_range(HashIndex first,
                                          HashIndex last) const
      COBALT_REQUIRES_SHARED(structure_mutex_, stripes_cap_);

  // --- the synchronization surface (see the header comment) ---------

  /// The stripe index of a hash (its top kLockStripeBits bits).
  [[nodiscard]] static std::size_t stripe_of(HashIndex index) {
    return static_cast<std::size_t>(index >>
                                    (HashSpace::kBits - kLockStripeBits));
  }

  /// One stripe's reader/writer lock. Probe surface for tests (the
  /// wrapper unit tests try_lock from a second thread to observe
  /// exclusion); real code acquires stripes only through the scoped
  /// types below, which check_lock_order.py enforces.
  [[nodiscard]] SharedMutex& stripe_mutex(std::size_t stripe) const {
    return stripes_[stripe];
  }

  /// RAII hold of every stripe in [first_stripe, last_stripe],
  /// acquired ascending (the deadlock-free order shared by all span
  /// holders), exclusively or shared. Movable so wrappers can build it
  /// conditionally; default-constructed it holds nothing (the
  /// serial-mode no-op). This is the runtime mechanism only - it
  /// carries no capability attributes (TSA cannot track the loop);
  /// the SCOPED_CAPABILITY types below wrap it and claim stripes_cap_.
  class StripeSpanLock {
   public:
    StripeSpanLock() = default;
    StripeSpanLock(const ShardIndex& index, std::size_t first_stripe,
                   std::size_t last_stripe, bool shared)
        : index_(&index),
          first_(first_stripe),
          last_(last_stripe),
          shared_(shared) {
      for (std::size_t s = first_; s <= last_; ++s) {
        if (shared_) {
          index_->stripes_[s].lock_shared();
        } else {
          index_->stripes_[s].lock();
        }
      }
    }
    ~StripeSpanLock() { release(); }
    StripeSpanLock(StripeSpanLock&& other) noexcept
        : index_(other.index_),
          first_(other.first_),
          last_(other.last_),
          shared_(other.shared_) {
      other.index_ = nullptr;
    }
    StripeSpanLock& operator=(StripeSpanLock&& other) noexcept {
      if (this != &other) {
        release();
        index_ = other.index_;
        first_ = other.first_;
        last_ = other.last_;
        shared_ = other.shared_;
        other.index_ = nullptr;
      }
      return *this;
    }
    StripeSpanLock(const StripeSpanLock&) = delete;
    StripeSpanLock& operator=(const StripeSpanLock&) = delete;

   private:
    /// Unlocks a set the analysis never saw acquired (the ctor loop);
    /// suppressed, and only ever called on what the ctor took.
    void release() COBALT_NO_THREAD_SAFETY_ANALYSIS {
      if (index_ == nullptr) return;
      for (std::size_t s = last_ + 1; s-- > first_;) {
        if (shared_) {
          index_->stripes_[s].unlock_shared();
        } else {
          index_->stripes_[s].unlock();
        }
      }
      index_ = nullptr;
    }

    const ShardIndex* index_ = nullptr;
    std::size_t first_ = 0;
    std::size_t last_ = 0;
    bool shared_ = false;
  };

  // The scoped lock surface. Every type takes `engage` (default true):
  // disengaged (the store's serial mode) it locks nothing but still
  // claims its capabilities - see thread_annotations.hpp for why that
  // is sound. Lock order among these and the store's outer mutexes is
  // the linter's DAG: structure before stripes, nothing after stripes.

  /// Shared hold of the tiling: point readers, in-shard writers,
  /// scans, the relocation flush.
  class COBALT_SCOPED_CAPABILITY StructureSharedLock {
   public:
    explicit StructureSharedLock(const ShardIndex& index, bool engage = true)
        COBALT_ACQUIRE_SHARED(index.structure_mutex_) {
      if (engage) {
        index.structure_mutex_.lock_shared();
        mutex_ = &index.structure_mutex_;
      }
    }
    ~StructureSharedLock() COBALT_RELEASE() {
      if (mutex_ != nullptr) mutex_->unlock_shared();
    }
    StructureSharedLock(const StructureSharedLock&) = delete;
    StructureSharedLock& operator=(const StructureSharedLock&) = delete;

   private:
    SharedMutex* mutex_ = nullptr;
  };

  /// Exclusive hold of the tiling (split/merge, structural retries,
  /// each shard visit of the repair walk). Claims the content capability too: by the
  /// discipline above, every content reader or writer holds the
  /// structure lock at least shared, so an exclusive tiling hold
  /// excludes all content access without touching a stripe.
  class COBALT_SCOPED_CAPABILITY StructureExclusiveLock {
   public:
    explicit StructureExclusiveLock(const ShardIndex& index,
                                    bool engage = true)
        COBALT_ACQUIRE(index.structure_mutex_, index.stripes_cap_) {
      if (engage) {
        index.structure_mutex_.lock();
        mutex_ = &index.structure_mutex_;
      }
    }
    ~StructureExclusiveLock() COBALT_RELEASE() {
      if (mutex_ != nullptr) mutex_->unlock();
    }
    StructureExclusiveLock(const StructureExclusiveLock&) = delete;
    StructureExclusiveLock& operator=(const StructureExclusiveLock&) = delete;

   private:
    SharedMutex* mutex_ = nullptr;
  };

  /// Exclusive hold of the stripes covering shard `shard` (in-shard
  /// writers). The span derives from the tiling, hence
  /// the shared structure requirement - the checked form of the old
  /// "caller must hold structure_mutex() at least shared" comment.
  class COBALT_SCOPED_CAPABILITY ShardSpanLock {
   public:
    ShardSpanLock(const ShardIndex& index, std::size_t shard,
                  bool engage = true)
        COBALT_REQUIRES_SHARED(index.structure_mutex_)
            COBALT_ACQUIRE(index.stripes_cap_)
        : span_(engage ? StripeSpanLock(
                             index, stripe_of(index.shards_[shard].first),
                             stripe_of(index.shard_last(shard)),
                             /*shared=*/false)
                       : StripeSpanLock()) {}
    ~ShardSpanLock() COBALT_RELEASE() {}
    ShardSpanLock(const ShardSpanLock&) = delete;
    ShardSpanLock& operator=(const ShardSpanLock&) = delete;

   private:
    StripeSpanLock span_;
  };

  /// Shared hold of the stripes covering shard `shard` (per-shard
  /// consistent reads: the scan path).
  class COBALT_SCOPED_CAPABILITY ShardSpanSharedLock {
   public:
    ShardSpanSharedLock(const ShardIndex& index, std::size_t shard,
                        bool engage = true)
        COBALT_REQUIRES_SHARED(index.structure_mutex_)
            COBALT_ACQUIRE_SHARED(index.stripes_cap_)
        : span_(engage ? StripeSpanLock(
                             index, stripe_of(index.shards_[shard].first),
                             stripe_of(index.shard_last(shard)),
                             /*shared=*/true)
                       : StripeSpanLock()) {}
    ~ShardSpanSharedLock() COBALT_RELEASE() {}
    ShardSpanSharedLock(const ShardSpanSharedLock&) = delete;
    ShardSpanSharedLock& operator=(const ShardSpanSharedLock&) = delete;

   private:
    StripeSpanLock span_;
  };

  /// Shared hold of one hash's stripe (point reads; the span of the
  /// shard containing the hash always covers this stripe, so one
  /// reader excludes exactly that shard's writer).
  class COBALT_SCOPED_CAPABILITY StripeSharedLock {
   public:
    StripeSharedLock(const ShardIndex& index, HashIndex hash,
                     bool engage = true)
        COBALT_ACQUIRE_SHARED(index.stripes_cap_) {
      if (engage) {
        mutex_ = &index.stripes_[stripe_of(hash)];
        mutex_->lock_shared();
      }
    }
    ~StripeSharedLock() COBALT_RELEASE() {
      if (mutex_ != nullptr) mutex_->unlock_shared();
    }
    StripeSharedLock(const StripeSharedLock&) = delete;
    StripeSharedLock& operator=(const StripeSharedLock&) = delete;

   private:
    SharedMutex* mutex_ = nullptr;
  };

  /// Shared hold of every stripe: a consistent read of the whole
  /// index (bulk accounting surfaces, relocation-flush counting).
  class COBALT_SCOPED_CAPABILITY AllStripesSharedLock {
   public:
    explicit AllStripesSharedLock(const ShardIndex& index, bool engage = true)
        COBALT_REQUIRES_SHARED(index.structure_mutex_)
            COBALT_ACQUIRE_SHARED(index.stripes_cap_)
        : span_(engage ? StripeSpanLock(index, 0, kLockStripes - 1,
                                        /*shared=*/true)
                       : StripeSpanLock()) {}
    ~AllStripesSharedLock() COBALT_RELEASE() {}
    AllStripesSharedLock(const AllStripesSharedLock&) = delete;
    AllStripesSharedLock& operator=(const AllStripesSharedLock&) = delete;

   private:
    StripeSpanLock span_;
  };

  /// The tiling lock and the logical content capability. Public
  /// because the store's thread-safety attributes name them directly
  /// (REQUIRES(index_.structure_mutex_) and friends); acquire them
  /// only through the scoped types above - check_lock_order.py flags
  /// raw lock calls outside this header and thread_annotations.hpp.
  /// Mutable: locking is not mutation, and read paths are const.
  mutable SharedMutex structure_mutex_;
  /// Never locked at runtime (zero bytes of state): the compile-time
  /// stand-in for the stripe table, claimed by the span/stripe types
  /// and by StructureExclusiveLock. See the header comment.
  mutable Capability stripes_cap_;

 private:
  std::vector<Shard> shards_ COBALT_GUARDED_BY(structure_mutex_);
  std::atomic<std::uint64_t> total_entries_{0};
  mutable std::array<SharedMutex, kLockStripes> stripes_;
};

}  // namespace cobalt::kv
