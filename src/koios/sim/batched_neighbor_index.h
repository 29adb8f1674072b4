// The neighbor index's batched-probe machinery: given a query token, score
// the whole vocabulary with ONE SimilarityFunction::SimilarityBatch kernel
// call, α-filter the flat score array, and stream the survivors lazily in
// non-increasing order. Every cursor build scores that one list, so a
// session streams every vocabulary token with sim >= α — the exactness the
// searcher's θlb feedback relies on. It honors the batch-API contract
// (SimilarityBatch[Multi] + Prewarm):
//
//  * One kernel call per query token instead of one virtual call per
//    vocabulary token — dense similarities (cosine over an embedding
//    matrix) vectorize, everything else falls back to the pairwise loop
//    inside the batch call.
//  * Survivors are ordered LAZILY: the cursor partial-sorts the next chunk
//    (std::nth_element + chunk sort, starting at kSortChunk and doubling)
//    only when consumption reaches it. Short-prefix consumers (the θ-bound
//    usually stops the stream early) pay O(chunk); full drains stay
//    O(m log m) like an eager sort.
//  * Prewarm() builds the cursors of a whole query up front, on the
//    calling thread, in blocks of kPrewarmBlock through
//    SimilarityBatchMulti (each vocabulary row is read once per
//    multi-query block).
//
// CONCURRENCY (the serve subsystem's reentrancy contract): built cursors
// live in a sharded, mutex-protected cache keyed by (token, α) and are
// SHARED across consumers — concurrent queries over the same vocabulary
// reuse each other's cursor builds, with hit/miss counters to prove it.
// A shared cursor's neighbor array is append-frozen at build time; the
// only post-build mutation is the lazy chunk ordering, which extends a
// monotone ordered prefix under a per-cursor mutex and publishes it with
// an atomic, so readers of the ordered prefix never take a lock. What
// CANNOT be shared is consumption position: each consumer advances its
// own per-token position over the shared payload. NewSession() returns a
// ProbeSession holding exactly that state, and it is the only way to
// probe: every TokenStream opens its own, so every query (and every shard
// of a query) probes privately. The index itself holds no probe state,
// so all of it is const. The shared cursor payloads persist across
// queries (they are deterministic pure functions of (token, α), so
// replaying against a warm cache is bit-identical to a cold one).
//
// MEMORY GOVERNANCE (the long-running-engine contract): the cache grows
// with the distinct (token, α) traffic, which is unbounded over an
// engine's lifetime, so it carries an optional byte budget
// (SetCursorCacheCapacity) accounted through a util::ByteBudget — every
// published payload adds its exact footprint, every evicted/cleared one
// subtracts it. Over-budget shards evict with the CLOCK policy: each
// cache HIT sets the entry's reference bit, the per-shard clock hand
// clears bits on its way round and drops the first unreferenced entry, so
// hot Zipf-head tokens survive and cold tail builds recycle. Eviction
// drops only the CACHE's shared_ptr reference — a session holding the
// payload keeps it alive and keeps streaming from it untouched; results therefore stay bit-identical under any
// eviction schedule, bounded-cache probing just pays extra rebuilds
// (counted in `evictions`/`misses`).
#ifndef KOIOS_SIM_BATCHED_NEIGHBOR_INDEX_H_
#define KOIOS_SIM_BATCHED_NEIGHBOR_INDEX_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "koios/sim/similarity.h"
#include "koios/util/memory_tracker.h"

namespace koios::sim {

/// Counters of the shared cursor cache (monotone; snapshot accessor).
/// hits/misses count cursor resolutions by ANY consumer (sessions and
/// Prewarm); a hit means a previously built cursor — possibly built by a
/// DIFFERENT query — was reused.
struct CursorCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Concurrent builders raced on the same (token, α): the loser's build
  /// is discarded (the first insert wins so its ordering progress is
  /// kept). Wasted work, bounded by the race window, never a correctness
  /// issue — builds are deterministic.
  uint64_t duplicate_builds = 0;
  /// Payloads the byte budget's CLOCK policy dropped from the cache (the
  /// payloads themselves survive as long as any session still holds them).
  uint64_t evictions = 0;
  /// Currently cached cursors across all shards.
  uint64_t cursors = 0;
  /// Exact bytes of the currently cached payloads (what the budget caps).
  uint64_t bytes = 0;
  /// The configured budget (0 = unbounded).
  uint64_t capacity_bytes = 0;
};

class BatchedNeighborIndex : public SimilarityIndex {
 public:
  const SimilarityFunction* similarity() const override { return sim_; }

  /// Eagerly builds the cursors for every token in `tokens` that is not
  /// already cached at this α. Cursors land in the shared cache, so one
  /// query's prewarm is every concurrent query's warm start.
  void Prewarm(std::span<const TokenId> tokens, Score alpha) const override;

  /// Probe session over the shared cursor cache (see
  /// SimilarityIndex::NewSession). Sessions are cheap (an empty position
  /// table); any number may run concurrently with each other and with
  /// Prewarm.
  std::unique_ptr<ProbeSession> NewSession() const override;

  CursorCacheStats cursor_cache_stats() const;

  /// Caps the shared cursor cache at `bytes` of payload (0 = unbounded,
  /// the default). When a publish pushes the cache over, the CLOCK policy
  /// evicts unreferenced entries (see the class comment) until the budget
  /// holds again — synchronously, so the cache is back under the cap by
  /// the time any PublishCursor returns (concurrent publishers can
  /// transiently overshoot by at most their in-flight payloads). Safe to
  /// call on a live index; a shrink evicts down to the new cap before
  /// returning.
  void SetCursorCacheCapacity(size_t bytes) const;

  /// Evicts until the cache is within its capacity (no-op when unbounded
  /// or already within). Called automatically after every publish;
  /// exposed for capacity shrinks and tests.
  void EvictToCapacity() const;

  /// Drops every cached cursor (memory pressure / tests). Sessions holding
  /// a cursor keep it alive until they release it; in-flight probes are
  /// unaffected.
  void ClearCursorCache() const;

  /// The vocabulary plus the cached cursor payloads.
  size_t MemoryUsageBytes() const override;

 protected:
  /// `vocabulary`: the distinct tokens of the repository, the one list
  /// every cursor build scores. `sim`: any symmetric similarity; its batch
  /// entry points are the only way this class scores.
  BatchedNeighborIndex(std::vector<TokenId> vocabulary,
                       const SimilarityFunction* sim);

 private:
  class Session;

  // Neighbors ordered in chunks of this size; the common case consumes one
  // chunk or less before the θ-bound stops the stream.
  static constexpr size_t kSortChunk = 64;

  // Query tokens scored per multi-query kernel call during Prewarm.
  static constexpr size_t kPrewarmBlock = 8;

  // Shards of the cursor cache. Sixteen keeps the mutex word count trivial
  // while making same-instant collisions of concurrent queries unlikely.
  static constexpr size_t kCacheShards = 16;

  /// One built cursor, shared by every consumer probing its (token, α).
  /// `neighbors` is append-frozen at build time; the lazy chunk ordering
  /// permutes only [ordered_prefix, end) under `order_mutex` and then
  /// publishes the new prefix length, so [0, ordered_prefix) — the only
  /// part consumers read without the lock — is immutable once observed
  /// through the acquire load.
  struct SharedCursor {
    Score alpha = -1.0;               // threshold the α filter ran at
    std::vector<Neighbor> neighbors;  // >= alpha; [0, ordered_prefix) sorted
    // Exact payload footprint, fixed when the cursor is published (the
    // neighbor array is shrunk to fit at build time, so capacity == size
    // and the accounting matches the allocation).
    size_t bytes = 0;
    // CLOCK reference bit: set by every cache hit, cleared by the passing
    // eviction hand; an entry is only evicted with the bit clear.
    std::atomic<bool> referenced{false};
    std::atomic<size_t> ordered_prefix{0};
    std::mutex order_mutex;
  };
  using CursorPtr = std::shared_ptr<SharedCursor>;

  struct CacheKey {
    TokenId token;
    Score alpha;
    bool operator==(const CacheKey& o) const {
      return token == o.token && alpha == o.alpha;
    }
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey& k) const;
  };
  struct CacheShard {
    mutable std::mutex mutex;
    std::unordered_map<CacheKey, CursorPtr, CacheKeyHash> map;
    // CLOCK ring over this shard's keys in publish order. Evicted (and
    // insert-raced) keys linger until the hand sweeps them out lazily, so
    // publishes stay O(1); `hand` is the next ring slot the policy looks
    // at. Both are guarded by `mutex`.
    std::vector<CacheKey> ring;
    size_t hand = 0;
  };

  /// Extends the shared ordered prefix until it covers `count` neighbors
  /// (or all of them): nth_element partitions the next chunk's members to
  /// the front, then the chunk is sorted with the deterministic tie-break,
  /// so full consumption reproduces the eager full sort exactly. Lock-free
  /// fast path when the prefix already covers `count`.
  static void EnsureOrdered(SharedCursor& cursor, size_t count);

  CacheShard& ShardFor(const CacheKey& key) const;

  /// One CLOCK step over `shard`: sweeps dead ring slots, clears reference
  /// bits, evicts the first unreferenced entry. Returns the bytes freed
  /// (0 when the shard has nothing evictable this pass). Caller holds no
  /// shard lock; the shard's own mutex is taken inside.
  size_t ClockEvictOne(CacheShard& shard) const;

  /// Cache lookup; counts a hit when found. Null on miss (no counter —
  /// callers that go on to build count the miss).
  CursorPtr FindCursor(TokenId q, Score alpha) const;

  /// Publishes a built cursor; on an insert race the FIRST insert wins
  /// (its lazy-ordering progress is kept) and the loser is counted in
  /// duplicate_builds. Returns the cached winner.
  CursorPtr PublishCursor(TokenId q, Score alpha, CursorPtr built) const;

  /// Cache lookup, building (one batched kernel scan + α filter) on a
  /// miss. Safe from any thread.
  CursorPtr CursorFor(TokenId q, Score alpha) const;

  CursorPtr BuildCursor(TokenId q, Score alpha) const;

  /// Batched build of one prewarm block: the block is scored against the
  /// vocabulary with one SimilarityBatchMulti call, then each query's α
  /// filter runs over its own row.
  std::vector<CursorPtr> BuildCursorBlock(std::span<const TokenId> qs,
                                          Score alpha) const;

  std::vector<TokenId> vocabulary_;
  const SimilarityFunction* sim_;

  // Shared cursor cache + stats. Mutable: caching is not observable
  // through the probe results (builds are deterministic), and sessions
  // populate it through their const index.
  mutable std::array<CacheShard, kCacheShards> shards_;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> duplicate_builds_{0};

  // Byte budget of the cached payloads (exact: credited at publish,
  // debited at evict/clear) and the CLOCK eviction state. evict_shard_
  // round-robins the shard the next eviction step works on, so pressure
  // spreads instead of draining one shard.
  mutable util::ByteBudget cache_bytes_;
  mutable std::atomic<uint64_t> evictions_{0};
  mutable std::atomic<size_t> evict_shard_{0};
};

}  // namespace koios::sim

#endif  // KOIOS_SIM_BATCHED_NEIGHBOR_INDEX_H_
