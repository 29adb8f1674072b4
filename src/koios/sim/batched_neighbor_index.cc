#include "koios/sim/batched_neighbor_index.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "koios/util/fault_injector.h"

namespace koios::sim {

namespace {

// Descending similarity, token id as the deterministic tie-break. The lazy
// chunked ordering and an eager full sort agree because this comparator is
// a strict total order — which is also why the sorted prefix of a SHARED
// cursor is one unique sequence no matter which consumer extended it.
inline bool NeighborBefore(const Neighbor& a, const Neighbor& b) {
  if (a.sim != b.sim) return a.sim > b.sim;
  return a.token < b.token;
}

// The α filter over query `q`'s score row against `vocabulary`. The query
// token itself is skipped: self-matches are injected by the token stream.
// The cursor is a long-lived cached payload, so the push_back growth slack
// is dropped and the budget accounting (capacity-based) matches what is
// resident.
void FilterRow(TokenId q, std::span<const TokenId> vocabulary,
               const Score* row, Score alpha, std::vector<Neighbor>* out) {
  for (size_t i = 0; i < vocabulary.size(); ++i) {
    if (vocabulary[i] == q) continue;
    if (row[i] >= alpha) out->push_back({vocabulary[i], row[i]});
  }
  out->shrink_to_fit();
}

}  // namespace

BatchedNeighborIndex::BatchedNeighborIndex(std::vector<TokenId> vocabulary,
                                           const SimilarityFunction* sim)
    : vocabulary_(std::move(vocabulary)), sim_(sim) {}

// ---- probe session ----------------------------------------------------------

// One query's consumption positions over the parent's shared cursor cache:
// everything stateful that a probe touches lives here, which is what makes
// the index itself const and KoiosSearcher::Search reentrant.
class BatchedNeighborIndex::Session final : public ProbeSession {
 public:
  explicit Session(const BatchedNeighborIndex* parent) : parent_(parent) {}

  std::optional<Neighbor> NextNeighbor(TokenId q, Score alpha) override {
    Position& pos = positions_[q];
    if (pos.cursor == nullptr || pos.cursor->alpha != alpha) {
      // First probe, or a cursor filtered at a different α (a stale cursor
      // would silently serve neighbors pruned at the old threshold).
      pos.cursor = parent_->CursorFor(q, alpha);
      pos.next = 0;
    }
    SharedCursor& cursor = *pos.cursor;
    if (pos.next >= cursor.neighbors.size()) return std::nullopt;
    EnsureOrdered(cursor, pos.next + 1);
    return cursor.neighbors[pos.next++];
  }

 private:
  struct Position {
    CursorPtr cursor;  // resolved payload (null until first probe)
    size_t next = 0;   // neighbors this session consumed
  };

  const BatchedNeighborIndex* parent_;
  std::unordered_map<TokenId, Position> positions_;
};

std::unique_ptr<ProbeSession> BatchedNeighborIndex::NewSession() const {
  return std::make_unique<Session>(this);
}

// ---- shared cursor cache ----------------------------------------------------

size_t BatchedNeighborIndex::CacheKeyHash::operator()(
    const CacheKey& k) const {
  uint64_t bits;
  static_assert(sizeof(Score) == sizeof(uint64_t));
  std::memcpy(&bits, &k.alpha, sizeof(bits));
  // Mix the token into the α bits, then avalanche: shard selection masks
  // the LOW bits of this value (ShardFor), so they must depend on every
  // input bit or same-α traffic would pile onto a few shards.
  uint64_t h = (static_cast<uint64_t>(k.token) + 0x9E3779B97F4A7C15ull) ^
               (bits * 0xC2B2AE3D27D4EB4Full);
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 32;
  return static_cast<size_t>(h);
}

BatchedNeighborIndex::CacheShard& BatchedNeighborIndex::ShardFor(
    const CacheKey& key) const {
  static_assert((kCacheShards & (kCacheShards - 1)) == 0);
  return shards_[CacheKeyHash{}(key) & (kCacheShards - 1)];
}

BatchedNeighborIndex::CursorPtr BatchedNeighborIndex::FindCursor(
    TokenId q, Score alpha) const {
  const CacheKey key{q, alpha};
  CacheShard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return nullptr;
  hits_.fetch_add(1, std::memory_order_relaxed);
  // Every hit arms the CLOCK reference bit: the eviction hand must go all
  // the way round without another hit before this entry may be dropped.
  it->second->referenced.store(true, std::memory_order_relaxed);
  return it->second;
}

BatchedNeighborIndex::CursorPtr BatchedNeighborIndex::PublishCursor(
    TokenId q, Score alpha, CursorPtr built) const {
  // Chaos seam: dropping a publish is correctness-neutral by design — the
  // builder keeps its private cursor (bit-identical results), only the
  // cross-query cache entry is lost, exactly as if CLOCK evicted it
  // immediately. Fault tests lean on this to hammer the publish path.
  if (KOIOS_FAULTPOINT("cursor.publish")) return built;
  const CacheKey key{q, alpha};
  CacheShard& shard = ShardFor(key);
  CursorPtr winner;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto [it, inserted] = shard.map.try_emplace(key, std::move(built));
    if (!inserted) {
      duplicate_builds_.fetch_add(1, std::memory_order_relaxed);
      // The losing builder still RESOLVED this entry — two concurrent
      // queries wanted it, so it is hot: arm the bit like a hit would.
      it->second->referenced.store(true, std::memory_order_relaxed);
      return it->second;
    }
    // Fresh entry: fix its exact footprint (the neighbor array is frozen
    // from here on), credit the budget, and hand it to the CLOCK ring
    // with the reference bit armed (standard CLOCK: a new entry survives
    // at least one full hand lap, so a hot cursor rebuilt after an
    // unlucky eviction is not immediately evicted again).
    SharedCursor& cursor = *it->second;
    cursor.bytes =
        sizeof(SharedCursor) + cursor.neighbors.capacity() * sizeof(Neighbor);
    cursor.referenced.store(true, std::memory_order_relaxed);
    cache_bytes_.Add(cursor.bytes);
    shard.ring.push_back(key);
    winner = it->second;
  }
  // Pay for the insert immediately (outside the shard lock — the eviction
  // hand may land on any shard): by the time this publish returns the
  // cache is back under its budget.
  EvictToCapacity();
  return winner;
}

void BatchedNeighborIndex::SetCursorCacheCapacity(size_t bytes) const {
  cache_bytes_.set_capacity(bytes);
  EvictToCapacity();
}

void BatchedNeighborIndex::EvictToCapacity() const {
  // Round-robin laps over the shards until within budget. Termination is
  // guaranteed: ClockEvictOne's forced final step evicts from any
  // non-empty shard, and every shard empty means zero accounted bytes,
  // i.e. OverBy() == 0.
  while (cache_bytes_.OverBy() > 0) {
    for (size_t i = 0; i < kCacheShards && cache_bytes_.OverBy() > 0; ++i) {
      const size_t s =
          evict_shard_.fetch_add(1, std::memory_order_relaxed) % kCacheShards;
      ClockEvictOne(shards_[s]);
    }
  }
}

size_t BatchedNeighborIndex::ClockEvictOne(CacheShard& shard) const {
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.map.empty()) {
    shard.ring.clear();
    shard.hand = 0;
    return 0;
  }
  // Up to two passes over the ring: the first may only clear reference
  // bits, the second then finds a clear one. The final forced step keeps
  // eviction from livelocking against a hit storm that re-arms bits as
  // fast as the hand clears them.
  const size_t limit = 2 * shard.ring.size();
  for (size_t step = 0; step <= limit && !shard.ring.empty(); ++step) {
    if (shard.hand >= shard.ring.size()) shard.hand = 0;
    auto it = shard.map.find(shard.ring[shard.hand]);
    if (it == shard.map.end()) {
      // Dead slot (evicted earlier, or the key lost an insert race):
      // swap-remove keeps the sweep O(1) per slot; strict ring order is
      // not needed, only that the hand keeps visiting every live entry.
      shard.ring[shard.hand] = shard.ring.back();
      shard.ring.pop_back();
      continue;
    }
    SharedCursor& cursor = *it->second;
    if (step < limit &&
        cursor.referenced.exchange(false, std::memory_order_relaxed)) {
      ++shard.hand;
      continue;
    }
    // Drop the cache's reference ONLY. Sessions still holding the payload
    // keep consuming it untouched (shared_ptr lifetime); the next cache
    // resolution of this (token, α) rebuilds deterministically.
    const size_t freed = cursor.bytes;
    shard.map.erase(it);
    shard.ring[shard.hand] = shard.ring.back();
    shard.ring.pop_back();
    cache_bytes_.Sub(freed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    return freed;
  }
  return 0;
}

BatchedNeighborIndex::CursorPtr BatchedNeighborIndex::CursorFor(
    TokenId q, Score alpha) const {
  if (CursorPtr cached = FindCursor(q, alpha)) return cached;
  misses_.fetch_add(1, std::memory_order_relaxed);
  return PublishCursor(q, alpha, BuildCursor(q, alpha));
}

BatchedNeighborIndex::CursorPtr BatchedNeighborIndex::BuildCursor(
    TokenId q, Score alpha) const {
  auto cursor = std::make_shared<SharedCursor>();
  cursor->alpha = alpha;
  if (vocabulary_.empty()) return cursor;
  // One batched scan of the vocabulary, then the α filter over the flat
  // score array. thread_local scratch: builds run concurrently in
  // different queries' prewarms and sessions' cache misses.
  thread_local std::vector<Score> scores;
  scores.resize(vocabulary_.size());
  sim_->SimilarityBatch(q, vocabulary_, scores);
  FilterRow(q, vocabulary_, scores.data(), alpha, &cursor->neighbors);
  return cursor;
}

std::vector<BatchedNeighborIndex::CursorPtr>
BatchedNeighborIndex::BuildCursorBlock(std::span<const TokenId> qs,
                                       Score alpha) const {
  std::vector<CursorPtr> cursors(qs.size());
  for (CursorPtr& c : cursors) {
    c = std::make_shared<SharedCursor>();
    c->alpha = alpha;
  }
  if (vocabulary_.empty()) return cursors;

  // One multi-query kernel call scores the whole block against the
  // vocabulary (each vocabulary row read once per multi-query sub-block).
  thread_local std::vector<Score> scores;
  scores.resize(qs.size() * vocabulary_.size());
  sim_->SimilarityBatchMulti(qs, vocabulary_, scores);
  for (size_t qi = 0; qi < qs.size(); ++qi) {
    FilterRow(qs[qi], vocabulary_, scores.data() + qi * vocabulary_.size(),
              alpha, &cursors[qi]->neighbors);
  }
  return cursors;
}

void BatchedNeighborIndex::EnsureOrdered(SharedCursor& cursor, size_t count) {
  const size_t wanted = std::min(count, cursor.neighbors.size());
  // Lock-free fast path: the acquire pairs with the release below, so a
  // consumer that sees the prefix covering `wanted` also sees the ordered
  // elements themselves.
  if (cursor.ordered_prefix.load(std::memory_order_acquire) >= wanted) return;
  std::lock_guard<std::mutex> lock(cursor.order_mutex);
  size_t prefix = cursor.ordered_prefix.load(std::memory_order_relaxed);
  while (prefix < wanted) {
    // Chunks double as consumption deepens: nth_element costs O(remaining)
    // per round, so a flat chunk would make a full drain (a query whose
    // refinement runs the stream down to α) quadratic. Doubling keeps short
    // prefixes cheap and bounds full consumption at O(m log m), matching
    // the eager sort this replaced.
    const size_t chunk = std::max(kSortChunk, prefix);
    const size_t chunk_end = std::min(prefix + chunk, cursor.neighbors.size());
    const auto first =
        cursor.neighbors.begin() + static_cast<ptrdiff_t>(prefix);
    const auto nth =
        cursor.neighbors.begin() + static_cast<ptrdiff_t>(chunk_end - 1);
    // Partition the next chunk's members in front of everything ranked
    // after them, then order the chunk itself. Only [prefix, end) moves:
    // the published prefix stays immutable under concurrent readers.
    std::nth_element(first, nth, cursor.neighbors.end(), NeighborBefore);
    std::sort(first, nth + 1, NeighborBefore);
    prefix = chunk_end;
  }
  cursor.ordered_prefix.store(prefix, std::memory_order_release);
}

// ---- prewarm ----------------------------------------------------------------

void BatchedNeighborIndex::Prewarm(std::span<const TokenId> tokens,
                                   Score alpha) const {
  std::vector<TokenId> missing;
  missing.reserve(tokens.size());
  for (TokenId t : tokens) missing.push_back(t);
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
  // Drop tokens already cached at this α (each counts as a prewarm hit —
  // possibly warmed by a concurrent or an earlier query).
  std::erase_if(missing,
                [&](TokenId t) { return FindCursor(t, alpha) != nullptr; });
  if (missing.empty()) return;
  misses_.fetch_add(missing.size(), std::memory_order_relaxed);

  const std::span<const TokenId> all(missing);
  for (size_t b = 0; b < missing.size(); b += kPrewarmBlock) {
    const auto block =
        all.subspan(b, std::min(kPrewarmBlock, missing.size() - b));
    std::vector<CursorPtr> built = BuildCursorBlock(block, alpha);
    for (size_t i = 0; i < block.size(); ++i) {
      PublishCursor(block[i], alpha, std::move(built[i]));
    }
  }
}

// ---- maintenance ------------------------------------------------------------

void BatchedNeighborIndex::ClearCursorCache() const {
  for (CacheShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    // Debit exactly what each dropped entry credited at publish; sessions
    // mid-stream keep their payloads alive through their own shared_ptr.
    for (const auto& [_, c] : shard.map) cache_bytes_.Sub(c->bytes);
    shard.map.clear();
    shard.ring.clear();
    shard.hand = 0;
  }
}

CursorCacheStats BatchedNeighborIndex::cursor_cache_stats() const {
  CursorCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.duplicate_builds = duplicate_builds_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.bytes = cache_bytes_.used();
  stats.capacity_bytes = cache_bytes_.capacity();
  for (const CacheShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    stats.cursors += shard.map.size();
  }
  return stats;
}

size_t BatchedNeighborIndex::MemoryUsageBytes() const {
  // The budget gauge is exact (credit at publish, debit at evict/clear),
  // so no shard walk is needed.
  return vocabulary_.capacity() * sizeof(TokenId) + cache_bytes_.used();
}

}  // namespace koios::sim
