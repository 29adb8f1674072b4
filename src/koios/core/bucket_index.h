// The bucketized iUB filter (paper §V): candidate sets are grouped by their
// number of remaining matchable elements m; within a bucket, sets are
// ordered by ascending partial score S_i. When the stream similarity drops
// to s, every set with S_i + m·s below θlb is prunable — and because the
// pruning condition S_i ≤ θlb − m·s has an identical right-hand side for
// all sets of a bucket, popping each bucket's smallest S_i until the first
// survivor prunes everything prunable without touching surviving sets.
//
// Each bucket is a binary min-heap on S_i over candidate-table slots.
// Moving a candidate pushes a fresh entry into its new bucket and leaves
// the old one behind: every slot carries a version, bumped on each move,
// and entries of an older version are stale. Stale entries are dropped
// when they reach a heap's top, and a heap is compacted (stale entries
// filtered out, heap rebuilt) once they outnumber its live ones, so every
// heap stays within twice its live size. The index is reused across
// queries (see RefinementScratch), so Clear() trims each heap to the
// storage the last query needed instead of releasing it.
#ifndef KOIOS_CORE_BUCKET_INDEX_H_
#define KOIOS_CORE_BUCKET_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "koios/util/types.h"

namespace koios::core {

class BucketIndex {
 public:
  /// Forgets every slot. Storage is kept for the next query, trimmed to
  /// what the query just finished needed: the retained storage follows the
  /// last query rather than the union of all past ones.
  void Clear();

  /// Insert a slot that is not in the index with remaining-capacity `m`
  /// and partial score `s_i`.
  void Insert(uint32_t slot, uint32_t m, Score s_i);

  /// Relocate a slot after it accepted a stream edge (m decreases by one,
  /// S_i grows).
  void Move(uint32_t slot, uint32_t m, Score s_i);

  /// Remove a slot outright (it was pruned by another filter).
  void Remove(uint32_t slot);

  /// Prunes every slot with S_i + m·sim < theta - eps, invoking
  /// `on_prune(slot)` for each and removing it. Returns the number pruned.
  /// Each bucket scan stops at the first survivor (ascending S_i order).
  template <class OnPrune>
  size_t Prune(Score sim, Score theta, OnPrune&& on_prune);

  /// How many slots would survive a Prune(sim, theta) without pruning them:
  /// |{C : S_C + m_C·sim >= theta − eps}|. Each bucket contributes its live
  /// size minus its below-cutoff entries (found by descending the heap
  /// only through below-cutoff nodes); when `limit` is exceeded the count
  /// returns early with a value > limit (the feedback stop check only
  /// needs "more than the budget", not the exact count).
  size_t CountSurvivors(Score sim, Score theta, size_t limit) const;

  size_t size() const { return live_; }
  /// Buckets holding at least one live slot.
  size_t num_buckets() const;

  /// Bytes the current query uses: its buckets, slot states and each
  /// heap's high water since Clear() (not the reused capacity; see
  /// CandidateTable::MemoryUsageBytes).
  size_t MemoryUsageBytes() const;

 private:
  struct Entry {
    Score s_i;
    uint32_t slot;
    uint32_t version;
  };
  struct Heap {
    std::vector<Entry> entries;  // min-heap on s_i, stale entries included
    size_t live = 0;
    size_t high_water = 0;  // most entries held since the last Clear()
  };
  struct SlotState {
    uint32_t version = 0;
    uint32_t m = kAbsent;  // bucket of the slot's live entry
  };
  static constexpr uint32_t kAbsent = 0xFFFFFFFFu;

  bool Stale(const Entry& e) const { return slots_[e.slot].version != e.version; }
  /// Invalidates the slot's live entry (it stays in its heap as stale).
  void Retire(uint32_t slot);
  void PopTop(Heap* heap);
  /// Drops stale entries once they outnumber live ones.
  void MaybeCompact(Heap* heap);
  size_t CountBelow(const std::vector<Entry>& entries, size_t i,
                    Score cutoff) const;

  std::vector<Heap> heaps_;  // by m; [0, used_) may hold entries
  size_t used_ = 0;
  std::vector<SlotState> slots_;
  size_t live_ = 0;
};

template <class OnPrune>
size_t BucketIndex::Prune(Score sim, Score theta, OnPrune&& on_prune) {
  size_t pruned = 0;
  for (size_t m = 0; m < used_; ++m) {
    Heap& heap = heaps_[m];
    if (heap.live == 0) continue;
    // Prune while S_i + m*sim is strictly below theta (eps-guarded so ties
    // are never pruned — Lemma 2 requires strict inequality).
    const Score cutoff = theta - static_cast<Score>(m) * sim - kScoreEps;
    while (!heap.entries.empty()) {
      const Entry top = heap.entries.front();
      const bool stale = Stale(top);
      if (!stale && !(top.s_i < cutoff)) break;
      PopTop(&heap);
      if (stale) continue;
      Retire(top.slot);
      on_prune(top.slot);
      ++pruned;
    }
    MaybeCompact(&heap);
  }
  return pruned;
}

}  // namespace koios::core

#endif  // KOIOS_CORE_BUCKET_INDEX_H_
