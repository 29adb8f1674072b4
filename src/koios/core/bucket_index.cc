#include "koios/core/bucket_index.h"

#include <algorithm>
#include <cassert>

namespace koios::core {

namespace {

// std::*_heap build max-heaps; ordering by "greater S_i" makes a min-heap.
struct MinOnScore {
  template <class E>
  bool operator()(const E& a, const E& b) const {
    return a.s_i > b.s_i;
  }
};

}  // namespace

void BucketIndex::Clear() {
  // Small heaps keep their storage whatever the last query used.
  constexpr size_t kKeptEntries = 64;
  for (Heap& heap : heaps_) {
    heap.entries.clear();
    if (heap.entries.capacity() > 2 * heap.high_water + kKeptEntries) {
      heap.entries.shrink_to_fit();
      heap.entries.reserve(heap.high_water);
    }
    heap.live = 0;
    heap.high_water = 0;
  }
  used_ = 0;
  slots_.clear();
  live_ = 0;
}

void BucketIndex::Insert(uint32_t slot, uint32_t m, Score s_i) {
  if (slot >= slots_.size()) slots_.resize(slot + 1);
  SlotState& state = slots_[slot];
  assert(state.m == kAbsent);
  if (m >= heaps_.size()) heaps_.resize(m + 1);
  used_ = std::max<size_t>(used_, m + 1);
  Heap& heap = heaps_[m];
  heap.entries.push_back({s_i, slot, state.version});
  std::push_heap(heap.entries.begin(), heap.entries.end(), MinOnScore{});
  heap.high_water = std::max(heap.high_water, heap.entries.size());
  ++heap.live;
  state.m = m;
  ++live_;
}

void BucketIndex::Move(uint32_t slot, uint32_t m, Score s_i) {
  const uint32_t old_m = slots_[slot].m;
  Retire(slot);
  MaybeCompact(&heaps_[old_m]);
  Insert(slot, m, s_i);
}

void BucketIndex::Remove(uint32_t slot) {
  const uint32_t old_m = slots_[slot].m;
  Retire(slot);
  MaybeCompact(&heaps_[old_m]);
}

void BucketIndex::Retire(uint32_t slot) {
  SlotState& state = slots_[slot];
  assert(state.m != kAbsent);
  --heaps_[state.m].live;
  --live_;
  ++state.version;
  state.m = kAbsent;
}

void BucketIndex::PopTop(Heap* heap) {
  std::pop_heap(heap->entries.begin(), heap->entries.end(), MinOnScore{});
  heap->entries.pop_back();
}

void BucketIndex::MaybeCompact(Heap* heap) {
  std::vector<Entry>& entries = heap->entries;
  if (entries.size() - heap->live <= heap->live) return;
  entries.erase(std::remove_if(entries.begin(), entries.end(),
                               [this](const Entry& e) { return Stale(e); }),
                entries.end());
  std::make_heap(entries.begin(), entries.end(), MinOnScore{});
}

size_t BucketIndex::CountBelow(const std::vector<Entry>& entries, size_t i,
                               Score cutoff) const {
  // Heap order: a node at or above the cutoff roots a subtree that is too.
  if (i >= entries.size() || !(entries[i].s_i < cutoff)) return 0;
  return (Stale(entries[i]) ? 0 : 1) + CountBelow(entries, 2 * i + 1, cutoff) +
         CountBelow(entries, 2 * i + 2, cutoff);
}

size_t BucketIndex::CountSurvivors(Score sim, Score theta,
                                   size_t limit) const {
  size_t survivors = 0;
  for (size_t m = 0; m < used_; ++m) {
    const Heap& heap = heaps_[m];
    if (heap.live == 0) continue;
    const Score cutoff = theta - static_cast<Score>(m) * sim - kScoreEps;
    survivors += heap.live - CountBelow(heap.entries, 0, cutoff);
    if (survivors > limit) return survivors;  // enough to answer the check
  }
  return survivors;
}

size_t BucketIndex::num_buckets() const {
  size_t n = 0;
  for (size_t m = 0; m < used_; ++m) n += heaps_[m].live > 0 ? 1 : 0;
  return n;
}

size_t BucketIndex::MemoryUsageBytes() const {
  size_t bytes = used_ * sizeof(Heap) + slots_.size() * sizeof(SlotState);
  for (size_t m = 0; m < used_; ++m) {
    bytes += heaps_[m].high_water * sizeof(Entry);
  }
  return bytes;
}

}  // namespace koios::core
