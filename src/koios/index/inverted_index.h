// The inverted index Is (paper §IV), size-ranked: maps each vocabulary
// token cj ∈ D to the list of indexed sets containing it.
//
// The indexed sets are ranked by (|C| desc, id asc): rank 0 is the largest
// set. A token's list holds the ranks of its sets, ascending, in CSR form
// (one u64 offset per token id, one u32 rank per posting), so the sets of
// any one size and above are a prefix of every list. That is what lets
// refinement stop each list at a size cut (Lemma 2 at s = 1:
// SO(Q, C) ≤ min(|Q|, |C|)). A rank → id table maps a rank back to its
// SetId, and a size → rank-count table answers both "how many sets have at
// least c elements" and "how large is the set at rank r" without reading
// the collection.
//
// Two storage modes behind one interface, as for SetCollection:
//  * owned — the constructors rank the sets and build the lists on the
//    heap (a whole collection, or one partition of it);
//  * borrowed — FromBorrowed() wraps lists an io::MmapRepositoryView
//    mapping carries for the whole collection, without copying them. The
//    rank order is a pure function of the set sizes, so it is re-derived
//    (one counting sort), not stored. The mapping must outlive the index
//    — serve::Snapshot pins it.
#ifndef KOIOS_INDEX_INVERTED_INDEX_H_
#define KOIOS_INDEX_INVERTED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "koios/index/set_collection.h"
#include "koios/util/status.h"
#include "koios/util/types.h"

namespace koios::index {

class InvertedIndex {
 public:
  InvertedIndex() = default;

  /// Ranks every set in `collection` and builds its lists.
  explicit InvertedIndex(const SetCollection& collection);

  /// The same over a *subset* of the collection (ascending SetIds) — one
  /// partition of a partitioned search; ranks run over the subset only.
  InvertedIndex(const SetCollection& collection, std::span<const SetId> subset);

  /// Wraps the whole collection's ranked lists without copying them:
  /// `offsets` holds TokenIdBound() + 1 monotone positions into `ranks`,
  /// starting at 0 and ending exactly at ranks.size(). The ranks inside the
  /// lists are trusted from the writer (checksummed in the file; eager
  /// verification proves them the transpose of the set arenas).
  static util::StatusOr<InvertedIndex> FromBorrowed(
      const SetCollection& collection, std::span<const uint64_t> offsets,
      std::span<const uint32_t> ranks);

  // Move-only: the list views point into the owned vectors.
  InvertedIndex(InvertedIndex&&) = default;
  InvertedIndex& operator=(InvertedIndex&&) = default;
  InvertedIndex(const InvertedIndex&) = delete;
  InvertedIndex& operator=(const InvertedIndex&) = delete;

  /// Ranks of the indexed sets containing `token`, ascending; empty if
  /// none.
  std::span<const uint32_t> Postings(TokenId token) const {
    if (token + size_t{1} >= offsets_.size()) return {};
    return ranks_.subspan(offsets_[token], offsets_[token + 1] - offsets_[token]);
  }

  /// The SetId at `rank`.
  SetId SetAt(uint32_t rank) const { return ids_[rank]; }

  /// How many indexed sets hold at least `size` elements: exactly the ranks
  /// below the returned one.
  uint32_t RanksWithSizeAtLeast(size_t size) const {
    return size < rank_end_.size() ? rank_end_[size] : 0;
  }

  /// |C| of the set at `rank`.
  size_t SetSize(uint32_t rank) const;

  /// Indexed sets: ranks run over [0, num_sets()).
  size_t num_sets() const { return ids_.size(); }

  /// True if the token occurs in at least one indexed set (token ∈ D).
  bool InVocabulary(TokenId token) const { return !Postings(token).empty(); }

  /// The distinct tokens of the indexed sets.
  std::vector<TokenId> Vocabulary() const;

  size_t MaxPostingLength() const;

  /// The CSR arenas (offsets per token id, ranks), as the repository
  /// writer stores them.
  std::span<const uint64_t> Offsets() const { return offsets_; }
  std::span<const uint32_t> Ranks() const { return ranks_; }

  /// Bytes of the lists (borrowed or owned), the rank → id table and the
  /// size table.
  size_t MemoryUsageBytes() const {
    return offsets_.size_bytes() + ranks_.size_bytes() +
           ids_.size() * sizeof(SetId) + rank_end_.size() * sizeof(uint32_t);
  }

 private:
  /// Builds the owned lists over the ranked sets in ids_.
  void Build(const SetCollection& collection);

  // Views of the lists: into own_offsets_ / own_ranks_, or into a mapping.
  std::span<const uint64_t> offsets_;
  std::span<const uint32_t> ranks_;
  std::vector<uint64_t> own_offsets_;
  std::vector<uint32_t> own_ranks_;
  std::vector<SetId> ids_;          // rank -> SetId
  std::vector<uint32_t> rank_end_;  // size c -> sets with |C| >= c
};

}  // namespace koios::index

#endif  // KOIOS_INDEX_INVERTED_INDEX_H_
