// The inverted index Is (paper §IV): maps each vocabulary token cj ∈ D to
// the posting list of sets containing it.
#ifndef KOIOS_INDEX_INVERTED_INDEX_H_
#define KOIOS_INDEX_INVERTED_INDEX_H_

#include <cstddef>
#include <span>
#include <vector>

#include "koios/index/set_collection.h"
#include "koios/util/types.h"

namespace koios::index {

class InvertedIndex {
 public:
  /// Builds postings for every set in `collection` (dense by token id).
  explicit InvertedIndex(const SetCollection& collection);

  /// Builds postings for a *subset* of the collection (ascending SetIds)
  /// — used by partitioned search, where each partition indexes only its
  /// own sets.
  InvertedIndex(const SetCollection& collection, std::span<const SetId> subset);

  /// Sets containing `token` (ascending SetId); empty if none.
  std::span<const SetId> Postings(TokenId token) const {
    if (token >= heads_.size() || heads_[token] == kEmpty) return {};
    const auto& range = ranges_[heads_[token]];
    return {postings_.data() + range.first, range.second};
  }

  /// True if the token occurs in at least one indexed set (token ∈ D).
  bool InVocabulary(TokenId token) const {
    return token < heads_.size() && heads_[token] != kEmpty;
  }

  /// The distinct tokens of the indexed sets.
  std::vector<TokenId> Vocabulary() const;

  /// The indexed sets' ids lie in [first_set(), end_set()): the first
  /// indexed id and one past the last (both 0 when none is indexed).
  SetId first_set() const { return first_set_; }
  SetId end_set() const { return end_set_; }

  size_t NumTokens() const { return ranges_.size(); }
  size_t MaxPostingLength() const;

  size_t MemoryUsageBytes() const {
    return postings_.capacity() * sizeof(SetId) + heads_.capacity() * sizeof(uint32_t) +
           ranges_.capacity() * sizeof(std::pair<size_t, size_t>);
  }

 private:
  void Build(const SetCollection& collection, std::span<const SetId> subset);

  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;

  std::vector<SetId> postings_;                      // concatenated lists
  std::vector<std::pair<size_t, size_t>> ranges_;    // (begin, count) per token
  std::vector<uint32_t> heads_;                      // TokenId -> ranges_ slot
  SetId first_set_ = 0;
  SetId end_set_ = 0;
};

}  // namespace koios::index

#endif  // KOIOS_INDEX_INVERTED_INDEX_H_
