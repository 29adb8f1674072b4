#include "koios/index/inverted_index.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace koios::index {

namespace {

/// Ranks the sets id_of(0), ..., id_of(n − 1) (ids ascending) by
/// (|C| desc, id asc) with one counting sort over their sizes: `ids` gets
/// rank → id, `rank_end` size c → the number of sets with |C| ≥ c (entries
/// 0 to max |C| + 1, the last one 0).
template <class IdOf>
void RankBySize(const SetCollection& collection, size_t n, IdOf id_of,
                std::vector<SetId>* ids, std::vector<uint32_t>* rank_end) {
  rank_end->assign(2, 0);
  for (size_t i = 0; i < n; ++i) {
    const size_t size = collection.SetSize(id_of(i));
    if (size + 2 > rank_end->size()) rank_end->resize(size + 2, 0);
    ++(*rank_end)[size];
  }
  for (size_t c = rank_end->size() - 1; c-- > 0;) {
    (*rank_end)[c] += (*rank_end)[c + 1];
  }
  // The sets of size c take the ranks [rank_end[c + 1], rank_end[c]), in
  // ascending id order.
  std::vector<uint32_t> next(rank_end->begin() + 1, rank_end->end());
  ids->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const SetId id = id_of(i);
    (*ids)[next[collection.SetSize(id)]++] = id;
  }
}

}  // namespace

InvertedIndex::InvertedIndex(const SetCollection& collection) {
  RankBySize(collection, collection.size(),
             [](size_t i) { return static_cast<SetId>(i); }, &ids_,
             &rank_end_);
  Build(collection);
}

InvertedIndex::InvertedIndex(const SetCollection& collection,
                             std::span<const SetId> subset) {
  assert(std::is_sorted(subset.begin(), subset.end()));
  RankBySize(collection, subset.size(),
             [subset](size_t i) { return subset[i]; }, &ids_, &rank_end_);
  Build(collection);
}

void InvertedIndex::Build(const SetCollection& collection) {
  // Count each token's postings, then fill the lists in rank order, so
  // each list comes out ascending.
  const size_t bound = collection.TokenIdBound();
  own_offsets_.assign(bound + 1, 0);
  for (const SetId id : ids_) {
    for (TokenId t : collection.Tokens(id)) ++own_offsets_[t + 1];
  }
  for (size_t t = 0; t < bound; ++t) own_offsets_[t + 1] += own_offsets_[t];
  own_ranks_.resize(own_offsets_[bound]);
  std::vector<uint64_t> cursor(own_offsets_.begin(), own_offsets_.end() - 1);
  for (uint32_t rank = 0; rank < ids_.size(); ++rank) {
    for (TokenId t : collection.Tokens(ids_[rank])) {
      own_ranks_[cursor[t]++] = rank;
    }
  }
  offsets_ = own_offsets_;
  ranks_ = own_ranks_;
}

util::StatusOr<InvertedIndex> InvertedIndex::FromBorrowed(
    const SetCollection& collection, std::span<const uint64_t> offsets,
    std::span<const uint32_t> ranks) {
  if (offsets.size() != collection.TokenIdBound() + 1 ||
      offsets.front() != 0 || offsets.back() != ranks.size() ||
      ranks.size() != collection.TotalTokens()) {
    return util::Status::InvalidArgument(
        "posting offsets do not span the posting arena");
  }
  for (size_t t = 0; t + 1 < offsets.size(); ++t) {
    if (offsets[t] > offsets[t + 1]) {
      return util::Status::InvalidArgument(
          "posting offsets are not monotone");
    }
  }
  InvertedIndex index;
  RankBySize(collection, collection.size(),
             [](size_t i) { return static_cast<SetId>(i); }, &index.ids_,
             &index.rank_end_);
  index.offsets_ = offsets;
  index.ranks_ = ranks;
  return index;
}

size_t InvertedIndex::SetSize(uint32_t rank) const {
  assert(rank < ids_.size());
  // rank_end_ is non-increasing; the first size whose count no longer
  // reaches past `rank` is one more than the set's size.
  const auto it = std::lower_bound(rank_end_.begin(), rank_end_.end(), rank,
                                   std::greater<uint32_t>());
  return static_cast<size_t>(it - rank_end_.begin()) - 1;
}

std::vector<TokenId> InvertedIndex::Vocabulary() const {
  std::vector<TokenId> vocab;
  for (TokenId t = 0; t + size_t{1} < offsets_.size(); ++t) {
    if (offsets_[t + 1] > offsets_[t]) vocab.push_back(t);
  }
  return vocab;
}

size_t InvertedIndex::MaxPostingLength() const {
  size_t max_len = 0;
  for (size_t t = 0; t + 1 < offsets_.size(); ++t) {
    max_len = std::max<size_t>(max_len, offsets_[t + 1] - offsets_[t]);
  }
  return max_len;
}

}  // namespace koios::index
