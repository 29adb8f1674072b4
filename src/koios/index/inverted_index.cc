#include "koios/index/inverted_index.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace koios::index {

InvertedIndex::InvertedIndex(const SetCollection& collection) {
  std::vector<SetId> all(collection.size());
  std::iota(all.begin(), all.end(), 0);
  Build(collection, all);
}

InvertedIndex::InvertedIndex(const SetCollection& collection,
                             std::span<const SetId> subset) {
  Build(collection, subset);
}

void InvertedIndex::Build(const SetCollection& collection,
                          std::span<const SetId> subset) {
  assert(std::is_sorted(subset.begin(), subset.end()));
  if (!subset.empty()) {
    first_set_ = subset.front();
    end_set_ = subset.back() + 1;
  }
  const size_t bound = collection.TokenIdBound();
  heads_.assign(bound, kEmpty);

  // Two passes: count posting lengths, then fill.
  std::vector<size_t> counts(bound, 0);
  size_t total = 0;
  for (SetId id : subset) {
    for (TokenId t : collection.Tokens(id)) {
      ++counts[t];
      ++total;
    }
  }
  postings_.resize(total);
  ranges_.clear();
  std::vector<size_t> cursor(bound, 0);
  size_t offset = 0;
  for (TokenId t = 0; t < bound; ++t) {
    if (counts[t] == 0) continue;
    heads_[t] = static_cast<uint32_t>(ranges_.size());
    ranges_.emplace_back(offset, counts[t]);
    cursor[t] = offset;
    offset += counts[t];
  }
  for (SetId id : subset) {
    for (TokenId t : collection.Tokens(id)) {
      postings_[cursor[t]++] = id;
    }
  }
}

std::vector<TokenId> InvertedIndex::Vocabulary() const {
  std::vector<TokenId> vocab;
  vocab.reserve(ranges_.size());
  for (TokenId t = 0; t < heads_.size(); ++t) {
    if (heads_[t] != kEmpty) vocab.push_back(t);
  }
  return vocab;
}

size_t InvertedIndex::MaxPostingLength() const {
  size_t max_len = 0;
  for (const auto& [_, count] : ranges_) max_len = std::max(max_len, count);
  return max_len;
}

}  // namespace koios::index
