#include "koios/baselines/vanilla_topk.h"

#include <unordered_map>

#include "koios/util/top_k_list.h"

namespace koios::baselines {

VanillaTopK::VanillaTopK(const index::SetCollection* sets)
    : sets_(sets), inverted_(*sets) {}

core::SearchResult VanillaTopK::Search(std::span<const TokenId> query,
                                       size_t k) const {
  core::SearchResult result;
  std::unordered_map<SetId, uint32_t> overlap;
  for (TokenId t : query) {
    for (const uint32_t rank : inverted_.Postings(t)) {
      ++overlap[inverted_.SetAt(rank)];
    }
  }
  result.stats.candidates = overlap.size();
  util::TopKList<SetId> topk(k);
  for (const auto& [id, count] : overlap) {
    topk.Offer(id, static_cast<Score>(count));
  }
  for (const auto& [id, score] : topk.Descending()) {
    result.topk.push_back({id, score, /*exact=*/true});
  }
  return result;
}

}  // namespace koios::baselines
