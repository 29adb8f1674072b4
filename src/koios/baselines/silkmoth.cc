#include "koios/baselines/silkmoth.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "koios/matching/semantic_overlap.h"
#include "koios/util/timer.h"
#include "koios/util/top_k_list.h"

namespace koios::baselines {

SilkMothSearch::SilkMothSearch(const index::SetCollection* sets,
                               const sim::JaccardQGramSimilarity* sim)
    : sets_(sets), sim_(sim), inverted_(*sets) {
  vocabulary_ = inverted_.Vocabulary();
  // Prefix-filter index: for Jaccard threshold α, two gram sets G(q), G(t)
  // with |G(q) ∩ G(t)| > 0 required; indexing the (|G| - ceil(α·|G|) + 1)
  // smallest grams of every token guarantees no candidate with
  // Jaccard >= α is missed (standard prefix filtering).
  for (TokenId t : vocabulary_) {
    const auto& grams = sim_->GramsOf(t);
    const size_t prefix =
        grams.size() -
        static_cast<size_t>(std::ceil(0.5 * static_cast<double>(grams.size()))) +
        1;
    // Index a conservative half prefix (valid for any α >= 0.5; Search
    // asserts this). Grams are sorted, so the prefix is the first entries.
    for (size_t i = 0; i < std::min(prefix, grams.size()); ++i) {
      gram_index_[grams[i]].push_back(t);
    }
  }
}

std::vector<sim::Neighbor> SilkMothSearch::SimilarTokens(
    TokenId q, Score alpha, SilkMothVariant variant) const {
  std::vector<sim::Neighbor> out;
  if (variant == SilkMothVariant::kSemantic) {
    // Generic framework: no token-level filter; scan the vocabulary.
    for (TokenId t : vocabulary_) {
      const Score s = q == t ? 1.0 : sim_->Similarity(q, t);
      if (s >= alpha) out.push_back({t, s});
    }
    return out;
  }
  // Syntactic: prefix-filtered candidates only.
  const auto& grams = sim_->GramsOf(q);
  const size_t prefix =
      grams.size() -
      static_cast<size_t>(std::ceil(alpha * static_cast<double>(grams.size()))) +
      1;
  std::unordered_set<TokenId> candidates;
  for (size_t i = 0; i < std::min(prefix, grams.size()); ++i) {
    auto it = gram_index_.find(grams[i]);
    if (it == gram_index_.end()) continue;
    candidates.insert(it->second.begin(), it->second.end());
  }
  for (TokenId t : candidates) {
    const Score s = q == t ? 1.0 : sim_->Similarity(q, t);
    if (s >= alpha) out.push_back({t, s});
  }
  // The query token itself (vanilla matches) even if prefix-filtered out.
  if (inverted_.InVocabulary(q) && candidates.count(q) == 0) {
    out.push_back({q, 1.0});
  }
  return out;
}

core::SearchResult SilkMothSearch::Search(std::span<const TokenId> query,
                                          const SilkMothOptions& options) {
  core::SearchResult result;
  util::WallTimer timer;

  // --- candidate generation (signature/token filter stage) ---------------
  // edges[t] = list of (query position, sim) with sim >= alpha.
  std::unordered_map<TokenId, std::vector<std::pair<uint32_t, Score>>> edges;
  for (uint32_t qi = 0; qi < query.size(); ++qi) {
    for (const auto& n : SimilarTokens(query[qi], options.alpha,
                                       options.variant)) {
      edges[n.token].emplace_back(qi, n.sim);
    }
  }
  std::unordered_set<SetId> candidates;
  for (const auto& [token, _] : edges) {
    for (const uint32_t rank : inverted_.Postings(token)) {
      candidates.insert(inverted_.SetAt(rank));
    }
  }
  result.stats.candidates = candidates.size();
  result.stats.timers.Accumulate(core::Phase::kRefinement,
                                 timer.ElapsedSeconds());

  // --- check filter + verification ---------------------------------------
  timer.Restart();
  util::TopKList<SetId> topk(options.k);
  for (SetId id : candidates) {
    // Check filter: UB(C) = Σ_q max_{c ∈ C} sim(q, c) >= SO(Q, C).
    std::unordered_map<uint32_t, Score> row_max;
    for (TokenId t : sets_->Tokens(id)) {
      auto it = edges.find(t);
      if (it == edges.end()) continue;
      for (const auto& [qi, s] : it->second) {
        auto& slot = row_max[qi];
        slot = std::max(slot, s);
      }
    }
    Score ub = 0.0;
    for (const auto& [_, s] : row_max) ub += s;
    if (ub < options.theta - kScoreEps) {
      ++result.stats.iub_filtered;  // reported as "filtered" in the bench
      continue;
    }
    // Verification: exact maximum matching.
    const Score so = matching::SemanticOverlap(query, sets_->Tokens(id), *sim_,
                                               options.alpha);
    ++result.stats.em_computed;
    if (so >= options.theta - kScoreEps && so > 0.0) topk.Offer(id, so);
  }
  result.stats.timers.Accumulate(core::Phase::kPostprocess,
                                 timer.ElapsedSeconds());

  for (const auto& [id, score] : topk.Descending()) {
    result.topk.push_back({id, score, /*exact=*/true});
  }
  return result;
}

}  // namespace koios::baselines
