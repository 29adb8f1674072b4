// The paper's baseline (§VIII-A4): collect candidate sets from the token
// stream, then compute the exact bipartite matching for all of them (thread
// pool), keeping a top-k list. "Baseline+" additionally activates the
// iUB-Filter during candidate collection, which the paper needs to make
// WDC feasible.
#ifndef KOIOS_BASELINES_BRUTE_FORCE_H_
#define KOIOS_BASELINES_BRUTE_FORCE_H_

#include <span>

#include "koios/core/search_types.h"
#include "koios/index/inverted_index.h"
#include "koios/index/set_collection.h"
#include "koios/sim/similarity.h"

namespace koios::baselines {

struct BaselineOptions {
  size_t k = 10;
  Score alpha = 0.8;
  size_t num_threads = 1;
  /// false: plain Baseline (verify every candidate).
  /// true:  Baseline+ (refinement-style iUB pruning first).
  bool use_iub_filter = false;
  /// Verify on the dense |Q| x |C| similarity matrix, as the paper's
  /// baseline does (it feeds full matrices to a dense Hungarian solver).
  /// false switches to Koios' graph-restricted matrices, isolating the
  /// filter framework from the verification-kernel difference.
  bool dense_verification = true;
};

class BruteForceBaseline {
 public:
  /// `index` supplies the token stream (same as Koios, so the comparison
  /// isolates the filter framework, not the index).
  BruteForceBaseline(const index::SetCollection* sets,
                     const sim::SimilarityIndex* index);

  core::SearchResult Search(std::span<const TokenId> query,
                            const BaselineOptions& options) const;

 private:
  const index::SetCollection* sets_;
  const sim::SimilarityIndex* index_;
  index::InvertedIndex inverted_;
};

}  // namespace koios::baselines

#endif  // KOIOS_BASELINES_BRUTE_FORCE_H_
