// The refinement phase of Koios (paper §IV–V, Algorithm 1): stream element
// pairs in non-increasing similarity order, surface candidate sets through
// the inverted index, maintain incremental bounds, and prune aggressively
// with the UB / iUB filters before any exact matching is attempted.
#ifndef KOIOS_CORE_REFINEMENT_H_
#define KOIOS_CORE_REFINEMENT_H_

#include <vector>

#include "koios/core/candidate_table.h"
#include "koios/core/edge_cache.h"
#include "koios/core/search_types.h"
#include "koios/index/inverted_index.h"
#include "koios/util/top_k_list.h"

namespace koios::core {

/// A candidate that survived every refinement filter: what
/// post-processing reads of its bounds.
struct Survivor {
  SetId set = kInvalidSet;
  Score partial_score = 0.0;  // S_i, the greedy iLB
  Score row_sum = 0.0;        // Σ retained row maxima
  uint32_t remaining = 0;     // matchable rows without a retained maximum

  /// CandidateState::UpperBound at stream similarity `s`.
  Score UpperBound(Score s) const {
    return row_sum + static_cast<Score>(remaining) * s;
  }
};

struct RefinementOutput {
  /// Candidates that survived all refinement filters (order unspecified).
  std::vector<Survivor> survivors;
  /// Running top-k lower-bound list; its Bottom() is θlb.
  util::TopKList<SetId> llb{1};
  /// Last (smallest) similarity this consumer processed (diagnostic).
  Score last_sim = 0.0;
  /// Sound upper bound on the similarity of every α-edge this consumer did
  /// NOT process: 0 when the stream drained to α (the seed behaviour —
  /// survivors' slack term vanishes), the stop similarity when the θlb
  /// feedback loop ended the stream early. Post-processing must use
  /// Survivor::UpperBound(ub_slack) as the survivors' final upper bound.
  Score ub_slack = 0.0;
};

class RefinementPhase {
 public:
  /// `inverted` indexes the sets of this partition only (or all sets when
  /// unpartitioned); it also knows each set's size and id, so the phase
  /// reads nothing else of the collection. The run's candidate table spans
  /// the partition's size ranks.
  RefinementPhase(const index::InvertedIndex* inverted, size_t query_size,
                  const SearchParams& params);

  /// Consumes the stream incrementally through `cache` (pulling production
  /// along past the produced prefix, replaying the prefix before it) and
  /// applies Algorithm 1 + the iUB filter of §V in this thread's candidate
  /// table. Counters are accumulated into `stats`.
  ///
  /// `ctx` (nullable) is the per-query SearchContext. Its GlobalThreshold
  /// is the cross-partition θlb of §VI: any partition's k-th best lower
  /// bound is a valid lower bound on the *merged* θ*k, so partitions can
  /// prune with the maximum across all of them without affecting the
  /// merged result's exactness. Every θlb improvement is published
  /// immediately (greedy lower bounds, Lemma 4/5). The context's
  /// deadline/cancellation is polled every stop-check cadence; an elapsed
  /// deadline throws SearchAborted.
  ///
  /// When the cache has feedback enabled, this consumer stops consuming at
  /// the stop similarity τ(θlb, |Q|, partial scores) — the largest stream
  /// similarity s satisfying BOTH:
  ///  1. |Q|·s < θlb − ε  (exactness): an unseen set's upper bound is
  ///     min(|Q|, |C|)·s ≤ |Q|·s < θlb ≤ θ*k (Lemma 2), and pruning is
  ///     monotone in θlb, so nothing absent can re-enter the top-k;
  ///  2. at most max(32, 4k) candidates survive the slack-s sweep — the
  ///     candidates' partial scores must already separate the contenders,
  ///     since stopping freezes every survivor's upper bound at
  ///     S_i + m_i·s (condition 1 alone would freeze EVERY seen set above
  ///     θlb and push an exact matching per candidate into
  ///     post-processing; this work-balance condition only delays the
  ///     stop, so exactness is untouched).
  /// The declined similarity becomes the survivors' upper-bound slack
  /// (ub_slack). Production ends with it: the cache produces nothing a
  /// consumer does not pull.
  RefinementOutput Run(EdgeCache* cache, SearchStats* stats,
                       SearchContext* ctx = nullptr);

 private:
  const index::InvertedIndex* inverted_;
  size_t query_size_;
  SearchParams params_;
};

}  // namespace koios::core

#endif  // KOIOS_CORE_REFINEMENT_H_
