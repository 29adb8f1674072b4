// Materialized token stream + similarity cache.
//
// Refinement consumes the stream Ie in non-increasing similarity order.
// The cache keeps the consumed prefix for the rest of the query: its
// α-surviving edges are the similarity cache the paper reuses when
// initializing the matching matrices during post-processing (§VIII-A3).
//
// Production is on demand, on the consumer's thread: NextTuples orders and
// caches tuples only when its one consumer asks for more, so the stream
// ends where that consumer stops pulling. With the θlb feedback loop on
// (§IV–VI), refinement stops once no unseen set can reach the top-k, and
// tuples below that point are never ordered, scored or cached.
// FinishProduction then seals the cache with the similarity of the next
// unproduced tuple as slack, so post-processing keeps it in its upper
// bounds and BuildMatrix completes the missing below-stop edges through
// the similarity's batch kernels, preserving exactness end to end.
// Without feedback the consumer drains the stream to α as the seed did.
//
// The one-argument constructor is the same mode drained to the end.
#ifndef KOIOS_CORE_EDGE_CACHE_H_
#define KOIOS_CORE_EDGE_CACHE_H_

#include <cassert>
#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

#include "koios/matching/hungarian.h"
#include "koios/sim/similarity.h"
#include "koios/sim/token_stream.h"
#include "koios/util/types.h"

namespace koios::core {

class SearchContext;

/// One α-surviving edge incident to vocabulary token `t`: the query
/// position and the similarity.
struct CachedEdge {
  uint32_t query_pos = 0;
  double sim = 0.0;  // double: cached weights must match the oracle exactly
};

class EdgeCache {
 public:
  /// Tuples a consumer requests per NextTuples call. Production overshoots
  /// the consumer's stop by up to one pull, so this sets how many tuples a
  /// feedback-terminated query produces (stream_tuples_produced); a fine
  /// grain keeps the overshoot small.
  static constexpr size_t kPullChunk = 16;

  /// Drains `stream` to its end in the constructor (order preserved in
  /// `tuples()`, per-token edge lists in `EdgesOf`); NextTuples then hands
  /// out the drained tuples.
  explicit EdgeCache(sim::TokenStream* stream);

  /// On-demand production: nothing is produced until the consumer pulls
  /// through NextTuples. A non-null `completer` (the index's
  /// SimilarityFunction) turns the θlb feedback loop on: the consumer may
  /// stop pulling early (FeedbackEnabled), and BuildMatrix completes the
  /// α-edges it left unproduced. `ctx` (nullable) lets production honor
  /// a per-query deadline: every pull that produces polls it and throws
  /// SearchAborted. Call FinishProduction once consumption is over.
  EdgeCache(sim::TokenStream* stream, const sim::SimilarityFunction* completer,
            const SearchContext* ctx = nullptr);

  EdgeCache(const EdgeCache&) = delete;
  EdgeCache& operator=(const EdgeCache&) = delete;

  /// Seals the cache at the stream's current position: the similarity of
  /// the tuple the stream would emit next bounds every unproduced pair, or
  /// the stream drained. No-op when already sealed.
  void FinishProduction();

  /// Copies the next up to `buf.size()` tuples of the stream, those after
  /// every tuple handed out before, into `buf` and returns how many were
  /// copied; 0 means the stream is exhausted (the cache is then sealed).
  /// Tuples not produced yet are produced on the spot. The cache has one
  /// consumer: each tuple is handed out once.
  size_t NextTuples(std::span<sim::StreamTuple> buf);

  /// True once production is over (the stream drained, or
  /// FinishProduction sealed it); tuples() is then immutable.
  bool Materialized() const { return sealed_; }

  /// True when the feedback loop is wired (a completer was supplied).
  /// The refinement consumer uses this to decide whether it may stop
  /// consuming early.
  bool FeedbackEnabled() const { return completer_ != nullptr; }

  // --- post-production accessors -----------------------------------------
  // The cache must be sealed before tuples()/ExhaustedToAlpha()/stop_sim()
  // are meaningful, which the asserts below enforce (an unsealed cache
  // would hand out a reference into a still-growing vector and default
  // stop state).

  /// Number of tuples produced (stats: stream_tuples_produced).
  size_t produced() const { return tuples_.size(); }

  /// True if the stream drained to α; false if the consumer stopped it
  /// early, in which case stop_sim() is the slack.
  bool ExhaustedToAlpha() const {
    assert(sealed_);
    return exhausted_;
  }

  /// Sound upper bound on the similarity of every pair the stream did not
  /// produce: 0 when drained to α, the next tuple's similarity otherwise.
  Score stop_sim() const {
    assert(sealed_);
    return stop_sim_;
  }

  /// The produced stream prefix in emission order.
  const std::vector<sim::StreamTuple>& tuples() const {
    assert(sealed_);
    return tuples_;
  }

  /// Produced α-surviving edges of token `t` (empty if none). The
  /// returned span is invalidated by any further production.
  std::span<const CachedEdge> EdgesOf(TokenId t) const;

  /// Builds the bipartite weight matrix of the query vs the tokens of a
  /// candidate set, restricted to nodes with at least one α-edge, from a
  /// sealed cache. Returns the number of query rows/set columns used via
  /// the out vectors (row r corresponds to query position query_rows[r],
  /// column c to candidate_tokens[set_cols[c]]). When the stream stopped
  /// early, the below-stop edges missing from the cache are completed with
  /// ONE SimilarityBatchMulti kernel call (cached edges stay
  /// authoritative), so exact matching always sees the full simα matrix of
  /// the paper.
  matching::WeightMatrix BuildMatrix(std::span<const TokenId> candidate_tokens,
                                     std::vector<uint32_t>* query_rows,
                                     std::vector<uint32_t>* set_cols) const;

  /// BuildMatrix into a caller-owned matrix (capacity reuse across every
  /// exact matching a thread runs; post-processing keeps one per thread).
  void BuildMatrixInto(std::span<const TokenId> candidate_tokens,
                       std::vector<uint32_t>* query_rows,
                       std::vector<uint32_t>* set_cols,
                       matching::WeightMatrix* m) const;

  size_t MemoryUsageBytes() const;

 private:
  /// Produces tuples until `until` exist or the stream ends (then seals).
  void Produce(size_t until);
  /// Records the stream's stop state and ends production.
  void Seal(bool exhausted, Score stop_sim);

  sim::TokenStream* stream_;  // null once sealed
  const sim::SimilarityFunction* completer_ = nullptr;
  const SearchContext* ctx_ = nullptr;  // deadline source (nullable)
  std::vector<TokenId> query_;  // the stream's query (matrix completion)
  Score alpha_ = 0.0;
  std::vector<sim::StreamTuple> tuples_;
  size_t handed_out_ = 0;  // tuples NextTuples has returned
  std::unordered_map<TokenId, std::vector<CachedEdge>> edges_;
  bool sealed_ = false;
  bool exhausted_ = true;  // valid once sealed_
  Score stop_sim_ = 0.0;   // valid once sealed_
};

}  // namespace koios::core

#endif  // KOIOS_CORE_EDGE_CACHE_H_
