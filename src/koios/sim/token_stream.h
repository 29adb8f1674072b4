// The token stream Ie (paper §IV): a single global stream of tuples
// (query element, vocabulary token, similarity) in non-increasing
// similarity order, realized as one shared SimilarityIndex plus a priority
// queue P of size |Q| holding each query element's best unseen neighbor.
// The stream owns its query's probe state: it opens its own ProbeSession
// over the (immutable) index, so any number of streams, on any threads,
// may read one index at once.
//
// Two details from the paper are implemented here:
//  * The stream stops producing for a query element once its next neighbor
//    falls below α (the index enforces the α cutoff).
//  * Each query element's *self-match* (sim = 1.0) is emitted the first
//    time the element is probed, provided the token occurs in the
//    repository vocabulary. This initializes every candidate's bounds with
//    its vanilla overlap and handles out-of-vocabulary elements (§V).
#ifndef KOIOS_SIM_TOKEN_STREAM_H_
#define KOIOS_SIM_TOKEN_STREAM_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "koios/sim/similarity.h"
#include "koios/util/types.h"

namespace koios::sim {

/// One tuple (qi, cj, sim(qi, cj)) of the stream.
struct StreamTuple {
  uint32_t query_pos = 0;          // position of qi within Q
  TokenId query_token = kInvalidToken;  // qi
  TokenId token = kInvalidToken;        // cj ∈ D
  Score sim = 0.0;
};

class TokenStream {
 public:
  /// `query`: the query set's tokens (distinct).
  /// `index`: shared neighbor index over the vocabulary D; the stream
  ///          probes it through a session of its own and must not outlive
  ///          it.
  /// `alpha`: element similarity threshold (> 0).
  /// `in_vocabulary`: predicate telling whether a token occurs in D; used
  ///          to decide if a self-match tuple should be emitted.
  TokenStream(std::vector<TokenId> query, const SimilarityIndex& index,
              Score alpha, std::function<bool(TokenId)> in_vocabulary);

  /// Next tuple in non-increasing similarity order, or nullopt when every
  /// query element's stream is exhausted (below α). The stream is lazy:
  /// a consumer that stops calling this (the θlb feedback loop) leaves the
  /// rest unordered and unscored.
  std::optional<StreamTuple> Next();

  /// Similarity of the tuple Next() would emit (nullopt when the heap is
  /// empty, i.e. every element's cursor is exhausted). It bounds every pair
  /// not emitted yet: the slack consumers keep in their final upper bounds
  /// when they stop early.
  std::optional<Score> PeekSim() const {
    if (heap_.empty()) return std::nullopt;
    return heap_.top().sim;
  }

  /// Number of tuples emitted so far.
  size_t emitted() const { return emitted_; }

  const std::vector<TokenId>& query() const { return query_; }
  Score alpha() const { return alpha_; }

  size_t MemoryUsageBytes() const;

 private:
  struct Entry {
    Score sim;
    uint32_t query_pos;
    TokenId token;
    bool operator<(const Entry& other) const {
      // std::priority_queue is a max-heap on operator<; order by sim, then
      // deterministically by (query_pos, token).
      if (sim != other.sim) return sim < other.sim;
      if (query_pos != other.query_pos) return query_pos > other.query_pos;
      return token > other.token;
    }
  };

  /// Probe the index for query position `pos` and push the result (if any).
  void Refill(uint32_t pos);

  std::vector<TokenId> query_;
  std::unique_ptr<ProbeSession> session_;
  Score alpha_;
  std::priority_queue<Entry> heap_;
  size_t emitted_ = 0;
};

}  // namespace koios::sim

#endif  // KOIOS_SIM_TOKEN_STREAM_H_
