// Element-similarity abstractions. Koios is exact for *any* user-defined
// symmetric similarity with sim(x, x) = 1 (paper Def. 1); the algorithm
// touches similarities only through these two interfaces:
//
//  * SimilarityFunction — pairwise sim(a, b) used to build bipartite graphs
//    during verification and by the oracle baselines.
//  * SimilarityIndex — streaming "next most similar vocabulary token" used
//    by the token stream Ie (paper §IV). The paper plugs in a Faiss top-k
//    index for cosine and notes that a minhash LSH index can be plugged in
//    for Jaccard; this interface is that plug-in point, and its one
//    backend is the exact ExactKnnIndex (BatchedNeighborIndex's cursor
//    machinery over the whole vocabulary). One probe interface: the index
//    is immutable and shared, and each query probes through its own
//    ProbeSession (NewSession), which holds the query's cursor positions
//    over the index's built cursors.
//
// THE BATCH CONTRACT: hot consumers never score candidates pairwise
// through the virtual call. They collect candidate ids into a contiguous
// batch and make one
// SimilarityBatch (or, across several query tokens, one
// SimilarityBatchMulti) call, and they announce upcoming probes through
// Prewarm so cursor construction can be batched across query tokens. Any
// SimilarityFunction that can score a batch faster than |batch| virtual
// calls overrides the batch entry points; the defaults keep every
// similarity correct unchanged. See docs/ARCHITECTURE.md.
#ifndef KOIOS_SIM_SIMILARITY_H_
#define KOIOS_SIM_SIMILARITY_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <span>

#include "koios/util/types.h"

namespace koios::sim {

/// Symmetric element similarity in [0, 1]; 1 for identical elements.
class SimilarityFunction {
 public:
  virtual ~SimilarityFunction() = default;

  /// Raw similarity (no α clamping; clamped to [0, 1]).
  virtual Score Similarity(TokenId a, TokenId b) const = 0;

  /// Batched similarity: out[i] = Similarity(q, targets[i]) for every i
  /// (`out.size()` must equal `targets.size()`). The default loops over the
  /// pairwise virtual call so every similarity keeps working unchanged;
  /// backends with a dense representation (cosine over an embedding matrix)
  /// override it with a vectorized kernel. Batch callers make ONE virtual
  /// call per query token instead of |D|, which is what lets the hot
  /// neighbor-generation scan vectorize.
  virtual void SimilarityBatch(TokenId q, std::span<const TokenId> targets,
                               std::span<Score> out) const {
    for (size_t i = 0; i < targets.size(); ++i) {
      out[i] = Similarity(q, targets[i]);
    }
  }

  /// Multi-query batch: out[qi * targets.size() + ti] =
  /// Similarity(queries[qi], targets[ti]), row-major by query. The default
  /// loops SimilarityBatch; dense backends override it with a blocked
  /// kernel that amortizes each target row across several queries (the
  /// cursor-prewarm path builds all of a query's cursors through this).
  virtual void SimilarityBatchMulti(std::span<const TokenId> queries,
                                    std::span<const TokenId> targets,
                                    std::span<Score> out) const {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      SimilarityBatch(queries[qi], targets,
                      out.subspan(qi * targets.size(), targets.size()));
    }
  }

  /// simα of Def. 1: the similarity if >= alpha, else 0.
  Score SimilarityAlpha(TokenId a, TokenId b, Score alpha) const {
    const Score s = Similarity(a, b);
    return s >= alpha ? s : 0.0;
  }

  virtual size_t MemoryUsageBytes() const { return 0; }
};

/// One neighbor produced by a SimilarityIndex probe.
struct Neighbor {
  TokenId token = kInvalidToken;
  Score sim = 0.0;
};

/// One query's probe state over a SimilarityIndex: the position it has
/// reached in each query token's neighbor stream.
///
/// `NextNeighbor(q, alpha)` returns the most similar vocabulary token for
/// query token `q` with similarity >= alpha that THIS session has not
/// returned yet, in non-increasing similarity order (ties broken by
/// ascending token id), or nullopt when exhausted. The α filter is a hard
/// cutoff applied when the query token's cursor is built: a cursor built at
/// one α never serves a probe at a different α (sessions re-resolve on
/// mismatch). The query token itself is never returned (the token stream
/// injects self-matches, which is how Def. 1's sim(x, x) = 1 reaches OOV
/// tokens).
///
/// Thread-safety: one session per consumer. A session is not shared
/// between threads; any number of sessions over one index may probe
/// concurrently. The session borrows its index, which must outlive it.
class ProbeSession {
 public:
  virtual ~ProbeSession() = default;

  virtual std::optional<Neighbor> NextNeighbor(TokenId q, Score alpha) = 0;
};

/// Streaming per-query-token neighbor index over the vocabulary `D`.
///
/// The contract: a session streams EVERY vocabulary token with sim >= α
/// (no recall loss). Koios' answers are exact only while its token stream
/// returns exact neighbors (§VIII-E), and the searcher's stream feedback
/// completes below-stop matrix edges from similarity(), which scores
/// exactly the pairs a full drain would.
///
/// The index is immutable after construction and every member is const and
/// thread-safe: all probe state lives in the ProbeSessions it hands out.
/// Implementations may memoize built cursors behind internal
/// synchronization (concurrent sessions then reuse each other's builds);
/// the memo is not observable through probe results.
class SimilarityIndex {
 public:
  virtual ~SimilarityIndex() = default;

  /// The SimilarityFunction this index scores candidates with, when it has
  /// one (nullptr otherwise). Consumers use it to complete similarity
  /// matrices for pairs the feedback-terminated stream never produced; a
  /// searcher only enables stream feedback when this is non-null.
  virtual const SimilarityFunction* similarity() const { return nullptr; }

  /// A fresh probe session: every query token's stream starts at its most
  /// similar neighbor. Cheap; one per query (the token stream opens its
  /// own).
  virtual std::unique_ptr<ProbeSession> NewSession() const = 0;

  /// Hint that sessions are about to probe every token in `tokens` at
  /// `alpha`. Implementations may build the cursors eagerly, on the
  /// calling thread, so the first probe never blocks on a cold cursor.
  /// Default: do nothing.
  virtual void Prewarm(std::span<const TokenId> tokens, Score alpha) const {
    (void)tokens;
    (void)alpha;
  }

  virtual size_t MemoryUsageBytes() const { return 0; }
};

}  // namespace koios::sim

#endif  // KOIOS_SIM_SIMILARITY_H_
