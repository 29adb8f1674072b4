// KoiosSearcher — the public entry point: top-k semantic overlap search
// over a set repository, with optional random partitioning searched under a
// shared global θlb (paper §VI).
//
// A search runs on the calling thread: the partitions are searched one
// after another through one on-demand EdgeCache, each pulling the token
// stream as far as its refinement needs. Parallelism within a query lives
// one level up, in serve::ShardCoordinator, which runs each shard as one
// of these single-threaded searches.
//
// The searcher is immutable after construction and Search is const and
// reentrant: a query's probe state lives in its own token stream (which
// opens a session over the shared index) and its refinement scratch is
// per thread, so any number of threads may search one instance at once.
#ifndef KOIOS_CORE_SEARCHER_H_
#define KOIOS_CORE_SEARCHER_H_

#include <memory>
#include <span>
#include <vector>

#include "koios/core/postprocess.h"
#include "koios/core/search_types.h"
#include "koios/index/inverted_index.h"
#include "koios/index/set_collection.h"
#include "koios/sim/similarity.h"

namespace koios::core {

struct SearcherOptions {
  /// Random partitions of the repository; each is searched in turn under
  /// the shared θlb and the per-partition top-k lists are merged.
  /// 1 = unpartitioned.
  size_t num_partitions = 1;
  uint64_t partition_seed = 7;
};

class KoiosSearcher {
 public:
  /// `sets`: the repository L. `index`: a neighbor index over L's
  /// vocabulary (exact for exact search). Both must outlive the searcher.
  KoiosSearcher(const index::SetCollection* sets,
                const sim::SimilarityIndex* index,
                const SearcherOptions& options = {});

  /// Top-k semantic overlap search for `query` (distinct tokens). `ctx` is
  /// the per-query SearchContext (deadline, cancellation, a shared θlb;
  /// rearmed on entry); null runs with a private one. Reentrant: calls on
  /// one searcher may overlap with distinct contexts, and results do not
  /// depend on what else runs (cursor payloads are deterministic in
  /// (token, α), and a query's stop depends only on its own consumption).
  /// With more than one partition the result scores are always verified,
  /// whatever `params.verify_result_scores` says: the partition merge
  /// orders by score, and No-EM lower bounds from different partitions
  /// are not comparable. Throws SearchAborted when `ctx` expires mid-query.
  SearchResult Search(std::span<const TokenId> query,
                      const SearchParams& params,
                      SearchContext* ctx = nullptr) const;

  size_t num_partitions() const { return partition_inverted_.size(); }

  /// True if `token` occurs in the repository vocabulary D.
  bool InVocabulary(TokenId token) const;

  /// Aggregate index footprint (inverted indexes across partitions).
  size_t IndexMemoryUsageBytes() const;

 private:
  const index::SetCollection* sets_;
  const sim::SimilarityIndex* index_;
  SearcherOptions options_;
  std::vector<index::InvertedIndex> partition_inverted_;
};

}  // namespace koios::core

#endif  // KOIOS_CORE_SEARCHER_H_
