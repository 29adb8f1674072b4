// KoiosSearcher — the public entry point: top-k semantic overlap search
// over a set repository through one size-ranked inverted index
// (index::InvertedIndex, paper §IV–V).
//
// A searcher searches exactly one index. It either builds one over the
// whole collection, or borrows a prebuilt one: the lists a v4 snapshot
// carries (serve::Snapshot), or the index of one partition of the
// collection. The paper's §VI partitions are searchers over the
// partitions' indexes under one shared θlb: serve::ShardCoordinator holds
// one searcher per shard, attaches every shard's SearchContext to one
// GlobalThreshold and merges the answers with MergeTopK.
//
// The searcher is immutable after construction, and Search is const and
// reentrant: a query's probe state lives in its own token stream (which
// opens a session over the shared neighbor index) and its refinement
// scratch is per thread, so any number of threads may search one instance
// at once.
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

class KoiosSearcher {
 public:
  /// `sets`: the repository L. `index`: a neighbor index over L's
  /// vocabulary (exact for exact search). Both must outlive the searcher.
  /// Builds the inverted index of every set of `sets`.
  KoiosSearcher(const index::SetCollection* sets,
                const sim::SimilarityIndex* index);

  /// Searches through `inverted`, a prebuilt index of `sets` or of a
  /// subset of it (one partition), which must outlive the searcher;
  /// nothing is built. Only the indexed sets can be answers, and result
  /// ids are `sets`' own.
  KoiosSearcher(const index::SetCollection* sets,
                const sim::SimilarityIndex* index,
                const index::InvertedIndex* inverted);

  /// Top-k semantic overlap search for `query` (distinct tokens) over the
  /// indexed sets. `ctx` is the per-query SearchContext (deadline,
  /// cancellation, a shared θlb; rearmed on entry); null runs with a
  /// private one. Reentrant: calls on one searcher may overlap with
  /// distinct contexts, and results do not depend on what else runs
  /// (cursor payloads are deterministic in (token, α), and a query's stop
  /// depends only on its own consumption and its context's θlb). Throws
  /// SearchAborted when `ctx` expires mid-query.
  SearchResult Search(std::span<const TokenId> query,
                      const SearchParams& params,
                      SearchContext* ctx = nullptr) const;

 private:
  const index::SetCollection* sets_;
  const sim::SimilarityIndex* index_;
  std::unique_ptr<const index::InvertedIndex> owned_;  // null when borrowed
  const index::InvertedIndex* inverted_;               // owned_ or borrowed
};

/// Merges the top-k lists of disjoint partitions into the top-k of their
/// union: (score desc, SetId asc), truncated to k. Every set of the union's
/// top-k ranks within the top-k of its own partition, so the lists hold
/// it. The scores must be exact (verify_result_scores): No-EM lower bounds
/// of different partitions are not comparable.
std::vector<ResultEntry> MergeTopK(std::vector<ResultEntry> entries,
                                   size_t k);

}  // namespace koios::core

#endif  // KOIOS_CORE_SEARCHER_H_
