#include "koios/core/edge_cache.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "koios/core/search_types.h"

namespace koios::core {

EdgeCache::EdgeCache(sim::TokenStream* stream) : EdgeCache(stream, nullptr) {
  Produce(std::numeric_limits<size_t>::max());
}

EdgeCache::EdgeCache(sim::TokenStream* stream,
                     const sim::SimilarityFunction* completer,
                     const SearchContext* ctx)
    : stream_(stream),
      completer_(completer),
      ctx_(ctx),
      query_(stream->query()),
      alpha_(stream->alpha()) {}

void EdgeCache::Seal(bool exhausted, Score stop_sim) {
  exhausted_ = exhausted;
  stop_sim_ = stop_sim;
  stream_ = nullptr;
  sealed_ = true;
}

void EdgeCache::Produce(size_t until) {
  // One poll per pull; the pull is small (kPullChunk), so a query still
  // honors its deadline promptly.
  if (ctx_ != nullptr) ctx_->CheckCancelled();
  sim::TokenStream* stream = stream_;
  while (tuples_.size() < until) {
    auto tuple = stream->Next();
    if (!tuple.has_value()) {
      Seal(/*exhausted=*/true, /*stop_sim=*/0.0);
      return;
    }
    tuples_.push_back(*tuple);
    edges_[tuple->token].push_back({tuple->query_pos, tuple->sim});
  }
}

void EdgeCache::FinishProduction() {
  if (sealed_) return;
  // The consumer stopped pulling: unproduced pairs are bounded by whatever
  // the stream would emit next (heap top) or, when the heap is empty, the
  // stream drained.
  const auto peek = stream_->PeekSim();
  Seal(!peek.has_value(), peek.value_or(0.0));
}

size_t EdgeCache::NextTuples(std::span<sim::StreamTuple> buf) {
  if (!sealed_) Produce(handed_out_ + buf.size());
  const size_t n = std::min(buf.size(), tuples_.size() - handed_out_);
  std::copy_n(tuples_.begin() + static_cast<ptrdiff_t>(handed_out_), n,
              buf.begin());
  handed_out_ += n;
  return n;
}

std::span<const CachedEdge> EdgeCache::EdgesOf(TokenId t) const {
  auto it = edges_.find(t);
  if (it == edges_.end()) return {};
  return it->second;
}

matching::WeightMatrix EdgeCache::BuildMatrix(
    std::span<const TokenId> candidate_tokens,
    std::vector<uint32_t>* query_rows, std::vector<uint32_t>* set_cols) const {
  matching::WeightMatrix m(0, 0);
  BuildMatrixInto(candidate_tokens, query_rows, set_cols, &m);
  return m;
}

void EdgeCache::BuildMatrixInto(std::span<const TokenId> candidate_tokens,
                                std::vector<uint32_t>* query_rows,
                                std::vector<uint32_t>* set_cols,
                                matching::WeightMatrix* m) const {
  assert(sealed_);
  query_rows->clear();
  set_cols->clear();

  if (!exhausted_) {
    // The stream stopped above α: edges in [α, stop) may be missing from
    // the cache, and the exact matchings must see the full simα matrix.
    // One multi-query kernel call scores every (query element, candidate
    // token) pair; produced edges overwrite their slots afterwards so the
    // weights refinement pruned with stay authoritative bit for bit.
    assert(completer_ != nullptr &&
           "bounded materialization requires a completer");
    const size_t nq = query_.size();
    const size_t nc = candidate_tokens.size();
    thread_local std::vector<Score> scores;
    scores.resize(nq * nc);
    completer_->SimilarityBatchMulti(query_, candidate_tokens, scores);
    thread_local std::vector<double> dense;
    dense.assign(nq * nc, 0.0);
    for (size_t qi = 0; qi < nq; ++qi) {
      for (size_t cj = 0; cj < nc; ++cj) {
        // Self-matches are 1.0 by Def. 1 (the stream injects them rather
        // than trusting the kernel's sim(x, x)).
        const Score s = candidate_tokens[cj] == query_[qi]
                            ? 1.0
                            : scores[qi * nc + cj];
        if (s >= alpha_) dense[qi * nc + cj] = s;
      }
    }
    for (size_t cj = 0; cj < nc; ++cj) {
      for (const CachedEdge& e : EdgesOf(candidate_tokens[cj])) {
        dense[e.query_pos * nc + cj] = e.sim;
      }
    }
    // Compact to rows/cols with at least one α-edge (zero rows/columns
    // never change the optimal matching).
    std::vector<uint32_t>& rows = *query_rows;
    std::vector<uint32_t>& cols = *set_cols;
    std::vector<uint32_t> col_of(nc, 0);
    for (size_t cj = 0; cj < nc; ++cj) {
      bool any = false;
      for (size_t qi = 0; qi < nq && !any; ++qi) any = dense[qi * nc + cj] > 0.0;
      if (any) {
        col_of[cj] = static_cast<uint32_t>(cols.size());
        cols.push_back(static_cast<uint32_t>(cj));
      }
    }
    for (size_t qi = 0; qi < nq; ++qi) {
      bool any = false;
      for (size_t cj = 0; cj < nc && !any; ++cj) any = dense[qi * nc + cj] > 0.0;
      if (any) rows.push_back(static_cast<uint32_t>(qi));
    }
    m->Reset(rows.size(), cols.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      const double* src = dense.data() + static_cast<size_t>(rows[r]) * nc;
      for (const uint32_t cj : cols) {
        if (src[cj] > 0.0) m->At(r, col_of[cj]) = src[cj];
      }
    }
    return;
  }

  // Drained to α: the cache holds every α-edge; no similarity is computed.
  // Collect incident edges per candidate column.
  struct Coord {
    uint32_t q, c;
    double w;
  };
  std::vector<Coord> coords;
  for (uint32_t cj = 0; cj < candidate_tokens.size(); ++cj) {
    for (const CachedEdge& e : EdgesOf(candidate_tokens[cj])) {
      coords.push_back({e.query_pos, cj, e.sim});
    }
  }
  if (coords.empty()) {
    m->Reset(0, 0);
    return;
  }

  // Compact row/col id spaces.
  std::vector<uint32_t> rows, cols;
  for (const auto& co : coords) {
    rows.push_back(co.q);
    cols.push_back(co.c);
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  *query_rows = rows;
  *set_cols = cols;

  m->Reset(rows.size(), cols.size());
  auto row_of = [&rows](uint32_t q) {
    return static_cast<size_t>(std::lower_bound(rows.begin(), rows.end(), q) -
                               rows.begin());
  };
  auto col_of = [&cols](uint32_t c) {
    return static_cast<size_t>(std::lower_bound(cols.begin(), cols.end(), c) -
                               cols.begin());
  };
  for (const auto& co : coords) {
    double& slot = m->At(row_of(co.q), col_of(co.c));
    slot = std::max(slot, co.w);
  }
}

size_t EdgeCache::MemoryUsageBytes() const {
  size_t bytes = tuples_.capacity() * sizeof(sim::StreamTuple);
  for (const auto& [_, list] : edges_) {
    bytes += sizeof(TokenId) + list.capacity() * sizeof(CachedEdge) +
             2 * sizeof(void*);
  }
  return bytes;
}

}  // namespace koios::core
