#include "koios/sim/token_stream.h"

#include <cassert>
#include <utility>

namespace koios::sim {

TokenStream::TokenStream(std::vector<TokenId> query,
                         const SimilarityIndex& index, Score alpha,
                         std::function<bool(TokenId)> in_vocabulary)
    : query_(std::move(query)), session_(index.NewSession()), alpha_(alpha) {
  assert(alpha_ > 0.0);
  // Build every query element's cursor up front (in blocks through the
  // multi-query kernel) so the heap refills below never block on a cold
  // cursor.
  index.Prewarm(query_, alpha_);
  // Initial fill: each query element contributes its best tuple. The
  // self-match (sim 1.0) always sorts first for its element, so it is the
  // element's initial heap entry whenever the token occurs in D; otherwise
  // the first index neighbor is used.
  for (uint32_t pos = 0; pos < query_.size(); ++pos) {
    if (in_vocabulary && in_vocabulary(query_[pos])) {
      heap_.push(Entry{1.0, pos, query_[pos]});
    } else {
      Refill(pos);
    }
  }
}

void TokenStream::Refill(uint32_t pos) {
  if (auto neighbor = session_->NextNeighbor(query_[pos], alpha_)) {
    heap_.push(Entry{neighbor->sim, pos, neighbor->token});
  }
}

std::optional<StreamTuple> TokenStream::Next() {
  if (heap_.empty()) return std::nullopt;
  const Entry top = heap_.top();
  heap_.pop();
  // Only the popped element's stream advanced; all other elements' best
  // unseen neighbors are still buffered (paper §IV).
  Refill(top.query_pos);
  ++emitted_;
  return StreamTuple{top.query_pos, query_[top.query_pos], top.token, top.sim};
}

size_t TokenStream::MemoryUsageBytes() const {
  return query_.capacity() * sizeof(TokenId) + heap_.size() * sizeof(Entry);
}

}  // namespace koios::sim
