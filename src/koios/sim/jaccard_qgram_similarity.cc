#include "koios/sim/jaccard_qgram_similarity.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <utility>

#include "koios/text/qgram.h"

namespace koios::sim {

namespace {

// |a ∩ b| of two sorted id arrays by linear merge. Branchless advance:
// which side steps forward is data-dependent and essentially random, so a
// branchy three-way merge mispredicts on most iterations — at ~15 cycles a
// miss that dwarfs the comparison itself for the tiny gram sets (3–10 ids)
// this runs on.
inline size_t IntersectSorted(std::span<const uint32_t> a,
                              std::span<const uint32_t> b) {
  size_t i = 0, j = 0, common = 0;
  while (i < a.size() && j < b.size()) {
    const uint32_t x = a[i], y = b[j];
    common += static_cast<size_t>(x == y);
    i += static_cast<size_t>(x <= y);
    j += static_cast<size_t>(y <= x);
  }
  return common;
}

inline Score JaccardOfIds(std::span<const uint32_t> a,
                          std::span<const uint32_t> b) {
  const size_t common = IntersectSorted(a, b);
  const size_t unions = a.size() + b.size() - common;
  return unions == 0 ? 0.0
                     : static_cast<double>(common) /
                           static_cast<double>(unions);
}

}  // namespace

JaccardQGramSimilarity::JaccardQGramSimilarity(const text::Dictionary* dict,
                                               size_t q)
    : dict_(dict), q_(q) {
  grams_.reserve(dict_->size());
  id_offsets_.reserve(dict_->size() + 1);
  id_offsets_.push_back(0);
  // Intern every distinct gram string into a dense id; the per-token gram
  // id arrays re-sorted by id stay valid for merge intersection (Jaccard
  // only needs set semantics, not gram order).
  std::unordered_map<std::string, uint32_t> intern;
  std::vector<uint32_t> ids;
  for (TokenId t = 0; t < dict_->size(); ++t) {
    grams_.push_back(text::QGrams(dict_->TokenOf(t), q_));
    ids.clear();
    ids.reserve(grams_.back().size());
    for (const auto& gram : grams_.back()) {
      const auto [it, _] =
          intern.emplace(gram, static_cast<uint32_t>(intern.size()));
      ids.push_back(it->second);
    }
    std::sort(ids.begin(), ids.end());
    flat_ids_.insert(flat_ids_.end(), ids.begin(), ids.end());
    id_offsets_.push_back(flat_ids_.size());
  }
}

Score JaccardQGramSimilarity::Similarity(TokenId a, TokenId b) const {
  if (a == b) return 1.0;
  assert(a < grams_.size() && b < grams_.size());
  return JaccardOfIds(IdsOf(a), IdsOf(b));
}

void JaccardQGramSimilarity::SimilarityBatch(TokenId q,
                                             std::span<const TokenId> targets,
                                             std::span<Score> out) const {
  assert(out.size() == targets.size());
  assert(q < grams_.size());
  const auto gq = IdsOf(q);
  for (size_t i = 0; i < targets.size(); ++i) {
    const TokenId t = targets[i];
    assert(t < grams_.size());
    out[i] = t == q ? 1.0 : JaccardOfIds(gq, IdsOf(t));
  }
}

void JaccardQGramSimilarity::SimilarityBatchMulti(
    std::span<const TokenId> queries, std::span<const TokenId> targets,
    std::span<Score> out) const {
  assert(out.size() == queries.size() * targets.size());
  if (queries.empty() || targets.empty()) return;

  // Transpose the block once: (gram id, target position) pairs sorted by
  // gram id become CSR postings whose keys are scanned in lockstep with
  // each query's sorted id array. thread_local scratch: prewarm blocks of
  // concurrent queries run on their own threads.
  thread_local std::vector<std::pair<uint32_t, uint32_t>> pairs;
  pairs.clear();
  for (uint32_t ti = 0; ti < targets.size(); ++ti) {
    assert(targets[ti] < grams_.size());
    for (const uint32_t g : IdsOf(targets[ti])) pairs.push_back({g, ti});
  }
  std::sort(pairs.begin(), pairs.end());
  thread_local std::vector<uint32_t> keys;        // distinct gram ids, asc
  thread_local std::vector<uint32_t> offsets;     // CSR bounds into pairs
  keys.clear();
  offsets.clear();
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i == 0 || pairs[i].first != pairs[i - 1].first) {
      keys.push_back(pairs[i].first);
      offsets.push_back(static_cast<uint32_t>(i));
    }
  }
  offsets.push_back(static_cast<uint32_t>(pairs.size()));

  thread_local std::vector<uint32_t> common;  // |gq ∩ gt| per target
  common.assign(targets.size(), 0);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const TokenId q = queries[qi];
    assert(q < grams_.size());
    const auto gq = IdsOf(q);
    // Merge walk of the query's sorted ids against the sorted posting
    // keys; each hit fans its postings into the per-target counters.
    size_t i = 0, j = 0;
    while (i < gq.size() && j < keys.size()) {
      if (gq[i] < keys[j]) {
        ++i;
      } else if (keys[j] < gq[i]) {
        ++j;
      } else {
        for (uint32_t p = offsets[j]; p < offsets[j + 1]; ++p) {
          ++common[pairs[p].second];
        }
        ++i;
        ++j;
      }
    }
    Score* row = out.data() + qi * targets.size();
    for (size_t ti = 0; ti < targets.size(); ++ti) {
      const TokenId t = targets[ti];
      if (t == q) {
        row[ti] = 1.0;
      } else {
        const size_t c = common[ti];
        const size_t unions = gq.size() + IdsOf(t).size() - c;
        row[ti] = unions == 0 ? 0.0
                              : static_cast<double>(c) /
                                    static_cast<double>(unions);
      }
      common[ti] = 0;  // reset while the line is hot for the next query
    }
  }
}

const std::vector<std::string>& JaccardQGramSimilarity::GramsOf(TokenId t) const {
  assert(t < grams_.size());
  return grams_[t];
}

size_t JaccardQGramSimilarity::MemoryUsageBytes() const {
  size_t bytes = grams_.capacity() * sizeof(grams_[0]) +
                 flat_ids_.capacity() * sizeof(uint32_t) +
                 id_offsets_.capacity() * sizeof(size_t);
  for (const auto& g : grams_) {
    bytes += g.capacity() * sizeof(std::string);
    for (const auto& s : g) bytes += s.capacity();
  }
  return bytes;
}

}  // namespace koios::sim
