#include "verifier.h"

#include <chrono>
#include <cmath>
#include <cstring>

#include "koios/matching/semantic_overlap.h"

namespace koios::bench {

std::string CheckOrder(std::span<const core::ResultEntry> topk, size_t k) {
  if (topk.size() > k) {
    return "result has " + std::to_string(topk.size()) + " entries for k=" +
           std::to_string(k);
  }
  for (size_t i = 1; i < topk.size(); ++i) {
    const core::ResultEntry& prev = topk[i - 1];
    const core::ResultEntry& cur = topk[i];
    const bool ordered = prev.score > cur.score ||
                         (prev.score == cur.score && prev.set < cur.set);
    if (!ordered) {
      return "entries " + std::to_string(i - 1) + " and " + std::to_string(i) +
             " out of order (set " + std::to_string(prev.set) + " score " +
             std::to_string(prev.score) + ", set " + std::to_string(cur.set) +
             " score " + std::to_string(cur.score) + ")";
    }
  }
  return {};
}

std::string CheckScores(std::span<const core::ResultEntry> topk,
                        std::span<const TokenId> query,
                        const index::SetCollection& sets,
                        const sim::SimilarityFunction& sim, Score alpha,
                        std::vector<double>* oracle_us) {
  for (const core::ResultEntry& entry : topk) {
    if (entry.set >= sets.size()) {
      return "set id " + std::to_string(entry.set) + " out of range";
    }
    const auto t0 = std::chrono::steady_clock::now();
    const Score truth =
        matching::SemanticOverlap(query, sets.Tokens(entry.set), sim, alpha);
    if (oracle_us != nullptr) {
      oracle_us->push_back(std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
    }
    if (!(std::abs(entry.score - truth) <= kScoreTolerance)) {
      return "set " + std::to_string(entry.set) + " scored " +
             std::to_string(entry.score) + ", oracle says " +
             std::to_string(truth);
    }
  }
  return {};
}

bool SameEntries(std::span<const core::ResultEntry> a,
                 std::span<const core::ResultEntry> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].set != b[i].set || a[i].score != b[i].score ||
        a[i].exact != b[i].exact) {
      return false;
    }
  }
  return true;
}

uint64_t DigestEntries(uint64_t digest,
                       std::span<const core::ResultEntry> topk) {
  auto mix = [&digest](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xff;
      digest *= 0x100000001b3ull;
    }
  };
  mix(topk.size());
  for (const core::ResultEntry& entry : topk) {
    uint64_t bits = 0;
    std::memcpy(&bits, &entry.score, sizeof(bits));
    mix(entry.set);
    mix(bits);
    mix(entry.exact ? 1 : 0);
  }
  return digest;
}

}  // namespace koios::bench
