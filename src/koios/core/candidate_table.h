// Per-query refinement state (§V) in flat, reusable storage: one record per
// live candidate set, found through an epoch-stamped slot table indexed by
// the set's size rank in the searched partition (index::InvertedIndex),
// with the matched-element bookkeeping kept as bitsets.
#ifndef KOIOS_CORE_CANDIDATE_TABLE_H_
#define KOIOS_CORE_CANDIDATE_TABLE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "koios/util/types.h"

namespace koios::core {

/// Refinement record of one candidate set.
///
/// Lower bound (iLB): the partial greedy matching built from the token
/// stream. Because tuples arrive in non-increasing similarity order,
/// accepting every *valid* edge (both endpoints unmatched) reproduces
/// exactly the greedy matching restricted to the edges seen so far, which
/// is the largest possible iLB (Lemma 5). Self-match tuples (sim 1.0)
/// arrive first, so the score is automatically initialized to the vanilla
/// overlap |Q ∩ C| as the paper prescribes (§V).
///
/// Upper bound (iUB): NOTE — this deviates from the paper's Lemma 6, which
/// claims SO(C) <= S_i + m_i * s with S_i the greedy partial score. That
/// bound is unsound: the optimal matching may *re-match* greedily matched
/// elements and exceed it (take w(q1,t1)=1.0, w(q1,t2)=w(q2,t1)=0.99,
/// w(q2,t2)=0.85: after the stream passes 0.85, S_i=1.85, m_i=0, yet
/// SO=1.98). We use a provably sound bound with identical update mechanics
/// and cost: let R be the first min(|Q|,|C|) distinct query elements seen
/// with an edge to C (stream order makes the first edge of a row its row
/// maximum, and makes these rows the globally largest row maxima). Then
///
///   SO(C) <= Σ_{q ∈ R} rowmax(q) + (min(|Q|,|C|) − |R|) * s
///
/// because an optimal matching matches at most min(|Q|,|C|) query
/// elements, each contributing at most its row maximum, and every row
/// outside R has maximum <= s (unseen) and <= every retained row maximum.
/// The iUB filter of §V carries over unchanged with key m = capacity − |R|
/// and value row_sum. Once the stream is exhausted the slack term
/// vanishes (a row without a retained maximum has no α-edge left, or is
/// dominated by the retained ones), so UpperBound(0) is the final bound.
///
/// Size cut (§IV, Lemma 2 at s = 1): SO(Q, C) ≤ min(|Q|, |C|), because a
/// matching pairs at most min(|Q|, |C|) elements and each pair weighs at
/// most 1. Refinement therefore stops each posting list at the first rank
/// whose set has min(|Q|, |C|) < θlb − ε, for the θlb the tuple starts
/// with. This is exact:
///  * a cut set C has SO(C) ≤ min(|Q|, |C|) < θlb − ε ≤ θ*k − ε (θlb is a
///    sum of greedy partial scores, each a lower bound on an SO, so the
///    k-th largest never exceeds θ*k); C is strictly below every member of
///    the top-k and below every tie at θ*k, which the ε guard keeps;
///  * θlb only rises (partial scores only grow, and the shared bound is a
///    running maximum), so a set cut once stays cut for the rest of the
///    query, and the lists are ranked by |C| descending, so the cut sets
///    are each list's tail and the walk stops at the first of them;
///  * a cut set never moves θlb or the stop: its partial score is at most
///    its SO, below the θlb in force, so whether θlb's list holds it or not
///    leaves the list's bottom, as max'd with that θlb, unchanged; a
///    candidate seen before the cut is pruned by the next sweep (its
///    UpperBound ≤ min(|Q|, |C|)), exactly as a touch would have pruned it.
/// Only the work counters move: cut sets are never candidates, never
/// iUB-filtered on arrival, and never get a bucket move.
struct CandidateState {
  static constexpr uint32_t kFree = 0xFFFFFFFFu;

  uint32_t rank = kFree;   // the set's size rank; kFree while the slot is
                           // free
  uint32_t capacity = 0;   // min(|Q|, |C|)
  uint32_t rows = 0;       // |R|: retained row maxima (iUB)
  uint32_t matched = 0;    // l: greedily matched element pairs (iLB)
  Score row_sum = 0.0;     // Σ retained row maxima (the iUB value)
  Score partial = 0.0;     // S_i: the partial greedy matching score (iLB)

  /// m = min(|Q|, |C|) − |R| — the iUB key of §V.
  uint32_t remaining() const { return capacity - rows; }

  /// Sound iUB given the current stream similarity `s` (see above).
  Score UpperBound(Score s) const {
    return row_sum + static_cast<Score>(remaining()) * s;
  }

  /// The iUB filter (§V): UpperBound(s) is strictly below `theta` (ε-guarded,
  /// so ties are never pruned — Lemma 2 requires strict inequality). It is
  /// evaluated as row_sum < θ − m·s − ε, the paper's per-bucket cutoff, in
  /// one fixed floating-point form. That cutoff never falls during a query
  /// (θlb only rises and s only falls), so once a record is prunable it
  /// stays prunable until it changes: a check at any later (s, θ) of the
  /// same query decides exactly as an eager per-tuple sweep would have.
  bool Prunable(Score s, Score theta) const {
    return row_sum < theta - static_cast<Score>(remaining()) * s - kScoreEps;
  }
};

/// The candidates of one refinement run over the n sets of one partition,
/// keyed by their size ranks [0, n) (index::InvertedIndex): a search over
/// one shard of N keeps |S|/N stamps. Reset() starts a query in O(1)
/// amortized time: a set's slot entry counts only when stamped with the
/// current epoch, so nothing is zeroed per query. Slots of pruned sets are
/// recycled, so the records and bitsets grow to the peak number of LIVE
/// candidates, and the slot table to the largest partition served.
///
/// Each record owns two |Q|-bit bitsets in one arena: the query rows with
/// a retained maximum (iUB) and the greedily matched query elements
/// (iLB). The matched set tokens need no per-record storage: a set sits at
/// a fixed index in each posting list, so "token t is matched in set C" is
/// one bit per (streamed token, index of C in t's posting list).
class CandidateTable {
 public:
  /// Lookup() results that are not slots.
  static constexpr uint32_t kUnseen = 0xFFFFFFFFu;
  static constexpr uint32_t kPruned = 0xFFFFFFFEu;

  /// Starts a query over the ranks [0, num_sets) and a query of
  /// `query_size` elements, forgetting every candidate of the previous one.
  void Reset(size_t num_sets, size_t query_size);

  /// The live slot of `rank`, or kUnseen / kPruned.
  uint32_t Lookup(uint32_t rank) const {
    const Stamp stamp = stamps_[Index(rank)];
    return stamp.epoch == epoch_ ? stamp.slot : kUnseen;
  }

  /// min(|Q|, |C|) for a set of `set_size` elements.
  uint32_t Capacity(size_t set_size) const {
    return static_cast<uint32_t>(std::min(set_size, query_size_));
  }

  /// Makes the unseen set at `rank` a live candidate with the given
  /// capacity; returns its slot.
  uint32_t Add(uint32_t rank, uint32_t capacity);

  /// Marks the unseen set at `rank` pruned without giving it a slot.
  void MarkPruned(uint32_t rank) { stamps_[Index(rank)] = {epoch_, kPruned}; }

  /// Prunes the live candidate in `slot` and recycles the slot.
  void Prune(uint32_t slot);

  const CandidateState& operator[](uint32_t slot) const {
    return records_[slot];
  }

  /// Registers a stream edge (query_pos → the candidate, similarity s) for
  /// the upper bound. Returns true if a new row maximum was retained, i.e.
  /// the candidate's iUB key and value changed.
  bool AddRow(uint32_t slot, uint32_t query_pos, Score s) {
    CandidateState& c = records_[slot];
    uint64_t& word = RowBits(slot)[query_pos >> 6];
    const uint64_t bit = uint64_t{1} << (query_pos & 63);
    if (c.rows >= c.capacity || (word & bit) != 0) return false;
    word |= bit;
    ++c.rows;
    c.row_sum += s;
    return true;
  }

  /// First bit of `token`'s posting list in the matched-token bits,
  /// allocating `postings` cleared bits on the token's first use this
  /// query. Add the set's index in the posting list to get its bit.
  size_t TokenBits(TokenId token, size_t postings);

  /// True if the stream edge (query_pos, token) is *valid* for the
  /// candidate in `slot` — capacity remains and both endpoints are
  /// unmatched. `token_bit` is TokenBits() plus the set's posting index.
  bool EdgeValid(uint32_t slot, uint32_t query_pos, size_t token_bit) const {
    const CandidateState& c = records_[slot];
    return c.matched < c.capacity && !TestBit(QueryBits(slot), query_pos) &&
           !TestBit(token_bits_.data(), token_bit);
  }

  /// Accepts a valid edge into the partial greedy matching.
  void AddMatch(uint32_t slot, uint32_t query_pos, size_t token_bit,
                Score s) {
    CandidateState& c = records_[slot];
    SetBit(QueryBits(slot), query_pos);
    SetBit(token_bits_.data(), token_bit);
    ++c.matched;
    c.partial += s;
  }

  size_t live() const { return live_; }

  /// Calls fn(slot, record) for every live candidate; fn may Prune(slot).
  template <class Fn>
  void ForEachLive(Fn&& fn) {
    for (uint32_t slot = 0; slot < records_.size(); ++slot) {
      if (records_[slot].rank != CandidateState::kFree) {
        fn(slot, records_[slot]);
      }
    }
  }

  /// The iUB sweep at stream similarity `s`: prunes every live candidate
  /// for which CandidateState::Prunable(s, theta) holds, counting each in
  /// *pruned, and returns how many survive. The scan returns early once
  /// more than `limit` have survived, leaving the remaining slots
  /// unchecked, so a result above `limit` only means "more than limit".
  size_t Sweep(Score s, Score theta, size_t* pruned, size_t limit = SIZE_MAX);

  /// Bytes the current query uses: its num_sets stamps, the records,
  /// bitsets and token bits it created. The storage itself is reused, so its
  /// capacity is a high-water mark over every query the thread served;
  /// counting the query's own use makes the figure repeat for the same
  /// query whatever ran before it.
  size_t MemoryUsageBytes() const;

 private:
  struct Stamp {
    uint32_t epoch = 0;
    uint32_t slot = kUnseen;
  };
  struct TokenEntry {
    uint32_t epoch = 0;
    TokenId token = 0;
    size_t first_bit = 0;
  };

  size_t Index(uint32_t rank) const {
    assert(rank < num_sets_);
    return rank;
  }
  static bool TestBit(const uint64_t* bits, size_t i) {
    return (bits[i >> 6] >> (i & 63)) & 1;
  }
  static void SetBit(uint64_t* bits, size_t i) {
    bits[i >> 6] |= uint64_t{1} << (i & 63);
  }
  uint64_t* RowBits(uint32_t slot) { return &bits_[slot * 2 * words_]; }
  uint64_t* QueryBits(uint32_t slot) { return RowBits(slot) + words_; }
  const uint64_t* QueryBits(uint32_t slot) const {
    return &bits_[slot * 2 * words_ + words_];
  }
  /// Doubles the token table, keeping this query's entries.
  void GrowTokenTable();

  uint32_t epoch_ = 0;
  size_t num_sets_ = 0;
  size_t query_size_ = 0;
  std::vector<Stamp> stamps_;           // rank -> slot, epoch-checked
  std::vector<CandidateState> records_;  // by slot
  std::vector<uint64_t> bits_;          // by slot: row bits, query bits
  size_t words_ = 0;                    // 64-bit words per |Q|-bit bitset
  std::vector<uint32_t> free_;          // recycled slots
  size_t live_ = 0;
  // Streamed token -> its first matched-token bit: open addressing,
  // power-of-two size, an entry counting only under the current epoch.
  std::vector<TokenEntry> token_table_;
  size_t tokens_ = 0;
  std::vector<uint64_t> token_bits_;
};

}  // namespace koios::core

#endif  // KOIOS_CORE_CANDIDATE_TABLE_H_
