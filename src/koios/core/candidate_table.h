// Per-query refinement state (§V) in flat, reusable storage: one record per
// live candidate set, found through an epoch-stamped SetId-indexed slot
// table, with the matched-element bookkeeping kept as bitsets.
#ifndef KOIOS_CORE_CANDIDATE_TABLE_H_
#define KOIOS_CORE_CANDIDATE_TABLE_H_

#include <algorithm>
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
/// The bucket filter of §V carries over unchanged with key m = capacity −
/// |R| and value row_sum. Once the stream is exhausted the slack term
/// vanishes (a row without a retained maximum has no α-edge left, or is
/// dominated by the retained ones), so UpperBound(0) is the final bound.
struct CandidateState {
  SetId id = kInvalidSet;  // kInvalidSet while the slot is free
  uint32_t capacity = 0;   // min(|Q|, |C|)
  uint32_t rows = 0;       // |R|: retained row maxima (iUB)
  uint32_t matched = 0;    // l: greedily matched element pairs (iLB)
  Score row_sum = 0.0;     // Σ retained row maxima (the bucket value)
  Score partial = 0.0;     // S_i: the partial greedy matching score (iLB)

  /// m = min(|Q|, |C|) − |R| — the bucket key of §V.
  uint32_t remaining() const { return capacity - rows; }

  /// Sound iUB given the current stream similarity `s` (see above).
  Score UpperBound(Score s) const {
    return row_sum + static_cast<Score>(remaining()) * s;
  }
};

/// The candidates of one refinement run. Reset() starts a query in O(1)
/// amortized time: a set's slot entry counts only when stamped with the
/// current epoch, so nothing is zeroed per query. Slots of pruned sets are
/// recycled, so the records and bitsets grow to the peak number of LIVE
/// candidates, and the slot table to the largest collection served.
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

  /// Starts a query over sets [0, num_sets) and a query of `query_size`
  /// elements, forgetting every candidate of the previous one.
  void Reset(size_t num_sets, size_t query_size);

  /// The live slot of `id`, or kUnseen / kPruned.
  uint32_t Lookup(SetId id) const {
    const Stamp stamp = stamps_[id];
    return stamp.epoch == epoch_ ? stamp.slot : kUnseen;
  }

  /// min(|Q|, |C|) for a set of `set_size` elements.
  uint32_t Capacity(size_t set_size) const {
    return static_cast<uint32_t>(std::min(set_size, query_size_));
  }

  /// Makes unseen set `id` a live candidate with the given capacity;
  /// returns its slot.
  uint32_t Add(SetId id, uint32_t capacity);

  /// Marks unseen set `id` pruned without giving it a slot.
  void MarkPruned(SetId id) { stamps_[id] = {epoch_, kPruned}; }

  /// Prunes the live candidate in `slot` and recycles the slot.
  void Prune(uint32_t slot);

  const CandidateState& operator[](uint32_t slot) const {
    return records_[slot];
  }

  /// Registers a stream edge (query_pos → the candidate, similarity s) for
  /// the upper bound. Returns true if a new row maximum was retained, i.e.
  /// the candidate must move buckets.
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
      if (records_[slot].id != kInvalidSet) fn(slot, records_[slot]);
    }
  }

  /// Bytes the current query uses: its |S| stamps, the records, bitsets
  /// and token bits it created. The storage itself is reused, so its
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
  std::vector<Stamp> stamps_;           // SetId -> slot, when epoch matches
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
