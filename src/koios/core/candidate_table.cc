#include "koios/core/candidate_table.h"

#include <cassert>

namespace koios::core {

namespace {

constexpr size_t kWordBits = 64;

size_t Words(size_t bits) { return (bits + kWordBits - 1) / kWordBits; }

size_t TokenHash(TokenId token, size_t mask) {
  return (static_cast<size_t>(token) * 0x9E3779B97F4A7C15ull >> 32) & mask;
}

}  // namespace

void CandidateTable::Reset(size_t num_sets, size_t query_size) {
  if (++epoch_ == 0) {
    // Wrapped: stale stamps could alias the new epoch, so clear them once.
    std::fill(stamps_.begin(), stamps_.end(), Stamp{});
    std::fill(token_table_.begin(), token_table_.end(), TokenEntry{});
    epoch_ = 1;
  }
  num_sets_ = num_sets;
  if (stamps_.size() < num_sets_) stamps_.resize(num_sets_);
  query_size_ = query_size;
  words_ = Words(query_size);
  records_.clear();
  bits_.clear();
  free_.clear();
  live_ = 0;
  tokens_ = 0;
  token_bits_.clear();
}

uint32_t CandidateTable::Add(uint32_t rank, uint32_t capacity) {
  assert(Lookup(rank) == kUnseen);
  uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<uint32_t>(records_.size());
    records_.emplace_back();
    bits_.resize(bits_.size() + 2 * words_);  // value-initialized: zero
  } else {
    slot = free_.back();
    free_.pop_back();
    std::fill_n(RowBits(slot), 2 * words_, uint64_t{0});
  }
  CandidateState& c = records_[slot];
  c = CandidateState{};
  c.rank = rank;
  c.capacity = capacity;
  stamps_[Index(rank)] = {epoch_, slot};
  ++live_;
  return slot;
}

void CandidateTable::Prune(uint32_t slot) {
  CandidateState& c = records_[slot];
  assert(c.rank != CandidateState::kFree);
  MarkPruned(c.rank);
  c.rank = CandidateState::kFree;
  free_.push_back(slot);
  --live_;
}

size_t CandidateTable::Sweep(Score s, Score theta, size_t* pruned,
                             size_t limit) {
  size_t survivors = 0;
  for (uint32_t slot = 0; slot < records_.size() && survivors <= limit;
       ++slot) {
    const CandidateState& c = records_[slot];
    if (c.rank == CandidateState::kFree) continue;
    if (c.Prunable(s, theta)) {
      Prune(slot);
      ++*pruned;
    } else {
      ++survivors;
    }
  }
  return survivors;
}

size_t CandidateTable::TokenBits(TokenId token, size_t postings) {
  if (2 * (tokens_ + 1) > token_table_.size()) GrowTokenTable();
  const size_t mask = token_table_.size() - 1;
  for (size_t i = TokenHash(token, mask);; i = (i + 1) & mask) {
    TokenEntry& e = token_table_[i];
    if (e.epoch != epoch_) {
      e = {epoch_, token, token_bits_.size() * kWordBits};
      token_bits_.resize(token_bits_.size() + Words(postings));
      ++tokens_;
      return e.first_bit;
    }
    if (e.token == token) return e.first_bit;
  }
}

void CandidateTable::GrowTokenTable() {
  std::vector<TokenEntry> old = std::move(token_table_);
  token_table_.assign(std::max<size_t>(64, 2 * old.size()), TokenEntry{});
  const size_t mask = token_table_.size() - 1;
  for (const TokenEntry& e : old) {
    if (e.epoch != epoch_) continue;
    size_t i = TokenHash(e.token, mask);
    while (token_table_[i].epoch == epoch_) i = (i + 1) & mask;
    token_table_[i] = e;
  }
}

size_t CandidateTable::MemoryUsageBytes() const {
  return num_sets_ * sizeof(Stamp) +
         records_.size() * sizeof(CandidateState) +
         bits_.size() * sizeof(uint64_t) +
         token_bits_.size() * sizeof(uint64_t);
}

}  // namespace koios::core
