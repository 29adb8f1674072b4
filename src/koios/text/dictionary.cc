#include "koios/text/dictionary.h"

#include <cassert>

namespace koios::text {

util::StatusOr<Dictionary> Dictionary::FromBorrowed(
    std::span<const uint64_t> offsets, std::span<const char> bytes) {
  if (offsets.empty()) {
    return util::Status::InvalidArgument("dictionary offset table is empty");
  }
  if (offsets.front() != 0 || offsets.back() != bytes.size()) {
    return util::Status::InvalidArgument(
        "dictionary offsets do not span the string arena");
  }
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return util::Status::InvalidArgument(
          "dictionary offsets are not monotone");
    }
  }
  Dictionary dict;
  dict.borrowed_ = true;
  dict.b_offsets_ = offsets;
  dict.b_bytes_ = bytes;
  dict.size_ = offsets.size() - 1;
  dict.lazy_ = std::make_unique<LazyLookup>();
  return dict;
}

TokenId Dictionary::Intern(std::string_view token) {
  assert(!borrowed_ && "Intern on a borrowed (immutable) dictionary");
  auto it = ids_.find(token);
  if (it != ids_.end()) return it->second;
  const TokenId id = static_cast<TokenId>(tokens_.size());
  tokens_.emplace_back(token);
  ids_.emplace(std::string_view(tokens_.back()), id);
  ++size_;
  return id;
}

TokenId Dictionary::Lookup(std::string_view token) const {
  if (borrowed_) {
    std::call_once(lazy_->once, [this] {
      lazy_->map.reserve(size_);
      for (size_t i = 0; i < size_; ++i) {
        // emplace = first id wins on a (never writer-produced) duplicate.
        lazy_->map.emplace(TokenOf(static_cast<TokenId>(i)),
                           static_cast<TokenId>(i));
      }
    });
    auto it = lazy_->map.find(token);
    return it == lazy_->map.end() ? kInvalidToken : it->second;
  }
  auto it = ids_.find(token);
  return it == ids_.end() ? kInvalidToken : it->second;
}

std::string_view Dictionary::TokenOf(TokenId id) const {
  assert(id < size_);
  if (borrowed_) {
    return {b_bytes_.data() + b_offsets_[id],
            static_cast<size_t>(b_offsets_[id + 1] - b_offsets_[id])};
  }
  return tokens_[id];
}

size_t Dictionary::MemoryUsageBytes() const {
  size_t bytes = 0;
  for (const auto& t : tokens_) bytes += sizeof(std::string) + t.capacity();
  const size_t index_entries =
      borrowed_ ? (lazy_ ? lazy_->map.size() : 0) : ids_.size();
  bytes += index_entries *
           (sizeof(std::pair<std::string_view, TokenId>) + 2 * sizeof(void*));
  return bytes;
}

}  // namespace koios::text
