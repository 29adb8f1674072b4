// Token dictionary: bidirectional mapping between set-element strings and
// dense TokenIds. The vocabulary `D` of a repository (paper §IV) is exactly
// the id space of one Dictionary instance.
//
// Two storage modes behind one interface (the borrowed/owned contract the
// v4 mmap repository format relies on, see docs/ARCHITECTURE.md):
//  * owned (default) — Intern() appends strings into heap storage.
//  * borrowed — FromBorrowed() wraps a flat, offset-indexed string arena
//    (typically inside an io::MmapRepositoryView mapping) without copying
//    a byte of it. Borrowed dictionaries are immutable: Intern() is a
//    contract violation (asserted). The caller must keep the arena alive
//    for the dictionary's lifetime — serve::Snapshot pins the mapping.
//    The Lookup hash index is heap-built lazily on the first string
//    lookup (O(vocab), vocabulary-scale, never corpus-scale) — opening a
//    mapped snapshot allocates nothing here.
#ifndef KOIOS_TEXT_DICTIONARY_H_
#define KOIOS_TEXT_DICTIONARY_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>

#include "koios/util/status.h"
#include "koios/util/types.h"

namespace koios::text {

/// Append-only interning dictionary. Ids are dense [0, size).
class Dictionary {
 public:
  Dictionary() = default;

  // Move-only: the owned lookup index keys view into the stored strings,
  // so a copy's index would point into the source's storage.
  Dictionary(Dictionary&&) = default;
  Dictionary& operator=(Dictionary&&) = default;
  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;

  /// Wraps a flat string arena without copying: `offsets` holds size()+1
  /// monotone byte offsets into `bytes`; token `i` is
  /// bytes[offsets[i], offsets[i+1]). Validates the offsets (monotone,
  /// ending exactly at bytes.size()). The Lookup hash index is built
  /// LAZILY on the first Lookup() call (thread-safe, call_once) so that
  /// opening a mapped snapshot costs O(1) in the vocabulary — the id→
  /// string direction, the only one the serve path uses, reads the arena
  /// directly. Token uniqueness is NOT checked here (our writers cannot
  /// produce duplicates and CRCs catch corruption); the eager verify
  /// pass (io::MmapRepositoryView::VerifyAllSections) checks it, and a
  /// lazy build resolves duplicates first-id-wins. Both spans must
  /// outlive the returned dictionary.
  static util::StatusOr<Dictionary> FromBorrowed(
      std::span<const uint64_t> offsets, std::span<const char> bytes);

  /// Intern `token`, returning its id (existing or freshly assigned).
  /// Owned mode only: borrowed dictionaries are immutable.
  TokenId Intern(std::string_view token);

  /// Id of `token` or kInvalidToken if absent. Borrowed mode: the first
  /// call builds the hash index (O(vocab), guarded by call_once — safe
  /// from concurrent const readers).
  TokenId Lookup(std::string_view token) const;

  /// String for `id`; asserts validity. The view is stable for the
  /// dictionary's lifetime (owned strings never move; borrowed bytes live
  /// in the caller's arena).
  std::string_view TokenOf(TokenId id) const;

  bool Contains(std::string_view token) const {
    return Lookup(token) != kInvalidToken;
  }

  size_t size() const { return size_; }

  /// True when the string storage is a borrowed arena (immutable mode).
  bool borrowed() const { return borrowed_; }

  size_t MemoryUsageBytes() const;

 private:
  // Owned mode. deque: element addresses are stable under push_back, so
  // the map may key on views into the stored strings.
  std::deque<std::string> tokens_;
  // Borrowed mode: offset-indexed views into an external arena.
  std::span<const uint64_t> b_offsets_;
  std::span<const char> b_bytes_;
  bool borrowed_ = false;
  size_t size_ = 0;
  // Lookup index, owned mode; keys view into tokens_.
  std::unordered_map<std::string_view, TokenId> ids_;
  // Lookup index, borrowed mode: built on first use. Behind a pointer so
  // the dictionary stays movable (once_flag is not).
  struct LazyLookup {
    std::once_flag once;
    std::unordered_map<std::string_view, TokenId> map;
  };
  std::unique_ptr<LazyLookup> lazy_;
};

}  // namespace koios::text

#endif  // KOIOS_TEXT_DICTIONARY_H_
