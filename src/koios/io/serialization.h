// Binary (de)serialization of the repository artifacts a deployment wants
// to build once and reuse across queries: the dictionary, the set
// collection, and the embedding store. Inverted indexes and neighbor
// indexes are rebuilt from these on load (they are construction-cheap
// relative to corpus preparation).
//
// Format: little-endian, magic + version header per artifact. Not
// portable across endianness (like most database file formats, a machine
// family is assumed).
//
// Repository container format (the file SaveRepository writes):
//  * v3 (current) — [magic][version=3][has_embeddings u8] followed by one
//    FRAME per artifact section: [payload length u64][CRC-32 u32][payload]
//    where the payload is the artifact's own stream format. The loader
//    verifies the frame length against the bytes actually remaining in
//    the file BEFORE allocating, verifies the checksum BEFORE parsing,
//    requires end-of-file after the last section, and cross-checks the
//    artifacts against each other (set token ids and embedding row ids
//    must fall inside the dictionary) — so truncated, bit-flipped, or
//    mixed-generation files come back as a clean error Status, never as
//    UB or a half-built repository.
//  * v1 (legacy) — the same sections concatenated with no framing; no
//    writer emits it, and it is still loadable (with allocation bounded
//    by the remaining file size, but without checksum protection).
//    The version number jumps 1 -> 3 so that "3" unambiguously means
//    CRC-framed repo-wide: the embedding section's own v2 (a flag byte the
//    loader ignores) keeps its number inside the frame, and v1/v2
//    embedding payloads load in either container.
//
// Durability: SaveRepository writes to "<path>.tmp" and renames into
// place, so a crash (or injected fault) mid-save never leaves a
// half-written repository where the next load expects a valid one.
#ifndef KOIOS_IO_SERIALIZATION_H_
#define KOIOS_IO_SERIALIZATION_H_

#include <cstdint>
#include <iosfwd>
#include <string>

#include "koios/embedding/embedding_store.h"
#include "koios/index/set_collection.h"
#include "koios/text/dictionary.h"
#include "koios/util/status.h"

namespace koios::io {

// ---- Dictionary ------------------------------------------------------------
util::Status SaveDictionary(const text::Dictionary& dict, std::ostream& out);
util::StatusOr<text::Dictionary> LoadDictionary(std::istream& in);

// ---- SetCollection ----------------------------------------------------------
util::Status SaveSetCollection(const index::SetCollection& sets,
                               std::ostream& out);
util::StatusOr<index::SetCollection> LoadSetCollection(std::istream& in);

// ---- EmbeddingStore ----------------------------------------------------------
/// `token_bound`: exclusive upper bound of token ids to scan (e.g.
/// dictionary size). Rows round-trip bit for bit.
util::Status SaveEmbeddingStore(const embedding::EmbeddingStore& store,
                                TokenId token_bound, std::ostream& out);
/// `token_id_bound`: exclusive upper bound a stored row's token id must
/// fall under (the repository loader passes the dictionary size, which is
/// the cross-artifact consistency check); the default accepts any id.
/// Duplicate rows and rows beyond the bound are rejected as corrupt.
util::StatusOr<embedding::EmbeddingStore> LoadEmbeddingStore(
    std::istream& in, uint64_t token_id_bound = UINT64_MAX);

// ---- file-path conveniences ---------------------------------------------------
/// Writes the v3 CRC-framed container atomically: the bytes go to
/// "<path>.tmp" and are renamed over `path` only once complete, so a
/// failure mid-save leaves any pre-existing repository at `path` intact
/// (and no .tmp debris behind).
util::Status SaveRepository(const text::Dictionary& dict,
                            const index::SetCollection& sets,
                            const embedding::EmbeddingStore* store,  // nullable
                            const std::string& path);

struct LoadedRepository {
  text::Dictionary dict;
  index::SetCollection sets;
  /// Dim 0 and empty when the file carried no embeddings.
  embedding::EmbeddingStore store{0};
  bool has_embeddings = false;
};

/// Loads a v1 or v3 repository container. Every corruption class the
/// format can express — truncation anywhere, bit flips (v3: caught by the
/// section CRCs), oversized counts, trailing bytes, cross-artifact
/// mismatches — returns an error Status; a successful load is a fully
/// consistent repository.
util::StatusOr<LoadedRepository> LoadRepository(const std::string& path);

}  // namespace koios::io

#endif  // KOIOS_IO_SERIALIZATION_H_
