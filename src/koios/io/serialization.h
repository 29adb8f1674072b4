// Owned loading of a repository file: the dictionary, the set collection
// and the embedding store, copied into heap structures that outlive the
// file. The one writer is io::SaveRepositoryV4 (repository_v4.h); this
// header is the read side for callers that want owned artifacts, and the
// only reader of the two legacy stream containers, which files written by
// earlier releases still use.
//
// Legacy stream containers (little-endian, read-only; no writer emits
// them):
//  * v3 — [magic][version=3][has_embeddings u8] followed by one FRAME per
//    artifact section: [payload length u64][CRC-32 u32][payload] where
//    the payload is the artifact's own stream format. The loader
//    verifies the frame length against the bytes actually remaining in
//    the file BEFORE allocating, verifies the checksum BEFORE parsing,
//    requires end-of-file after the last section, and cross-checks the
//    artifacts against each other (set token ids and embedding row ids
//    must fall inside the dictionary) — so truncated, bit-flipped, or
//    mixed-generation files come back as a clean error Status, never as
//    UB or a half-built repository.
//  * v1 — the same sections concatenated with no framing; still loadable
//    (with allocation bounded by the remaining file size, but without
//    checksum protection).
//    The version number jumps 1 -> 3 so that "3" unambiguously means
//    CRC-framed repo-wide: the embedding section's own v2 (a flag byte the
//    loader ignores) keeps its number inside the frame, and v1/v2
//    embedding payloads load in either container.
//
// tests/testdata/golden_v1.repo and golden_v3.repo are the files these
// readers are tested on.
#ifndef KOIOS_IO_SERIALIZATION_H_
#define KOIOS_IO_SERIALIZATION_H_

#include <string>

#include "koios/embedding/embedding_store.h"
#include "koios/index/set_collection.h"
#include "koios/text/dictionary.h"
#include "koios/util/status.h"

namespace koios::io {

struct LoadedRepository {
  text::Dictionary dict;
  index::SetCollection sets;
  /// Dim 0 and empty when the file carried no embeddings.
  embedding::EmbeddingStore store{0};
  bool has_embeddings = false;
};

/// Loads a v1, v3 or v4 repository file into owned artifacts (a v4 file
/// is mapped, eagerly verified and copied). Every corruption class the
/// formats can express — truncation anywhere, bit flips (v3: caught by
/// the section CRCs), oversized counts, trailing bytes, cross-artifact
/// mismatches — returns an error Status; a successful load is a fully
/// consistent repository.
util::StatusOr<LoadedRepository> LoadRepository(const std::string& path);

}  // namespace koios::io

#endif  // KOIOS_IO_SERIALIZATION_H_
