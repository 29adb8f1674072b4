// Repository container format v4: the zero-copy mmap snapshot format.
//
// v1/v3 (serialization.h) are STREAM formats — loading parses and copies
// every artifact into heap structures, O(corpus bytes) of work before the
// first query. v4 is an ARENA format: the on-disk bytes ARE the serving
// layout, so a load is mmap + header/offset validation, and the serving
// structures (Dictionary / SetCollection / EmbeddingStore in borrowed
// mode) wrap the mapped arenas without copying a byte.
//
// File layout (little-endian, same machine-family caveat as v1/v3):
//
//   [V4Header: 64 bytes]
//   [SectionEntry x section_count: 24 bytes each]
//   [zero padding to the next 64-byte boundary]
//   [section 0 bytes][zero padding to 64][section 1 bytes]...[section N-1]
//
// Every section offset is 64-byte aligned (so borrowed spans of u64/f32/
// i32 arenas are naturally aligned and cache-line friendly); inter-section
// gaps are zero-filled; the file ends EXACTLY at the last section's end.
// Sections appear in fixed kind order:
//
//   kind  content                              element   present
//   1     dictionary offsets (dict_size+1)     u64       always
//   2     dictionary string arena              char      always
//   3     set CSR offsets (set_count+1)        u64       always
//   4     set token arena (sorted per set)     u32       always
//   5     vocabulary: sorted distinct tokens   u32       always
//   6     embedding row table TokenId->row     u32       has_embeddings
//   7     embedding rows (rows x dim, L2-nrm)  f32       has_embeddings
//   8     legacy int8 codes (rows x dim)       i8        has_quantized
//   9     legacy quantizer scales (per row)    f32       has_quantized
//   10    legacy quantizer offsets (per row)   f32       has_quantized
//   11    legacy quantizer code sums (per row) i32       has_quantized
//
// Sections 8-11 are LEGACY: an earlier writer stored an int8 tier there.
// This writer never emits them (has_quantized = 0), and no reader borrows
// them. A file that carries them still opens: the structural pass
// validates their kinds and lengths, and eager verification CRC-checks
// them like every other section.
//
// Integrity model (three tiers — see docs/ARCHITECTURE.md):
//  * STRUCTURAL, always at Open(): header CRC (over the header with its
//    crc field zeroed, continued over the section table), magic/version,
//    kind sequence, alignment, monotone non-overlapping extents, zeroed
//    padding, per-kind length arithmetic against the header counts, and
//    an EXACT file-size match. Every truncation and every bit flip in the
//    header, section table, or padding is rejected here — before any
//    section byte is dereferenced, so a short file can never SIGBUS.
//  * LAZY per-section CRC: metadata sections (1,2,3,5,6) are
//    CRC-verified on first borrow of the artifact that reads them.
//  * EAGER (MmapOptions::verify, the `koios_snapshot verify` tool, and
//    TrySwapFromRepository): CRC of EVERY section, the bulk arenas (4,7)
//    and any legacy sections included, plus content scans (set tokens in
//    bounds and sorted per set, vocabulary sorted/deduped/in bounds).
//    Lazy mode deliberately skips the bulk-arena CRCs: checksumming the
//    full file would put load time back on the same O(corpus) footing as
//    a v3 parse, forfeiting the mmap advantage.
#ifndef KOIOS_IO_REPOSITORY_V4_H_
#define KOIOS_IO_REPOSITORY_V4_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "koios/embedding/embedding_store.h"
#include "koios/index/set_collection.h"
#include "koios/io/mmap_file.h"
#include "koios/text/dictionary.h"
#include "koios/util/status.h"
#include "koios/util/types.h"

namespace koios::io {

// ---- on-disk structures -----------------------------------------------------

/// Fixed 64-byte file header. `header_crc` is the CRC-32 of this struct
/// with the crc field zeroed, continued over the section table bytes.
struct V4Header {
  uint32_t magic = 0;           // kRepositoryMagic ("OPRK")
  uint32_t version = 0;         // 4
  uint64_t dict_size = 0;       // tokens in the dictionary
  uint64_t set_count = 0;       // sets in the collection
  uint64_t embed_dim = 0;       // 0 when !has_embeddings
  uint64_t embed_rows = 0;      // covered tokens
  uint64_t token_id_bound = 0;  // dense vocabulary bound of set token ids
  uint8_t has_embeddings = 0;
  uint8_t has_quantized = 0;    // legacy sections 8-11; implies has_embeddings
  uint8_t reserved_a[2] = {0, 0};
  uint32_t section_count = 0;
  uint32_t header_crc = 0;
  uint8_t reserved_b[4] = {0, 0, 0, 0};
};
static_assert(sizeof(V4Header) == 64, "v4 header must be exactly 64 bytes");

/// One section-table entry: the extent and checksum of a section.
struct SectionEntry {
  uint64_t offset = 0;  // absolute file offset, 64-byte aligned
  uint64_t length = 0;  // bytes, may be 0
  uint32_t crc = 0;     // CRC-32 of the section bytes
  uint32_t kind = 0;    // SectionKind
};
static_assert(sizeof(SectionEntry) == 24, "section entry must be 24 bytes");

enum SectionKind : uint32_t {
  kDictOffsets = 1,
  kDictBytes = 2,
  kSetOffsets = 3,
  kSetTokens = 4,
  kVocabulary = 5,
  kEmbedRowOf = 6,
  kEmbedData = 7,
  kQuantCodes = 8,
  kQuantScales = 9,
  kQuantOffsets = 10,
  kQuantSums = 11,
};

inline constexpr size_t kV4MaxSections = 11;
inline constexpr size_t kV4Alignment = 64;

// ---- writer -----------------------------------------------------------------

/// Writes the v4 container atomically ("<path>.tmp" + rename, like
/// SaveRepository). Embedding rows are canonicalized to token-ascending
/// order (the order a v3 load produces), so queries against a v4-borrowed
/// store are bit-identical to the v3-loaded equivalent. Writes no legacy
/// sections. Hits the "io.save.write" failpoint.
util::Status SaveRepositoryV4(const text::Dictionary& dict,
                              const index::SetCollection& sets,
                              const embedding::EmbeddingStore* store,  // nullable
                              const std::string& path);

// ---- reader -----------------------------------------------------------------

struct MmapOptions {
  /// Eagerly CRC-check every section (including the bulk arenas) and run
  /// the content scans at Open(). Off = structural validation only, with
  /// metadata CRCs deferred to first borrow.
  bool verify = false;
};

/// A validated read-only mapping of a v4 repository. Borrow* accessors
/// hand out Dictionary / SetCollection / EmbeddingStore objects in
/// borrowed mode whose storage lives in the mapping — the view must
/// outlive every borrowed object (serve::Snapshot keeps a shared_ptr).
/// Thread-safe after Open(); lazy CRC state is atomic.
class MmapRepositoryView {
 public:
  /// Maps and structurally validates `path`. With opts.verify, also runs
  /// VerifyAllSections(). Hits "io.mmap" (establishment) and
  /// "io.v4.validate" (validation) failpoints.
  static util::StatusOr<std::shared_ptr<MmapRepositoryView>> Open(
      const std::string& path, const MmapOptions& opts = {});

  /// Borrowed dictionary over sections 1+2 (CRC-checked on first call).
  util::StatusOr<text::Dictionary> BorrowDictionary() const;
  /// Borrowed set collection over sections 3+4 (offsets CRC-checked on
  /// first call; the token arena is eager-verify only).
  util::StatusOr<index::SetCollection> BorrowSets() const;
  /// Borrowed embedding store over sections 6+7 (row table CRC-checked on
  /// first call; the float matrix is eager-verify only). FailedPrecondition
  /// when the file carries no embeddings.
  util::StatusOr<embedding::EmbeddingStore> BorrowEmbeddings() const;
  /// The precomputed sorted distinct token ids of the set corpus
  /// (section 5, CRC-checked on first call). Lets a snapshot load skip
  /// the O(corpus) DistinctTokens scan.
  util::StatusOr<std::span<const TokenId>> Vocabulary() const;

  /// CRC-checks every section (bulk arenas included) and content-scans
  /// the set token and vocabulary arenas. Used by eager verify mode.
  util::Status VerifyAllSections() const;

  const V4Header& header() const { return header_; }
  bool has_embeddings() const { return header_.has_embeddings != 0; }
  size_t file_size() const { return file_.size(); }

 private:
  MmapRepositoryView() = default;

  util::Status Validate();  // structural pass at Open()
  /// Returns the section with `kind`, CRC-checking it first unless it was
  /// already checked (or `skip_crc`). nullptr data + OK is impossible; a
  /// missing kind is Internal (the structural pass pinned the sequence).
  util::StatusOr<std::span<const uint8_t>> Section(SectionKind kind) const;
  util::Status CheckSectionCrc(size_t index) const;

  MmapFile file_;
  V4Header header_;
  std::vector<SectionEntry> table_;
  // index into table_ per kind (or -1); filled by the structural pass.
  std::array<int, kV4MaxSections + 1> kind_index_;
  // 0 = unchecked, 1 = CRC verified. Failure is not cached (re-checks
  // refail identically); success is sticky so hot borrows are free.
  mutable std::array<std::atomic<uint8_t>, kV4MaxSections + 1> crc_ok_;
};

/// Reads just enough of `path` to report the container version (1, 3, or
/// 4); used by callers that route between the stream loader and the mmap
/// view. NotFound / InvalidArgument on unreadable or foreign files.
util::StatusOr<uint32_t> PeekRepositoryVersion(const std::string& path);

}  // namespace koios::io

#endif  // KOIOS_IO_REPOSITORY_V4_H_
