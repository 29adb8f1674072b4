#include "koios/io/repository_v4.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_set>

#include "koios/util/crc32.h"
#include "koios/util/fault_injector.h"

namespace koios::io {
namespace {

constexpr uint32_t kMagic = 0x4B52504Fu;  // "OPRK", shared with v1/v3

uint64_t AlignUp(uint64_t n) {
  return (n + kV4Alignment - 1) & ~static_cast<uint64_t>(kV4Alignment - 1);
}

uint32_t HeaderCrc(const V4Header& header,
                   std::span<const SectionEntry> table) {
  V4Header copy = header;
  copy.header_crc = 0;
  uint32_t crc = util::Crc32(&copy, sizeof(copy));
  if (!table.empty()) {
    crc = util::Crc32(table.data(), table.size() * sizeof(SectionEntry), crc);
  }
  return crc;
}

/// Bytes of one section to be written, plus its computed metadata.
struct PendingSection {
  uint32_t kind;
  const void* data;
  uint64_t length;
};

}  // namespace

// ---- writer -----------------------------------------------------------------

util::Status SaveRepositoryV4(const text::Dictionary& dict,
                              const index::SetCollection& sets,
                              const embedding::EmbeddingStore* store,
                              const std::string& path) {
  // Materialize the arenas that are not already stored contiguously.
  // Dictionary: offsets + byte arena.
  std::vector<uint64_t> dict_offsets;
  std::string dict_bytes;
  dict_offsets.reserve(dict.size() + 1);
  dict_offsets.push_back(0);
  for (TokenId t = 0; t < dict.size(); ++t) {
    const std::string_view token = dict.TokenOf(t);
    dict_bytes.append(token);
    dict_offsets.push_back(dict_bytes.size());
  }

  // Vocabulary: sorted distinct token ids across all sets, precomputed so
  // the mmap load path skips the O(corpus) scan.
  std::vector<TokenId> vocabulary;
  {
    const auto tokens = sets.RawTokens();
    std::unordered_set<TokenId> distinct(tokens.begin(), tokens.end());
    vocabulary.assign(distinct.begin(), distinct.end());
    std::sort(vocabulary.begin(), vocabulary.end());
  }

  // Embeddings: canonicalize rows to token-ascending order — the order a
  // v3 load produces (it re-Adds token by token) — so scores and tie
  // orderings downstream are bit-identical across the two load paths.
  std::vector<uint32_t> row_of;
  std::vector<float> rows;
  const bool has_embeddings = store != nullptr;
  if (has_embeddings) {
    const auto table = store->RowTable();
    const auto data = store->RowData();
    const size_t dim = store->dim();
    row_of.assign(table.begin(), table.end());
    rows.reserve(data.size());
    uint32_t next_row = 0;
    for (size_t t = 0; t < table.size(); ++t) {
      const uint32_t old_row = table[t];
      if (old_row == embedding::EmbeddingStore::kNoRow) continue;
      row_of[t] = next_row++;
      rows.insert(rows.end(), data.begin() + old_row * dim,
                  data.begin() + (old_row + 1) * dim);
    }
  }

  // Postings: the collection's size-ranked inverted index, so an engine
  // over the mapping searches them as they are instead of building them.
  const index::InvertedIndex postings(sets);

  std::vector<PendingSection> sections;
  const auto set_offsets = sets.RawOffsets();
  const auto set_tokens = sets.RawTokens();
  sections.push_back({kDictOffsets, dict_offsets.data(),
                      dict_offsets.size() * sizeof(uint64_t)});
  sections.push_back({kDictBytes, dict_bytes.data(), dict_bytes.size()});
  sections.push_back({kSetOffsets, set_offsets.data(),
                      set_offsets.size() * sizeof(uint64_t)});
  sections.push_back(
      {kSetTokens, set_tokens.data(), set_tokens.size() * sizeof(TokenId)});
  sections.push_back({kVocabulary, vocabulary.data(),
                      vocabulary.size() * sizeof(TokenId)});
  if (has_embeddings) {
    sections.push_back(
        {kEmbedRowOf, row_of.data(), row_of.size() * sizeof(uint32_t)});
    sections.push_back({kEmbedData, rows.data(), rows.size() * sizeof(float)});
  }
  sections.push_back({kPostingOffsets, postings.Offsets().data(),
                      postings.Offsets().size_bytes()});
  sections.push_back({kPostingRanks, postings.Ranks().data(),
                      postings.Ranks().size_bytes()});

  V4Header header;
  header.magic = kMagic;
  header.version = 4;
  header.dict_size = dict.size();
  header.set_count = sets.size();
  header.embed_dim = has_embeddings ? store->dim() : 0;
  header.embed_rows = has_embeddings ? store->covered() : 0;
  header.token_id_bound = sets.TokenIdBound();
  header.has_embeddings = has_embeddings ? 1 : 0;
  header.has_postings = 1;
  header.section_count = static_cast<uint32_t>(sections.size());

  std::vector<SectionEntry> table(sections.size());
  uint64_t cursor =
      AlignUp(sizeof(V4Header) + table.size() * sizeof(SectionEntry));
  for (size_t i = 0; i < sections.size(); ++i) {
    table[i].offset = cursor;
    table[i].length = sections[i].length;
    table[i].kind = sections[i].kind;
    table[i].crc = util::Crc32(sections[i].data, sections[i].length);
    cursor = i + 1 < sections.size() ? AlignUp(cursor + sections[i].length)
                                     : cursor + sections[i].length;
  }
  header.header_crc = HeaderCrc(header, table);

  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return util::Status::Internal("cannot open " + tmp_path + " for write");
    }
    if (KOIOS_FAULTPOINT("io.save.write")) {
      out.close();
      std::remove(tmp_path.c_str());
      return util::Status::Internal("injected fault: io.save.write on " +
                                    tmp_path);
    }
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    out.write(reinterpret_cast<const char*>(table.data()),
              static_cast<std::streamsize>(table.size() * sizeof(SectionEntry)));
    uint64_t written = sizeof(V4Header) + table.size() * sizeof(SectionEntry);
    static constexpr char kZeros[kV4Alignment] = {0};
    for (size_t i = 0; i < sections.size(); ++i) {
      const uint64_t pad = table[i].offset - written;
      out.write(kZeros, static_cast<std::streamsize>(pad));
      out.write(static_cast<const char*>(sections[i].data),
                static_cast<std::streamsize>(sections[i].length));
      written = table[i].offset + sections[i].length;
    }
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp_path.c_str());
      return util::Status::Internal("write failed on " + tmp_path);
    }
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return util::Status::Internal("rename " + tmp_path + " -> " + path +
                                  " failed");
  }
  return util::Status::OK();
}

// ---- reader -----------------------------------------------------------------

util::StatusOr<std::shared_ptr<MmapRepositoryView>> MmapRepositoryView::Open(
    const std::string& path, const MmapOptions& opts) {
  auto mapped = MmapFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  // shared_ptr because the lazy-CRC atomics pin the object in place, and
  // serve::Snapshot needs shared keep-alive across snapshot handoffs.
  std::shared_ptr<MmapRepositoryView> view(new MmapRepositoryView());
  view->file_ = std::move(mapped).value();
  for (auto& flag : view->crc_ok_) flag.store(0, std::memory_order_relaxed);
  view->kind_index_.fill(-1);
  auto status = view->Validate();
  if (!status.ok()) return status;
  if (opts.verify) {
    status = view->VerifyAllSections();
    if (!status.ok()) return status;
  }
  return view;
}

util::Status MmapRepositoryView::Validate() {
  if (KOIOS_FAULTPOINT("io.v4.validate")) {
    return util::Status::Internal("injected fault: io.v4.validate");
  }
  const uint8_t* base = file_.data();
  const uint64_t size = file_.size();
  if (size < sizeof(V4Header)) {
    return util::Status::InvalidArgument(
        "v4 repository truncated: file shorter than the 64-byte header");
  }
  std::memcpy(&header_, base, sizeof(header_));
  if (header_.magic != kMagic) {
    return util::Status::InvalidArgument("bad v4 repository magic");
  }
  if (header_.version != 4) {
    return util::Status::InvalidArgument(
        "unsupported v4 repository version " + std::to_string(header_.version));
  }
  if (header_.has_quantized && !header_.has_embeddings) {
    return util::Status::InvalidArgument(
        "corrupt v4 header: quantized tier without embeddings");
  }
  const size_t expected_sections = 5 + (header_.has_embeddings ? 2 : 0) +
                                   (header_.has_quantized ? 4 : 0) +
                                   (header_.has_postings ? 2 : 0);
  if (header_.section_count != expected_sections) {
    return util::Status::InvalidArgument(
        "corrupt v4 header: section count " +
        std::to_string(header_.section_count) + ", expected " +
        std::to_string(expected_sections));
  }
  const uint64_t table_end =
      sizeof(V4Header) + header_.section_count * sizeof(SectionEntry);
  if (size < table_end) {
    return util::Status::InvalidArgument(
        "v4 repository truncated inside the section table");
  }
  table_.resize(header_.section_count);
  std::memcpy(table_.data(), base + sizeof(V4Header),
              header_.section_count * sizeof(SectionEntry));
  if (HeaderCrc(header_, table_) != header_.header_crc) {
    return util::Status::InvalidArgument(
        "v4 repository header checksum mismatch");
  }

  // The exact kind sequence the writer emits.
  std::vector<uint32_t> expected_kinds = {kDictOffsets, kDictBytes,
                                          kSetOffsets, kSetTokens,
                                          kVocabulary};
  if (header_.has_embeddings) {
    expected_kinds.push_back(kEmbedRowOf);
    expected_kinds.push_back(kEmbedData);
  }
  if (header_.has_quantized) {
    expected_kinds.push_back(kQuantCodes);
    expected_kinds.push_back(kQuantScales);
    expected_kinds.push_back(kQuantOffsets);
    expected_kinds.push_back(kQuantSums);
  }
  if (header_.has_postings) {
    expected_kinds.push_back(kPostingOffsets);
    expected_kinds.push_back(kPostingRanks);
  }

  uint64_t prev_end = table_end;
  for (size_t i = 0; i < table_.size(); ++i) {
    const SectionEntry& e = table_[i];
    if (e.kind != expected_kinds[i]) {
      return util::Status::InvalidArgument(
          "corrupt v4 section table: unexpected kind " +
          std::to_string(e.kind) + " at index " + std::to_string(i));
    }
    if (e.offset % kV4Alignment != 0) {
      return util::Status::InvalidArgument(
          "corrupt v4 section table: misaligned section offset");
    }
    if (e.offset < prev_end || e.offset - prev_end >= kV4Alignment) {
      return util::Status::InvalidArgument(
          "corrupt v4 section table: section extents out of order");
    }
    if (e.length > size || e.offset > size - e.length) {
      return util::Status::InvalidArgument(
          "v4 repository truncated: section extends past end of file");
    }
    // Inter-section padding must be zero — a flipped bit in a gap is
    // corruption even though no section covers it.
    for (uint64_t p = prev_end; p < e.offset; ++p) {
      if (base[p] != 0) {
        return util::Status::InvalidArgument(
            "corrupt v4 repository: nonzero padding byte");
      }
    }
    kind_index_[e.kind] = static_cast<int>(i);
    prev_end = e.offset + e.length;
  }
  if (prev_end != size) {
    return util::Status::InvalidArgument(
        "corrupt v4 repository: trailing bytes after the last section");
  }

  // Per-kind length arithmetic against the header counts. Anything that
  // fails here can never be handed out as a span.
  auto length_of = [&](SectionKind kind) -> uint64_t {
    const int idx = kind_index_[kind];
    return idx < 0 ? 0 : table_[static_cast<size_t>(idx)].length;
  };
  if (length_of(kDictOffsets) != (header_.dict_size + 1) * sizeof(uint64_t)) {
    return util::Status::InvalidArgument(
        "corrupt v4 repository: dictionary offset table length mismatch");
  }
  if (length_of(kSetOffsets) != (header_.set_count + 1) * sizeof(uint64_t)) {
    return util::Status::InvalidArgument(
        "corrupt v4 repository: set offset table length mismatch");
  }
  if (length_of(kSetTokens) % sizeof(TokenId) != 0 ||
      length_of(kVocabulary) % sizeof(TokenId) != 0) {
    return util::Status::InvalidArgument(
        "corrupt v4 repository: token arena length not element-aligned");
  }
  if (header_.has_postings &&
      (length_of(kPostingOffsets) !=
           (header_.token_id_bound + 1) * sizeof(uint64_t) ||
       length_of(kPostingRanks) != length_of(kSetTokens))) {
    return util::Status::InvalidArgument(
        "corrupt v4 repository: posting section length mismatch");
  }
  if (header_.has_embeddings) {
    const uint64_t matrix_bytes =
        header_.embed_rows * header_.embed_dim * sizeof(float);
    if (header_.embed_dim == 0 && header_.embed_rows != 0) {
      return util::Status::InvalidArgument(
          "corrupt v4 header: embedding rows with dimension zero");
    }
    if (length_of(kEmbedRowOf) % sizeof(uint32_t) != 0) {
      return util::Status::InvalidArgument(
          "corrupt v4 repository: row table length not element-aligned");
    }
    if (length_of(kEmbedData) != matrix_bytes) {
      return util::Status::InvalidArgument(
          "corrupt v4 repository: embedding matrix length mismatch");
    }
    if (header_.has_quantized) {
      if (length_of(kQuantCodes) != header_.embed_rows * header_.embed_dim ||
          length_of(kQuantScales) != header_.embed_rows * sizeof(float) ||
          length_of(kQuantOffsets) != header_.embed_rows * sizeof(float) ||
          length_of(kQuantSums) != header_.embed_rows * sizeof(int32_t)) {
        return util::Status::InvalidArgument(
            "corrupt v4 repository: quantized tier length mismatch");
      }
    }
  }
  return util::Status::OK();
}

util::Status MmapRepositoryView::CheckSectionCrc(size_t index) const {
  const SectionEntry& e = table_[index];
  if (crc_ok_[e.kind].load(std::memory_order_acquire) == 1) {
    return util::Status::OK();
  }
  if (KOIOS_FAULTPOINT("io.v4.validate")) {
    return util::Status::Internal("injected fault: io.v4.validate");
  }
  const uint32_t crc = util::Crc32(file_.data() + e.offset, e.length);
  if (crc != e.crc) {
    return util::Status::InvalidArgument(
        "v4 repository section " + std::to_string(e.kind) +
        " checksum mismatch");
  }
  crc_ok_[e.kind].store(1, std::memory_order_release);
  return util::Status::OK();
}

std::span<const uint8_t> MmapRepositoryView::RawSection(
    SectionKind kind) const {
  const SectionEntry& e = table_[static_cast<size_t>(kind_index_[kind])];
  return {file_.data() + e.offset, e.length};
}

util::StatusOr<std::span<const uint8_t>> MmapRepositoryView::Section(
    SectionKind kind) const {
  const int idx = kind_index_[kind];
  if (idx < 0) {
    return util::Status::Internal("v4 section " + std::to_string(kind) +
                                  " absent");
  }
  auto status = CheckSectionCrc(static_cast<size_t>(idx));
  if (!status.ok()) return status;
  return RawSection(kind);
}

namespace {

template <typename T>
std::span<const T> AsSpan(std::span<const uint8_t> bytes) {
  // Section offsets are 64-byte aligned, so the cast is always aligned.
  return {reinterpret_cast<const T*>(bytes.data()), bytes.size() / sizeof(T)};
}

}  // namespace

util::StatusOr<text::Dictionary> MmapRepositoryView::BorrowDictionary() const {
  auto offsets = Section(kDictOffsets);
  if (!offsets.ok()) return offsets.status();
  auto bytes = Section(kDictBytes);
  if (!bytes.ok()) return bytes.status();
  return text::Dictionary::FromBorrowed(
      AsSpan<uint64_t>(offsets.value()),
      std::span<const char>(
          reinterpret_cast<const char*>(bytes.value().data()),
          bytes.value().size()));
}

util::StatusOr<index::SetCollection> MmapRepositoryView::BorrowSets() const {
  auto offsets = Section(kSetOffsets);
  if (!offsets.ok()) return offsets.status();
  // Bulk arena: extent-validated at Open(); CRC only under eager verify.
  auto sets = index::SetCollection::FromBorrowed(
      AsSpan<uint64_t>(offsets.value()), AsSpan<TokenId>(RawSection(kSetTokens)),
      header_.token_id_bound);
  if (!sets.ok()) {
    return util::Status::InvalidArgument("corrupt v4 set sections: " +
                                         sets.status().message());
  }
  if (sets.value().size() != header_.set_count) {
    return util::Status::InvalidArgument(
        "corrupt v4 repository: set count disagrees with header");
  }
  return sets;
}

util::StatusOr<embedding::EmbeddingStore> MmapRepositoryView::BorrowEmbeddings()
    const {
  if (!has_embeddings()) {
    return util::Status::FailedPrecondition(
        "v4 repository carries no embeddings");
  }
  auto row_of = Section(kEmbedRowOf);
  if (!row_of.ok()) return row_of.status();
  // Bulk arena, extent-validated at Open().
  auto store = embedding::EmbeddingStore::FromBorrowed(
      header_.embed_dim, header_.embed_rows, AsSpan<uint32_t>(row_of.value()),
      AsSpan<float>(RawSection(kEmbedData)));
  if (!store.ok()) {
    return util::Status::InvalidArgument("corrupt v4 embedding sections: " +
                                         store.status().message());
  }
  return store;
}

util::StatusOr<std::span<const TokenId>> MmapRepositoryView::Vocabulary()
    const {
  auto vocab = Section(kVocabulary);
  if (!vocab.ok()) return vocab.status();
  return AsSpan<TokenId>(vocab.value());
}

util::StatusOr<index::InvertedIndex> MmapRepositoryView::BorrowPostings(
    const index::SetCollection& sets) const {
  if (!has_postings()) {
    return util::Status::FailedPrecondition(
        "v4 repository carries no postings");
  }
  auto offsets = Section(kPostingOffsets);
  if (!offsets.ok()) return offsets.status();
  // Bulk arena, extent-validated at Open().
  auto postings = index::InvertedIndex::FromBorrowed(
      sets, AsSpan<uint64_t>(offsets.value()),
      AsSpan<uint32_t>(RawSection(kPostingRanks)));
  if (!postings.ok()) {
    return util::Status::InvalidArgument("corrupt v4 posting sections: " +
                                         postings.status().message());
  }
  return postings;
}

util::Status MmapRepositoryView::VerifyPostings() const {
  auto sets = BorrowSets();
  if (!sets.ok()) return sets.status();
  auto postings = BorrowPostings(sets.value());
  if (!postings.ok()) return postings.status();
  const index::InvertedIndex& index = postings.value();
  auto corrupt = [](const char* what) {
    return util::Status::InvalidArgument(
        std::string("corrupt v4 repository: ") + what);
  };
  const size_t bound = sets.value().TokenIdBound();
  const uint32_t num_sets = static_cast<uint32_t>(index.num_sets());
  // Each list strictly ascending, its ranks below the set count, and as
  // long as its token's count in the set arenas.
  std::vector<uint64_t> count(bound, 0);
  for (const TokenId t : sets.value().RawTokens()) {
    if (t >= bound) return corrupt("set token beyond the token id bound");
    ++count[t];
  }
  for (TokenId t = 0; t < bound; ++t) {
    const auto list = index.Postings(t);
    for (size_t i = 0; i < list.size(); ++i) {
      if (list[i] >= num_sets) return corrupt("posting rank beyond the set count");
      if (i > 0 && list[i - 1] >= list[i]) {
        return corrupt("posting list not strictly ascending");
      }
    }
    if (list.size() != count[t]) {
      return corrupt("posting list length differs from its token's count");
    }
  }
  // Each posting's set holds its token: walking the sets in rank order,
  // set r must be the next unread entry of each of its tokens' lists. With
  // the lengths equal, that makes the lists the exact transpose.
  std::vector<uint64_t> next(index.Offsets().begin(), index.Offsets().end() - 1);
  const auto ranks = index.Ranks();
  for (uint32_t rank = 0; rank < num_sets; ++rank) {
    for (const TokenId t : sets.value().Tokens(index.SetAt(rank))) {
      if (ranks[next[t]++] != rank) {
        return corrupt("posting names a set without its token");
      }
    }
  }
  return util::Status::OK();
}

util::Status MmapRepositoryView::VerifyAllSections() const {
  for (size_t i = 0; i < table_.size(); ++i) {
    auto status = CheckSectionCrc(i);
    if (!status.ok()) return status;
  }
  // Content scans over the arenas the lazy path takes on trust: set
  // tokens in dictionary bounds and sorted strictly per set, vocabulary
  // sorted/deduped/in bounds. (Borrow-time FromBorrowed validation covers
  // the offset tables and the row-table bijection.)
  const auto offsets = AsSpan<uint64_t>(RawSection(kSetOffsets));
  const auto tokens = AsSpan<TokenId>(RawSection(kSetTokens));
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != tokens.size()) {
    return util::Status::InvalidArgument(
        "corrupt v4 repository: set offsets do not span the token arena");
  }
  for (size_t s = 0; s + 1 < offsets.size(); ++s) {
    if (offsets[s] > offsets[s + 1]) {
      return util::Status::InvalidArgument(
          "corrupt v4 repository: set offsets are not monotone");
    }
    for (uint64_t i = offsets[s]; i < offsets[s + 1]; ++i) {
      if (tokens[i] >= header_.dict_size) {
        return util::Status::InvalidArgument(
            "corrupt v4 repository: set token outside the dictionary");
      }
      if (i > offsets[s] && tokens[i - 1] >= tokens[i]) {
        return util::Status::InvalidArgument(
            "corrupt v4 repository: set tokens not sorted/deduplicated");
      }
    }
  }
  auto vocab = Vocabulary();
  if (!vocab.ok()) return vocab.status();
  const auto v = vocab.value();
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i] >= header_.dict_size || (i > 0 && v[i - 1] >= v[i])) {
      return util::Status::InvalidArgument(
          "corrupt v4 repository: vocabulary section not sorted/in bounds");
    }
  }
  // Dictionary token uniqueness: the lazy path no longer checks this at
  // borrow time (the hash build is deferred to the first string Lookup,
  // which resolves duplicates first-id-wins), so the eager pass does.
  {
    auto dict = BorrowDictionary();
    if (!dict.ok()) return dict.status();
    std::unordered_set<std::string_view> seen;
    seen.reserve(dict.value().size());
    for (TokenId t = 0; t < dict.value().size(); ++t) {
      if (!seen.insert(dict.value().TokenOf(t)).second) {
        return util::Status::InvalidArgument(
            "corrupt v4 repository: duplicate token in dictionary arena");
      }
    }
  }
  if (has_postings()) return VerifyPostings();
  return util::Status::OK();
}

// ---- version sniffing -------------------------------------------------------

util::StatusOr<uint32_t> PeekRepositoryVersion(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::NotFound("cannot open " + path);
  uint32_t magic = 0, version = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in) {
    return util::Status::InvalidArgument("repository truncated in header: " +
                                         path);
  }
  if (magic != kMagic) {
    return util::Status::InvalidArgument("bad repository magic in " + path);
  }
  return version;
}

}  // namespace koios::io
