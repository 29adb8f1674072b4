#include "koios/io/serialization.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

#include "koios/io/repository_v4.h"
#include "koios/util/crc32.h"
#include "koios/util/fault_injector.h"

namespace koios::io {

namespace {

constexpr uint32_t kDictionaryMagic = 0x4B44494Bu;  // "KIDK"
constexpr uint32_t kSetsMagic = 0x4B534554u;        // "TESK"
constexpr uint32_t kEmbeddingMagic = 0x4B454D42u;   // "BMEK"
constexpr uint32_t kRepositoryMagic = 0x4B52504Fu;  // "OPRK"
constexpr uint32_t kVersion = 1;
// Embedding store v2 adds a flag byte after the row count. It once marked
// a store whose int8 tier the loader rebuilt; the writer now always
// stores 0 and the loader reads the byte and ignores it, so files that
// set it still load (with the same rows). v1 files have no flag byte.
constexpr uint32_t kEmbeddingVersion = 2;
// Repository container versions (see the header comment): v1 = unframed
// legacy, v3 = CRC-framed sections + cross-artifact validation. 2 was
// never written and is rejected.
constexpr uint32_t kRepositoryVersionLegacy = 1;
constexpr uint32_t kRepositoryVersion = 3;

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  // Chaos seam: an armed "io.read" schedule makes this read report
  // failure, which must surface as a clean truncation-style Status from
  // whichever section was being parsed — the fault-injection tests sweep
  // the failure over every read site of a load.
  if (KOIOS_FAULTPOINT("io.read")) return false;
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

/// Bytes between the stream's current position and its end (seekable
/// streams only; "unknown" — no bound — when the stream cannot seek).
/// Every variable-length count read from a file is validated against this
/// BEFORE allocating, so a corrupt or truncated count yields a clean
/// error instead of a multi-gigabyte allocation.
uint64_t RemainingBytes(std::istream& in) {
  const std::istream::pos_type pos = in.tellg();
  if (pos == std::istream::pos_type(-1)) {
    return std::numeric_limits<uint64_t>::max();
  }
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(pos);
  if (end == std::istream::pos_type(-1) || end < pos) {
    return std::numeric_limits<uint64_t>::max();
  }
  return static_cast<uint64_t>(end - pos);
}

util::Status WriteHeader(std::ostream& out, uint32_t magic,
                         uint32_t version = kVersion) {
  WritePod(out, magic);
  WritePod(out, version);
  if (!out) return util::Status::Internal("write failed");
  return util::Status::OK();
}

util::Status CheckHeader(std::istream& in, uint32_t magic, const char* what,
                         uint32_t min_version = kVersion,
                         uint32_t max_version = kVersion,
                         uint32_t* version_out = nullptr) {
  uint32_t got_magic = 0, got_version = 0;
  if (!ReadPod(in, &got_magic) || !ReadPod(in, &got_version)) {
    return util::Status::InvalidArgument(std::string("truncated ") + what +
                                         " header");
  }
  if (got_magic != magic) {
    return util::Status::InvalidArgument(std::string("bad magic for ") + what);
  }
  if (got_version < min_version || got_version > max_version) {
    return util::Status::InvalidArgument(std::string("unsupported version for ") +
                                         what);
  }
  if (version_out != nullptr) *version_out = got_version;
  return util::Status::OK();
}

// ---- v3 section framing ------------------------------------------------------

/// The frame checksum covers the length field AND the payload, so a bit
/// flip in either is a deterministic mismatch (a shortened length cannot
/// re-validate against a prefix of the payload).
uint32_t FrameChecksum(uint64_t length, const char* payload) {
  const uint32_t seed = util::Crc32(&length, sizeof(length));
  return util::Crc32(payload, static_cast<size_t>(length), seed);
}

util::Status WriteFrame(std::ostream& out, const std::string& payload) {
  const uint64_t length = payload.size();
  WritePod(out, length);
  WritePod(out, FrameChecksum(length, payload.data()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!out) return util::Status::Internal("write failed");
  return util::Status::OK();
}

/// Reads one [length][crc][payload] frame, validating the length against
/// the bytes actually left in the file before allocating and the checksum
/// before the caller parses a single payload byte.
util::Status ReadFrame(std::istream& in, const char* what,
                       std::string* payload) {
  uint64_t length = 0;
  uint32_t crc = 0;
  if (!ReadPod(in, &length) || !ReadPod(in, &crc)) {
    return util::Status::InvalidArgument(std::string("truncated ") + what +
                                         " section frame");
  }
  if (length > RemainingBytes(in)) {
    return util::Status::InvalidArgument(std::string(what) +
                                         " section length exceeds file size");
  }
  payload->resize(static_cast<size_t>(length));
  in.read(payload->data(), static_cast<std::streamsize>(length));
  if (!in) {
    return util::Status::InvalidArgument(std::string("truncated ") + what +
                                         " section");
  }
  if (FrameChecksum(length, payload->data()) != crc) {
    return util::Status::InvalidArgument(std::string("checksum mismatch in ") +
                                         what + " section");
  }
  return util::Status::OK();
}

}  // namespace

// ---- Dictionary -------------------------------------------------------------

util::Status SaveDictionary(const text::Dictionary& dict, std::ostream& out) {
  auto status = WriteHeader(out, kDictionaryMagic);
  if (!status.ok()) return status;
  WritePod<uint64_t>(out, dict.size());
  for (TokenId t = 0; t < dict.size(); ++t) {
    const std::string_view token = dict.TokenOf(t);
    WritePod<uint32_t>(out, static_cast<uint32_t>(token.size()));
    out.write(token.data(), static_cast<std::streamsize>(token.size()));
  }
  if (!out) return util::Status::Internal("write failed");
  return util::Status::OK();
}

util::StatusOr<text::Dictionary> LoadDictionary(std::istream& in) {
  auto status = CheckHeader(in, kDictionaryMagic, "dictionary");
  if (!status.ok()) return status;
  uint64_t count = 0;
  if (!ReadPod(in, &count)) {
    return util::Status::InvalidArgument("truncated dictionary");
  }
  // Each entry is at least its 4-byte length field.
  if (count > RemainingBytes(in) / sizeof(uint32_t)) {
    return util::Status::InvalidArgument("dictionary count exceeds file size");
  }
  text::Dictionary dict;
  std::string token;
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t length = 0;
    if (!ReadPod(in, &length)) {
      return util::Status::InvalidArgument("truncated dictionary entry");
    }
    if (length > RemainingBytes(in)) {
      return util::Status::InvalidArgument(
          "dictionary entry length exceeds file size");
    }
    token.resize(length);
    in.read(token.data(), length);
    if (!in) return util::Status::InvalidArgument("truncated dictionary entry");
    const TokenId id = dict.Intern(token);
    if (id != i) {
      return util::Status::InvalidArgument("duplicate token in dictionary file");
    }
  }
  return dict;
}

// ---- SetCollection ------------------------------------------------------------

util::Status SaveSetCollection(const index::SetCollection& sets,
                               std::ostream& out) {
  auto status = WriteHeader(out, kSetsMagic);
  if (!status.ok()) return status;
  WritePod<uint64_t>(out, sets.size());
  for (SetId id = 0; id < sets.size(); ++id) {
    const auto tokens = sets.Tokens(id);
    WritePod<uint32_t>(out, static_cast<uint32_t>(tokens.size()));
    out.write(reinterpret_cast<const char*>(tokens.data()),
              static_cast<std::streamsize>(tokens.size() * sizeof(TokenId)));
  }
  if (!out) return util::Status::Internal("write failed");
  return util::Status::OK();
}

util::StatusOr<index::SetCollection> LoadSetCollection(std::istream& in) {
  auto status = CheckHeader(in, kSetsMagic, "set collection");
  if (!status.ok()) return status;
  uint64_t count = 0;
  if (!ReadPod(in, &count)) {
    return util::Status::InvalidArgument("truncated set collection");
  }
  if (count > RemainingBytes(in) / sizeof(uint32_t)) {
    return util::Status::InvalidArgument(
        "set collection count exceeds file size");
  }
  index::SetCollection sets;
  std::vector<TokenId> tokens;
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t size = 0;
    if (!ReadPod(in, &size)) {
      return util::Status::InvalidArgument("truncated set header");
    }
    if (size > RemainingBytes(in) / sizeof(TokenId)) {
      return util::Status::InvalidArgument("set size exceeds file size");
    }
    tokens.resize(size);
    in.read(reinterpret_cast<char*>(tokens.data()),
            static_cast<std::streamsize>(size * sizeof(TokenId)));
    if (!in) return util::Status::InvalidArgument("truncated set payload");
    sets.AddSet(tokens);
  }
  return sets;
}

// ---- EmbeddingStore ------------------------------------------------------------

util::Status SaveEmbeddingStore(const embedding::EmbeddingStore& store,
                                TokenId token_bound, std::ostream& out) {
  auto status = WriteHeader(out, kEmbeddingMagic, kEmbeddingVersion);
  if (!status.ok()) return status;
  WritePod<uint64_t>(out, store.dim());
  WritePod<uint64_t>(out, store.covered());
  WritePod<uint8_t>(out, 0);  // legacy tier flag, ignored on load
  for (TokenId t = 0; t < token_bound; ++t) {
    if (!store.Has(t)) continue;
    WritePod<TokenId>(out, t);
    const auto vec = store.VectorOf(t);
    out.write(reinterpret_cast<const char*>(vec.data()),
              static_cast<std::streamsize>(vec.size() * sizeof(float)));
  }
  if (!out) return util::Status::Internal("write failed");
  return util::Status::OK();
}

util::StatusOr<embedding::EmbeddingStore> LoadEmbeddingStore(
    std::istream& in, uint64_t token_id_bound) {
  uint32_t version = 0;
  auto status = CheckHeader(in, kEmbeddingMagic, "embedding store",
                            /*min_version=*/1, kEmbeddingVersion, &version);
  if (!status.ok()) return status;
  uint64_t dim = 0, rows = 0;
  if (!ReadPod(in, &dim) || !ReadPod(in, &rows) || dim == 0) {
    return util::Status::InvalidArgument("truncated embedding header");
  }
  const uint64_t remaining = RemainingBytes(in);
  if (dim > remaining / sizeof(float)) {
    return util::Status::InvalidArgument(
        "embedding dimension exceeds file size");
  }
  // Safe from overflow: dim is already bounded by the file size.
  if (rows > remaining / (sizeof(TokenId) + dim * sizeof(float))) {
    return util::Status::InvalidArgument(
        "embedding row count exceeds file size");
  }
  uint8_t legacy_tier_flag = 0;  // v1 files have no flag byte
  if (version >= 2 && !ReadPod(in, &legacy_tier_flag)) {
    return util::Status::InvalidArgument("truncated embedding header");
  }
  embedding::EmbeddingStore store(dim);
  std::vector<float> vec(dim);
  for (uint64_t i = 0; i < rows; ++i) {
    TokenId token = kInvalidToken;
    if (!ReadPod(in, &token)) {
      return util::Status::InvalidArgument("truncated embedding row header");
    }
    if (token >= token_id_bound) {
      return util::Status::InvalidArgument(
          "embedding row token id outside the dictionary");
    }
    if (store.Has(token)) {
      return util::Status::InvalidArgument("duplicate embedding row");
    }
    in.read(reinterpret_cast<char*>(vec.data()),
            static_cast<std::streamsize>(dim * sizeof(float)));
    if (!in) return util::Status::InvalidArgument("truncated embedding row");
    // Rows are stored normalized; inserting them verbatim keeps a loaded
    // store bit-identical to the one that was saved.
    store.AddNormalized(token, vec);
  }
  return store;
}

// ---- repository file ------------------------------------------------------------

namespace {

/// Serializes one artifact into an in-memory payload for framing.
template <typename SaveFn>
util::StatusOr<std::string> SectionPayload(SaveFn&& save) {
  std::ostringstream buffer(std::ios::binary);
  auto status = save(buffer);
  if (!status.ok()) return status;
  return std::move(buffer).str();
}

util::Status WriteRepositoryFile(const text::Dictionary& dict,
                                 const index::SetCollection& sets,
                                 const embedding::EmbeddingStore* store,
                                 const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return util::Status::NotFound("cannot create " + path);
  auto status = WriteHeader(out, kRepositoryMagic, kRepositoryVersion);
  if (!status.ok()) return status;
  WritePod<uint8_t>(out, store != nullptr ? 1 : 0);
  // Chaos seam: fires after the header hit the disk, so the atomic-save
  // contract is exercised against a half-written temp file.
  if (KOIOS_FAULTPOINT("io.save.write")) {
    return util::Status::Internal("injected write fault (io.save.write)");
  }

  auto dict_payload = SectionPayload(
      [&](std::ostream& o) { return SaveDictionary(dict, o); });
  if (!dict_payload.ok()) return dict_payload.status();
  status = WriteFrame(out, dict_payload.value());
  if (!status.ok()) return status;

  auto sets_payload = SectionPayload(
      [&](std::ostream& o) { return SaveSetCollection(sets, o); });
  if (!sets_payload.ok()) return sets_payload.status();
  status = WriteFrame(out, sets_payload.value());
  if (!status.ok()) return status;

  if (store != nullptr) {
    auto store_payload = SectionPayload([&](std::ostream& o) {
      return SaveEmbeddingStore(*store, static_cast<TokenId>(dict.size()), o);
    });
    if (!store_payload.ok()) return store_payload.status();
    status = WriteFrame(out, store_payload.value());
    if (!status.ok()) return status;
  }
  out.flush();
  if (!out) return util::Status::Internal("write failed");
  return util::Status::OK();
}

/// Every token id an artifact references must resolve inside the
/// dictionary that shipped in the same file — the cross-artifact
/// consistency gate that catches mixed-generation section splices even
/// when each section is individually well-formed.
util::Status ValidateRepository(const LoadedRepository& repo) {
  if (repo.sets.TokenIdBound() > repo.dict.size()) {
    return util::Status::InvalidArgument(
        "set collection references token ids beyond the dictionary");
  }
  // Embedding row ids are checked against the dictionary during the load
  // itself (token_id_bound); dimension consistency needs no check — any
  // dim is servable. Nothing further to cross-validate without embeddings.
  return util::Status::OK();
}

}  // namespace

util::Status SaveRepository(const text::Dictionary& dict,
                            const index::SetCollection& sets,
                            const embedding::EmbeddingStore* store,
                            const std::string& path) {
  // Atomic publication: a crash (or injected fault) anywhere before the
  // rename leaves `path` exactly as it was — either the previous valid
  // repository or absent — and cleans up the temp file on the failure
  // paths this process survives.
  const std::string tmp = path + ".tmp";
  auto status = WriteRepositoryFile(dict, sets, store, tmp);
  if (!status.ok()) {
    std::remove(tmp.c_str());
    return status;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return util::Status::Internal("cannot rename " + tmp + " to " + path);
  }
  return util::Status::OK();
}

util::Status SaveRepositoryLegacyV1(const text::Dictionary& dict,
                                    const index::SetCollection& sets,
                                    const embedding::EmbeddingStore* store,
                                    const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return util::Status::NotFound("cannot create " + path);
  auto status = WriteHeader(out, kRepositoryMagic, kRepositoryVersionLegacy);
  if (!status.ok()) return status;
  WritePod<uint8_t>(out, store != nullptr ? 1 : 0);
  status = SaveDictionary(dict, out);
  if (!status.ok()) return status;
  status = SaveSetCollection(sets, out);
  if (!status.ok()) return status;
  if (store != nullptr) {
    status = SaveEmbeddingStore(*store, static_cast<TokenId>(dict.size()), out);
    if (!status.ok()) return status;
  }
  return util::Status::OK();
}

namespace {

/// Materializes a v4 mmap repository into OWNED structures: the
/// compatibility path for callers that need the artifacts to outlive any
/// mapping (the zero-copy path is serve::Snapshot over MmapRepositoryView).
/// Eager verification: this path already pays O(corpus) to copy, so the
/// bulk-arena CRCs and content scans are not worth skipping.
util::StatusOr<LoadedRepository> MaterializeV4(const std::string& path) {
  auto view_or = MmapRepositoryView::Open(path, MmapOptions{.verify = true});
  if (!view_or.ok()) return view_or.status();
  const auto view = std::move(view_or).value();
  auto dict = view->BorrowDictionary();
  if (!dict.ok()) return dict.status();
  auto sets = view->BorrowSets();
  if (!sets.ok()) return sets.status();

  LoadedRepository repo;
  for (TokenId t = 0; t < dict.value().size(); ++t) {
    repo.dict.Intern(dict.value().TokenOf(t));
  }
  for (SetId s = 0; s < sets.value().size(); ++s) {
    repo.sets.AddSet(sets.value().Tokens(s));
  }
  if (view->has_embeddings()) {
    auto store = view->BorrowEmbeddings();
    if (!store.ok()) return store.status();
    const auto& borrowed = store.value();
    repo.store = embedding::EmbeddingStore(borrowed.dim());
    const auto table = borrowed.RowTable();
    for (TokenId t = 0; t < table.size(); ++t) {
      if (table[t] == embedding::EmbeddingStore::kNoRow) continue;
      if (t >= repo.dict.size()) {
        return util::Status::InvalidArgument(
            "embedding row token id outside the dictionary");
      }
      repo.store.AddNormalized(t, borrowed.VectorOf(t));
    }
    repo.has_embeddings = true;
  }
  return repo;
}

}  // namespace

util::StatusOr<LoadedRepository> LoadRepository(const std::string& path) {
  {
    auto version = PeekRepositoryVersion(path);
    if (version.ok() && version.value() == 4) return MaterializeV4(path);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::NotFound("cannot open " + path);
  uint32_t version = 0;
  auto status =
      CheckHeader(in, kRepositoryMagic, "repository", kRepositoryVersionLegacy,
                  kRepositoryVersion, &version);
  if (!status.ok()) return status;
  if (version != kRepositoryVersionLegacy && version != kRepositoryVersion) {
    return util::Status::InvalidArgument("unsupported version for repository");
  }
  uint8_t has_embeddings = 0;
  if (!ReadPod(in, &has_embeddings)) {
    return util::Status::InvalidArgument("truncated repository header");
  }
  if (has_embeddings > 1) {
    return util::Status::InvalidArgument("corrupt repository header");
  }

  LoadedRepository repo;
  if (version == kRepositoryVersionLegacy) {
    // Unframed legacy layout: sections parsed straight off the stream
    // (allocation still bounded by RemainingBytes, but no checksums).
    auto dict = LoadDictionary(in);
    if (!dict.ok()) return dict.status();
    repo.dict = std::move(dict).value();
    auto sets = LoadSetCollection(in);
    if (!sets.ok()) return sets.status();
    repo.sets = std::move(sets).value();
    if (has_embeddings != 0) {
      auto store = LoadEmbeddingStore(in, repo.dict.size());
      if (!store.ok()) return store.status();
      repo.store = std::move(store).value();
      repo.has_embeddings = true;
    }
  } else {
    // v3: every section arrives length-checked and checksum-verified
    // before parsing, and the file must end exactly after the last
    // section (trailing bytes mean a corrupt header routed us past a
    // section that is still physically present).
    std::string payload;
    status = ReadFrame(in, "dictionary", &payload);
    if (!status.ok()) return status;
    {
      std::istringstream section(payload, std::ios::binary);
      auto dict = LoadDictionary(section);
      if (!dict.ok()) return dict.status();
      repo.dict = std::move(dict).value();
    }
    status = ReadFrame(in, "set collection", &payload);
    if (!status.ok()) return status;
    {
      std::istringstream section(payload, std::ios::binary);
      auto sets = LoadSetCollection(section);
      if (!sets.ok()) return sets.status();
      repo.sets = std::move(sets).value();
    }
    if (has_embeddings != 0) {
      status = ReadFrame(in, "embedding store", &payload);
      if (!status.ok()) return status;
      std::istringstream section(payload, std::ios::binary);
      auto store = LoadEmbeddingStore(section, repo.dict.size());
      if (!store.ok()) return store.status();
      repo.store = std::move(store).value();
      repo.has_embeddings = true;
    }
    if (in.peek() != std::char_traits<char>::eof()) {
      return util::Status::InvalidArgument(
          "trailing bytes after the last repository section");
    }
  }

  status = ValidateRepository(repo);
  if (!status.ok()) return status;
  return repo;
}

}  // namespace koios::io
