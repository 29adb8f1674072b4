// Tests for the persistence layer: .vec loading, repository round trips
// through the v4 writer and LoadRepository, and the legacy v1/v3 readers,
// run on the checked-in golden files and on byte-level edits of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "koios/core/searcher.h"
#include "koios/embedding/vec_loader.h"
#include "koios/io/repository_v4.h"
#include "koios/io/serialization.h"
#include "koios/util/crc32.h"
#include "test_util.h"

namespace koios::io {
namespace {

// ------------------------------------------------------------- vec loader --

TEST(VecLoaderTest, ParsesWellFormedStream) {
  text::Dictionary dict;
  dict.Intern("apple");
  dict.Intern("banana");
  std::istringstream in(
      "3 4\n"
      "apple 1 0 0 0\n"
      "banana 0 1 0 0\n"
      "cherry 0 0 1 0\n");  // not in the dictionary: skipped
  embedding::VecLoadStats stats;
  auto store = embedding::LoadVecStream(in, dict, &stats);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(stats.file_words, 3u);
  EXPECT_EQ(stats.parsed_words, 3u);
  EXPECT_EQ(stats.matched_words, 2u);
  EXPECT_EQ(stats.dim, 4u);
  EXPECT_TRUE(store.value().Has(dict.Lookup("apple")));
  EXPECT_TRUE(store.value().Has(dict.Lookup("banana")));
  EXPECT_NEAR(store.value().Cosine(dict.Lookup("apple"), dict.Lookup("banana")),
              0.0, 1e-6);
}

TEST(VecLoaderTest, NormalizesVectors) {
  text::Dictionary dict;
  dict.Intern("word");
  std::istringstream in("1 2\nword 3 4\n");
  auto store = embedding::LoadVecStream(in, dict);
  ASSERT_TRUE(store.ok());
  const auto vec = store.value().VectorOf(dict.Lookup("word"));
  EXPECT_NEAR(vec[0], 0.6, 1e-6);
  EXPECT_NEAR(vec[1], 0.8, 1e-6);
}

TEST(VecLoaderTest, RejectsMalformedHeader) {
  text::Dictionary dict;
  std::istringstream in("not a header\n");
  auto store = embedding::LoadVecStream(in, dict);
  EXPECT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(VecLoaderTest, RejectsShortRow) {
  text::Dictionary dict;
  dict.Intern("word");
  std::istringstream in("1 4\nword 1 2\n");
  auto store = embedding::LoadVecStream(in, dict);
  EXPECT_FALSE(store.ok());
}

TEST(VecLoaderTest, MissingFileIsNotFound) {
  text::Dictionary dict;
  auto store = embedding::LoadVecFile("/nonexistent/path.vec", dict);
  EXPECT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), util::StatusCode::kNotFound);
}

TEST(VecLoaderTest, DuplicateRowsKeepFirst) {
  text::Dictionary dict;
  dict.Intern("word");
  std::istringstream in("2 2\nword 1 0\nword 0 1\n");
  auto store = embedding::LoadVecStream(in, dict);
  ASSERT_TRUE(store.ok());
  const auto vec = store.value().VectorOf(dict.Lookup("word"));
  EXPECT_NEAR(vec[0], 1.0, 1e-6);
}

// -------------------------------------------------------------- round trip --

TEST(SerializationTest, RoundTripKeepsEdgeCaseArtifacts) {
  // Tokens with spaces and an empty token, an empty set, and embedding
  // rows for only some tokens all survive the writer and the owned load.
  text::Dictionary dict;
  for (const char* token : {"alpha", "beta gamma", "", "d", "e", "f"}) {
    dict.Intern(token);
  }
  index::SetCollection sets;
  sets.AddSet(std::vector<TokenId>{3, 1, 2});
  sets.AddSet(std::vector<TokenId>{});
  sets.AddSet(std::vector<TokenId>{5});
  embedding::EmbeddingStore store(3);
  store.Add(2, std::vector<float>{1.0f, 2.0f, 2.0f});
  store.Add(5, std::vector<float>{0.0f, 1.0f, 0.0f});

  const std::string path = ::testing::TempDir() + "/koios_edge_repo.bin";
  ASSERT_TRUE(SaveRepositoryV4(dict, sets, &store, path).ok());
  auto repo = LoadRepository(path);
  std::remove(path.c_str());
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  const LoadedRepository& got = repo.value();
  ASSERT_EQ(got.dict.size(), 6u);
  EXPECT_EQ(got.dict.TokenOf(1), "beta gamma");
  EXPECT_EQ(got.dict.TokenOf(2), "");
  EXPECT_EQ(got.dict.Lookup("alpha"), 0u);
  ASSERT_EQ(got.sets.size(), 3u);
  for (SetId id = 0; id < sets.size(); ++id) {
    const auto want = sets.Tokens(id);
    const auto have = got.sets.Tokens(id);
    EXPECT_TRUE(std::equal(have.begin(), have.end(), want.begin(), want.end()))
        << "set " << id;
  }
  ASSERT_TRUE(got.has_embeddings);
  EXPECT_EQ(got.store.covered(), 2u);
  EXPECT_TRUE(got.store.Has(2));
  EXPECT_TRUE(got.store.Has(5));
  EXPECT_FALSE(got.store.Has(3));
  EXPECT_EQ(got.store.Cosine(2, 5), store.Cosine(2, 5));
}

TEST(SerializationTest, RepositoryFileRoundTripAndSearch) {
  // Full integration: save a workload to disk, reload, search, and compare
  // against searching the original.
  auto w = testing::MakeRandomWorkload(60, 300, 5, 15, 7001);
  text::Dictionary dict;
  for (TokenId t = 0; t < 300; ++t) dict.Intern("tok" + std::to_string(t));

  const std::string path = ::testing::TempDir() + "/koios_repo.bin";
  ASSERT_TRUE(
      SaveRepositoryV4(dict, w.corpus.sets, &w.model->store(), path).ok());
  auto repo = LoadRepository(path);
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  ASSERT_TRUE(repo.value().has_embeddings);
  EXPECT_EQ(repo.value().sets.size(), w.corpus.sets.size());

  sim::CosineEmbeddingSimilarity sim(&repo.value().store);
  index::InvertedIndex inverted(repo.value().sets);
  sim::ExactKnnIndex knn(inverted.Vocabulary(), &sim);
  core::KoiosSearcher searcher(&repo.value().sets, &knn);
  core::KoiosSearcher original(&w.corpus.sets, w.index.get());
  core::SearchParams params;
  params.k = 5;
  params.alpha = 0.8;
  const auto q = w.corpus.sets.Tokens(3);
  const auto r1 = searcher.Search(q, params);
  const auto r2 = original.Search(q, params);
  ASSERT_EQ(r1.topk.size(), r2.topk.size());
  for (size_t i = 0; i < r1.topk.size(); ++i) {
    EXPECT_EQ(r1.topk[i].set, r2.topk[i].set);
    EXPECT_NEAR(r1.topk[i].score, r2.topk[i].score, 1e-6);
  }
  std::remove(path.c_str());
}

// ------------------------------------------------- legacy v3 reader --
//
// No writer emits v1 or v3, so the legacy reader is tested on the bytes
// of the checked-in golden files (tests/testdata/README.md) and on edits
// of them. The v3 container is designed so that EVERY byte-level
// corruption — any truncation, any single bit flip — surfaces as a clean
// error Status. The tests below enforce that exhaustively: the files are
// a few hundred bytes, so the full sweep is cheap and leaves no
// unexamined position. Edits that must get past the frame checksums
// re-frame the edited payload, so only the check under test can reject
// the file.

std::string GoldenPath(const char* name) {
  return std::string(KOIOS_TESTDATA_DIR) + "/" + name;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Round-trips `bytes` through a file and LoadRepository.
util::StatusOr<LoadedRepository> LoadFromBytes(const std::string& bytes) {
  const std::string path = ::testing::TempDir() + "/koios_mutated_repo.bin";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  auto repo = LoadRepository(path);
  std::remove(path.c_str());
  return repo;
}

// v3 layout: [magic u32][version u32][has_embeddings u8], then one frame
// per section (dictionary, set collection, embedding store if flagged):
// [payload length u64][CRC-32 u32][payload].
constexpr size_t kV3HeaderBytes = 9;
constexpr size_t kHasEmbeddingsOffset = 8;
constexpr size_t kFrameHeaderBytes = 12;

/// A v3 file split into its header and its section payloads.
struct V3File {
  std::string header;
  std::vector<std::string> payloads;
};

V3File SplitV3(const std::string& bytes) {
  V3File file;
  file.header = bytes.substr(0, kV3HeaderBytes);
  for (size_t at = kV3HeaderBytes; at < bytes.size();) {
    uint64_t length = 0;
    std::memcpy(&length, bytes.data() + at, sizeof(length));
    file.payloads.push_back(bytes.substr(at + kFrameHeaderBytes, length));
    at += kFrameHeaderBytes + length;
  }
  return file;
}

/// Re-frames every payload with a fresh length and checksum (the CRC-32
/// of the length field, continued over the payload).
std::string JoinV3(const V3File& file) {
  std::string bytes = file.header;
  for (const std::string& payload : file.payloads) {
    const uint64_t length = payload.size();
    const uint32_t crc = util::Crc32(payload.data(), payload.size(),
                                     util::Crc32(&length, sizeof(length)));
    bytes.append(reinterpret_cast<const char*>(&length), sizeof(length));
    bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
    bytes += payload;
  }
  return bytes;
}

enum V3Section : size_t { kDictionary = 0, kSets = 1, kEmbeddings = 2 };

/// golden_v3.repo: dictionary, sets and embeddings.
V3File GoldenV3() { return SplitV3(FileBytes(GoldenPath("golden_v3.repo"))); }

/// golden_v3.repo without its embedding frame, the header flag cleared.
V3File GoldenV3WithoutEmbeddings() {
  V3File file = GoldenV3();
  file.payloads.pop_back();
  file.header[kHasEmbeddingsOffset] = 0;
  return file;
}

// Embedding payload: [magic u32][version u32][dim u64][rows u64][flag u8],
// then per row [token id u32][dim floats].
constexpr size_t kEmbeddingFlagOffset = 4 + 4 + 8 + 8;
constexpr size_t kFirstRowOffset = kEmbeddingFlagOffset + 1;

size_t EmbeddingRowOffset(const std::string& payload, size_t row) {
  uint64_t dim = 0;
  std::memcpy(&dim, payload.data() + 8, sizeof(dim));
  return kFirstRowOffset + row * (sizeof(TokenId) + dim * sizeof(float));
}

void SetRowToken(std::string* payload, size_t row, TokenId token) {
  std::memcpy(payload->data() + EmbeddingRowOffset(*payload, row), &token,
              sizeof(token));
}

TEST(CorruptionMatrixTest, GoldenEditsReframeCleanly) {
  // The helpers themselves: splitting and re-framing the golden files
  // reproduces them byte for byte, and the embedding-less variant loads.
  const std::string bytes = FileBytes(GoldenPath("golden_v3.repo"));
  const V3File file = SplitV3(bytes);
  ASSERT_EQ(file.payloads.size(), 3u);
  EXPECT_EQ(JoinV3(file), bytes);
  auto repo = LoadFromBytes(JoinV3(GoldenV3WithoutEmbeddings()));
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  EXPECT_FALSE(repo.value().has_embeddings);
  EXPECT_EQ(repo.value().sets.size(), 5u);
}

TEST(CorruptionMatrixTest, EveryTruncationReturnsError) {
  const std::string bytes = JoinV3(GoldenV3());
  ASSERT_GT(bytes.size(), kV3HeaderBytes);
  // Every strict prefix — which includes every section boundary — must be
  // rejected; only the full file loads.
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto repo = LoadFromBytes(bytes.substr(0, len));
    EXPECT_FALSE(repo.ok()) << "truncation to " << len << " bytes loaded";
  }
  EXPECT_TRUE(LoadFromBytes(bytes).ok());
}

TEST(CorruptionMatrixTest, EverySingleBitFlipReturnsError) {
  for (const bool with_embeddings : {true, false}) {
    const std::string bytes =
        JoinV3(with_embeddings ? GoldenV3() : GoldenV3WithoutEmbeddings());
    ASSERT_TRUE(LoadFromBytes(bytes).ok());
    for (size_t i = 0; i < bytes.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mutated = bytes;
        mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
        auto repo = LoadFromBytes(mutated);
        EXPECT_FALSE(repo.ok())
            << "bit " << bit << " of byte " << i << " flipped (embeddings="
            << with_embeddings << ") but the file still loaded";
      }
    }
  }
}

TEST(CorruptionMatrixTest, WrongMagicAndVersionsRejected) {
  const std::string bytes = JoinV3(GoldenV3());
  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  EXPECT_FALSE(LoadFromBytes(wrong_magic).ok());
  // v2 was never written; v5 does not exist. Both must be rejected
  // outright (version byte is at offset 4, little-endian u32).
  for (const char version : {2, 5}) {
    std::string wrong_version = bytes;
    wrong_version[4] = version;
    auto repo = LoadFromBytes(wrong_version);
    ASSERT_FALSE(repo.ok());
    EXPECT_NE(repo.status().message().find("version"), std::string::npos);
  }
  // A v3 body whose version byte claims 4 routes to the v4 mmap loader
  // and must fail ITS structural validation (a v3 stream is not a v4
  // arena layout) — rejected, never misparsed.
  std::string fake_v4 = bytes;
  fake_v4[4] = 4;
  EXPECT_FALSE(LoadFromBytes(fake_v4).ok());
}

TEST(CorruptionMatrixTest, TrailingBytesRejected) {
  std::string bytes = JoinV3(GoldenV3());
  bytes.push_back('\0');
  EXPECT_FALSE(LoadFromBytes(bytes).ok());
}

TEST(CorruptionMatrixTest, BadSectionMagicRejected) {
  // A section whose own magic is wrong, inside a frame whose checksum is
  // valid, is rejected by name.
  const char* const names[] = {"dictionary", "set collection",
                               "embedding store"};
  for (const size_t section : {kDictionary, kSets, kEmbeddings}) {
    V3File file = GoldenV3();
    file.payloads[section][0] ^= 0x20;
    auto repo = LoadFromBytes(JoinV3(file));
    ASSERT_FALSE(repo.ok()) << names[section];
    EXPECT_NE(repo.status().message().find(std::string("bad magic for ") +
                                           names[section]),
              std::string::npos)
        << repo.status().ToString();
  }
}

TEST(CorruptionMatrixTest, MixedGenerationSpliceRejected) {
  // Two individually valid generations: the golden's sets reference token
  // ids up to 9, and an older dictionary knew only the first 2 tokens. A
  // file spliced from that dictionary and the golden's sets has perfectly
  // valid checksums on both sections — only the cross-artifact validation
  // can catch it.
  V3File file = GoldenV3WithoutEmbeddings();
  std::string& dict = file.payloads[kDictionary];
  // Dictionary payload: [magic u32][version u32][count u64], then per
  // token [length u32][bytes].
  constexpr size_t kFirstEntryOffset = 4 + 4 + 8;
  size_t end = kFirstEntryOffset;
  for (int token = 0; token < 2; ++token) {
    uint32_t length = 0;
    std::memcpy(&length, dict.data() + end, sizeof(length));
    end += sizeof(length) + length;
  }
  dict.resize(end);
  const uint64_t count = 2;
  std::memcpy(dict.data() + 8, &count, sizeof(count));
  auto repo = LoadFromBytes(JoinV3(file));
  ASSERT_FALSE(repo.ok());
  EXPECT_NE(repo.status().message().find("beyond the dictionary"),
            std::string::npos)
      << repo.status().ToString();
}

TEST(CorruptionMatrixTest, EmbeddingRowBeyondDictionaryRejected) {
  // The golden dictionary has 10 tokens: a row for token 10 must not load.
  V3File file = GoldenV3();
  SetRowToken(&file.payloads[kEmbeddings], 0, 10);
  auto repo = LoadFromBytes(JoinV3(file));
  ASSERT_FALSE(repo.ok());
  EXPECT_NE(repo.status().message().find("outside the dictionary"),
            std::string::npos)
      << repo.status().ToString();
}

TEST(CorruptionMatrixTest, DuplicateEmbeddingRowRejected) {
  // Row 1 relabelled with row 0's token: two rows for one token.
  V3File file = GoldenV3();
  std::string& payload = file.payloads[kEmbeddings];
  TokenId first = 0;
  std::memcpy(&first, payload.data() + EmbeddingRowOffset(payload, 0),
              sizeof(first));
  SetRowToken(&payload, 1, first);
  auto repo = LoadFromBytes(JoinV3(file));
  ASSERT_FALSE(repo.ok());
  EXPECT_NE(repo.status().message().find("duplicate"), std::string::npos)
      << repo.status().ToString();
}

TEST(CorruptionMatrixTest, LegacyTierFlagIsIgnoredOnLoad) {
  // Embedding stream v2 carries a flag byte after the row count; earlier
  // writers set it to mark a stored int8 tier. The golden file sets it,
  // and the same file with it cleared loads the same rows.
  V3File file = GoldenV3();
  std::string& payload = file.payloads[kEmbeddings];
  uint32_t version = 0;
  std::memcpy(&version, payload.data() + 4, sizeof(version));
  ASSERT_EQ(version, 2u);
  ASSERT_EQ(payload[kEmbeddingFlagOffset], 1);
  auto flagged = LoadFromBytes(JoinV3(file));
  payload[kEmbeddingFlagOffset] = 0;
  auto cleared = LoadFromBytes(JoinV3(file));
  ASSERT_TRUE(flagged.ok()) << flagged.status().ToString();
  ASSERT_TRUE(cleared.ok()) << cleared.status().ToString();
  const auto& a = flagged.value().store;
  const auto& b = cleared.value().store;
  EXPECT_EQ(a.dim(), b.dim());
  ASSERT_EQ(a.covered(), b.covered());
  const auto a_rows = a.RowData();
  const auto b_rows = b.RowData();
  EXPECT_TRUE(std::equal(a_rows.begin(), a_rows.end(), b_rows.begin(),
                         b_rows.end()));
  const auto a_table = a.RowTable();
  const auto b_table = b.RowTable();
  EXPECT_TRUE(std::equal(a_table.begin(), a_table.end(), b_table.begin(),
                         b_table.end()));
}

TEST(CorruptionMatrixTest, LegacyV1StillLoads) {
  // Mixed-version fleet: files written by the unframed v1 writer keep
  // loading (without checksum protection), including the flag byte
  // inside the embedding section.
  const std::string v1_path = GoldenPath("golden_v1.repo");
  auto repo = LoadRepository(v1_path);
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  EXPECT_TRUE(repo.value().has_embeddings);
  EXPECT_EQ(repo.value().sets.size(), 5u);
  EXPECT_EQ(repo.value().dict.size(), 10u);
  // Truncating a legacy file anywhere must still fail cleanly (bounded
  // allocation, no checksums needed for that guarantee).
  const std::string bytes = FileBytes(v1_path);
  ASSERT_FALSE(bytes.empty());
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(LoadFromBytes(bytes.substr(0, len)).ok())
        << "v1 truncation to " << len << " bytes loaded";
  }
}

}  // namespace
}  // namespace koios::io
