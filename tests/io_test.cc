// Tests for the persistence layer: .vec loading and binary repository
// serialization round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "koios/core/searcher.h"
#include "koios/embedding/vec_loader.h"
#include "koios/io/serialization.h"
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

// ---------------------------------------------------------- serialization --

TEST(SerializationTest, DictionaryRoundTrip) {
  text::Dictionary dict;
  dict.Intern("alpha");
  dict.Intern("beta gamma");  // spaces survive binary framing
  dict.Intern("");
  std::stringstream buffer;
  ASSERT_TRUE(SaveDictionary(dict, buffer).ok());
  auto loaded = LoadDictionary(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().size(), 3u);
  EXPECT_EQ(loaded.value().TokenOf(1), "beta gamma");
  EXPECT_EQ(loaded.value().Lookup("alpha"), 0u);
}

TEST(SerializationTest, SetCollectionRoundTrip) {
  index::SetCollection sets;
  sets.AddSet(std::vector<TokenId>{3, 1, 2});
  sets.AddSet(std::vector<TokenId>{});
  sets.AddSet(std::vector<TokenId>{7});
  std::stringstream buffer;
  ASSERT_TRUE(SaveSetCollection(sets, buffer).ok());
  auto loaded = LoadSetCollection(buffer);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 3u);
  EXPECT_EQ(loaded.value().SetSize(0), 3u);
  EXPECT_EQ(loaded.value().SetSize(1), 0u);
  EXPECT_EQ(loaded.value().Tokens(2)[0], 7u);
}

TEST(SerializationTest, EmbeddingStoreRoundTrip) {
  embedding::EmbeddingStore store(3);
  store.Add(2, std::vector<float>{1.0f, 2.0f, 2.0f});
  store.Add(5, std::vector<float>{0.0f, 1.0f, 0.0f});
  std::stringstream buffer;
  ASSERT_TRUE(SaveEmbeddingStore(store, 10, buffer).ok());
  auto loaded = LoadEmbeddingStore(buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().covered(), 2u);
  EXPECT_TRUE(loaded.value().Has(2));
  EXPECT_TRUE(loaded.value().Has(5));
  EXPECT_FALSE(loaded.value().Has(3));
  EXPECT_NEAR(loaded.value().Cosine(2, 5), store.Cosine(2, 5), 1e-6);
}

TEST(SerializationTest, LegacyTierFlagIsIgnoredOnLoad) {
  // Embedding stream v2 carries a flag byte after the row count. Earlier
  // writers set it to mark a stored int8 tier; the writer now stores 0 and
  // the loader ignores the byte, so a payload that sets it still loads
  // with the same rows.
  embedding::EmbeddingStore store(4);
  store.Add(0, std::vector<float>{0.9f, 0.1f, -0.3f, 0.2f});
  store.Add(1, std::vector<float>{-0.2f, 0.8f, 0.5f, 0.1f});
  store.Add(3, std::vector<float>{0.4f, -0.4f, 0.6f, -0.5f});
  std::stringstream buffer;
  ASSERT_TRUE(SaveEmbeddingStore(store, 10, buffer).ok());
  std::string bytes = buffer.str();
  // [magic u32][version u32][dim u64][rows u64][flag u8]
  constexpr size_t kVersionOffset = 4;
  constexpr size_t kFlagOffset = 4 + 4 + 8 + 8;
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + kVersionOffset, sizeof(version));
  ASSERT_EQ(version, 2u);
  ASSERT_EQ(bytes[kFlagOffset], 0) << "the writer must leave the flag 0";
  bytes[kFlagOffset] = 1;

  std::stringstream flagged(bytes);
  auto loaded = LoadEmbeddingStore(flagged);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().dim(), store.dim());
  ASSERT_EQ(loaded.value().covered(), store.covered());
  const auto got_rows = loaded.value().RowData();
  const auto want_rows = store.RowData();
  EXPECT_TRUE(std::equal(got_rows.begin(), got_rows.end(), want_rows.begin()));
  const auto got_table = loaded.value().RowTable();
  const auto want_table = store.RowTable();
  EXPECT_TRUE(std::equal(got_table.begin(), got_table.end(),
                         want_table.begin(), want_table.end()));
}

TEST(SerializationTest, CorruptMagicRejected) {
  std::stringstream buffer;
  buffer << "garbage bytes here and more of them";
  EXPECT_FALSE(LoadDictionary(buffer).ok());
}

TEST(SerializationTest, RepositoryFileRoundTripAndSearch) {
  // Full integration: save a workload to disk, reload, search, and compare
  // against searching the original.
  auto w = testing::MakeRandomWorkload(60, 300, 5, 15, 7001);
  text::Dictionary dict;
  for (TokenId t = 0; t < 300; ++t) dict.Intern("tok" + std::to_string(t));

  const std::string path = ::testing::TempDir() + "/koios_repo.bin";
  ASSERT_TRUE(SaveRepository(dict, w.corpus.sets, &w.model->store(), path).ok());
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

TEST(SerializationTest, RepositoryWithoutEmbeddings) {
  text::Dictionary dict;
  dict.Intern("a");
  index::SetCollection sets;
  sets.AddSet(std::vector<TokenId>{0});
  const std::string path = ::testing::TempDir() + "/koios_repo_noemb.bin";
  ASSERT_TRUE(SaveRepository(dict, sets, nullptr, path).ok());
  auto repo = LoadRepository(path);
  ASSERT_TRUE(repo.ok());
  EXPECT_FALSE(repo.value().has_embeddings);
  std::remove(path.c_str());
}

// ------------------------------------------------- corruption robustness --
//
// The v3 container is designed so that EVERY byte-level corruption — any
// truncation, any single bit flip — surfaces as a clean error Status. The
// tests below enforce that exhaustively on a small repository file rather
// than spot-checking a few hand-picked offsets: the file is a few hundred
// bytes, so the full sweep is cheap and leaves no unexamined position.

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(static_cast<bool>(out)) << path;
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

/// A small but complete repository (dictionary + sets + embeddings) saved
/// to bytes via the real writer.
std::string TinyRepositoryBytes(bool with_embeddings, uint64_t seed = 11,
                                size_t vocab = 8) {
  text::Dictionary dict;
  for (TokenId t = 0; t < vocab; ++t) dict.Intern("t" + std::to_string(t));
  index::SetCollection sets;
  sets.AddSet(std::vector<TokenId>{0, 2, static_cast<TokenId>(vocab - 1)});
  sets.AddSet(std::vector<TokenId>{1, 3});
  embedding::EmbeddingStore store(3);
  for (TokenId t = 0; t < vocab; ++t) {
    const float x = static_cast<float>((seed + t) % 7) + 0.5f;
    store.Add(t, std::vector<float>{x, 1.0f / x, static_cast<float>(t)});
  }
  const std::string path = ::testing::TempDir() + "/koios_tiny_repo.bin";
  EXPECT_TRUE(
      SaveRepository(dict, sets, with_embeddings ? &store : nullptr, path)
          .ok());
  std::string bytes = FileBytes(path);
  std::remove(path.c_str());
  return bytes;
}

TEST(CorruptionMatrixTest, EveryTruncationReturnsError) {
  const std::string bytes = TinyRepositoryBytes(/*with_embeddings=*/true);
  ASSERT_GT(bytes.size(), 9u);
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
    const std::string bytes = TinyRepositoryBytes(with_embeddings);
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
  std::string bytes = TinyRepositoryBytes(/*with_embeddings=*/true);
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
  std::string bytes = TinyRepositoryBytes(/*with_embeddings=*/true);
  bytes.push_back('\0');
  EXPECT_FALSE(LoadFromBytes(bytes).ok());
}

TEST(CorruptionMatrixTest, MixedGenerationSpliceRejected) {
  // Two individually valid repositories from different "generations": A
  // has a 2-token dictionary, B's sets reference token ids up to 11. A
  // file spliced from A's dictionary frame and B's sets frame has
  // perfectly valid checksums on both sections — only the cross-artifact
  // validation can catch it.
  const std::string a = TinyRepositoryBytes(false, /*seed=*/1, /*vocab=*/2);
  const std::string b = TinyRepositoryBytes(false, /*seed=*/2, /*vocab=*/12);
  constexpr size_t kHeader = 9;   // magic u32 + version u32 + has_embeddings u8
  constexpr size_t kFrame = 12;   // length u64 + crc u32
  auto frame_end = [&](const std::string& bytes, size_t start) {
    uint64_t length = 0;
    std::memcpy(&length, bytes.data() + start, sizeof(length));
    return start + kFrame + static_cast<size_t>(length);
  };
  const size_t a_dict_end = frame_end(a, kHeader);
  const size_t b_dict_end = frame_end(b, kHeader);
  std::string spliced = a.substr(0, a_dict_end) + b.substr(b_dict_end);
  auto repo = LoadFromBytes(spliced);
  ASSERT_FALSE(repo.ok());
  EXPECT_NE(repo.status().message().find("beyond the dictionary"),
            std::string::npos);
}

TEST(CorruptionMatrixTest, EmbeddingRowBeyondBoundRejected) {
  embedding::EmbeddingStore store(2);
  store.Add(5, std::vector<float>{1.0f, 0.0f});
  std::stringstream buffer;
  ASSERT_TRUE(SaveEmbeddingStore(store, 10, buffer).ok());
  // Unbounded load accepts it; a repository whose dictionary has only 3
  // tokens must not.
  auto unbounded = LoadEmbeddingStore(buffer);
  EXPECT_TRUE(unbounded.ok());
  buffer.clear();
  buffer.seekg(0);
  auto bounded = LoadEmbeddingStore(buffer, /*token_id_bound=*/3);
  ASSERT_FALSE(bounded.ok());
  EXPECT_NE(bounded.status().message().find("outside the dictionary"),
            std::string::npos);
}

TEST(CorruptionMatrixTest, DuplicateEmbeddingRowRejected) {
  // The writer cannot produce a duplicate row, so craft the stream by
  // saving one row and repeating its bytes with the row count bumped.
  embedding::EmbeddingStore store(2);
  store.Add(1, std::vector<float>{0.5f, 0.5f});
  std::stringstream buffer;
  ASSERT_TRUE(SaveEmbeddingStore(store, 4, buffer).ok());
  std::string bytes = buffer.str();
  // Layout: magic u32, version u32, dim u64, rows u64, flag u8, rows.
  const size_t row_start = 4 + 4 + 8 + 8 + 1;
  const std::string row = bytes.substr(row_start);
  uint64_t rows = 2;
  bytes.replace(4 + 4 + 8, sizeof(rows),
                reinterpret_cast<const char*>(&rows), sizeof(rows));
  bytes += row;
  std::istringstream doubled(bytes);
  auto loaded = LoadEmbeddingStore(doubled);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("duplicate"), std::string::npos);
}

TEST(CorruptionMatrixTest, LegacyV1StillLoads) {
  // Mixed-version fleet: files written by the unframed v1 writer keep
  // loading (without checksum protection), including the flag byte
  // inside the embedding section. No writer emits v1, so the checked-in
  // fixture is the file under test.
  const std::string v1_path =
      std::string(KOIOS_TESTDATA_DIR) + "/golden_v1.repo";
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

TEST(CorruptionMatrixTest, SaveLeavesNoTempFileBehind) {
  text::Dictionary dict;
  dict.Intern("a");
  index::SetCollection sets;
  sets.AddSet(std::vector<TokenId>{0});
  const std::string path = ::testing::TempDir() + "/koios_atomic_repo.bin";
  ASSERT_TRUE(SaveRepository(dict, sets, nullptr, path).ok());
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(static_cast<bool>(tmp)) << "temp file left behind";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace koios::io
