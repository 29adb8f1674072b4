// Tests for the v4 zero-copy mmap repository format: round trips, the
// borrowed-storage contract, the exhaustive corruption matrix (every
// truncation, every single-bit flip), and golden-file compatibility across
// container generations, including a v4 file with the legacy int8 sections.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "koios/core/searcher.h"
#include "koios/io/repository_v4.h"
#include "koios/io/serialization.h"
#include "koios/serve/snapshot.h"
#include "koios/util/crc32.h"

namespace koios::io {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

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

/// The deterministic fixture corpus every test here shares (and the same
/// shape the checked-in golden files were generated from — see
/// tests/testdata/README.md): 10 tokens, 5 sets, dim-4 embeddings, all
/// hand-seeded with no RNG.
struct Fixture {
  text::Dictionary dict;
  index::SetCollection sets;
  embedding::EmbeddingStore store{4};
};

Fixture MakeFixture() {
  Fixture f;
  for (int t = 0; t < 10; ++t) f.dict.Intern("token_" + std::to_string(t));
  f.sets.AddSet(std::vector<TokenId>{0, 1, 2});
  f.sets.AddSet(std::vector<TokenId>{2, 3, 4, 5});
  f.sets.AddSet(std::vector<TokenId>{5, 6});
  f.sets.AddSet(std::vector<TokenId>{0, 7, 8, 9});
  f.sets.AddSet(std::vector<TokenId>{1, 4, 9});
  for (TokenId t = 0; t < 10; ++t) {
    if (t == 6) continue;  // one OOV token
    const float a = 1.0f + static_cast<float>(t);
    f.store.Add(t, std::vector<float>{a, 1.0f / a, 0.25f * a,
                                      static_cast<float>(t % 3)});
  }
  return f;
}

/// The two feature shapes the v4 writer produces.
enum class V4Variant { kFull, kNoEmbeddings };

std::string V4Bytes(V4Variant variant = V4Variant::kFull) {
  Fixture f = MakeFixture();
  const embedding::EmbeddingStore* store =
      variant == V4Variant::kFull ? &f.store : nullptr;
  const std::string path = TempPath("v4_fixture.repo");
  EXPECT_TRUE(SaveRepositoryV4(f.dict, f.sets, store, path).ok());
  std::string bytes = FileBytes(path);
  std::remove(path.c_str());
  return bytes;
}

std::string GoldenPath(const char* name) {
  return std::string(KOIOS_TESTDATA_DIR) + "/" + name;
}

/// Every v4 layout the corruption matrices cover: both shapes the writer
/// produces, plus the checked-in files from earlier writers: one with the
/// legacy int8 sections 8-11, one with sections 1-7 and no postings.
std::vector<std::pair<std::string, std::string>> AllV4Files() {
  return {{"written, full", V4Bytes(V4Variant::kFull)},
          {"written, no embeddings", V4Bytes(V4Variant::kNoEmbeddings)},
          {"golden_v4.repo", FileBytes(GoldenPath("golden_v4.repo"))},
          {"golden_v4_unranked.repo",
           FileBytes(GoldenPath("golden_v4_unranked.repo"))}};
}

bool IsLegacySection(uint32_t kind) {
  return kind == kQuantCodes || kind == kQuantScales ||
         kind == kQuantOffsets || kind == kQuantSums;
}

/// Opens `bytes` as a v4 file and borrows EVERYTHING (dict, sets,
/// embeddings, vocabulary) — the full lazy-validation surface.
util::Status OpenAndBorrowAll(const std::string& bytes, bool verify) {
  const std::string path = TempPath("v4_mutated.repo");
  WriteBytes(path, bytes);
  auto view = MmapRepositoryView::Open(path, MmapOptions{.verify = verify});
  std::remove(path.c_str());
  if (!view.ok()) return view.status();
  auto dict = view.value()->BorrowDictionary();
  if (!dict.ok()) return dict.status();
  auto sets = view.value()->BorrowSets();
  if (!sets.ok()) return sets.status();
  auto vocab = view.value()->Vocabulary();
  if (!vocab.ok()) return vocab.status();
  if (view.value()->has_embeddings()) {
    auto store = view.value()->BorrowEmbeddings();
    if (!store.ok()) return store.status();
  }
  if (view.value()->has_postings()) {
    auto postings = view.value()->BorrowPostings(sets.value());
    if (!postings.ok()) return postings.status();
  }
  return util::Status::OK();
}

/// The section table of v4 `bytes`.
std::vector<SectionEntry> SectionTable(const std::string& bytes) {
  V4Header header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  std::vector<SectionEntry> table(header.section_count);
  std::memcpy(table.data(), bytes.data() + sizeof(header),
              table.size() * sizeof(SectionEntry));
  return table;
}

/// Recomputes every section CRC and the header CRC of v4 `bytes` after an
/// edit, so the edit reaches the checks behind the checksums.
void Reframe(std::string* bytes) {
  std::vector<SectionEntry> table = SectionTable(*bytes);
  for (SectionEntry& e : table) {
    e.crc = util::Crc32(bytes->data() + e.offset, e.length);
  }
  V4Header header;
  std::memcpy(&header, bytes->data(), sizeof(header));
  header.header_crc = 0;
  header.header_crc = util::Crc32(
      table.data(), table.size() * sizeof(SectionEntry),
      util::Crc32(&header, sizeof(header)));
  std::memcpy(bytes->data(), &header, sizeof(header));
  std::memcpy(bytes->data() + sizeof(header), table.data(),
              table.size() * sizeof(SectionEntry));
}

/// Element `i` of section `kind` of v4 `bytes`, as a T.
template <typename T>
T* SectionElement(std::string* bytes, SectionKind kind, size_t i) {
  for (const SectionEntry& e : SectionTable(*bytes)) {
    if (e.kind == kind) {
      return reinterpret_cast<T*>(bytes->data() + e.offset) + i;
    }
  }
  ADD_FAILURE() << "no section " << kind;
  return nullptr;
}

// ------------------------------------------------------------ round trip --

TEST(RepositoryV4Test, BorrowedRoundTripMatchesOriginal) {
  Fixture f = MakeFixture();
  const std::string path = TempPath("v4_roundtrip.repo");
  ASSERT_TRUE(SaveRepositoryV4(f.dict, f.sets, &f.store, path).ok());

  auto view = MmapRepositoryView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto dict = view.value()->BorrowDictionary();
  ASSERT_TRUE(dict.ok()) << dict.status().ToString();
  EXPECT_TRUE(dict.value().borrowed());
  ASSERT_EQ(dict.value().size(), f.dict.size());
  for (TokenId t = 0; t < f.dict.size(); ++t) {
    EXPECT_EQ(dict.value().TokenOf(t), f.dict.TokenOf(t));
    EXPECT_EQ(dict.value().Lookup(f.dict.TokenOf(t)), t);
  }

  auto sets = view.value()->BorrowSets();
  ASSERT_TRUE(sets.ok()) << sets.status().ToString();
  EXPECT_TRUE(sets.value().borrowed());
  ASSERT_EQ(sets.value().size(), f.sets.size());
  EXPECT_EQ(sets.value().TokenIdBound(), f.sets.TokenIdBound());
  for (SetId s = 0; s < f.sets.size(); ++s) {
    const auto got = sets.value().Tokens(s);
    const auto want = f.sets.Tokens(s);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
  }

  auto store = view.value()->BorrowEmbeddings();
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE(store.value().borrowed());
  EXPECT_EQ(store.value().dim(), f.store.dim());
  EXPECT_EQ(store.value().covered(), f.store.covered());
  for (TokenId a = 0; a < 10; ++a) {
    EXPECT_EQ(store.value().Has(a), f.store.Has(a));
    for (TokenId b = 0; b < 10; ++b) {
      // Bit-identical, not approximately equal: same bytes, same kernel.
      EXPECT_EQ(store.value().Cosine(a, b), f.store.Cosine(a, b));
    }
  }

  auto vocab = view.value()->Vocabulary();
  ASSERT_TRUE(vocab.ok());
  const std::vector<TokenId> expected_vocab = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  ASSERT_EQ(vocab.value().size(), expected_vocab.size());
  EXPECT_TRUE(std::equal(vocab.value().begin(), vocab.value().end(),
                         expected_vocab.begin()));
  std::remove(path.c_str());
}

TEST(RepositoryV4Test, PostingSectionsHoldTheRankedIndex) {
  // The writer stores the collection's size-ranked lists; the borrowed
  // index answers as one built from the sets, with the rank order derived
  // from the set sizes.
  Fixture f = MakeFixture();
  const std::string path = TempPath("v4_postings.repo");
  ASSERT_TRUE(SaveRepositoryV4(f.dict, f.sets, &f.store, path).ok());
  auto view = MmapRepositoryView::Open(path, MmapOptions{.verify = true});
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_TRUE(view.value()->has_postings());
  auto sets = view.value()->BorrowSets();
  ASSERT_TRUE(sets.ok());
  auto postings = view.value()->BorrowPostings(sets.value());
  ASSERT_TRUE(postings.ok()) << postings.status().ToString();
  const index::InvertedIndex built(f.sets);
  const index::InvertedIndex& borrowed = postings.value();
  // Sets 1 and 3 hold four elements, 0 and 4 three, 2 two.
  const std::vector<SetId> by_rank = {1, 3, 0, 4, 2};
  ASSERT_EQ(borrowed.num_sets(), by_rank.size());
  for (uint32_t rank = 0; rank < by_rank.size(); ++rank) {
    EXPECT_EQ(borrowed.SetAt(rank), by_rank[rank]);
  }
  EXPECT_TRUE(std::ranges::equal(borrowed.Offsets(), built.Offsets()));
  EXPECT_TRUE(std::ranges::equal(borrowed.Ranks(), built.Ranks()));
  // The snapshot hands the borrowed lists to its engines.
  auto snap = serve::Snapshot::Load(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ASSERT_NE(snap.value()->postings(), nullptr);
  EXPECT_TRUE(std::ranges::equal(snap.value()->postings()->Ranks(),
                                 built.Ranks()));
  std::remove(path.c_str());
}

TEST(RepositoryV4Test, LoadRepositoryMaterializesV4) {
  // The stream-compat entry point must route v4 files through the mmap
  // view and hand back fully OWNED artifacts.
  Fixture f = MakeFixture();
  const std::string path = TempPath("v4_materialize.repo");
  ASSERT_TRUE(SaveRepositoryV4(f.dict, f.sets, &f.store, path).ok());
  auto repo = LoadRepository(path);
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  EXPECT_FALSE(repo.value().dict.borrowed());
  EXPECT_FALSE(repo.value().sets.borrowed());
  EXPECT_FALSE(repo.value().store.borrowed());
  EXPECT_EQ(repo.value().dict.size(), f.dict.size());
  EXPECT_EQ(repo.value().sets.size(), f.sets.size());
  ASSERT_TRUE(repo.value().has_embeddings);
  for (TokenId a = 0; a < 10; ++a) {
    for (TokenId b = 0; b < 10; ++b) {
      EXPECT_EQ(repo.value().store.Cosine(a, b), f.store.Cosine(a, b));
    }
  }
  std::remove(path.c_str());
}

TEST(RepositoryV4Test, EmbeddinglessRepositoryRoundTrips) {
  Fixture f = MakeFixture();
  const std::string path = TempPath("v4_noembed.repo");
  ASSERT_TRUE(SaveRepositoryV4(f.dict, f.sets, nullptr, path).ok());
  auto view = MmapRepositoryView::Open(path, MmapOptions{.verify = true});
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_FALSE(view.value()->has_embeddings());
  EXPECT_FALSE(view.value()->BorrowEmbeddings().ok());
  EXPECT_TRUE(view.value()->BorrowSets().ok());
  auto repo = LoadRepository(path);
  ASSERT_TRUE(repo.ok());
  EXPECT_FALSE(repo.value().has_embeddings);
  std::remove(path.c_str());
}

TEST(RepositoryV4Test, SaveIsAtomic) {
  // A v4 save over an existing repository file must leave the original
  // intact until the rename, and no temp file behind (a failed save is
  // IoFaultTest.FailedSaveLeavesPreviousFileIntact).
  Fixture f = MakeFixture();
  const std::string path = TempPath("v4_atomic.repo");
  ASSERT_TRUE(SaveRepositoryV4(f.dict, f.sets, &f.store, path).ok());
  const std::string original = FileBytes(path);
  ASSERT_TRUE(SaveRepositoryV4(f.dict, f.sets, &f.store, path).ok());
  EXPECT_EQ(FileBytes(path), original) << "deterministic writer";
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(static_cast<bool>(tmp)) << "temp file left behind";
  std::remove(path.c_str());
}

// ------------------------------------------------------ corruption matrix --

TEST(V4CorruptionMatrixTest, EveryTruncationReturnsError) {
  // Every strict prefix must come back as a clean error — in BOTH lazy
  // and eager modes, for every feature shape, and in particular without
  // a SIGBUS from mapping a short file (the structural pass checks the
  // exact size before any section byte is dereferenced).
  for (const auto& [name, bytes] : AllV4Files()) {
    ASSERT_GT(bytes.size(), 64u) << name;
    for (size_t len = 0; len < bytes.size(); ++len) {
      const std::string prefix = bytes.substr(0, len);
      EXPECT_FALSE(OpenAndBorrowAll(prefix, /*verify=*/false).ok())
          << name << ": lazy load of truncation to " << len
          << " bytes succeeded";
      EXPECT_FALSE(OpenAndBorrowAll(prefix, /*verify=*/true).ok())
          << name << ": eager load of truncation to " << len
          << " bytes succeeded";
    }
    EXPECT_TRUE(OpenAndBorrowAll(bytes, /*verify=*/false).ok()) << name;
    EXPECT_TRUE(OpenAndBorrowAll(bytes, /*verify=*/true).ok()) << name;
  }
}

TEST(V4CorruptionMatrixTest, EverySingleBitFlipFailsEagerVerification) {
  // Eager mode checksums every section (bulk arenas included), so EVERY
  // single-bit flip anywhere in the file — header, section table, arena
  // padding, offset tables, data, legacy sections — must surface as a
  // clean error Status, for every layout.
  for (const auto& [name, bytes] : AllV4Files()) {
    for (size_t pos = 0; pos < bytes.size(); ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mutated = bytes;
        mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
        auto status = OpenAndBorrowAll(mutated, /*verify=*/true);
        EXPECT_FALSE(status.ok()) << name << ": bit " << bit << " at byte "
                                  << pos << " loaded eagerly";
      }
    }
  }
}

TEST(V4CorruptionMatrixTest, LazyModeCatchesStructuralAndMetadataFlips) {
  // Lazy mode skips the bulk-arena CRCs by design (that is the load-time
  // win). Everything BEFORE the first section — header, section table,
  // the padding gap — plus every metadata section is still fully
  // protected at open/borrow time; enforce the matrix over that region.
  // The legacy sections 8-11 are skipped too: nothing borrows them, so
  // only eager verification reads them.
  for (const auto& [name, bytes] : AllV4Files()) {
    V4Header header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    std::vector<SectionEntry> table(header.section_count);
    std::memcpy(table.data(), bytes.data() + sizeof(header),
                table.size() * sizeof(SectionEntry));
    const size_t first_section = table.front().offset;
    for (size_t pos = 0; pos < first_section; ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mutated = bytes;
        mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
        EXPECT_FALSE(OpenAndBorrowAll(mutated, /*verify=*/false).ok())
            << name << ": bit " << bit << " at pre-section byte " << pos
            << " loaded lazily";
      }
    }
    for (const SectionEntry& e : table) {
      if (e.kind == kSetTokens || e.kind == kEmbedData ||
          e.kind == kPostingRanks || IsLegacySection(e.kind)) {
        continue;
      }
      for (uint64_t pos = e.offset; pos < e.offset + e.length; ++pos) {
        std::string mutated = bytes;
        mutated[pos] = static_cast<char>(mutated[pos] ^ 1);
        EXPECT_FALSE(OpenAndBorrowAll(mutated, /*verify=*/false).ok())
            << name << ": flip in metadata section " << e.kind << " at "
            << pos << " loaded lazily";
      }
    }
  }
}

TEST(V4CorruptionMatrixTest, PostingOffsetsCheckedOnBorrow) {
  // Re-framed, so the CRCs hold: the lazy tier must still see offsets
  // that fall or that do not end at the rank arena's length.
  const std::string bytes = V4Bytes();
  std::string falling = bytes;
  std::swap(*SectionElement<uint64_t>(&falling, kPostingOffsets, 3),
            *SectionElement<uint64_t>(&falling, kPostingOffsets, 4));
  Reframe(&falling);
  auto status = OpenAndBorrowAll(falling, /*verify=*/false);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("not monotone"), std::string::npos)
      << status.ToString();
  std::string short_end = bytes;
  *SectionElement<uint64_t>(&short_end, kPostingOffsets, 10) -= 1;
  Reframe(&short_end);
  status = OpenAndBorrowAll(short_end, /*verify=*/false);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("do not span"), std::string::npos)
      << status.ToString();
}

TEST(V4CorruptionMatrixTest, EagerVerificationProvesPostingsTheTranspose) {
  // Each edit keeps every CRC and the offsets valid, so a lazy open serves
  // it; eager verification must name what is wrong. Fixture lists, in
  // ranks (sets 1, 3, 0, 4, 2): token 0 -> {1, 2}, token 3 -> {0},
  // token 4 -> {0, 3}.
  struct Edit {
    const char* what;
    std::function<void(std::string*)> apply;
  };
  auto rank = [](std::string* b, size_t i) {
    return SectionElement<uint32_t>(b, kPostingRanks, i);
  };
  auto offset = [](std::string* b, size_t t) {
    return SectionElement<uint64_t>(b, kPostingOffsets, t);
  };
  const Edit edits[] = {
      {"not strictly ascending",
       [&](std::string* b) { std::swap(*rank(b, 0), *rank(b, 1)); }},
      {"beyond the set count",
       [&](std::string* b) { *rank(b, *offset(b, 3)) = 5; }},
      {"without its token",  // the set at rank 1 (set 3) lacks token 3
       [&](std::string* b) { *rank(b, *offset(b, 3)) = 1; }},
      {"length differs",  // token 3 -> {0, 3}, token 4 -> {3}
       [&](std::string* b) {
         const uint64_t start = *offset(b, 3);
         *rank(b, start + 1) = 3;
         *offset(b, 4) += 1;
       }},
  };
  for (const Edit& edit : edits) {
    std::string bytes = V4Bytes();
    edit.apply(&bytes);
    Reframe(&bytes);
    EXPECT_TRUE(OpenAndBorrowAll(bytes, /*verify=*/false).ok()) << edit.what;
    const auto status = OpenAndBorrowAll(bytes, /*verify=*/true);
    ASSERT_FALSE(status.ok()) << edit.what;
    EXPECT_NE(status.message().find(edit.what), std::string::npos)
        << status.ToString();
  }
}

TEST(V4CorruptionMatrixTest, TrailingBytesRejected) {
  std::string bytes = V4Bytes();
  bytes.push_back('\0');
  EXPECT_FALSE(OpenAndBorrowAll(bytes, /*verify=*/false).ok());
}

TEST(V4CorruptionMatrixTest, EmptyAndForeignFilesRejected) {
  EXPECT_FALSE(OpenAndBorrowAll("", false).ok());
  EXPECT_FALSE(OpenAndBorrowAll(std::string(4096, 'x'), false).ok());
  EXPECT_FALSE(OpenAndBorrowAll(std::string(4096, '\0'), false).ok());
}

// ---------------------------------------------------------- golden files --

/// What the checked-in golden repositories contain (they were written by
/// earlier versions of this repo's own savers from MakeFixture()'s corpus
/// — see tests/testdata/README.md for their recipes).
void ExpectFixtureContents(const LoadedRepository& repo) {
  const Fixture f = MakeFixture();
  ASSERT_EQ(repo.dict.size(), f.dict.size());
  for (TokenId t = 0; t < f.dict.size(); ++t) {
    EXPECT_EQ(repo.dict.TokenOf(t), f.dict.TokenOf(t));
  }
  ASSERT_EQ(repo.sets.size(), f.sets.size());
  for (SetId s = 0; s < f.sets.size(); ++s) {
    const auto got = repo.sets.Tokens(s);
    const auto want = f.sets.Tokens(s);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
  }
  ASSERT_TRUE(repo.has_embeddings);
  for (TokenId a = 0; a < 10; ++a) {
    for (TokenId b = 0; b < 10; ++b) {
      EXPECT_EQ(repo.store.Cosine(a, b), f.store.Cosine(a, b));
    }
  }
}

TEST(GoldenCompatTest, V1GoldenStillLoads) {
  auto repo = LoadRepository(GoldenPath("golden_v1.repo"));
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  ExpectFixtureContents(repo.value());
}

TEST(GoldenCompatTest, V3GoldenStillLoads) {
  auto repo = LoadRepository(GoldenPath("golden_v3.repo"));
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  ExpectFixtureContents(repo.value());
}

TEST(GoldenCompatTest, V2IsRejected) {
  // v2 never shipped: a v3 body with the version byte patched to 2 must
  // be rejected by name, exactly like any other unknown version.
  std::string bytes = FileBytes(GoldenPath("golden_v3.repo"));
  ASSERT_GE(bytes.size(), 5u);
  bytes[4] = 2;
  const std::string path = TempPath("golden_v2.repo");
  WriteBytes(path, bytes);
  auto repo = LoadRepository(path);
  std::remove(path.c_str());
  ASSERT_FALSE(repo.ok());
  EXPECT_NE(repo.status().message().find("version"), std::string::npos);
}

TEST(GoldenCompatTest, V4GoldenWithLegacyTierStillLoads) {
  // Written by an earlier v4 writer: has_quantized set, sections 8-11
  // present. The owned loader materializes it like any other v4 file.
  auto view = MmapRepositoryView::Open(GoldenPath("golden_v4.repo"));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_NE(view.value()->header().has_quantized, 0);
  EXPECT_EQ(view.value()->header().section_count, 11u);
  // No posting sections: its engines build the lists themselves.
  EXPECT_FALSE(view.value()->has_postings());
  auto sets = view.value()->BorrowSets();
  ASSERT_TRUE(sets.ok());
  EXPECT_FALSE(view.value()->BorrowPostings(sets.value()).ok());
  auto repo = LoadRepository(GoldenPath("golden_v4.repo"));
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  ExpectFixtureContents(repo.value());
}

TEST(GoldenCompatTest, V4GoldenWithoutPostingsStillLoads) {
  // Written by the writer before the posting sections: sections 1-7 only.
  auto view = MmapRepositoryView::Open(GoldenPath("golden_v4_unranked.repo"));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view.value()->header().section_count, 7u);
  EXPECT_FALSE(view.value()->has_postings());
  auto repo = LoadRepository(GoldenPath("golden_v4_unranked.repo"));
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  ExpectFixtureContents(repo.value());
}

/// A searcher over `snap` as an engine would make it: through the
/// snapshot's own ranked postings when it carries them.
core::KoiosSearcher SearcherOf(const serve::Snapshot& snap) {
  if (snap.postings() != nullptr) {
    return core::KoiosSearcher(&snap.sets(), snap.index(), snap.postings());
  }
  return core::KoiosSearcher(&snap.sets(), snap.index());
}

/// Serves `a` and `b` through real searchers and compares full top-k
/// results bit for bit (set ids, scores, exact flags) over every fixture
/// set as a query at three thresholds.
void ExpectSameTopK(const serve::Snapshot& a, const serve::Snapshot& b) {
  const core::KoiosSearcher a_searcher = SearcherOf(a);
  const core::KoiosSearcher b_searcher = SearcherOf(b);
  core::SearchParams params;
  params.k = 3;
  const Fixture f = MakeFixture();
  for (const Score alpha : {0.5, 0.7, 0.9}) {
    params.alpha = alpha;
    for (SetId s = 0; s < f.sets.size(); ++s) {
      const auto tokens = f.sets.Tokens(s);
      const std::vector<TokenId> query(tokens.begin(), tokens.end());
      const auto a_result = a_searcher.Search(query, params);
      const auto b_result = b_searcher.Search(query, params);
      ASSERT_EQ(a_result.topk.size(), b_result.topk.size());
      for (size_t i = 0; i < a_result.topk.size(); ++i) {
        EXPECT_EQ(a_result.topk[i].set, b_result.topk[i].set);
        EXPECT_EQ(a_result.topk[i].score, b_result.topk[i].score);
        EXPECT_EQ(a_result.topk[i].exact, b_result.topk[i].exact);
      }
    }
  }
}

TEST(GoldenCompatTest, V3ToV4ConversionIsBitIdenticalTopK) {
  // Load the golden v3, rewrite as v4, serve BOTH through real snapshots
  // and compare full top-k results bit for bit — the acceptance contract
  // of the format migration.
  const std::string v3_path = GoldenPath("golden_v3.repo");
  const std::string v4_path = TempPath("golden_converted.repo");
  {
    auto repo = LoadRepository(v3_path);
    ASSERT_TRUE(repo.ok());
    ASSERT_TRUE(SaveRepositoryV4(repo.value().dict, repo.value().sets,
                                 &repo.value().store, v4_path)
                    .ok());
  }
  auto v3_snap = serve::Snapshot::Load(v3_path);
  ASSERT_TRUE(v3_snap.ok()) << v3_snap.status().ToString();
  auto v4_snap = serve::Snapshot::Load(v4_path);
  ASSERT_TRUE(v4_snap.ok()) << v4_snap.status().ToString();
  EXPECT_FALSE(v3_snap.value()->mmap_backed());
  EXPECT_TRUE(v4_snap.value()->mmap_backed());
  EXPECT_NE(v4_snap.value()->postings(), nullptr);
  ExpectSameTopK(*v3_snap.value(), *v4_snap.value());
  std::remove(v4_path.c_str());
}

TEST(GoldenCompatTest, V4GoldenWithLegacyTierServesV3GoldenTopK) {
  // The legacy file opens as a serving snapshot with verification off
  // (lazy CRCs) and on (every section, 8-11 included), and answers
  // exactly as the v3 golden does.
  auto v3_snap = serve::Snapshot::Load(GoldenPath("golden_v3.repo"));
  ASSERT_TRUE(v3_snap.ok()) << v3_snap.status().ToString();
  for (const bool verify : {false, true}) {
    auto v4_snap = serve::Snapshot::Load(GoldenPath("golden_v4.repo"), verify);
    ASSERT_TRUE(v4_snap.ok()) << "verify=" << verify << ": "
                              << v4_snap.status().ToString();
    EXPECT_TRUE(v4_snap.value()->mmap_backed());
    EXPECT_EQ(v4_snap.value()->postings(), nullptr);
    ExpectSameTopK(*v3_snap.value(), *v4_snap.value());
  }
}

TEST(GoldenCompatTest, V4GoldenWithoutPostingsServesV3GoldenTopK) {
  // Opens lazily and eagerly verified with no postings to borrow (its
  // engines build the lists), and answers exactly as the v3 golden does.
  auto v3_snap = serve::Snapshot::Load(GoldenPath("golden_v3.repo"));
  ASSERT_TRUE(v3_snap.ok()) << v3_snap.status().ToString();
  for (const bool verify : {false, true}) {
    auto v4_snap =
        serve::Snapshot::Load(GoldenPath("golden_v4_unranked.repo"), verify);
    ASSERT_TRUE(v4_snap.ok()) << "verify=" << verify << ": "
                              << v4_snap.status().ToString();
    EXPECT_TRUE(v4_snap.value()->mmap_backed());
    EXPECT_EQ(v4_snap.value()->postings(), nullptr);
    ExpectSameTopK(*v3_snap.value(), *v4_snap.value());
  }
}

// ----------------------------------------------------- borrowed contract --

TEST(BorrowedStorageTest, VocabularySectionSkipsCorpusScan) {
  // The snapshot built over a v4 file must expose the same index
  // vocabulary the stream path derives by scanning the corpus; spot-check
  // through a query that hits the one token (6) with no embedding row.
  Fixture f = MakeFixture();
  const std::string path = TempPath("v4_vocab.repo");
  ASSERT_TRUE(SaveRepositoryV4(f.dict, f.sets, &f.store, path).ok());
  auto snap = serve::Snapshot::Load(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_TRUE(snap.value()->mmap_backed());
  core::KoiosSearcher searcher(&snap.value()->sets(), snap.value()->index());
  core::SearchParams params;
  params.k = 2;
  params.alpha = 0.6;
  const auto result = searcher.Search(std::vector<TokenId>{5, 6}, params);
  EXPECT_FALSE(result.topk.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace koios::io
