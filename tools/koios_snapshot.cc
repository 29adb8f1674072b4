// koios_snapshot — repository file utility.
//
//   koios_snapshot inspect <file>             header + section summary
//   koios_snapshot verify <file>              full integrity check (CRC of
//                                             every section + content scans
//                                             for v4; full parse for v1/v3)
//   koios_snapshot convert <in> <out>         rewrite as v4, the one format
//                                             anything writes (in may be
//                                             v1, v3 or v4)
//   koios_snapshot shard <file> <N>           partition plan for an N-way
//                                             sharded open (per-shard set
//                                             ranges, token counts, bytes;
//                                             replicated dict/embedding
//                                             footprint); N is a positive
//                                             decimal integer
//
// Exit status: 0 ok, 1 usage, 2 operation failed.

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "koios/embedding/embedding_store.h"
#include "koios/io/repository_v4.h"
#include "koios/io/serialization.h"
#include "koios/serve/shard_coordinator.h"
#include "koios/text/dictionary.h"

namespace {

using koios::io::LoadRepository;
using koios::io::MmapOptions;
using koios::io::MmapRepositoryView;
using koios::io::PeekRepositoryVersion;
using koios::io::SaveRepositoryV4;

const char* SectionName(uint32_t kind) {
  switch (kind) {
    case koios::io::kDictOffsets: return "dict-offsets";
    case koios::io::kDictBytes: return "dict-bytes";
    case koios::io::kSetOffsets: return "set-offsets";
    case koios::io::kSetTokens: return "set-tokens";
    case koios::io::kVocabulary: return "vocabulary";
    case koios::io::kEmbedRowOf: return "embed-rowof";
    case koios::io::kEmbedData: return "embed-data";
    case koios::io::kQuantCodes: return "quant-codes";
    case koios::io::kQuantScales: return "quant-scales";
    case koios::io::kQuantOffsets: return "quant-offsets";
    case koios::io::kQuantSums: return "quant-sums";
    case koios::io::kPostingOffsets: return "posting-offsets";
    case koios::io::kPostingRanks: return "posting-ranks";
    default: return "?";
  }
}

int Inspect(const std::string& path) {
  auto version = PeekRepositoryVersion(path);
  if (!version.ok()) {
    std::fprintf(stderr, "error: %s\n", version.status().ToString().c_str());
    return 2;
  }
  std::printf("%s: repository container v%u\n", path.c_str(), version.value());
  if (version.value() != 4) {
    auto repo = LoadRepository(path);
    if (!repo.ok()) {
      std::fprintf(stderr, "error: %s\n", repo.status().ToString().c_str());
      return 2;
    }
    std::printf("  dictionary   %zu tokens\n", repo.value().dict.size());
    std::printf("  sets         %zu (total tokens %zu)\n",
                repo.value().sets.size(), repo.value().sets.TotalTokens());
    if (repo.value().has_embeddings) {
      std::printf("  embeddings   %zu rows x dim %zu\n",
                  repo.value().store.covered(), repo.value().store.dim());
    } else {
      std::printf("  embeddings   none\n");
    }
    return 0;
  }
  auto view = MmapRepositoryView::Open(path);
  if (!view.ok()) {
    std::fprintf(stderr, "error: %s\n", view.status().ToString().c_str());
    return 2;
  }
  const auto& v = *view.value();
  const auto& h = v.header();
  std::printf("  file size    %zu bytes (mmap)\n", v.file_size());
  std::printf("  dictionary   %" PRIu64 " tokens\n", h.dict_size);
  std::printf("  sets         %" PRIu64 " (token id bound %" PRIu64 ")\n",
              h.set_count, h.token_id_bound);
  if (h.has_embeddings) {
    std::printf("  embeddings   %" PRIu64 " rows x dim %" PRIu64 "%s\n",
                h.embed_rows, h.embed_dim,
                h.has_quantized ? " (legacy int8 tier, ignored)" : "");
  } else {
    std::printf("  embeddings   none\n");
  }
  std::printf("  sections     %u\n", h.section_count);
  // Re-open is cheap; dump the section table via the public header only.
  std::printf("  %-16s %12s %12s %10s\n", "kind", "offset", "length", "crc");
  // The view does not expose the table directly; recover it from the file.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f != nullptr) {
      std::fseek(f, sizeof(koios::io::V4Header), SEEK_SET);
      for (uint32_t i = 0; i < h.section_count; ++i) {
        koios::io::SectionEntry e;
        if (std::fread(&e, sizeof(e), 1, f) != 1) break;
        std::printf("  %-16s %12" PRIu64 " %12" PRIu64 " 0x%08x\n",
                    SectionName(e.kind), e.offset, e.length, e.crc);
      }
      std::fclose(f);
    }
  }
  return 0;
}

int Verify(const std::string& path) {
  auto version = PeekRepositoryVersion(path);
  if (!version.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", version.status().ToString().c_str());
    return 2;
  }
  if (version.value() == 4) {
    auto view = MmapRepositoryView::Open(path, MmapOptions{.verify = true});
    if (!view.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", view.status().ToString().c_str());
      return 2;
    }
    // Borrowing runs the remaining structural validation (offset spans,
    // row-table bijection) that eager CRC alone does not cover; the
    // postings' transpose check ran with the eager pass.
    auto dict = view.value()->BorrowDictionary();
    if (!dict.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", dict.status().ToString().c_str());
      return 2;
    }
    auto sets = view.value()->BorrowSets();
    if (!sets.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", sets.status().ToString().c_str());
      return 2;
    }
    if (view.value()->has_embeddings()) {
      auto store = view.value()->BorrowEmbeddings();
      if (!store.ok()) {
        std::fprintf(stderr, "FAIL: %s\n", store.status().ToString().c_str());
        return 2;
      }
    }
    if (view.value()->has_postings()) {
      auto postings = view.value()->BorrowPostings(sets.value());
      if (!postings.ok()) {
        std::fprintf(stderr, "FAIL: %s\n",
                     postings.status().ToString().c_str());
        return 2;
      }
    }
  } else {
    auto repo = LoadRepository(path);
    if (!repo.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", repo.status().ToString().c_str());
      return 2;
    }
  }
  std::printf("OK: %s (v%u)\n", path.c_str(), version.value());
  return 0;
}

int Convert(const std::string& in, const std::string& out) {
  auto repo = LoadRepository(in);
  if (!repo.ok()) {
    std::fprintf(stderr, "error loading %s: %s\n", in.c_str(),
                 repo.status().ToString().c_str());
    return 2;
  }
  const koios::embedding::EmbeddingStore* store =
      repo.value().has_embeddings ? &repo.value().store : nullptr;
  const auto status =
      SaveRepositoryV4(repo.value().dict, repo.value().sets, store, out);
  if (!status.ok()) {
    std::fprintf(stderr, "error writing %s: %s\n", out.c_str(),
                 status.ToString().c_str());
    return 2;
  }
  std::printf("wrote %s (v4)\n", out.c_str());
  return 0;
}

/// Bytes of a dictionary's artifacts: the token strings and their
/// size() + 1 u64 offsets. The same figure for an owned dictionary (v1/v3)
/// and one borrowed from a v4 mapping.
size_t DictionaryBytes(const koios::text::Dictionary& dict) {
  size_t bytes = (dict.size() + 1) * sizeof(uint64_t);
  for (koios::TokenId t = 0; t < dict.size(); ++t) {
    bytes += dict.TokenOf(t).size();
  }
  return bytes;
}

/// Bytes of an embedding store's artifacts: the float rows and the row
/// table. The same figure for an owned store (v1/v3) and one borrowed from a
/// v4 mapping.
size_t EmbeddingBytes(const koios::embedding::EmbeddingStore& store) {
  return store.RowData().size_bytes() + store.RowTable().size_bytes();
}

// What a sharded open replicates vs partitions, for capacity planning
// before anyone passes --shards to the daemon. Every shard shares the
// dictionary, embeddings and neighbor index (for a v4 file those are
// mmap'd read-only pages shared for free); each owns a contiguous range of
// the sets (serve::ShardRanges, the ranges the daemon uses) and builds the
// postings of that range.
int Shard(const std::string& path, const std::string& count) {
  // Digits only (from_chars takes no sign, space or suffix for an
  // unsigned type), no overflow, at least 1.
  size_t num_shards = 0;
  const char* count_end = count.data() + count.size();
  const auto [ptr, ec] = std::from_chars(count.data(), count_end, num_shards);
  if (ec != std::errc() || ptr != count_end || num_shards < 1) {
    std::fprintf(stderr,
                 "error: shard count must be a decimal integer >= 1, got "
                 "'%s'\n",
                 count.c_str());
    return 2;
  }
  auto version = PeekRepositoryVersion(path);
  if (!version.ok()) {
    std::fprintf(stderr, "error: %s\n", version.status().ToString().c_str());
    return 2;
  }

  // Either path yields the same plan (the footprints are artifact sizes,
  // not heap capacity); v4 avoids materializing the sets.
  auto report = [&](const koios::index::SetCollection& sets,
                    size_t dict_bytes, size_t embed_bytes) {
    const auto ranges = koios::serve::ShardRanges(sets.size(), num_shards);
    const auto offsets = sets.RawOffsets();
    std::printf("%s: %zu sets, %zu tokens -> %zu shard(s)\n", path.c_str(),
                sets.size(), sets.TotalTokens(), ranges.size());
    if (ranges.size() < num_shards) {
      std::printf("  (requested %zu; clamped to the set count)\n", num_shards);
    }
    std::printf("  replicated per shard: dict %zu bytes, embeddings %zu "
                "bytes (shared pages when mmap'd)\n",
                dict_bytes, embed_bytes);
    std::printf("  %-6s %12s %12s %12s %14s\n", "shard", "first-set", "sets",
                "tokens", "postings-B");
    for (size_t i = 0; i < ranges.size(); ++i) {
      const auto [first, end] = ranges[i];
      const size_t tokens = offsets[end] - offsets[first];
      std::printf("  %-6zu %12u %12u %12zu %14zu\n", i, first, end - first,
                  tokens, tokens * sizeof(koios::TokenId));
    }
    return 0;
  };

  if (version.value() == 4) {
    auto view = MmapRepositoryView::Open(path);
    if (!view.ok()) {
      std::fprintf(stderr, "error: %s\n", view.status().ToString().c_str());
      return 2;
    }
    auto sets = view.value()->BorrowSets();
    if (!sets.ok()) {
      std::fprintf(stderr, "error: %s\n", sets.status().ToString().c_str());
      return 2;
    }
    auto dict = view.value()->BorrowDictionary();
    if (!dict.ok()) {
      std::fprintf(stderr, "error: %s\n", dict.status().ToString().c_str());
      return 2;
    }
    size_t embed_bytes = 0;
    if (view.value()->has_embeddings()) {
      auto store = view.value()->BorrowEmbeddings();
      if (!store.ok()) {
        std::fprintf(stderr, "error: %s\n", store.status().ToString().c_str());
        return 2;
      }
      embed_bytes = EmbeddingBytes(store.value());
    }
    return report(sets.value(), DictionaryBytes(dict.value()), embed_bytes);
  }
  auto repo = LoadRepository(path);
  if (!repo.ok()) {
    std::fprintf(stderr, "error: %s\n", repo.status().ToString().c_str());
    return 2;
  }
  return report(repo.value().sets, DictionaryBytes(repo.value().dict),
                repo.value().has_embeddings
                    ? EmbeddingBytes(repo.value().store)
                    : 0);
}

int Usage() {
  std::fprintf(stderr,
               "usage: koios_snapshot inspect <file>\n"
               "       koios_snapshot verify <file>\n"
               "       koios_snapshot convert <in> <out>\n"
               "       koios_snapshot shard <file> <num-shards>\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "inspect") return Inspect(argv[2]);
  if (cmd == "verify") return Verify(argv[2]);
  if (cmd == "shard") {
    if (argc != 4) return Usage();
    return Shard(argv[2], argv[3]);
  }
  if (cmd == "convert") {
    if (argc != 4) return Usage();
    return Convert(argv[2], argv[3]);
  }
  return Usage();
}
