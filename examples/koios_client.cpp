// koios_client — the bundled CLI client for koios_serverd, built on
// net::BlockingClient (deadline-bounded IO, retry-after honoring backoff).
// The serverd smoke script and bench_serverd_chaos drive the same library;
// this binary is the by-hand entry point:
//
//   ./koios_client --port 7070 --ping
//   ./koios_client --port 7070 --query "3 17 294" --k 5
//   ./koios_client --port 7070 --stdin < queries.txt     # one batch
//   ./koios_client --port 7070 --http /metrics
//
// Exit status: 0 success, 1 usage (also a malformed flag value or token
// id, checked before anything connects), 2 connect failure, 3 request
// failed (the response's status line is printed to stderr).

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "koios/net/client.h"

namespace {

/// Parses the whole of `text` into `*out` with std::from_chars: no leading
/// space, no suffix, no overflow, and no sign for an unsigned type.
template <typename T>
bool ParseNumber(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// Appends the whitespace-separated token ids of `text` to `*tokens`; false
/// at the first field that is not a decimal token id.
bool ParseTokens(const std::string& text, std::vector<koios::TokenId>* tokens) {
  std::istringstream in(text);
  std::string field;
  while (in >> field) {
    koios::TokenId t = 0;
    if (!ParseNumber(field, &t)) return false;
    tokens->push_back(t);
  }
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port N [--host ADDR] <mode> [options]\n"
               "modes:\n"
               "  --ping                 binary-protocol liveness check\n"
               "  --query \"T T T...\"     one search (space-separated token "
               "ids)\n"
               "  --stdin                batch: one token-id line per query, "
               "sent\n"
               "                         as a single kSearchMany\n"
               "  --http PATH            GET PATH (e.g. /readyz, /metrics); "
               "prints\n"
               "                         the body, exits 0 iff HTTP 200\n"
               "options: --k N (10)  --alpha X (0.8)  --deadline-ms N (0)\n"
               "         --retries N (3, honoring server retry_after_ms)\n"
               "         --timeout-ms N (30000 io budget)\n",
               argv0);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace koios;

  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string query_text;
  std::string http_path;
  bool ping = false;
  bool from_stdin = false;
  uint32_t k = 10;
  double alpha = 0.8;
  uint32_t deadline_ms = 0;
  uint16_t retries = 3;
  uint32_t timeout_ms = 30'000;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // The flag's value; a flag given last, without one, exits 1.
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "koios_client: missing value for %s\n",
                     arg.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    // Parses the flag's whole value into `out` (see ParseNumber). A bad
    // value exits 1 here, before anything connects.
    auto number = [&](auto* out, const char* kind) {
      const char* text = next();
      if (!ParseNumber(text, out)) {
        std::fprintf(stderr, "koios_client: %s takes %s, got '%s'\n",
                     arg.c_str(), kind, text);
        std::exit(1);
      }
    };
    if (arg == "--host") {
      host = next();
    } else if (arg == "--port") {
      number(&port, "a port number in [1, 65535]");
    } else if (arg == "--query") {
      query_text = next();
    } else if (arg == "--http") {
      http_path = next();
    } else if (arg == "--ping") {
      ping = true;
    } else if (arg == "--stdin") {
      from_stdin = true;
    } else if (arg == "--k") {
      number(&k, "a decimal integer");
    } else if (arg == "--alpha") {
      number(&alpha, "a decimal number");
    } else if (arg == "--deadline-ms") {
      number(&deadline_ms, "a decimal integer");
    } else if (arg == "--retries") {
      number(&retries, "a decimal integer in [0, 65535]");
    } else if (arg == "--timeout-ms") {
      number(&timeout_ms, "a decimal integer");
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (port == 0) return Usage(argv[0]);
  net::ClientOptions client_options;
  client_options.io_timeout = std::chrono::milliseconds(timeout_ms);

  // Every query is parsed before anything connects.
  std::vector<TokenId> tokens;
  if (!ParseTokens(query_text, &tokens)) {
    std::fprintf(stderr,
                 "koios_client: --query takes space-separated token ids, "
                 "got '%s'\n",
                 query_text.c_str());
    return 1;
  }
  std::vector<std::vector<TokenId>> queries;
  if (from_stdin) {
    std::string line;
    for (size_t line_no = 1; std::getline(std::cin, line); ++line_no) {
      std::vector<TokenId> line_tokens;
      if (!ParseTokens(line, &line_tokens)) {
        std::fprintf(stderr,
                     "koios_client: --stdin line %zu is not space-separated "
                     "token ids: '%s'\n",
                     line_no, line.c_str());
        return 1;
      }
      if (!line_tokens.empty()) queries.push_back(std::move(line_tokens));
    }
    if (queries.empty()) {
      std::fprintf(stderr, "no queries on stdin\n");
      return 1;
    }
  }

  if (!http_path.empty()) {
    int status_code = 0;
    auto body = net::HttpGet(host, port, http_path, &status_code,
                             client_options.io_timeout);
    if (!body.ok()) {
      std::fprintf(stderr, "error: %s\n", body.status().ToString().c_str());
      return 2;
    }
    std::fputs(body.value().c_str(), stdout);
    return status_code == 200 ? 0 : 3;
  }

  auto client = net::BlockingClient::Connect(host, port, client_options);
  if (!client.ok()) {
    std::fprintf(stderr, "connect: %s\n", client.status().ToString().c_str());
    return 2;
  }

  if (ping) {
    if (util::Status s = client.value().Ping(); !s.ok()) {
      std::fprintf(stderr, "ping: %s\n", s.ToString().c_str());
      return 3;
    }
    std::printf("pong\n");
    return 0;
  }

  if (from_stdin) {
    bool any_failed = false;
    util::Status status = client.value().SearchMany(
        queries, k, alpha, deadline_ms, [&](const net::ResponseFrame& frame) {
          if (frame.code != net::WireCode::kOk) {
            std::fprintf(stderr, "query %u: %s\n", frame.query_index,
                         net::ResponseToStatus(frame).ToString().c_str());
            any_failed = true;
            return;
          }
          for (const core::ResultEntry& e : frame.results) {
            std::printf("%u\t%u\t%.6f\t%s\n", frame.query_index, e.set,
                        e.score, e.exact ? "exact" : "lower-bound");
          }
        });
    if (!status.ok()) {
      std::fprintf(stderr, "batch: %s\n", status.ToString().c_str());
      return 3;
    }
    return any_failed ? 3 : 0;
  }

  if (tokens.empty()) return Usage(argv[0]);
  auto results =
      client.value().SearchWithBackoff(tokens, k, alpha, deadline_ms, retries);
  if (!results.ok()) {
    std::fprintf(stderr, "search: %s\n", results.status().ToString().c_str());
    return 3;
  }
  for (const core::ResultEntry& e : results.value()) {
    std::printf("%u\t%.6f\t%s\n", e.set, e.score,
                e.exact ? "exact" : "lower-bound");
  }
  return 0;
}
