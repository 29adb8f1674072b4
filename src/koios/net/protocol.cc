#include "koios/net/protocol.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace koios::net {

namespace {

void AppendU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}
void AppendU32(uint32_t v, std::string* out) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}
void AppendF64(double v, std::string* out) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}

/// Bounds-checked sequential reader over a frame body.
class BodyReader {
 public:
  BodyReader(const char* data, size_t size) : data_(data), size_(size) {}

  bool ReadU8(uint8_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadU32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadF64(double* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadBytes(std::string* out, size_t n) {
    if (size_ - pos_ < n) return false;
    out->assign(data_ + pos_, n);
    pos_ += n;
    return true;
  }
  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  bool ReadRaw(void* v, size_t n) {
    if (size_ - pos_ < n) return false;
    std::memcpy(v, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

bool ReadTokenList(BodyReader* r, std::vector<TokenId>* tokens,
                   std::string* error) {
  uint32_t ntokens = 0;
  if (!r->ReadU32(&ntokens)) {
    *error = "truncated token list header";
    return false;
  }
  if (ntokens > r->remaining() / sizeof(TokenId)) {
    *error = "token count exceeds frame body";
    return false;
  }
  tokens->resize(ntokens);
  for (uint32_t i = 0; i < ntokens; ++i) {
    if (!r->ReadU32(&(*tokens)[i])) {
      *error = "truncated token list";
      return false;
    }
  }
  return true;
}

// Frame header decode shared by request/response parsing. Returns
// kNeedMore / kError / kOk (kOk = header valid AND the full body is
// buffered; *body_len and *tag are set).
ParseStatus DecodeHeader(const char* data, size_t size, size_t max_frame_bytes,
                         uint8_t* tag, uint32_t* body_len,
                         std::string* error) {
  if (size < kFrameHeaderBytes) return ParseStatus::kNeedMore;
  if (static_cast<uint8_t>(data[0]) != kFrameMagic) {
    *error = "bad frame magic";
    return ParseStatus::kError;
  }
  *tag = static_cast<uint8_t>(data[1]);
  std::memcpy(body_len, data + 2, sizeof(*body_len));
  // The oversize check fires from the HEADER alone: a hostile client
  // cannot make the server buffer a huge body before being rejected.
  if (*body_len > max_frame_bytes) {
    *error = "frame body of " + std::to_string(*body_len) +
             " bytes exceeds the " + std::to_string(max_frame_bytes) +
             "-byte request limit";
    return ParseStatus::kError;
  }
  if (size < kFrameHeaderBytes + *body_len) return ParseStatus::kNeedMore;
  return ParseStatus::kOk;
}

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

WireCode ToWireCode(util::StatusCode code) {
  switch (code) {
    case util::StatusCode::kOk: return WireCode::kOk;
    case util::StatusCode::kInvalidArgument: return WireCode::kInvalidArgument;
    case util::StatusCode::kNotFound: return WireCode::kNotFound;
    case util::StatusCode::kResourceExhausted:
      return WireCode::kResourceExhausted;
    case util::StatusCode::kDeadlineExceeded:
      return WireCode::kDeadlineExceeded;
    case util::StatusCode::kUnavailable: return WireCode::kUnavailable;
    case util::StatusCode::kCancelled: return WireCode::kCancelled;
    // kOutOfRange / kFailedPrecondition / kInternal all collapse to an
    // opaque server-side failure on the wire.
    default: return WireCode::kInternal;
  }
}

util::StatusCode FromWireCode(WireCode code) {
  switch (code) {
    case WireCode::kOk: return util::StatusCode::kOk;
    case WireCode::kInvalidArgument: return util::StatusCode::kInvalidArgument;
    case WireCode::kNotFound: return util::StatusCode::kNotFound;
    case WireCode::kResourceExhausted:
      return util::StatusCode::kResourceExhausted;
    case WireCode::kDeadlineExceeded:
      return util::StatusCode::kDeadlineExceeded;
    case WireCode::kUnavailable: return util::StatusCode::kUnavailable;
    case WireCode::kCancelled: return util::StatusCode::kCancelled;
    default: return util::StatusCode::kInternal;
  }
}

std::string WireCodeName(WireCode code) {
  switch (code) {
    case WireCode::kOk: return "ok";
    case WireCode::kInvalidArgument: return "invalid_argument";
    case WireCode::kNotFound: return "not_found";
    case WireCode::kResourceExhausted: return "resource_exhausted";
    case WireCode::kDeadlineExceeded: return "deadline_exceeded";
    case WireCode::kUnavailable: return "unavailable";
    case WireCode::kCancelled: return "cancelled";
    case WireCode::kInternal: return "internal";
  }
  return "internal";
}

ParseStatus ParseRequestFrame(const char* data, size_t size,
                              size_t max_frame_bytes, size_t* consumed,
                              RequestFrame* out, std::string* error) {
  uint8_t tag = 0;
  uint32_t body_len = 0;
  const ParseStatus hs =
      DecodeHeader(data, size, max_frame_bytes, &tag, &body_len, error);
  if (hs != ParseStatus::kOk) return hs;

  *out = RequestFrame{};
  BodyReader r(data + kFrameHeaderBytes, body_len);
  switch (tag) {
    case static_cast<uint8_t>(Op::kPing):
      out->op = Op::kPing;
      break;
    case static_cast<uint8_t>(Op::kSearch):
    case static_cast<uint8_t>(Op::kSearchMany): {
      out->op = static_cast<Op>(tag);
      if (!r.ReadU32(&out->k) || !r.ReadF64(&out->alpha) ||
          !r.ReadU32(&out->deadline_ms)) {
        *error = "truncated search header";
        return ParseStatus::kError;
      }
      if (auto params = core::ValidateSearchParams(out->k, out->alpha);
          !params.ok()) {
        *error = params.message();
        return ParseStatus::kError;
      }
      uint32_t nqueries = 1;
      if (out->op == Op::kSearchMany) {
        if (!r.ReadU32(&nqueries)) {
          *error = "truncated query count";
          return ParseStatus::kError;
        }
        if (nqueries == 0) {
          *error = "empty batch";
          return ParseStatus::kError;
        }
        // 4 bytes of ntokens each, minimum.
        if (nqueries > r.remaining() / sizeof(uint32_t)) {
          *error = "query count exceeds frame body";
          return ParseStatus::kError;
        }
      }
      out->queries.resize(nqueries);
      for (uint32_t q = 0; q < nqueries; ++q) {
        if (!ReadTokenList(&r, &out->queries[q], error)) {
          return ParseStatus::kError;
        }
        if (out->queries[q].empty()) {
          *error = "empty query token list";
          return ParseStatus::kError;
        }
      }
      break;
    }
    default:
      *error = "unknown op " + std::to_string(tag);
      return ParseStatus::kError;
  }
  if (!r.AtEnd()) {
    *error = "trailing bytes in frame body";
    return ParseStatus::kError;
  }
  *consumed = kFrameHeaderBytes + body_len;
  return ParseStatus::kOk;
}

void AppendRequestFrame(const RequestFrame& frame, std::string* out) {
  std::string body;
  if (frame.op != Op::kPing) {
    AppendU32(frame.k, &body);
    AppendF64(frame.alpha, &body);
    AppendU32(frame.deadline_ms, &body);
    if (frame.op == Op::kSearchMany) {
      AppendU32(static_cast<uint32_t>(frame.queries.size()), &body);
    }
    for (const std::vector<TokenId>& q : frame.queries) {
      AppendU32(static_cast<uint32_t>(q.size()), &body);
      for (TokenId t : q) AppendU32(t, &body);
    }
  }
  AppendU8(kFrameMagic, out);
  AppendU8(static_cast<uint8_t>(frame.op), out);
  AppendU32(static_cast<uint32_t>(body.size()), out);
  out->append(body);
}

void AppendOkResponse(uint32_t query_index,
                      const std::vector<core::ResultEntry>& topk,
                      std::string* out) {
  std::string body;
  AppendU32(query_index, &body);
  AppendU32(static_cast<uint32_t>(topk.size()), &body);
  for (const core::ResultEntry& e : topk) {
    AppendU32(e.set, &body);
    AppendF64(e.score, &body);
    AppendU8(e.exact ? 1 : 0, &body);
  }
  AppendU8(kFrameMagic, out);
  AppendU8(static_cast<uint8_t>(WireCode::kOk), out);
  AppendU32(static_cast<uint32_t>(body.size()), out);
  out->append(body);
}

void AppendErrorResponse(uint32_t query_index, const util::Status& status,
                         std::string* out) {
  std::string body;
  AppendU32(query_index, &body);
  AppendU32(static_cast<uint32_t>(status.retry_after_ms()), &body);
  AppendU32(static_cast<uint32_t>(status.message().size()), &body);
  body.append(status.message());
  AppendU8(kFrameMagic, out);
  AppendU8(static_cast<uint8_t>(ToWireCode(status.code())), out);
  AppendU32(static_cast<uint32_t>(body.size()), out);
  out->append(body);
}

void AppendPingResponse(std::string* out) {
  std::string body;
  AppendU32(0, &body);  // query_index
  AppendU32(0, &body);  // nresults
  AppendU8(kFrameMagic, out);
  AppendU8(static_cast<uint8_t>(WireCode::kOk), out);
  AppendU32(static_cast<uint32_t>(body.size()), out);
  out->append(body);
}

ParseStatus ParseResponseFrame(const char* data, size_t size,
                               size_t max_frame_bytes, size_t* consumed,
                               ResponseFrame* out, std::string* error) {
  uint8_t tag = 0;
  uint32_t body_len = 0;
  const ParseStatus hs =
      DecodeHeader(data, size, max_frame_bytes, &tag, &body_len, error);
  if (hs != ParseStatus::kOk) return hs;
  if (tag > static_cast<uint8_t>(WireCode::kInternal)) {
    *error = "unknown wire code " + std::to_string(tag);
    return ParseStatus::kError;
  }

  *out = ResponseFrame{};
  out->code = static_cast<WireCode>(tag);
  BodyReader r(data + kFrameHeaderBytes, body_len);
  if (!r.ReadU32(&out->query_index)) {
    *error = "truncated response body";
    return ParseStatus::kError;
  }
  if (out->code == WireCode::kOk) {
    uint32_t nresults = 0;
    if (!r.ReadU32(&nresults)) {
      *error = "truncated result count";
      return ParseStatus::kError;
    }
    constexpr size_t kEntryBytes = sizeof(uint32_t) + sizeof(double) + 1;
    if (nresults > r.remaining() / kEntryBytes) {
      *error = "result count exceeds frame body";
      return ParseStatus::kError;
    }
    out->results.resize(nresults);
    for (uint32_t i = 0; i < nresults; ++i) {
      uint8_t exact = 0;
      if (!r.ReadU32(&out->results[i].set) ||
          !r.ReadF64(&out->results[i].score) || !r.ReadU8(&exact)) {
        *error = "truncated result entry";
        return ParseStatus::kError;
      }
      out->results[i].exact = exact != 0;
    }
  } else {
    uint32_t msg_len = 0;
    if (!r.ReadU32(&out->retry_after_ms) || !r.ReadU32(&msg_len) ||
        !r.ReadBytes(&out->message, msg_len)) {
      *error = "truncated error body";
      return ParseStatus::kError;
    }
  }
  if (!r.AtEnd()) {
    *error = "trailing bytes in frame body";
    return ParseStatus::kError;
  }
  *consumed = kFrameHeaderBytes + body_len;
  return ParseStatus::kOk;
}

util::Status ResponseToStatus(const ResponseFrame& frame) {
  if (frame.code == WireCode::kOk) return util::Status::OK();
  util::Status status(FromWireCode(frame.code), frame.message);
  if (frame.retry_after_ms > 0) {
    return std::move(status).WithRetryAfterMs(frame.retry_after_ms);
  }
  return status;
}

// ------------------------------------------------------------ JSON mode --

namespace {

/// Minimal strict parser for the one flat object shape the server accepts.
/// Not a general JSON library on purpose: the input grammar is tiny, and
/// rejecting anything outside it IS the robustness feature.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& s) : s_(s) {}

  void SkipSpace() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Peek(char c) {
    SkipSpace();
    return pos_ < s_.size() && s_[pos_] == c;
  }
  bool AtEnd() {
    SkipSpace();
    return pos_ == s_.size();
  }

  bool ReadString(std::string* out) {
    if (!Eat('"')) return false;
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char esc = s_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          default: return false;  // \uXXXX etc. not needed for keys
        }
      } else {
        out->push_back(c);
      }
    }
    return false;
  }

  bool ReadNumber(double* out) {
    SkipSpace();
    const size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    bool digits = false;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+')) {
      digits = true;
      ++pos_;
    }
    if (!digits) return false;
    try {
      *out = std::stod(s_.substr(start, pos_ - start));
    } catch (...) {
      return false;
    }
    return std::isfinite(*out);
  }

 private:
  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

util::Status ParseJsonRequestLine(const std::string& line, JsonRequest* out) {
  *out = JsonRequest{};
  bool have_tokens = false;
  JsonCursor c(line);
  if (!c.Eat('{')) {
    return util::Status::InvalidArgument("request must be a JSON object");
  }
  if (!c.Peek('}')) {
    do {
      std::string key;
      if (!c.ReadString(&key) || !c.Eat(':')) {
        return util::Status::InvalidArgument("malformed JSON key");
      }
      if (key == "tokens") {
        if (!c.Eat('[')) {
          return util::Status::InvalidArgument("\"tokens\" must be an array");
        }
        have_tokens = true;
        if (!c.Peek(']')) {
          do {
            double v = 0;
            if (!c.ReadNumber(&v) || v < 0 || v != std::floor(v) ||
                v > 4294967295.0) {
              return util::Status::InvalidArgument(
                  "\"tokens\" entries must be u32 token ids");
            }
            out->tokens.push_back(static_cast<TokenId>(v));
          } while (c.Eat(','));
        }
        if (!c.Eat(']')) {
          return util::Status::InvalidArgument("unterminated token array");
        }
      } else if (key == "k" || key == "deadline_ms") {
        double v = 0;
        if (!c.ReadNumber(&v) || v < 0 || v != std::floor(v) ||
            v > 4294967295.0) {
          return util::Status::InvalidArgument("\"" + key +
                                               "\" must be a u32");
        }
        if (key == "k") {
          out->k = static_cast<uint32_t>(v);
        } else {
          out->deadline_ms = static_cast<uint32_t>(v);
        }
      } else if (key == "alpha") {
        double v = 0;
        if (!c.ReadNumber(&v)) {
          return util::Status::InvalidArgument("\"alpha\" must be a number");
        }
        out->alpha = v;
      } else {
        return util::Status::InvalidArgument("unknown key \"" + key + "\"");
      }
    } while (c.Eat(','));
  }
  if (!c.Eat('}') || !c.AtEnd()) {
    return util::Status::InvalidArgument("trailing characters after object");
  }
  if (!have_tokens || out->tokens.empty()) {
    return util::Status::InvalidArgument(
        "request must carry a non-empty \"tokens\" array");
  }
  return core::ValidateSearchParams(out->k, out->alpha);
}

std::string JsonOkResponse(const std::vector<core::ResultEntry>& topk) {
  std::string out = "{\"status\":\"ok\",\"results\":[";
  for (size_t i = 0; i < topk.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"set\":" + std::to_string(topk[i].set) +
           ",\"score\":" + FormatDouble(topk[i].score) +
           ",\"exact\":" + (topk[i].exact ? "true" : "false") + "}";
  }
  out += "]}";
  return out;
}

std::string JsonErrorResponse(const util::Status& status) {
  std::string out =
      "{\"status\":\"" + WireCodeName(ToWireCode(status.code())) + "\"";
  if (status.has_retry_after()) {
    out += ",\"retry_after_ms\":" + std::to_string(status.retry_after_ms());
  }
  out += ",\"message\":\"" + EscapeJson(status.message()) + "\"}";
  return out;
}

}  // namespace koios::net
