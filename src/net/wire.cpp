#include "net/wire.hpp"

#include <bit>
#include <cstring>

namespace datc::net::wire {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  // Truncate at encode time: the decoder rejects strings past
  // kMaxStringLen, so an overlong message (e.g. a forwarded exception
  // what()) must never produce a frame a conforming peer cannot parse.
  const std::size_t len = std::min(s.size(), kMaxStringLen);
  put_u16(out, static_cast<std::uint16_t>(len));
  out.insert(out.end(), s.begin(),
             s.begin() + static_cast<std::ptrdiff_t>(len));
}

/// Patches the length prefix once the payload size is known: frames are
/// appended as [4 reserved bytes][payload], then sealed.
std::size_t begin_frame(std::vector<std::uint8_t>& out) {
  const std::size_t at = out.size();
  out.insert(out.end(), 4, 0);
  return at;
}

void seal_frame(std::vector<std::uint8_t>& out, std::size_t at) {
  const std::size_t payload = out.size() - at - 4;
  for (int i = 0; i < 4; ++i) {
    out[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((payload >> (8 * i)) & 0xFF);
  }
}

/// Bounds-checked little-endian reader over one frame payload.
class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] bool u8(std::uint8_t* v) {
    if (pos_ + 1 > bytes_.size()) return false;
    *v = bytes_[pos_++];
    return true;
  }
  [[nodiscard]] bool u16(std::uint16_t* v) {
    if (pos_ + 2 > bytes_.size()) return false;
    *v = static_cast<std::uint16_t>(
        static_cast<std::uint16_t>(bytes_[pos_]) |
        static_cast<std::uint16_t>(bytes_[pos_ + 1]) << 8);
    pos_ += 2;
    return true;
  }
  [[nodiscard]] bool u32(std::uint32_t* v) {
    if (pos_ + 4 > bytes_.size()) return false;
    std::uint32_t r = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      r |= static_cast<std::uint32_t>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    *v = r;
    return true;
  }
  [[nodiscard]] bool u64(std::uint64_t* v) {
    if (pos_ + 8 > bytes_.size()) return false;
    std::uint64_t r = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      r |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    *v = r;
    return true;
  }
  [[nodiscard]] bool str(std::string* s, std::size_t max_len) {
    std::uint16_t len = 0;
    if (!u16(&len)) return false;
    if (len > max_len || pos_ + len > bytes_.size()) return false;
    s->assign(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return true;
  }
  [[nodiscard]] bool done() const { return pos_ == bytes_.size(); }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_{0};
};

}  // namespace

void append_hello(std::vector<std::uint8_t>& out, const HelloBody& body) {
  const std::size_t at = begin_frame(out);
  out.push_back(static_cast<std::uint8_t>(FrameType::kHello));
  put_u16(out, body.version);
  put_u16(out, body.channel_count);
  put_u32(out, body.channel_id);
  put_string(out, body.tenant);
  put_string(out, body.scenario);
  seal_frame(out, at);
}

void append_data(std::vector<std::uint8_t>& out, std::uint64_t session_id,
                 std::uint64_t seq, std::span<const Real> samples) {
  const std::size_t at = begin_frame(out);
  out.push_back(static_cast<std::uint8_t>(FrameType::kData));
  put_u64(out, session_id);
  put_u64(out, seq);
  put_u32(out, static_cast<std::uint32_t>(samples.size()));
  for (const Real v : samples) {
    put_u64(out, std::bit_cast<std::uint64_t>(static_cast<double>(v)));
  }
  seal_frame(out, at);
}

void append_control(std::vector<std::uint8_t>& out, const ControlBody& body) {
  const std::size_t at = begin_frame(out);
  out.push_back(static_cast<std::uint8_t>(FrameType::kControl));
  out.push_back(static_cast<std::uint8_t>(body.code));
  put_u64(out, body.session_id);
  put_u64(out, body.value);
  put_string(out, body.message);
  seal_frame(out, at);
}

void append_end(std::vector<std::uint8_t>& out, std::uint64_t session_id) {
  const std::size_t at = begin_frame(out);
  out.push_back(static_cast<std::uint8_t>(FrameType::kEnd));
  put_u64(out, session_id);
  seal_frame(out, at);
}

// ------------------------------------------------------------- decoding

bool parse_payload(std::span<const std::uint8_t> payload, Frame* out,
                   std::string* reason) {
  const auto fail = [reason](const char* what) {
    if (reason != nullptr) *reason = what;
    return false;
  };
  Cursor c(payload);
  std::uint8_t type_raw = 0;
  if (!c.u8(&type_raw)) return fail("empty payload");
  switch (static_cast<FrameType>(type_raw)) {
    case FrameType::kHello: {
      HelloBody b;
      if (!c.u16(&b.version) || !c.u16(&b.channel_count) ||
          !c.u32(&b.channel_id) || !c.str(&b.tenant, kMaxStringLen) ||
          !c.str(&b.scenario, kMaxStringLen) || !c.done()) {
        return fail("malformed HELLO body");
      }
      out->type = FrameType::kHello;
      out->hello = std::move(b);
      return true;
    }
    case FrameType::kData: {
      DataBody b;
      std::uint32_t count = 0;
      if (!c.u64(&b.session_id) || !c.u64(&b.seq) || !c.u32(&count)) {
        return fail("malformed DATA header");
      }
      // The declared count is attacker-controlled: bound it by the bytes
      // actually present before reserving, or a 21-byte frame claiming
      // 2^32 samples would force a multi-GB allocation.
      if (count > c.remaining() / 8) {
        return fail("DATA sample count overruns payload");
      }
      b.samples.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        std::uint64_t bits = 0;
        if (!c.u64(&bits)) return fail("DATA sample count overruns payload");
        b.samples.push_back(
            static_cast<Real>(std::bit_cast<double>(bits)));
      }
      if (!c.done()) return fail("DATA payload has trailing bytes");
      out->type = FrameType::kData;
      out->data = std::move(b);
      return true;
    }
    case FrameType::kControl: {
      ControlBody b;
      std::uint8_t code_raw = 0;
      if (!c.u8(&code_raw) || !c.u64(&b.session_id) || !c.u64(&b.value) ||
          !c.str(&b.message, kMaxStringLen) || !c.done()) {
        return fail("malformed CONTROL body");
      }
      if (code_raw < static_cast<std::uint8_t>(ControlCode::kHelloAck) ||
          code_raw > static_cast<std::uint8_t>(ControlCode::kError)) {
        return fail("unknown CONTROL code");
      }
      b.code = static_cast<ControlCode>(code_raw);
      out->type = FrameType::kControl;
      out->control = std::move(b);
      return true;
    }
    case FrameType::kEnd: {
      EndBody b;
      if (!c.u64(&b.session_id) || !c.done()) {
        return fail("malformed END body");
      }
      out->type = FrameType::kEnd;
      out->end = b;
      return true;
    }
  }
  return fail("unknown frame type");
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  if (fatal_) return;  // stream already condemned; stop buffering
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void FrameDecoder::compact() {
  // Reclaim the consumed prefix once it dominates the buffer, so a
  // long-lived connection does not grow its buffer without bound.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
}

FrameDecoder::Status FrameDecoder::next(Frame* out, std::string* reason) {
  if (fatal_) {
    if (reason != nullptr) *reason = fatal_reason_;
    return Status::kFatal;
  }
  if (buffered_bytes() < 4) return Status::kNeedMore;
  std::uint32_t len = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(buf_[pos_ + i]) << (8 * i);
  }
  if (len == 0 || len > max_payload_) {
    fatal_ = true;
    fatal_reason_ = len == 0 ? "zero-length frame"
                             : "oversized frame (" + std::to_string(len) +
                                   " bytes > " +
                                   std::to_string(max_payload_) + " cap)";
    if (reason != nullptr) *reason = fatal_reason_;
    return Status::kFatal;
  }
  if (buffered_bytes() < 4 + static_cast<std::size_t>(len)) {
    return Status::kNeedMore;
  }
  const std::span<const std::uint8_t> payload(buf_.data() + pos_ + 4, len);
  const bool ok = parse_payload(payload, out, reason);
  pos_ += 4 + static_cast<std::size_t>(len);
  compact();
  return ok ? Status::kFrame : Status::kBadFrame;
}

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kVersionMismatch: return "version-mismatch";
    case ErrorCode::kMalformedFrame: return "malformed-frame";
    case ErrorCode::kFramingLost: return "framing-lost";
    case ErrorCode::kBadSequence: return "bad-sequence";
    case ErrorCode::kUnknownScenario: return "unknown-scenario";
    case ErrorCode::kSessionLimit: return "session-limit";
    case ErrorCode::kBadState: return "bad-state";
    case ErrorCode::kQuarantined: return "quarantined";
    case ErrorCode::kDraining: return "draining";
  }
  return "unknown";
}

}  // namespace datc::net::wire
