#pragma once
// Compact length-prefixed binary wire protocol for the `datc serve`
// ingest daemon — the framed byte stream a wearable (or the loopback
// load generator) ships decoded sample chunks over.
//
// Framing: every frame is `u32 LE payload length | payload`, payload =
// `u8 frame type | type-specific body`. Integers are little-endian;
// samples travel as raw IEEE-754 f64 bit patterns, so a chunk decoded
// from the wire is bit-identical to the chunk that was sent — the
// foundation of the serve-vs-direct envelope parity contract.
//
//   HELLO    client -> server  protocol version, tenant id, scenario
//                              ref, channel count, channel id
//   DATA     client -> server  session id, seq, sample chunk
//   CONTROL  both directions   typed acks and errors (HELLO-ack carries
//                              the assigned session id, CHUNK-ack the
//                              highest processed seq, ERROR a typed
//                              ErrorCode + message)
//   END      client -> server  end of stream: flush + finalize
//
// FrameDecoder is incremental: feed() accepts arbitrary read boundaries
// (byte-at-a-time included) and next() distinguishes a malformed payload
// inside an intact frame (kBadFrame: skip, keep the connection) from a
// framing violation (kFatal: the byte stream cannot be resynchronised —
// close the connection, never the process).

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dsp/types.hpp"

namespace datc::net::wire {

using dsp::Real;

/// Protocol version spoken by this build; HELLOs with another version
/// get a typed kVersionMismatch reject.
inline constexpr std::uint16_t kProtocolVersion = 1;

/// Frame payload ceiling: large enough for a 64 k-sample DATA chunk
/// (1 M-sample chunks are a scenario-validation error long before the
/// socket), small enough that a garbage length prefix cannot make the
/// server buffer gigabytes.
inline constexpr std::size_t kMaxFramePayload = (1u << 20) + 64;

/// Length-prefixed strings on the wire (tenant, scenario) cap here.
inline constexpr std::size_t kMaxStringLen = 256;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kData = 2,
  kControl = 3,
  kEnd = 4,
};

enum class ControlCode : std::uint8_t {
  kHelloAck = 1,  ///< value = assigned session id
  kChunkAck = 2,  ///< value = highest chunk seq fully processed
  kEndAck = 3,    ///< value = envelope samples emitted by the session
  kError = 4,     ///< value = ErrorCode, message = human detail
};

/// Typed error surface: every reject the server can issue has a code a
/// client can branch on (and a counter the stats surface tracks).
enum class ErrorCode : std::uint16_t {
  kVersionMismatch = 1,  ///< HELLO protocol version != kProtocolVersion
  kMalformedFrame = 2,   ///< payload did not parse (frame skipped)
  kFramingLost = 3,      ///< oversized/zero length prefix; closing
  kBadSequence = 4,      ///< DATA seq gap (future seq never seen)
  kUnknownScenario = 5,  ///< HELLO scenario is no file-free preset
  kSessionLimit = 6,     ///< serve.max_sessions reached
  kBadState = 7,         ///< frame legal but not in this state
  kQuarantined = 8,      ///< session quarantined by its shard
  kDraining = 9,         ///< server received SIGINT/SIGTERM
};

struct HelloBody {
  std::uint16_t version{kProtocolVersion};
  std::uint16_t channel_count{1};  ///< 1 (private) or the shared-AER width
  std::uint32_t channel_id{0};     ///< private-link channel id (seeds)
  std::string tenant;              ///< output namespace ([A-Za-z0-9._-])
  std::string scenario;  ///< preset/spec name; empty = server default
};

struct DataBody {
  std::uint64_t session_id{0};
  std::uint64_t seq{0};
  std::vector<Real> samples;  ///< shared sessions: channel-major lockstep
};

struct ControlBody {
  ControlCode code{ControlCode::kError};
  std::uint64_t session_id{0};
  std::uint64_t value{0};
  std::string message;
};

struct EndBody {
  std::uint64_t session_id{0};
};

/// One decoded frame; `type` selects the live body.
struct Frame {
  FrameType type{FrameType::kHello};
  HelloBody hello;
  DataBody data;
  ControlBody control;
  EndBody end;
};

// ------------------------------------------------------------- encoding

/// Appenders (never a whole-message allocation per frame: callers batch
/// frames into one connection write buffer).
void append_hello(std::vector<std::uint8_t>& out, const HelloBody& body);
void append_data(std::vector<std::uint8_t>& out, std::uint64_t session_id,
                 std::uint64_t seq, std::span<const Real> samples);
void append_control(std::vector<std::uint8_t>& out, const ControlBody& body);
void append_end(std::vector<std::uint8_t>& out, std::uint64_t session_id);

// ------------------------------------------------------------- decoding

class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  /// Buffers incoming bytes; any read boundary is legal.
  void feed(std::span<const std::uint8_t> bytes);

  enum class Status {
    kNeedMore,  ///< no complete frame buffered yet
    kFrame,     ///< *out holds the next frame
    kBadFrame,  ///< intact frame, malformed payload: skipped; *reason set
    kFatal,     ///< framing lost (bad length prefix): close the stream
  };

  /// Pulls the next frame out of the buffer. After kFatal every further
  /// call returns kFatal — the stream cannot be trusted again.
  Status next(Frame* out, std::string* reason);

  [[nodiscard]] std::size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  std::size_t max_payload_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_{0};  ///< consumed prefix of buf_
  bool fatal_{false};
  std::string fatal_reason_;

  void compact();
};

/// Parses one frame payload (the bytes after the length prefix).
/// Returns false with *reason on any malformation; never throws.
[[nodiscard]] bool parse_payload(std::span<const std::uint8_t> payload,
                                 Frame* out, std::string* reason);

[[nodiscard]] const char* error_code_name(ErrorCode code);

}  // namespace datc::net::wire
