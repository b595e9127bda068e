// Wire-protocol robustness: every frame type round-trips bit-exactly,
// the incremental decoder accepts arbitrary read boundaries (including
// byte-at-a-time and every two-part split), malformed payloads are
// skipped without losing the stream, and framing violations (zero or
// oversized length prefixes) are terminal for the stream but never for
// the process.

#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace {

using namespace datc;
using datc::dsp::Real;
namespace wire = datc::net::wire;

/// Feeds everything and pulls one frame, asserting clean decode.
wire::Frame decode_one(const std::vector<std::uint8_t>& bytes) {
  wire::FrameDecoder dec;
  dec.feed(bytes);
  wire::Frame f;
  std::string reason;
  EXPECT_EQ(dec.next(&f, &reason), wire::FrameDecoder::Status::kFrame)
      << reason;
  EXPECT_EQ(dec.buffered_bytes(), 0u);
  return f;
}

/// A length-prefixed frame around a handcrafted payload (for malformed
/// and unknown-type cases the encoders refuse to produce).
std::vector<std::uint8_t> raw_frame(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out(4 + payload.size());
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (std::size_t i = 0; i < 4; ++i) {
    out[i] = static_cast<std::uint8_t>((len >> (8 * i)) & 0xFF);
  }
  std::copy(payload.begin(), payload.end(), out.begin() + 4);
  return out;
}

TEST(NetWireTest, HelloRoundTripsEveryField) {
  wire::HelloBody h;
  h.version = 7;
  h.channel_count = 64;
  h.channel_id = 41;
  h.tenant = "ward-3.bed_12";
  h.scenario = "paper-baseline";
  std::vector<std::uint8_t> bytes;
  wire::append_hello(bytes, h);
  const wire::Frame f = decode_one(bytes);
  ASSERT_EQ(f.type, wire::FrameType::kHello);
  EXPECT_EQ(f.hello.version, 7);
  EXPECT_EQ(f.hello.channel_count, 64);
  EXPECT_EQ(f.hello.channel_id, 41u);
  EXPECT_EQ(f.hello.tenant, "ward-3.bed_12");
  EXPECT_EQ(f.hello.scenario, "paper-baseline");
}

TEST(NetWireTest, DataSamplesAreBitExact) {
  // Values chosen to catch any non-bit-transparent transport: denormal,
  // negative zero, extremes, and an irrational dense in the mantissa.
  const std::vector<Real> samples = {
      0.1, -0.3333333333333333, 5e-324, -0.0, 0.0,
      std::numeric_limits<Real>::max(), std::numeric_limits<Real>::lowest(),
      1.6180339887498949};
  std::vector<std::uint8_t> bytes;
  wire::append_data(bytes, 1234567890123ULL, 42, samples);
  const wire::Frame f = decode_one(bytes);
  ASSERT_EQ(f.type, wire::FrameType::kData);
  EXPECT_EQ(f.data.session_id, 1234567890123ULL);
  EXPECT_EQ(f.data.seq, 42u);
  ASSERT_EQ(f.data.samples.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(f.data.samples[i]),
              std::bit_cast<std::uint64_t>(samples[i]))
        << "sample " << i;
  }
}

TEST(NetWireTest, ControlAndEndRoundTrip) {
  wire::ControlBody c;
  c.code = wire::ControlCode::kError;
  c.session_id = 9;
  c.value = static_cast<std::uint64_t>(wire::ErrorCode::kBadSequence);
  c.message = "expected seq 3, got 7";
  std::vector<std::uint8_t> control;
  wire::append_control(control, c);
  const wire::Frame fc = decode_one(control);
  ASSERT_EQ(fc.type, wire::FrameType::kControl);
  EXPECT_EQ(fc.control.code, wire::ControlCode::kError);
  EXPECT_EQ(fc.control.session_id, 9u);
  EXPECT_EQ(fc.control.value,
            static_cast<std::uint64_t>(wire::ErrorCode::kBadSequence));
  EXPECT_EQ(fc.control.message, "expected seq 3, got 7");

  std::vector<std::uint8_t> end;
  wire::append_end(end, 77);
  const wire::Frame fe = decode_one(end);
  ASSERT_EQ(fe.type, wire::FrameType::kEnd);
  EXPECT_EQ(fe.end.session_id, 77u);
}

TEST(NetWireTest, ByteAtATimeFeedDecodesTheWholeStream) {
  std::vector<std::uint8_t> stream;
  wire::HelloBody h;
  h.tenant = "t";
  wire::append_hello(stream, h);
  wire::append_data(stream, 1, 0, std::vector<Real>{0.25, -0.5});
  wire::append_end(stream, 1);

  wire::FrameDecoder dec;
  std::vector<wire::FrameType> seen;
  for (const std::uint8_t byte : stream) {
    dec.feed(std::vector<std::uint8_t>{byte});
    for (;;) {
      wire::Frame f;
      std::string reason;
      const auto s = dec.next(&f, &reason);
      if (s != wire::FrameDecoder::Status::kFrame) {
        ASSERT_EQ(s, wire::FrameDecoder::Status::kNeedMore) << reason;
        break;
      }
      seen.push_back(f.type);
    }
  }
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], wire::FrameType::kHello);
  EXPECT_EQ(seen[1], wire::FrameType::kData);
  EXPECT_EQ(seen[2], wire::FrameType::kEnd);
}

TEST(NetWireTest, EveryTwoPartSplitDecodesIdentically) {
  std::vector<std::uint8_t> stream;
  wire::append_data(stream, 3, 1, std::vector<Real>{1.0, 2.0, 3.0});
  wire::append_control(stream,
                       {wire::ControlCode::kChunkAck, 3, 1, "ok"});
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    wire::FrameDecoder dec;
    dec.feed(std::span<const std::uint8_t>(stream.data(), cut));
    dec.feed(std::span<const std::uint8_t>(stream.data() + cut,
                                           stream.size() - cut));
    wire::Frame f;
    std::string reason;
    ASSERT_EQ(dec.next(&f, &reason), wire::FrameDecoder::Status::kFrame)
        << "cut at " << cut << ": " << reason;
    EXPECT_EQ(f.type, wire::FrameType::kData);
    ASSERT_EQ(dec.next(&f, &reason), wire::FrameDecoder::Status::kFrame)
        << "cut at " << cut << ": " << reason;
    EXPECT_EQ(f.type, wire::FrameType::kControl);
    EXPECT_EQ(dec.next(&f, &reason),
              wire::FrameDecoder::Status::kNeedMore);
  }
}

TEST(NetWireTest, TruncatedFrameWaitsForTheRest) {
  std::vector<std::uint8_t> bytes;
  wire::append_data(bytes, 1, 0, std::vector<Real>{1.0});
  wire::FrameDecoder dec;
  dec.feed(std::span<const std::uint8_t>(bytes.data(), bytes.size() - 1));
  wire::Frame f;
  std::string reason;
  EXPECT_EQ(dec.next(&f, &reason), wire::FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(dec.next(&f, &reason), wire::FrameDecoder::Status::kNeedMore);
  dec.feed(std::span<const std::uint8_t>(bytes.data() + bytes.size() - 1, 1));
  EXPECT_EQ(dec.next(&f, &reason), wire::FrameDecoder::Status::kFrame);
}

TEST(NetWireTest, ZeroLengthFrameIsFatalAndSticky) {
  wire::FrameDecoder dec;
  dec.feed(std::vector<std::uint8_t>{0, 0, 0, 0});
  wire::Frame f;
  std::string reason;
  EXPECT_EQ(dec.next(&f, &reason), wire::FrameDecoder::Status::kFatal);
  EXPECT_NE(reason.find("zero-length"), std::string::npos);
  // Sticky: even a valid frame afterwards cannot resurrect the stream.
  std::vector<std::uint8_t> end;
  wire::append_end(end, 1);
  dec.feed(end);
  EXPECT_EQ(dec.next(&f, &reason), wire::FrameDecoder::Status::kFatal);
}

TEST(NetWireTest, OversizedFrameIsFatalWithoutBuffering) {
  wire::FrameDecoder dec;
  // Length prefix claims ~4 GiB; only the 4 prefix bytes ever arrive.
  dec.feed(std::vector<std::uint8_t>{0xFF, 0xFF, 0xFF, 0xFF});
  wire::Frame f;
  std::string reason;
  EXPECT_EQ(dec.next(&f, &reason), wire::FrameDecoder::Status::kFatal);
  EXPECT_NE(reason.find("oversized"), std::string::npos);
}

TEST(NetWireTest, UnknownFrameTypeIsSkippedNotFatal) {
  std::vector<std::uint8_t> stream = raw_frame({0x7F, 1, 2, 3});
  wire::append_end(stream, 5);  // a good frame right behind the bad one
  wire::FrameDecoder dec;
  dec.feed(stream);
  wire::Frame f;
  std::string reason;
  EXPECT_EQ(dec.next(&f, &reason), wire::FrameDecoder::Status::kBadFrame);
  EXPECT_NE(reason.find("unknown frame type"), std::string::npos);
  ASSERT_EQ(dec.next(&f, &reason), wire::FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.type, wire::FrameType::kEnd);
  EXPECT_EQ(f.end.session_id, 5u);
}

TEST(NetWireTest, MalformedPayloadsAreTypedBadFrames) {
  const struct {
    std::vector<std::uint8_t> payload;
    const char* reason_substr;
  } cases[] = {
      // HELLO cut off inside the version field.
      {{static_cast<std::uint8_t>(wire::FrameType::kHello), 1},
       "malformed HELLO"},
      // HELLO whose tenant length overruns the payload.
      {{static_cast<std::uint8_t>(wire::FrameType::kHello), 1, 0, 1, 0, 0,
        0, 0, 0, 0xFF, 0xFF},
       "malformed HELLO"},
      // DATA header truncated.
      {{static_cast<std::uint8_t>(wire::FrameType::kData), 1, 2, 3},
       "malformed DATA header"},
      // DATA claiming two samples but carrying none.
      {{static_cast<std::uint8_t>(wire::FrameType::kData), 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0},
       "overruns payload"},
      // END with a trailing byte.
      {{static_cast<std::uint8_t>(wire::FrameType::kEnd), 0, 0, 0, 0, 0, 0,
        0, 0, 9},
       "malformed END"},
      // CONTROL with an out-of-range code.
      {{static_cast<std::uint8_t>(wire::FrameType::kControl), 99, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
       "unknown CONTROL code"},
  };
  for (const auto& c : cases) {
    wire::FrameDecoder dec;
    dec.feed(raw_frame(c.payload));
    wire::Frame f;
    std::string reason;
    EXPECT_EQ(dec.next(&f, &reason), wire::FrameDecoder::Status::kBadFrame)
        << c.reason_substr;
    EXPECT_NE(reason.find(c.reason_substr), std::string::npos)
        << "got reason: " << reason;
    // The stream survives the bad payload.
    std::vector<std::uint8_t> end;
    wire::append_end(end, 1);
    dec.feed(end);
    EXPECT_EQ(dec.next(&f, &reason), wire::FrameDecoder::Status::kFrame)
        << c.reason_substr;
  }
}

TEST(NetWireTest, HugeDeclaredSampleCountIsABadFrameNotAnAllocation) {
  // A 21-byte DATA payload declaring 2^32-1 samples: the count must be
  // checked against the bytes actually present BEFORE any reserve — a
  // ~34 GB allocation attempt would kill the daemon with bad_alloc from
  // one tiny pre-HELLO frame.
  std::vector<std::uint8_t> payload = {
      static_cast<std::uint8_t>(wire::FrameType::kData)};
  payload.insert(payload.end(), 16, 0);  // session id + seq
  payload.insert(payload.end(), {0xFF, 0xFF, 0xFF, 0xFF});  // count
  wire::FrameDecoder dec;
  dec.feed(raw_frame(payload));
  wire::Frame f;
  std::string reason;
  EXPECT_EQ(dec.next(&f, &reason), wire::FrameDecoder::Status::kBadFrame);
  EXPECT_NE(reason.find("overruns payload"), std::string::npos);
  // The stream survives the rejected frame.
  std::vector<std::uint8_t> end;
  wire::append_end(end, 1);
  dec.feed(end);
  EXPECT_EQ(dec.next(&f, &reason), wire::FrameDecoder::Status::kFrame);
}

TEST(NetWireTest, OverlongMessageIsTruncatedToADecodableFrame) {
  // Strings cap at kMaxStringLen on decode, so the encoder must truncate
  // (a server error carrying a long exception message would otherwise
  // produce a frame no conforming peer can parse).
  wire::ControlBody c;
  c.code = wire::ControlCode::kError;
  c.session_id = 1;
  c.value = static_cast<std::uint64_t>(wire::ErrorCode::kUnknownScenario);
  c.message = std::string(4 * wire::kMaxStringLen, 'x');
  std::vector<std::uint8_t> control;
  wire::append_control(control, c);
  const wire::Frame f = decode_one(control);
  ASSERT_EQ(f.type, wire::FrameType::kControl);
  EXPECT_EQ(f.control.message, std::string(wire::kMaxStringLen, 'x'));

  wire::HelloBody h;
  h.tenant = std::string(300, 't');
  std::vector<std::uint8_t> hello;
  wire::append_hello(hello, h);
  const wire::Frame fh = decode_one(hello);
  ASSERT_EQ(fh.type, wire::FrameType::kHello);
  EXPECT_EQ(fh.hello.tenant, std::string(wire::kMaxStringLen, 't'));
}

TEST(NetWireTest, DataWithTrailingBytesIsBad) {
  std::vector<std::uint8_t> bytes;
  wire::append_data(bytes, 1, 0, std::vector<Real>{1.0});
  bytes.push_back(0xAB);  // extend payload past the declared samples
  // Patch the length prefix to cover the extra byte.
  const auto len = static_cast<std::uint32_t>(bytes.size() - 4);
  for (int i = 0; i < 4; ++i) {
    bytes[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((len >> (8 * i)) & 0xFF);
  }
  wire::FrameDecoder dec;
  dec.feed(bytes);
  wire::Frame f;
  std::string reason;
  EXPECT_EQ(dec.next(&f, &reason), wire::FrameDecoder::Status::kBadFrame);
  EXPECT_NE(reason.find("trailing bytes"), std::string::npos);
}

TEST(NetWireTest, LongLivedDecoderReclaimsItsBuffer) {
  wire::FrameDecoder dec;
  std::vector<std::uint8_t> one;
  wire::append_data(one, 1, 0, std::vector<Real>(64, 0.5));
  for (int round = 0; round < 200; ++round) {
    dec.feed(one);
    wire::Frame f;
    std::string reason;
    ASSERT_EQ(dec.next(&f, &reason), wire::FrameDecoder::Status::kFrame);
  }
  // Everything consumed: the compaction keeps the window, not history.
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(NetWireTest, ErrorCodeNamesAreStable) {
  EXPECT_STREQ(wire::error_code_name(wire::ErrorCode::kVersionMismatch),
               "version-mismatch");
  EXPECT_STREQ(wire::error_code_name(wire::ErrorCode::kQuarantined),
               "quarantined");
  EXPECT_STREQ(wire::error_code_name(wire::ErrorCode::kDraining),
               "draining");
}

}  // namespace
