// Loopback tests of the `datc serve` ingest daemon: the parity contract
// (a session streamed over the wire produces a bit-identical envelope to
// a direct StreamingSession / SharedAerStreamingSession run on the same
// chunks), the typed-reject surface (version, scenario, tenant, session
// limit, sequence gaps, framing loss, quarantine, draining), and the
// degradation guarantees (malformed frames and broken peers never take
// down other sessions, backpressure never deadlocks).

#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "config/factory.hpp"
#include "config/scenario.hpp"
#include "emg/dataset.hpp"
#include "runtime/session.hpp"
#include "store/replay.hpp"

namespace {

namespace fs = std::filesystem;
using namespace datc;
using dsp::Real;
namespace wire = datc::net::wire;

constexpr std::size_t kChunk = 256;

/// Noise source (fast synthesis), short duration, two worker threads —
/// the whole suite stays well under a second of signal per session.
config::ScenarioSpec fast_spec() {
  config::ScenarioSpec spec;
  spec.name = "net-serve-test";
  spec.source.model = config::SourceModel::kFilteredNoise;
  spec.source.duration_s = 1.0;
  spec.session.chunk_samples = kChunk;
  spec.session.jobs = 2;
  return spec;
}

config::ScenarioSpec shared_spec(std::size_t channels) {
  config::ScenarioSpec spec = fast_spec();
  spec.name = "net-serve-shared-test";
  spec.source.channels = channels;
  spec.aer.topology = config::LinkTopology::kSharedAer;
  return spec;
}

std::vector<Real> to_vector(const dsp::TimeSeries& ts) {
  std::vector<Real> out(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) out[i] = ts[i];
  return out;
}

class NetServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("datc_net_serve_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override {
    stop();
    server_.reset();
    fs::remove_all(dir_);
  }

  /// Binds an ephemeral loopback port and runs the event loop on a
  /// background thread; `mutate` tweaks the ServeConfig (limits) first.
  void start(const config::ScenarioSpec& spec,
             void (*mutate)(net::ServeConfig&) = nullptr) {
    net::ServeConfig cfg = net::make_serve_config(spec, out_dir());
    if (mutate != nullptr) mutate(cfg);
    server_ = std::make_unique<net::Server>(std::move(cfg));
    loop_ = std::thread([this] { server_->run(); });
  }

  /// Stops the loop but keeps the Server alive: tests read stats()
  /// after the join (TearDown destroys it).
  void stop() {
    if (server_ != nullptr) server_->request_stop();
    if (loop_.joinable()) loop_.join();
  }

  [[nodiscard]] std::string out_dir() const { return dir_.string(); }
  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] net::ServerStats stats() const { return server_->stats(); }
  [[nodiscard]] std::string session_dir(std::uint64_t id,
                                        const std::string& tenant =
                                            "default") const {
    return out_dir() + "/" + tenant + "/session-" + std::to_string(id);
  }

  /// Streams `signal` in kChunk*channels-sample rounds and ENDs.
  static std::uint64_t stream_all(net::Client& client,
                                  std::span<const Real> signal,
                                  std::size_t channels = 1) {
    const std::size_t stride = kChunk * channels;
    for (std::size_t at = 0; at < signal.size(); at += stride) {
      client.send_chunk(signal.subspan(at, std::min(stride,
                                                    signal.size() - at)));
    }
    return client.finish();
  }

  fs::path dir_;
  std::unique_ptr<net::Server> server_;
  std::thread loop_;
};

/// The direct (in-process) envelope for one private channel over the
/// same chunk boundaries the client uses.
std::vector<Real> direct_private_envelope(
    const config::PipelineFactory& factory, std::uint32_t channel_id,
    std::span<const Real> signal) {
  auto session = factory.make_streaming_session(channel_id);
  std::vector<Real> env;
  for (std::size_t at = 0; at < signal.size(); at += kChunk) {
    session->push_chunk(
        signal.subspan(at, std::min(kChunk, signal.size() - at)));
    session->drain_arv(env);
  }
  session->finish();
  session->drain_arv(env);
  return env;
}

TEST_F(NetServeTest, PrivateEnvelopeParityWithDirectSession) {
  const config::ScenarioSpec spec = fast_spec();
  start(spec);

  const config::PipelineFactory factory(spec);
  constexpr std::uint32_t kChannelId = 3;
  const std::vector<Real> signal =
      to_vector(factory.make_recording(kChannelId).emg_v);

  net::Client client("127.0.0.1", port());
  wire::HelloBody hello;
  hello.channel_id = kChannelId;
  hello.tenant = "parity";
  const std::uint64_t id = client.hello(hello);
  const std::uint64_t served_env = stream_all(client, signal);

  const std::vector<Real> direct =
      direct_private_envelope(factory, kChannelId, signal);
  EXPECT_EQ(served_env, direct.size());

  // The wire is bit-transparent end to end: the persisted envelope is
  // the direct run's envelope, bit for bit.
  const std::vector<Real> persisted =
      store::read_envelope_f64(session_dir(id, "parity"));
  ASSERT_EQ(persisted.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(persisted[i]),
              std::bit_cast<std::uint64_t>(direct[i]))
        << "envelope sample " << i;
  }

  stop();
  const net::ServerStats st = stats();
  EXPECT_EQ(st.sessions_finished, 1u);
  EXPECT_EQ(st.sessions_aborted, 0u);
  EXPECT_EQ(st.chunks_rx, (signal.size() + kChunk - 1) / kChunk);
  EXPECT_EQ(st.samples_rx, signal.size());
  EXPECT_EQ(st.chunk_to_envelope.count, st.chunks_rx);
  EXPECT_LE(st.chunk_to_envelope.p50_us, st.chunk_to_envelope.p99_us);
}

TEST_F(NetServeTest, SharedAerEnvelopeParityWithDirectSession) {
  constexpr std::size_t kChannels = 3;
  const config::ScenarioSpec spec = shared_spec(kChannels);
  start(spec);

  const config::PipelineFactory factory(spec);
  const std::vector<emg::Recording> recordings = factory.make_recordings();
  ASSERT_EQ(recordings.size(), kChannels);

  // Channel-major lockstep rounds, exactly as the load generator ships.
  std::vector<std::vector<Real>> chans;
  chans.reserve(kChannels);
  for (const auto& r : recordings) chans.push_back(to_vector(r.emg_v));
  const std::size_t per_channel = chans[0].size();
  std::vector<Real> signal;
  signal.reserve(per_channel * kChannels);
  for (std::size_t at = 0; at < per_channel; at += kChunk) {
    const std::size_t k = std::min(kChunk, per_channel - at);
    for (std::size_t ch = 0; ch < kChannels; ++ch) {
      signal.insert(signal.end(), chans[ch].begin() + static_cast<long>(at),
                    chans[ch].begin() + static_cast<long>(at + k));
    }
  }

  net::Client client("127.0.0.1", port());
  wire::HelloBody hello;
  hello.channel_count = kChannels;
  const std::uint64_t id = client.hello(hello);
  stream_all(client, signal, kChannels);

  // Direct shared run on the same rounds.
  auto direct = factory.make_shared_session();
  std::vector<std::vector<Real>> direct_env(kChannels);
  for (std::size_t at = 0; at < per_channel; at += kChunk) {
    const std::size_t k = std::min(kChunk, per_channel - at);
    std::vector<Real> round;
    round.reserve(k * kChannels);
    for (std::size_t ch = 0; ch < kChannels; ++ch) {
      round.insert(round.end(), chans[ch].begin() + static_cast<long>(at),
                   chans[ch].begin() + static_cast<long>(at + k));
    }
    direct->push_chunk(round);
    for (std::size_t ch = 0; ch < kChannels; ++ch) {
      direct->drain_arv(ch, direct_env[ch]);
    }
  }
  direct->finish();
  for (std::size_t ch = 0; ch < kChannels; ++ch) {
    direct->drain_arv(ch, direct_env[ch]);
  }

  // Channel 0 lives in the session dir; channels >= 1 in ch<k>/ subdirs.
  for (std::size_t ch = 0; ch < kChannels; ++ch) {
    const std::string dir =
        ch == 0 ? session_dir(id)
                : session_dir(id) + "/ch" + std::to_string(ch);
    const std::vector<Real> persisted = store::read_envelope_f64(dir);
    ASSERT_EQ(persisted.size(), direct_env[ch].size()) << "channel " << ch;
    for (std::size_t i = 0; i < persisted.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(persisted[i]),
                std::bit_cast<std::uint64_t>(direct_env[ch][i]))
          << "channel " << ch << " sample " << i;
    }
  }
}

TEST_F(NetServeTest, DuplicateSeqIsACountedDropNotAReject) {
  const config::ScenarioSpec spec = fast_spec();
  start(spec);

  const config::PipelineFactory factory(spec);
  const std::vector<Real> signal =
      to_vector(factory.make_recording(0).emg_v);
  const std::span<const Real> s(signal);

  net::Client client("127.0.0.1", port());
  client.hello(wire::HelloBody{});
  client.send_chunk(s.subspan(0, kChunk));
  client.set_next_seq(0);  // retransmit: same seq, same payload
  client.send_chunk(s.subspan(0, kChunk));
  client.set_next_seq(1);
  client.send_chunk(s.subspan(kChunk, kChunk));
  const std::uint64_t served_env = client.finish();

  // The duplicate was dropped, so the envelope equals a two-chunk run.
  const std::vector<Real> direct =
      direct_private_envelope(factory, 0, s.subspan(0, 2 * kChunk));
  EXPECT_EQ(served_env, direct.size());

  stop();
  const net::ServerStats st = stats();
  EXPECT_EQ(st.seq_duplicates_dropped, 1u);
  EXPECT_EQ(st.chunks_rx, 2u);
  EXPECT_EQ(st.sessions_finished, 1u);
}

TEST_F(NetServeTest, SequenceGapIsATypedRejectAndAbort) {
  start(fast_spec());

  const std::vector<Real> chunk(kChunk, 0.01);
  net::Client client("127.0.0.1", port());
  client.hello(wire::HelloBody{});
  client.send_chunk(chunk);    // seq 0: fine
  client.set_next_seq(7);      // gap: a future seq the server never saw
  client.send_chunk(chunk);
  const wire::ControlBody err = client.read_control();
  EXPECT_EQ(err.code, wire::ControlCode::kError);
  EXPECT_EQ(err.value,
            static_cast<std::uint64_t>(wire::ErrorCode::kBadSequence));

  stop();
  const net::ServerStats st = stats();
  EXPECT_EQ(st.seq_gap_rejects, 1u);
  EXPECT_EQ(st.sessions_aborted, 1u);
  EXPECT_EQ(st.sessions_finished, 0u);
}

TEST_F(NetServeTest, VersionMismatchIsATypedReject) {
  start(fast_spec());

  wire::HelloBody hello;
  hello.version = wire::kProtocolVersion + 1;
  try {
    net::Client client("127.0.0.1", port());
    client.hello(hello);
    FAIL() << "future protocol version was accepted";
  } catch (const net::ClientError& e) {
    EXPECT_EQ(e.code(), wire::ErrorCode::kVersionMismatch);
  }

  // The reject cost that one connection, nothing else.
  net::Client ok("127.0.0.1", port());
  ok.hello(wire::HelloBody{});
  const std::vector<Real> chunk(kChunk, 0.01);
  ok.send_chunk(chunk);
  EXPECT_GT(ok.finish(), 0u);

  stop();
  EXPECT_EQ(stats().version_rejects, 1u);
}

TEST_F(NetServeTest, UnknownScenarioAndBadTenantAreTypedRejects) {
  start(fast_spec());

  {
    // No such preset — and file paths must never resolve remotely.
    wire::HelloBody hello;
    hello.scenario = "../scenarios/paper-baseline.datc";
    try {
      net::Client client("127.0.0.1", port());
      client.hello(hello);
      FAIL() << "file-path scenario ref was accepted";
    } catch (const net::ClientError& e) {
      EXPECT_EQ(e.code(), wire::ErrorCode::kUnknownScenario);
    }
  }
  {
    wire::HelloBody hello;
    hello.tenant = "../escape";
    try {
      net::Client client("127.0.0.1", port());
      client.hello(hello);
      FAIL() << "path-traversal tenant was accepted";
    } catch (const net::ClientError& e) {
      EXPECT_EQ(e.code(), wire::ErrorCode::kBadState);
    }
  }
  {
    // Wrong channel count for a private-topology scenario.
    wire::HelloBody hello;
    hello.channel_count = 8;
    try {
      net::Client client("127.0.0.1", port());
      client.hello(hello);
      FAIL() << "channel-count mismatch was accepted";
    } catch (const net::ClientError& e) {
      EXPECT_EQ(e.code(), wire::ErrorCode::kBadState);
    }
  }

  stop();
  EXPECT_EQ(stats().scenario_rejects, 1u);
  EXPECT_EQ(stats().sessions_opened, 0u);
}

TEST_F(NetServeTest, SessionLimitRejectsUntilASlotFrees) {
  start(fast_spec(), [](net::ServeConfig& cfg) { cfg.max_sessions = 1; });

  const std::vector<Real> chunk(kChunk, 0.01);
  net::Client first("127.0.0.1", port());
  first.hello(wire::HelloBody{});
  first.send_chunk(chunk);

  try {
    net::Client second("127.0.0.1", port());
    second.hello(wire::HelloBody{});
    FAIL() << "second concurrent session exceeded serve.max_sessions = 1";
  } catch (const net::ClientError& e) {
    EXPECT_EQ(e.code(), wire::ErrorCode::kSessionLimit);
  }

  EXPECT_GT(first.finish(), 0u);  // finishing frees the slot...
  net::Client third("127.0.0.1", port());
  third.hello(wire::HelloBody{});  // ...so a new session fits again
  third.send_chunk(chunk);
  EXPECT_GT(third.finish(), 0u);

  stop();
  EXPECT_EQ(stats().session_limit_rejects, 1u);
  EXPECT_EQ(stats().sessions_finished, 2u);
}

TEST_F(NetServeTest, FramingLossClosesOneConnectionNotTheServer) {
  start(fast_spec());

  {
    net::Client broken("127.0.0.1", port());
    broken.hello(wire::HelloBody{});
    // A length prefix claiming ~4 GiB: the stream cannot be resync'd.
    const std::vector<std::uint8_t> garbage{0xFF, 0xFF, 0xFF, 0xFF};
    broken.send_raw(garbage);
    const wire::ControlBody err = broken.read_control();
    EXPECT_EQ(err.code, wire::ControlCode::kError);
    EXPECT_EQ(err.value,
              static_cast<std::uint64_t>(wire::ErrorCode::kFramingLost));
  }

  // The daemon survives the broken peer; fresh sessions stream fine.
  net::Client ok("127.0.0.1", port());
  ok.hello(wire::HelloBody{});
  const std::vector<Real> chunk(kChunk, 0.01);
  ok.send_chunk(chunk);
  EXPECT_GT(ok.finish(), 0u);

  stop();
  const net::ServerStats st = stats();
  EXPECT_EQ(st.framing_lost, 1u);
  EXPECT_EQ(st.sessions_aborted, 1u);
  EXPECT_EQ(st.sessions_finished, 1u);
}

TEST_F(NetServeTest, MalformedPayloadIsSkippedAndTheSessionContinues) {
  const config::ScenarioSpec spec = fast_spec();
  start(spec);

  const config::PipelineFactory factory(spec);
  const std::vector<Real> signal =
      to_vector(factory.make_recording(0).emg_v);
  const std::span<const Real> s(signal);

  net::Client client("127.0.0.1", port());
  client.hello(wire::HelloBody{});
  client.send_chunk(s.subspan(0, kChunk));

  // An intact frame with an unknown type byte: skipped, counted,
  // answered with a typed error — the connection stays up.
  const std::vector<std::uint8_t> bad = {4, 0, 0, 0, 0x7F, 1, 2, 3};
  client.send_raw(bad);
  const wire::ControlBody err = client.read_control();
  EXPECT_EQ(err.code, wire::ControlCode::kError);
  EXPECT_EQ(err.value,
            static_cast<std::uint64_t>(wire::ErrorCode::kMalformedFrame));

  client.send_chunk(s.subspan(kChunk, kChunk));
  const std::uint64_t served_env = client.finish();
  const std::vector<Real> direct =
      direct_private_envelope(factory, 0, s.subspan(0, 2 * kChunk));
  EXPECT_EQ(served_env, direct.size());

  stop();
  const net::ServerStats st = stats();
  EXPECT_EQ(st.frames_bad, 1u);
  EXPECT_EQ(st.sessions_finished, 1u);
}

TEST_F(NetServeTest, BackpressureBoundsInflightWithoutDeadlock) {
  // Every chunk stalls on the strand (the seeded stall fault, probability
  // 1) for far longer than the event loop takes from submit to the
  // inflight check, so no chunk can finish inside that window and the
  // throttle count does not depend on thread timing.
  config::ScenarioSpec spec = fast_spec();
  spec.fault.chunk_stall_prob = 1.0;
  spec.fault.chunk_stall_ms = 50.0;
  start(spec, [](net::ServeConfig& cfg) { cfg.max_inflight_chunks = 1; });

  constexpr std::size_t kChunks = 24;
  const std::vector<Real> chunk(kChunk, 0.01);
  net::Client client("127.0.0.1", port());
  client.hello(wire::HelloBody{});
  for (std::size_t i = 0; i < kChunks; ++i) client.send_chunk(chunk);
  EXPECT_GT(client.finish(), 0u);

  stop();
  const net::ServerStats st = stats();
  EXPECT_EQ(st.chunks_rx, kChunks);
  // Bound 1 means a submit hits the bound whenever the strand has not
  // already finished the chunk in the submit->check window — throttling
  // provably engaged many times, and the session still completed.
  EXPECT_GT(st.throttle_events, kChunks / 2);
  EXPECT_EQ(st.sessions_finished, 1u);
}

TEST_F(NetServeTest, QuarantinedSessionGetsATypedErrorOthersKeepStreaming) {
  constexpr std::size_t kChannels = 2;
  start(shared_spec(kChannels));

  net::Client poisoned("127.0.0.1", port());
  wire::HelloBody hello;
  hello.channel_count = kChannels;
  poisoned.hello(hello);
  // 3 samples cannot split across 2 channels: the engine throws on the
  // strand, the shard quarantines the session, the sweep surfaces it.
  const std::vector<Real> odd(3, 0.01);
  poisoned.send_chunk(odd);
  const wire::ControlBody err = poisoned.read_control();
  EXPECT_EQ(err.code, wire::ControlCode::kError);
  EXPECT_EQ(err.value,
            static_cast<std::uint64_t>(wire::ErrorCode::kQuarantined));

  // Sibling sessions are untouched by the quarantine.
  net::Client ok("127.0.0.1", port());
  ok.hello(hello);
  const std::vector<Real> chunk(kChunk * kChannels, 0.01);
  ok.send_chunk(chunk);
  EXPECT_GT(ok.finish(), 0u);

  stop();
  const net::ServerStats st = stats();
  EXPECT_EQ(st.quarantined_sessions, 1u);
  EXPECT_EQ(st.sessions_finished, 1u);
}

TEST_F(NetServeTest, StopDrainsOpenSessionsWithATypedGoodbye) {
  start(fast_spec());

  net::Client client("127.0.0.1", port());
  client.hello(wire::HelloBody{});
  const std::vector<Real> chunk(kChunk, 0.01);
  client.send_chunk(chunk);

  server_->request_stop();
  const wire::ControlBody err = client.read_control();
  EXPECT_EQ(err.code, wire::ControlCode::kError);
  EXPECT_EQ(err.value,
            static_cast<std::uint64_t>(wire::ErrorCode::kDraining));

  stop();  // joins run(): the drain flushed the accepted work
  const net::ServerStats st = stats();
  EXPECT_EQ(st.sessions_aborted, 1u);
  EXPECT_EQ(st.sessions_active, 0u);
  // The aborted session still drained and persisted what it accepted.
  EXPECT_TRUE(store::has_envelope_f64(session_dir(1)));
}

TEST_F(NetServeTest, DrainForceClosesAPeerThatNeverDrainsItsErrors) {
  start(fast_spec());

  // A raw peer with a tiny receive window floods intact-but-malformed
  // frames and never reads the typed error responses: the server's
  // output backs up until the kernel buffer is full and POLLOUT never
  // fires again. Graceful drain must still finish — the close linger is
  // bounded, not at the dead peer's discretion (before the bound this
  // join hung forever).
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  // ~330 k intact frames with an unknown type byte -> ~330 k error
  // responses (~14 MB), far past what the kernel can buffer towards a
  // closed receive window (tcp_wmem autotunes up to ~4 MB).
  constexpr std::uint64_t kBursts = 40;
  constexpr std::uint64_t kFramesPerBurst = 8192;
  std::vector<std::uint8_t> burst;
  const std::vector<std::uint8_t> bad = {4, 0, 0, 0, 0x7F, 1, 2, 3};
  for (std::uint64_t i = 0; i < kFramesPerBurst; ++i) {
    burst.insert(burst.end(), bad.begin(), bad.end());
  }
  for (std::uint64_t i = 0; i < kBursts; ++i) {
    ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(burst.size()));
  }
  // Wait until the server has answered the WHOLE flood (processing is
  // not gated on the peer reading), so megabytes of error output are
  // provably stuck behind the closed receive window before the drain.
  constexpr std::uint64_t kFrames = kBursts * kFramesPerBurst;
  for (int i = 0; i < 1000 && stats().frames_bad < kFrames; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(stats().frames_bad, kFrames);
  ASSERT_LT(stats().bytes_tx, kFrames * 30);  // most of it never flushed

  server_->request_stop();
  stop();  // joins run(): must return despite the unflushable zombie
  ::close(fd);
  const net::ServerStats st = stats();
  EXPECT_GT(st.frames_bad, 0u);
  EXPECT_EQ(st.sessions_active, 0u);
}

TEST_F(NetServeTest, LoadGenRunsManyConcurrentSessionsToCompletion) {
  const config::ScenarioSpec spec = fast_spec();
  start(spec);

  const config::PipelineFactory factory(spec);
  const std::vector<Real> signal =
      to_vector(factory.make_recording(0).emg_v);

  net::LoadGenConfig lg;
  lg.port = port();
  lg.sessions = 8;
  lg.concurrency = 4;
  lg.chunk_samples = kChunk;
  const net::LoadGenReport report = net::run_loadgen(lg, signal);
  EXPECT_EQ(report.sessions_ok, 8u);
  EXPECT_EQ(report.sessions_failed, 0u);
  EXPECT_EQ(report.samples_sent, 8u * signal.size());
  EXPECT_GT(report.envelope_samples, 0u);

  stop();
  const net::ServerStats st = stats();
  EXPECT_EQ(st.sessions_finished, 8u);
  EXPECT_EQ(st.samples_rx, 8u * signal.size());
  EXPECT_EQ(st.sessions_active, 0u);
}

}  // namespace
