// serve-open-256: open loop against an in-process `datc serve`. One
// generator thread drives <= nproc connection slots; each slot streams
// long private sessions back to back (the serve-smoke chain, 256-sample
// chunks) on a fixed schedule at one aggregate rate, whatever the server
// does. The server persists every session through a Recorder. Per-chunk
// compute is small here: sockets, the event loop, strand queueing,
// Recorder writes and session open/close set the latency.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "dsp/stats.hpp"
#include "emg/evaluation.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "openloop.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "store/replay.hpp"

namespace perfbench {

namespace {

using namespace datc;
namespace wire = net::wire;

constexpr std::size_t kMaxSlots = 4;
constexpr std::size_t kSignals = 8;
constexpr Real kSessionS = 20.0;
/// Aggregate offered load in signal-seconds per wall-second: about 40% of
/// what the daemon sustains with 4 persisting connections after warm-up.
constexpr double kRateXRealtime = 2000.0;
constexpr double kWarmupS = 1.0;
/// A chunk must be acknowledged within this many ms of its due time.
constexpr double kLatencyLimitMs = 50.0;
/// How long stragglers may take to finish once the schedule ends.
constexpr double kDrainTimeoutS = 20.0;
constexpr int kSetupReps = 3;

struct Conn {
  int fd{-1};
  std::size_t slot{0};
  std::size_t signal{0};
  std::uint32_t channel_id{0};
  std::string tenant;
  std::vector<std::uint8_t> out;
  std::size_t out_pos{0};
  wire::FrameDecoder decoder;
  AckLedger ledger;
  std::vector<bool> counted;  ///< chunk due inside the measured window
  std::uint64_t session_id{0};
  bool done{false};
  bool failed{false};
  std::string error;
};

struct Slot {
  std::uint64_t next_chunk{0};  ///< index into the slot's chunk schedule
  std::size_t sessions{0};
  Conn* current{nullptr};
};

int open_connection(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) throw std::runtime_error("serve: socket() failed");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    throw std::runtime_error("serve: connect() failed");
  }
  return fd;
}

/// The generator: everything one open-loop run observed.
struct OpenLoop {
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<double> lag_s;
  double window_start_s{0.0};
  double end_s{0.0};  ///< when the drain finished (never-acked bound)
};

class Generator {
 public:
  Generator(std::uint16_t port, std::size_t slots,
            const std::vector<std::vector<std::span<const Real>>>& chunks,
            double rate_x, double chunk_signal_s)
      : port_(port),
        slots_(slots),
        chunks_(chunks),
        period_s_(static_cast<double>(slots) * chunk_signal_s / rate_x) {}

  OpenLoop run(double warmup_s, double seconds) {
    OpenLoop r;
    const double t0 = now_s();
    t_warm_ = t0 + warmup_s;
    r.window_start_s = t_warm_;
    const double t_end = t_warm_ + seconds;
    std::vector<pollfd> pfds;
    while (true) {
      const double now = now_s();
      // Every chunk now due goes out, in due order within each slot.
      for (std::size_t s = 0; s < slots_.size(); ++s) {
        for (;;) {
          const double due = due_of(t0, s, slots_[s].next_chunk);
          if (due > now || due >= t_end) break;
          emit(s, due, now, r);
        }
      }
      if (now >= t_end) {
        for (auto& slot : slots_) end_session(slot);
      }
      pfds.clear();
      for (Conn* c : live_) {
        if (!c->done) flush(*c);
      }
      std::erase_if(live_, [](const Conn* c) { return c->done; });
      for (Conn* c : live_) {
        short ev = POLLIN;
        if (c->out_pos < c->out.size()) ev |= POLLOUT;
        pfds.push_back(pollfd{c->fd, ev, 0});
      }
      if (now >= t_end && live_.empty()) break;
      if (now >= t_end + kDrainTimeoutS) {
        for (Conn* c : live_) fail(*c, "no END ack before the drain timeout");
        break;
      }
      double wait = 0.01;
      if (now < t_end) {
        for (std::size_t s = 0; s < slots_.size(); ++s) {
          wait = std::min(wait, due_of(t0, s, slots_[s].next_chunk) - now);
        }
      }
      const double w = std::max(0.0, wait);
      timespec ts{};
      ts.tv_sec = static_cast<time_t>(w);
      ts.tv_nsec = static_cast<long>((w - std::floor(w)) * 1e9);
      const int rc = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
      if (rc < 0 && errno != EINTR) throw std::runtime_error("serve: ppoll");
      if (rc <= 0) continue;
      for (std::size_t i = 0; i < pfds.size(); ++i) {
        Conn& c = *live_[i];
        if ((pfds[i].revents & POLLIN) != 0) read(c);
        if (!c.done && (pfds[i].revents & POLLOUT) != 0) flush(c);
        if (!c.done && (pfds[i].revents & (POLLERR | POLLHUP)) != 0 &&
            (pfds[i].revents & POLLIN) == 0) {
          fail(c, "connection lost");
        }
      }
    }
    r.end_s = now_s();
    return r;
  }

 private:
  std::uint16_t port_;
  std::vector<Slot> slots_;
  const std::vector<std::vector<std::span<const Real>>>& chunks_;
  double period_s_;
  double t_warm_{0.0};
  std::vector<Conn*> live_;  ///< connections still waiting for their END ack

  /// Slots are staggered by a fraction of the period so their chunks
  /// interleave instead of arriving in bursts.
  [[nodiscard]] double due_of(double t0, std::size_t slot,
                              std::uint64_t n) const {
    return t0 + period_s_ * (static_cast<double>(n) +
                             static_cast<double>(slot) /
                                 static_cast<double>(slots_.size()));
  }

  void emit(std::size_t s, double due, double now, OpenLoop& r) {
    Slot& slot = slots_[s];
    if (slot.current == nullptr) {
      auto c = std::make_unique<Conn>();
      const std::size_t session = slot.sessions++;
      c->slot = s;
      c->signal = (session * slots_.size() + s) % chunks_.size();
      c->channel_id = static_cast<std::uint32_t>(session * slots_.size() + s);
      c->tenant = "slot" + std::to_string(s);
      c->fd = open_connection(port_);
      wire::HelloBody hello;
      hello.channel_id = c->channel_id;
      hello.tenant = c->tenant;
      wire::append_hello(c->out, hello);
      slot.current = c.get();
      live_.push_back(c.get());
      r.conns.push_back(std::move(c));
    }
    Conn& c = *slot.current;
    const auto& chunks = chunks_[c.signal];
    const std::uint64_t seq = c.ledger.registered();
    wire::append_data(c.out, 0, seq, chunks[seq]);
    c.ledger.add_due(due);
    const bool counted = due >= t_warm_;
    c.counted.push_back(counted);
    if (counted) r.lag_s.push_back(now - due);
    ++slot.next_chunk;
    if (seq + 1 == chunks.size()) end_session(slot);
  }

  static void end_session(Slot& slot) {
    if (slot.current == nullptr) return;
    wire::append_end(slot.current->out, 0);
    slot.current = nullptr;
  }

  void flush(Conn& c) {
    while (c.out_pos < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                               c.out.size() - c.out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_pos += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      fail(c, "send failed");
      return;
    }
    c.out.clear();
    c.out_pos = 0;
  }

  void read(Conn& c) {
    std::array<std::uint8_t, 16384> buf{};
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf.data(), buf.size(), 0);
      if (n > 0) {
        c.decoder.feed(std::span<const std::uint8_t>(
            buf.data(), static_cast<std::size_t>(n)));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      break;  // EOF: frames already buffered are still handled below
    }
    const double now = now_s();
    for (;;) {
      wire::Frame f;
      std::string reason;
      const auto st = c.decoder.next(&f, &reason);
      if (st == wire::FrameDecoder::Status::kNeedMore) break;
      if (st != wire::FrameDecoder::Status::kFrame) {
        fail(c, "undecodable server frame: " + reason);
        return;
      }
      if (f.type != wire::FrameType::kControl) continue;
      switch (f.control.code) {
        case wire::ControlCode::kHelloAck:
          c.session_id = f.control.value;
          break;
        case wire::ControlCode::kChunkAck:
          c.ledger.ack(f.control.value, now);
          break;
        case wire::ControlCode::kEndAck:
          c.ledger.ack_all(now);
          c.done = true;
          ::close(c.fd);
          return;
        case wire::ControlCode::kError:
          fail(c, "server error " +
                      std::string(wire::error_code_name(
                          static_cast<wire::ErrorCode>(f.control.value))) +
                      ": " + f.control.message);
          return;
      }
    }
  }

  void fail(Conn& c, const std::string& why) {
    if (c.done) return;
    c.failed = true;
    c.error = why;
    c.done = true;
    ::close(c.fd);
    // A session the generator gave up on stops taking chunks.
    for (auto& slot : slots_) {
      if (slot.current == &c) slot.current = nullptr;
    }
  }
};

struct Served {
  OpenLoop loop;
  net::ServerStats stats;
};

Served serve_open_loop(const config::PipelineFactory& factory,
                       const std::vector<std::vector<std::span<const Real>>>&
                           chunks,
                       std::size_t slots, double chunk_signal_s,
                       double seconds, const std::string& out_dir) {
  std::filesystem::remove_all(out_dir);
  std::filesystem::create_directories(out_dir);
  net::Server server(net::make_serve_config(factory.spec(), out_dir));
  std::thread loop([&server] { server.run(); });
  Served s;
  try {
    Generator gen(server.port(), slots, chunks, kRateXRealtime,
                  chunk_signal_s);
    s.loop = gen.run(kWarmupS, seconds);
  } catch (...) {
    server.request_stop();
    loop.join();
    throw;
  }
  server.request_stop();
  loop.join();
  s.stats = server.stats();
  return s;
}

/// Per-connection parity: the first whole session every slot completed,
/// as persisted by the server, against a direct StreamingSession fed the
/// same chunks.
void check_parity(const config::PipelineFactory& factory,
                  const Served& served,
                  const std::vector<std::vector<std::span<const Real>>>& chunks,
                  std::size_t slots, const std::string& out_dir,
                  Report& report) {
  for (std::size_t s = 0; s < slots; ++s) {
    const Conn* first = nullptr;
    for (const auto& c : served.loop.conns) {
      if (c->slot == s && c->done && !c->failed &&
          c->ledger.registered() == chunks[c->signal].size()) {
        first = c.get();
        break;
      }
    }
    report.check(first != nullptr,
                 "serve-open-256: slot " + std::to_string(s) +
                     " completed a whole session");
    if (first == nullptr) continue;
    auto direct = factory.make_streaming_session(first->channel_id);
    std::vector<Real> env;
    for (const auto& c : chunks[first->signal]) {
      direct->push_chunk(c);
      direct->drain_arv(env);
    }
    direct->finish();
    direct->drain_arv(env);
    const std::string dir = out_dir + "/" + first->tenant + "/session-" +
                            std::to_string(first->session_id);
    report.check(bit_equal(store::read_envelope_f64(dir), env),
                 "serve-open-256: slot " + std::to_string(s) +
                     " persisted envelope.f64 == direct StreamingSession");
  }
}

/// Mean envelope-vs-force correlation of every signal streamed through a
/// direct session (channel id = signal index).
double mean_correlation(const config::PipelineFactory& factory,
                        const std::vector<emg::Recording>& signals,
                        const std::vector<std::vector<std::span<const Real>>>&
                            chunks) {
  const emg::Evaluator eval(factory.eval_config());
  double corr = 0.0;
  for (std::size_t i = 0; i < signals.size(); ++i) {
    auto direct = factory.make_streaming_session(static_cast<std::uint32_t>(i));
    std::vector<Real> env;
    for (const auto& c : chunks[i]) direct->push_chunk(c);
    direct->finish();
    direct->drain_arv(env);
    const auto truth = eval.ground_truth(signals[i]);
    const std::size_t n = std::min(truth.size(), env.size());
    corr += dsp::correlation_percent(std::span<const Real>(truth.data(), n),
                                     std::span<const Real>(env.data(), n));
  }
  return corr / static_cast<double>(std::max<std::size_t>(signals.size(), 1));
}

}  // namespace

Report run_serve(const Options& opt) {
  Report report;
  config::ScenarioSpec spec = config::make_preset("serve-smoke");
  spec.name = "serve-open-256";
  spec.source.duration_s = kSessionS;
  spec.session.jobs = nproc();
  const std::size_t slots = std::min(kMaxSlots, nproc());
  const std::size_t chunk = spec.session.chunk_samples;
  const double chunk_signal_s =
      static_cast<double>(chunk) / spec.source.sample_rate_hz;

  std::vector<emg::Recording> signals;
  std::vector<std::vector<std::span<const Real>>> chunks;
  std::unique_ptr<config::PipelineFactory> factory;
  const SetupTimes setup = time_setup(kSetupReps, [&] {
    SetupRep rep;
    const auto t0 = Clock::now();
    signals = synthesize(opt.seed, 200, kSignals, kSessionS,
                         emg::EmgModel::kFilteredNoise);
    chunks.clear();
    for (const auto& s : signals) chunks.push_back(private_chunks(s, chunk));
    rep.synthesis_s = seconds_since(t0);
    factory = std::make_unique<config::PipelineFactory>(spec);
    rep.calibration_s = time_calibration(*factory);
    (void)factory->calibration();
    return rep;
  });

  const std::string out_dir = opt.scratch + "/serve";
  const double seconds = opt.trace ? std::min(opt.seconds, 5.0) : opt.seconds;
  const Served served = serve_open_loop(*factory, chunks, slots,
                                        chunk_signal_s, seconds, out_dir);

  // Latency per one-second window of due times, so one burst inside the
  // run moves one window, not the reported median.
  const auto n_windows = static_cast<std::size_t>(std::max(1.0, seconds));
  std::vector<std::vector<double>> windows(n_windows);
  const auto window_of = [&](double due) {
    const double w = (due - served.loop.window_start_s) /
                     (seconds / static_cast<double>(n_windows));
    return std::min(n_windows - 1,
                    static_cast<std::size_t>(std::max(0.0, w)));
  };
  std::vector<double> latency_s;  ///< never-acked: until the drain ended
  std::vector<double> ledger_s;   ///< as the ledger has it (negative = never)
  double acked_signal_s = 0.0;
  double last_ack_s = 0.0;
  // Sessions: every one must end with its END ack, none aborted or
  // quarantined by the server, no frame refused.
  for (const auto& c : served.loop.conns) {
    report.check(!c->failed, "serve-open-256: session on slot " +
                                 std::to_string(c->slot) + " (" + c->error +
                                 ")");
    const auto& lat = c->ledger.latencies();
    for (std::size_t i = 0; i < lat.size(); ++i) {
      if (!c->counted[i]) continue;
      const double due = c->ledger.due()[i];
      ledger_s.push_back(lat[i]);
      latency_s.push_back(lat[i] < 0.0 ? served.loop.end_s - due : lat[i]);
      windows[window_of(due)].push_back(latency_s.back());
      if (lat[i] < 0.0) continue;
      acked_signal_s += static_cast<double>(chunks[c->signal][i].size()) /
                        spec.source.sample_rate_hz;
      last_ack_s = std::max(last_ack_s, due + lat[i]);
    }
  }
  const net::ServerStats& st = served.stats;
  report.check(st.sessions_aborted == 0, "serve-open-256: no session aborted");
  report.check(st.quarantined_sessions == 0,
               "serve-open-256: no session quarantined");
  report.check(st.frames_bad == 0 && st.framing_lost == 0,
               "serve-open-256: every frame accepted");
  check_parity(*factory, served, chunks, slots, out_dir, report);
  std::filesystem::remove_all(out_dir);

  if (!opt.trace) {
    // Completed signal over the time it took to complete: an overloaded
    // server stretches the denominator past the schedule.
    const double span_s =
        std::max(seconds, last_ack_s - served.loop.window_start_s);
    EndToEnd e;
    e.setup = setup;
    e.x_realtime = acked_signal_s / span_s;
    e.x_realtime_samples = latency_s.size();
    e.latency_p50_s = median_of_window_quantiles(windows, 0.5);
    e.latency_p99_s = median_of_window_quantiles(windows, 0.99);
    e.latency_samples = latency_s.size();
    e.late = count_late(ledger_s, kLatencyLimitMs * 1e-3).late;
    e.rx_correlation_pct = mean_correlation(*factory, signals, chunks);
    e.correlation_samples = signals.size();
    report_end_to_end(report, e);
    report.note("serve-open-256: open loop, " + std::to_string(slots) +
                " connection slots, " + std::to_string(kRateXRealtime) +
                "x realtime offered, " +
                std::to_string(served.loop.conns.size()) +
                " sessions, latency limit " + std::to_string(kLatencyLimitMs) +
                " ms per chunk, percentiles are medians over " +
                std::to_string(n_windows) + " one-second windows; generator "
                "lag p99 " +
                std::to_string(quantile(served.loop.lag_s, 0.99) * 1e3) +
                " ms");
    return report;
  }

  LayerProbe probe;
  probe.setup = setup;
  probe.server = served.stats;
  probe.lag_s = served.loop.lag_s;
  Tracer tracer(true);
  probe_chain(*factory, signals, 5, tracer, probe);
  probe_runner(*factory, signals, 5, probe);
  probe.managed = probe_managed(
      *factory,
      {chunks.begin(), chunks.begin() + static_cast<std::ptrdiff_t>(slots)},
      spec.session.jobs);
  probe.recorder = probe_recorder(*factory, chunks[0], false,
                                  opt.scratch + "/recorder", tracer);
  probe.accounting = account(tracer.spans());
  report_layers(report, probe);
  return report;
}

}  // namespace perfbench
