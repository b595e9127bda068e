#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "config/factory.hpp"
#include "config/scenario.hpp"
#include "net/wire.hpp"
#include "runtime/session.hpp"
#include "store/recorder.hpp"
#include "store/replay.hpp"

namespace datc::net {

namespace {

constexpr int kListenBacklog = 512;
/// Poll timeout: the cadence of the quarantine sweep (nothing latency
/// critical rides the timeout — completions arrive via the wake pipe).
constexpr int kPollTimeoutMs = 50;
/// Once a connection is marked want_close, this bounds how long it may
/// wait for its output to flush. A responsive peer drains the few
/// pending frames within milliseconds; a peer that stopped reading
/// (full kernel buffer, POLLOUT never fires) would otherwise pin the
/// connection — and a graceful drain — forever.
constexpr int kCloseLingerMs = 1000;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw std::runtime_error(std::string("datc serve: fcntl(O_NONBLOCK): ") +
                             std::strerror(errno));
  }
}

bool valid_tenant(const std::string& tenant) {
  if (tenant.empty() || tenant.size() > wire::kMaxStringLen) return false;
  if (tenant.front() == '.') return false;  // no "." / ".." path tricks
  for (const char ch : tenant) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '.' || ch == '_' ||
                    ch == '-';
    if (!ok) return false;
  }
  return true;
}

/// Log2-bucketed microsecond histogram: O(1) record from the strand
/// threads, percentile readout within a 2x bucket bound (the resolution
/// fleet dashboards need; exact order statistics would mean an unbounded
/// sample buffer per server).
struct LatencyHisto {
  std::array<std::uint64_t, 64> buckets{};
  std::uint64_t count{0};
  double max_us{0.0};

  void record(double us) {
    const double clamped = std::max(0.0, us);
    const auto v = static_cast<std::uint64_t>(std::min(clamped, 1e15));
    const auto idx = static_cast<std::size_t>(std::bit_width(v));
    buckets[std::min<std::size_t>(idx, buckets.size() - 1)] += 1;
    ++count;
    max_us = std::max(max_us, clamped);
  }

  /// Upper bound of the bucket holding the p-quantile (2^i us).
  [[nodiscard]] double percentile(double p) const {
    if (count == 0) return 0.0;
    const double target = p * static_cast<double>(count);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      cum += buckets[i];
      if (static_cast<double>(cum) >= target) {
        const auto bound =
            static_cast<double>(std::uint64_t{1} << std::min<std::size_t>(i, 62));
        return std::min(bound, std::max(max_us, 1.0));
      }
    }
    return max_us;
  }
};

// SIGINT/SIGTERM plumbing: the handler may only touch lock-free atomics
// and write(2) (both async-signal-safe); the event loop observes the
// flag and runs the actual graceful drain.
std::atomic<bool> g_signal_stop{false};
std::atomic<int> g_signal_wake_fd{-1};

void serve_signal_handler(int /*signo*/) {
  g_signal_stop.store(true, std::memory_order_relaxed);
  const int fd = g_signal_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

}  // namespace

ServeConfig make_serve_config(const config::ScenarioSpec& spec,
                              std::string output_dir) {
  ServeConfig c;
  c.port = spec.serve.port;
  c.shards = spec.serve.shards;
  c.max_sessions = spec.serve.max_sessions;
  c.max_inflight_chunks = spec.serve.max_inflight_chunks;
  c.jobs = spec.session.jobs;
  c.output_dir = std::move(output_dir);
  c.scenario = spec;
  return c;
}

class ServedSession;

struct Server::Impl {
  explicit Impl(ServeConfig config);
  ~Impl();

  ServeConfig cfg;
  std::shared_ptr<const config::PipelineFactory> server_factory;
  std::unordered_map<std::string,
                     std::shared_ptr<const config::PipelineFactory>>
      factories;  ///< "" = the server's own scenario

  int listen_fd{-1};
  std::uint16_t port{0};
  int wake_rx{-1};
  int wake_tx{-1};
  bool signals_installed{false};

  std::vector<std::unique_ptr<runtime::SessionManager>> shards;

  struct Conn {
    int fd{-1};
    wire::FrameDecoder decoder;
    std::vector<std::uint8_t> out;
    std::size_t out_pos{0};
    enum class State { kAwaitHello, kStreaming, kEnding, kZombie };
    State state{State::kAwaitHello};
    bool want_close{false};  ///< close once `out` is flushed
    /// Force-close time once want_close is set: the flush grace is
    /// bounded (kCloseLingerMs), never at a dead peer's discretion.
    std::chrono::steady_clock::time_point close_deadline{};
    bool closed{false};
    std::uint64_t session_id{0};  ///< 0 = none yet
    ServedSession* served{nullptr};
    std::size_t shard{0};
    runtime::SessionManager::SessionId slot{0};
    std::uint64_t next_seq{0};
    std::uint64_t submitted{0};
    std::uint64_t acked{0};  ///< chunks acknowledged so far
    bool throttled{false};   ///< inflight bound hit: POLLIN withdrawn
  };
  std::vector<std::unique_ptr<Conn>> conns;

  struct SessionRec {
    ServedSession* served{nullptr};
    Conn* conn{nullptr};  ///< null once the connection is gone
    std::size_t shard{0};
    runtime::SessionManager::SessionId slot{0};
    bool finish_submitted{false};
    bool aborted{false};       ///< ended by disconnect/seq-gap, not END
    bool done_handled{false};  ///< terminal accounting performed
  };
  std::unordered_map<std::uint64_t, SessionRec> sessions;
  std::uint64_t next_session_id{1};
  std::size_t sessions_active{0};
  bool draining{false};

  // Cross-thread signalling: strand completions enqueue session ids and
  // poke the wake pipe (coalesced); the loop drains both.
  std::atomic<bool> stop_requested{false};
  std::mutex progress_mu;
  std::vector<std::uint64_t> progress;
  bool wake_pending{false};

  // Counters: `st` is loop-thread-private; a snapshot is published under
  // stats_mu once per loop iteration. The latency histogram is written
  // by strand threads, so it lives under the mutex permanently.
  ServerStats st;
  mutable std::mutex stats_mu;
  ServerStats st_shared;
  LatencyHisto histo;

  // ---- lifecycle
  void listen_init();
  void run();
  void publish_stats();

  // ---- event handling
  void handle_wake();
  void accept_new();
  void handle_readable(Conn& c);
  void drain_frames(Conn& c);
  void dispatch_frame(Conn& c, wire::Frame& f);
  void handle_hello(Conn& c, wire::HelloBody& h);
  void handle_data(Conn& c, wire::DataBody& d);
  void handle_end(Conn& c, const wire::EndBody& e);
  void on_progress(std::uint64_t id);
  void sweep_sessions();
  void begin_drain();

  // ---- connection plumbing
  void send_control(Conn& c, wire::ControlCode code, std::uint64_t sid,
                    std::uint64_t value, const std::string& msg);
  void send_error(Conn& c, wire::ErrorCode code, const std::string& msg);
  void want_close_after_flush(Conn& c);
  void zombify(Conn& c);
  void abort_session(Conn& c);
  void on_disconnect(Conn& c);
  void close_conn(Conn& c);
  void flush_out(Conn& c);

  // ---- strand-thread entry points (ServedSession calls these)
  void note_chunk_done(std::uint64_t id, double us);
  void note_session_finished(std::uint64_t id);
  void wake();

  std::shared_ptr<const config::PipelineFactory> factory_for(
      const std::string& name, std::string* err);
  [[nodiscard]] std::uint64_t inflight(const Conn& c) const;
};

/// The runtime::Session the shards actually run: wraps the factory-built
/// engine (private StreamingSession or SharedAerStreamingSession), drains
/// the envelope after every chunk, measures chunk-to-envelope latency,
/// tees events into a per-tenant Recorder and persists manifest +
/// envelope.f64 on finish — all on the strand thread, so the event loop
/// never touches a pipeline.
class ServedSession final : public runtime::Session {
 public:
  ServedSession(Server::Impl* impl, std::uint64_t id,
                std::shared_ptr<const config::PipelineFactory> factory,
                std::size_t channel_count, std::uint32_t channel_id,
                std::string out_dir)
      : impl_(impl),
        id_(id),
        factory_(std::move(factory)),
        channels_(std::max<std::size_t>(1, channel_count)),
        out_dir_(std::move(out_dir)),
        env_(channels_) {
    std::unique_ptr<runtime::Session> engine;
    if (channels_ > 1) {
      auto shared = factory_->make_shared_session();
      shared_ = shared.get();
      engine = std::move(shared);
    } else {
      auto single = factory_->make_streaming_session(channel_id);
      private_ = single.get();
      engine = std::move(single);
    }
    // The scenario's chunk and sensor faults (fault.chunk_*, fault.sensor_*)
    // act in front of the engine; with none armed this is the engine.
    engine_ = factory_->wrap_session_faults(std::move(engine), channel_id);
    if (!out_dir_.empty()) {
      std::filesystem::create_directories(out_dir_);
      recorder_ = std::make_unique<store::Recorder>(
          factory_->recorder_config(out_dir_));
      store::Recorder* rec = recorder_.get();
      if (shared_ != nullptr) {
        shared_->set_event_tee([rec](auto events) { rec->offer(events); });
      } else {
        private_->set_event_tee([rec](auto events) { rec->offer(events); });
      }
    }
  }

  /// Event-loop thread, before submit_chunk: timestamps the chunk so the
  /// strand can measure receipt -> envelope latency. FIFO matches chunk
  /// order because a strand runs chunks in submission order.
  void note_receipt(std::chrono::steady_clock::time_point t) {
    const std::lock_guard<std::mutex> lock(mu_);
    receipts_.push_back(t);
  }

  void push_chunk(std::span<const Real> samples_v) override {
    engine_->push_chunk(samples_v);
    if (shared_ != nullptr) {
      for (std::size_t ch = 0; ch < channels_; ++ch) {
        shared_->drain_arv(ch, env_[ch]);
      }
    } else {
      private_->drain_arv(env_[0]);
    }
    samples_per_channel_ += samples_v.size() / channels_;
    std::chrono::steady_clock::time_point t0;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      t0 = receipts_.front();
      receipts_.pop_front();
    }
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    chunks_done_.fetch_add(1, std::memory_order_release);
    impl_->note_chunk_done(id_, us);
  }

  void finish() override {
    engine_->finish();
    if (shared_ != nullptr) {
      for (std::size_t ch = 0; ch < channels_; ++ch) {
        shared_->drain_arv(ch, env_[ch]);
      }
    } else {
      private_->drain_arv(env_[0]);
    }
    if (recorder_ != nullptr) recorder_->close();
    if (!out_dir_.empty()) {
      const Real fs = factory_->spec().source.sample_rate_hz;
      const Real duration_s =
          static_cast<Real>(samples_per_channel_) / fs;
      store::write_manifest(out_dir_, factory_->manifest(duration_s));
      store::write_envelope_f64(out_dir_, env_[0]);
      for (std::size_t ch = 1; ch < channels_; ++ch) {
        const std::string ch_dir =
            out_dir_ + "/ch" + std::to_string(ch);
        std::filesystem::create_directories(ch_dir);
        store::write_envelope_f64(ch_dir, env_[ch]);
      }
    }
    envelope_samples_.store(env_[0].size(), std::memory_order_release);
    finished_.store(true, std::memory_order_release);
    impl_->note_session_finished(id_);
  }

  [[nodiscard]] std::uint64_t chunks_done() const {
    return chunks_done_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool finished() const {
    return finished_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t envelope_samples() const {
    return envelope_samples_.load(std::memory_order_acquire);
  }

 private:
  Server::Impl* impl_;
  std::uint64_t id_;
  std::shared_ptr<const config::PipelineFactory> factory_;
  std::size_t channels_;
  std::string out_dir_;
  // recorder_ before the engine: the tee closure (owned by the engine)
  // references the recorder, so the engine must be destroyed first.
  std::unique_ptr<store::Recorder> recorder_;
  std::unique_ptr<runtime::Session> engine_;  ///< fault-wrapped when armed
  runtime::StreamingSession* private_{nullptr};  ///< inside engine_
  runtime::SharedAerStreamingSession* shared_{nullptr};  ///< inside engine_
  std::vector<std::vector<Real>> env_;
  std::size_t samples_per_channel_{0};
  std::mutex mu_;
  std::deque<std::chrono::steady_clock::time_point> receipts_;
  std::atomic<std::uint64_t> chunks_done_{0};
  std::atomic<std::uint64_t> envelope_samples_{0};
  std::atomic<bool> finished_{false};
};

// ----------------------------------------------------------------- Impl

Server::Impl::Impl(ServeConfig config) : cfg(std::move(config)) {
  server_factory =
      std::make_shared<const config::PipelineFactory>(cfg.scenario);
  factories.emplace(std::string(), server_factory);

  const std::size_t shard_count = std::max<std::size_t>(1, cfg.shards);
  const std::size_t total_jobs =
      cfg.jobs != 0
          ? cfg.jobs
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  runtime::SessionManager::Config mc;
  mc.jobs = std::max<std::size_t>(1, total_jobs / shard_count);
  // The per-connection inflight bound equals the shard queue bound, and a
  // strand pops its chunk BEFORE running it — so submit_chunk can never
  // block the event loop (gated by net_serve_test's backpressure case).
  mc.max_pending_chunks = std::max<std::size_t>(1, cfg.max_inflight_chunks);
  mc.rethrow_on_drain = false;  // errors surface as typed kQuarantined
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards.push_back(std::make_unique<runtime::SessionManager>(mc));
  }

  std::array<int, 2> pipe_fds{-1, -1};
  if (::pipe(pipe_fds.data()) != 0) {
    throw std::runtime_error(std::string("datc serve: pipe(): ") +
                             std::strerror(errno));
  }
  wake_rx = pipe_fds[0];
  wake_tx = pipe_fds[1];
  set_nonblocking(wake_rx);
  set_nonblocking(wake_tx);

  listen_init();
}

Server::Impl::~Impl() {
  for (auto& c : conns) {
    if (!c->closed && c->fd >= 0) ::close(c->fd);
  }
  if (listen_fd >= 0) ::close(listen_fd);
  if (wake_rx >= 0) ::close(wake_rx);
  if (wake_tx >= 0) ::close(wake_tx);
}

void Server::Impl::listen_init() {
  listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    throw std::runtime_error(std::string("datc serve: socket(): ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(cfg.port);
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw std::runtime_error("datc serve: bind(127.0.0.1:" +
                             std::to_string(cfg.port) +
                             "): " + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    throw std::runtime_error(std::string("datc serve: getsockname(): ") +
                             std::strerror(errno));
  }
  port = ntohs(addr.sin_port);
  if (::listen(listen_fd, kListenBacklog) != 0) {
    throw std::runtime_error(std::string("datc serve: listen(): ") +
                             std::strerror(errno));
  }
  set_nonblocking(listen_fd);
}

std::uint64_t Server::Impl::inflight(const Conn& c) const {
  return c.submitted - (c.served != nullptr ? c.served->chunks_done() : 0);
}

void Server::Impl::wake() {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_tx, &byte, 1);
  // EAGAIN means the pipe already holds a wakeup; the loop will run.
}

void Server::Impl::note_chunk_done(std::uint64_t id, double us) {
  {
    const std::lock_guard<std::mutex> lock(stats_mu);
    histo.record(us);
  }
  bool need_wake = false;
  {
    const std::lock_guard<std::mutex> lock(progress_mu);
    progress.push_back(id);
    if (!wake_pending) {
      wake_pending = true;
      need_wake = true;
    }
  }
  if (need_wake) wake();
}

void Server::Impl::note_session_finished(std::uint64_t id) {
  bool need_wake = false;
  {
    const std::lock_guard<std::mutex> lock(progress_mu);
    progress.push_back(id);
    if (!wake_pending) {
      wake_pending = true;
      need_wake = true;
    }
  }
  if (need_wake) wake();
}

void Server::Impl::publish_stats() {
  const std::lock_guard<std::mutex> lock(stats_mu);
  st_shared = st;
}

void Server::Impl::run() {
  std::vector<pollfd> pfds;
  std::vector<Conn*> order;
  for (;;) {
    if (!draining &&
        (stop_requested.load(std::memory_order_acquire) ||
         (signals_installed &&
          g_signal_stop.load(std::memory_order_relaxed)))) {
      begin_drain();
    }
    if (draining && sessions_active == 0 && conns.empty()) break;

    pfds.clear();
    order.clear();
    pfds.push_back(pollfd{wake_rx, POLLIN, 0});
    const bool has_listen = listen_fd >= 0;
    if (has_listen) pfds.push_back(pollfd{listen_fd, POLLIN, 0});
    for (auto& cp : conns) {
      int events = 0;
      if (!cp->throttled && !cp->want_close) events |= POLLIN;
      if (cp->out_pos < cp->out.size()) events |= POLLOUT;
      pfds.push_back(pollfd{cp->fd, static_cast<short>(events), 0});
      order.push_back(cp.get());
    }

    const int rc =
        ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), kPollTimeoutMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("datc serve: poll(): ") +
                               std::strerror(errno));
    }

    std::size_t idx = 0;
    if ((pfds[idx].revents & POLLIN) != 0) handle_wake();
    ++idx;
    if (has_listen) {
      if ((pfds[idx].revents & POLLIN) != 0) accept_new();
      ++idx;
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      Conn& c = *order[i];
      if (c.closed) continue;
      const short revents = pfds[idx + i].revents;
      if ((revents & POLLIN) != 0) handle_readable(c);
      if (!c.closed && (revents & POLLOUT) != 0) flush_out(c);
      if (!c.closed && (revents & (POLLERR | POLLNVAL)) != 0) {
        on_disconnect(c);
      }
      if (!c.closed && (revents & POLLHUP) != 0 &&
          (revents & POLLIN) == 0) {
        on_disconnect(c);
      }
    }

    sweep_sessions();

    const auto now = std::chrono::steady_clock::now();
    for (auto& cp : conns) {
      if (!cp->closed && cp->want_close &&
          (cp->out_pos >= cp->out.size() || now >= cp->close_deadline)) {
        close_conn(*cp);
      }
    }
    std::erase_if(conns,
                  [](const std::unique_ptr<Conn>& c) { return c->closed; });

    publish_stats();
  }

  // Belt and braces: every session already reported finished, but drain
  // the shards so their worker threads are quiescent before returning.
  for (auto& shard : shards) shard->drain();
  publish_stats();
}

void Server::Impl::handle_wake() {
  std::array<char, 256> buf{};
  while (::read(wake_rx, buf.data(), buf.size()) > 0) {
  }
  std::vector<std::uint64_t> ready;
  {
    const std::lock_guard<std::mutex> lock(progress_mu);
    wake_pending = false;
    ready.swap(progress);
  }
  for (const std::uint64_t id : ready) on_progress(id);
}

void Server::Impl::accept_new() {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or a transient accept error: next poll retries
    }
    if (draining) {
      ::close(fd);
      continue;
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conns.push_back(std::move(conn));
    st.connections_accepted += 1;
  }
}

void Server::Impl::handle_readable(Conn& c) {
  std::array<std::uint8_t, 65536> buf;
  while (!c.closed && !c.want_close && !c.throttled) {
    const ssize_t n = ::recv(c.fd, buf.data(), buf.size(), 0);
    if (n > 0) {
      st.bytes_rx += static_cast<std::uint64_t>(n);
      c.decoder.feed(
          std::span<const std::uint8_t>(buf.data(), static_cast<std::size_t>(n)));
      drain_frames(c);
      continue;
    }
    if (n == 0) {
      on_disconnect(c);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    on_disconnect(c);
    return;
  }
}

void Server::Impl::drain_frames(Conn& c) {
  // Stops at the first backpressure/teardown condition: a throttled
  // connection leaves frames buffered in the decoder until completions
  // free inflight slots (on_progress resumes this drain).
  while (!c.closed && !c.want_close && !c.throttled) {
    wire::Frame frame;
    std::string reason;
    const wire::FrameDecoder::Status s = c.decoder.next(&frame, &reason);
    if (s == wire::FrameDecoder::Status::kNeedMore) break;
    if (s == wire::FrameDecoder::Status::kFrame) {
      dispatch_frame(c, frame);
      continue;
    }
    if (s == wire::FrameDecoder::Status::kBadFrame) {
      st.frames_bad += 1;
      send_error(c, wire::ErrorCode::kMalformedFrame, reason);
      continue;  // frame skipped; the stream itself is still framed
    }
    // kFatal: the length prefix lied — the stream cannot be re-synced.
    st.framing_lost += 1;
    send_error(c, wire::ErrorCode::kFramingLost, reason);
    abort_session(c);
    zombify(c);
  }
}

void Server::Impl::dispatch_frame(Conn& c, wire::Frame& f) {
  switch (f.type) {
    case wire::FrameType::kHello:
      if (c.state != Conn::State::kAwaitHello) {
        send_error(c, wire::ErrorCode::kBadState,
                   "HELLO after the handshake");
        return;
      }
      handle_hello(c, f.hello);
      return;
    case wire::FrameType::kData:
      handle_data(c, f.data);
      return;
    case wire::FrameType::kEnd:
      handle_end(c, f.end);
      return;
    case wire::FrameType::kControl:
      send_error(c, wire::ErrorCode::kBadState,
                 "CONTROL frames are server-to-client");
      return;
  }
}

std::shared_ptr<const config::PipelineFactory> Server::Impl::factory_for(
    const std::string& name, std::string* err) {
  const std::string key =
      (name.empty() || name == cfg.scenario.name) ? std::string() : name;
  const auto it = factories.find(key);
  if (it != factories.end()) return it->second;
  try {
    // Presets only: a remote peer must not be able to make the server
    // read arbitrary files, so load_scenario's path branch stays closed.
    auto factory = std::make_shared<const config::PipelineFactory>(
        config::make_preset(key));
    factories.emplace(key, factory);
    return factory;
  } catch (const std::exception& e) {
    *err = e.what();
    return nullptr;
  }
}

void Server::Impl::handle_hello(Conn& c, wire::HelloBody& h) {
  if (draining) {
    send_error(c, wire::ErrorCode::kDraining, "server is draining");
    zombify(c);
    return;
  }
  if (h.version != wire::kProtocolVersion) {
    st.version_rejects += 1;
    send_error(c, wire::ErrorCode::kVersionMismatch,
               "server speaks protocol v" +
                   std::to_string(wire::kProtocolVersion) + ", client sent v" +
                   std::to_string(h.version));
    zombify(c);
    return;
  }
  std::string tenant = h.tenant.empty() ? "default" : h.tenant;
  if (!valid_tenant(tenant)) {
    send_error(c, wire::ErrorCode::kBadState,
               "tenant must match [A-Za-z0-9._-] and not start with '.'");
    zombify(c);
    return;
  }
  std::string err;
  const auto factory = factory_for(h.scenario, &err);
  if (factory == nullptr) {
    st.scenario_rejects += 1;
    send_error(c, wire::ErrorCode::kUnknownScenario, err);
    zombify(c);
    return;
  }
  const config::ScenarioSpec& spec = factory->spec();
  const bool shared =
      spec.aer.topology == config::LinkTopology::kSharedAer;
  const std::size_t expected_channels =
      shared ? spec.source.channels : std::size_t{1};
  if (h.channel_count != expected_channels) {
    send_error(c, wire::ErrorCode::kBadState,
               "scenario '" + spec.name + "' expects " +
                   std::to_string(expected_channels) +
                   " channel(s) per session, HELLO declared " +
                   std::to_string(h.channel_count));
    zombify(c);
    return;
  }
  if (sessions_active >= cfg.max_sessions) {
    st.session_limit_rejects += 1;
    send_error(c, wire::ErrorCode::kSessionLimit,
               "serve.max_sessions = " + std::to_string(cfg.max_sessions) +
                   " concurrent sessions reached");
    zombify(c);
    return;
  }

  const std::uint64_t id = next_session_id++;
  std::string dir;
  if (!cfg.output_dir.empty()) {
    dir = cfg.output_dir + "/" + tenant + "/session-" + std::to_string(id);
  }
  std::unique_ptr<ServedSession> served;
  try {
    served = std::make_unique<ServedSession>(
        this, id, factory, expected_channels, h.channel_id, dir);
  } catch (const std::exception& e) {
    send_error(c, wire::ErrorCode::kBadState,
               std::string("session setup failed: ") + e.what());
    zombify(c);
    return;
  }
  // Fibonacci-hash the session id across shards (the id is sequential;
  // a plain modulo would stripe neighbours onto neighbouring shards,
  // which is fine too — the multiply just decorrelates it from any
  // client arrival pattern).
  const std::size_t shard = static_cast<std::size_t>(
      (id * 0x9E3779B97F4A7C15ULL) >> 32) % shards.size();
  ServedSession* raw = served.get();
  const runtime::SessionManager::SessionId slot =
      shards[shard]->add(std::move(served));
  SessionRec rec;
  rec.served = raw;
  rec.conn = &c;
  rec.shard = shard;
  rec.slot = slot;
  sessions.emplace(id, rec);

  c.session_id = id;
  c.served = raw;
  c.shard = shard;
  c.slot = slot;
  c.state = Conn::State::kStreaming;
  ++sessions_active;
  st.sessions_opened += 1;
  st.sessions_active = sessions_active;
  send_control(c, wire::ControlCode::kHelloAck, id, id, spec.name);
}

void Server::Impl::handle_data(Conn& c, wire::DataBody& d) {
  if (c.state != Conn::State::kStreaming ||
      (d.session_id != 0 && d.session_id != c.session_id)) {
    send_error(c, wire::ErrorCode::kBadState,
               "DATA outside an open session");
    abort_session(c);
    zombify(c);
    return;
  }
  if (d.seq < c.next_seq) {
    // Duplicate (client retry): counted drop, the stream stays healthy.
    st.seq_duplicates_dropped += 1;
    return;
  }
  if (d.seq > c.next_seq) {
    st.seq_gap_rejects += 1;
    send_error(c, wire::ErrorCode::kBadSequence,
               "expected seq " + std::to_string(c.next_seq) + ", got " +
                   std::to_string(d.seq));
    abort_session(c);
    zombify(c);
    return;
  }
  const auto it = sessions.find(c.session_id);
  if (it == sessions.end() || it->second.done_handled) {
    send_error(c, wire::ErrorCode::kBadState, "session already ended");
    zombify(c);
    return;
  }
  ++c.next_seq;
  c.served->note_receipt(std::chrono::steady_clock::now());
  shards[c.shard]->submit_chunk(c.slot, d.samples);
  ++c.submitted;
  st.chunks_rx += 1;
  st.samples_rx += d.samples.size();
  if (inflight(c) >= cfg.max_inflight_chunks) {
    c.throttled = true;
    st.throttle_events += 1;
  }
}

void Server::Impl::handle_end(Conn& c, const wire::EndBody& e) {
  if (c.state != Conn::State::kStreaming ||
      (e.session_id != 0 && e.session_id != c.session_id)) {
    send_error(c, wire::ErrorCode::kBadState, "END outside an open session");
    zombify(c);
    return;
  }
  const auto it = sessions.find(c.session_id);
  if (it != sessions.end() && !it->second.finish_submitted) {
    shards[c.shard]->submit_finish(c.slot);
    it->second.finish_submitted = true;
  }
  c.state = Conn::State::kEnding;
}

void Server::Impl::on_progress(std::uint64_t id) {
  const auto it = sessions.find(id);
  if (it == sessions.end()) return;
  SessionRec& rec = it->second;
  Conn* c = rec.conn;
  if (c != nullptr && !c->closed && c->served != nullptr) {
    const std::uint64_t done = rec.served->chunks_done();
    if (c->throttled && c->submitted - done < cfg.max_inflight_chunks) {
      c->throttled = false;
      drain_frames(*c);  // frames buffered while throttled resume here
    }
    if (c->state == Conn::State::kStreaming && done > c->acked) {
      c->acked = done;
      send_control(*c, wire::ControlCode::kChunkAck, id, done - 1, "");
    }
  }
  if (rec.served->finished() && !rec.done_handled) {
    rec.done_handled = true;
    --sessions_active;
    if (rec.aborted) {
      st.sessions_aborted += 1;
    } else {
      st.sessions_finished += 1;
    }
    st.sessions_active = sessions_active;
    if (c != nullptr && !c->closed && c->state == Conn::State::kEnding) {
      send_control(*c, wire::ControlCode::kEndAck, id,
                   rec.served->envelope_samples(), "");
      want_close_after_flush(*c);
    }
  }
}

void Server::Impl::sweep_sessions() {
  for (auto it = sessions.begin(); it != sessions.end();) {
    SessionRec& rec = it->second;
    if (!rec.done_handled &&
        shards[rec.shard]->health(rec.slot).quarantined) {
      // A quarantined session never runs finish(): its inflight chunks
      // were discarded, so without this sweep the connection would wait
      // forever for completions that cannot come.
      rec.done_handled = true;
      --sessions_active;
      st.quarantined_sessions += 1;
      st.sessions_active = sessions_active;
      if (rec.conn != nullptr && !rec.conn->closed) {
        send_error(*rec.conn, wire::ErrorCode::kQuarantined,
                   shards[rec.shard]->health(rec.slot).error);
        zombify(*rec.conn);
      }
    }
    if (rec.done_handled && rec.conn == nullptr) {
      // Terminal and disconnected: reclaim the session's memory (the
      // engines, envelope buffers and Recorder live in the shard slot).
      // Without this release the daemon's footprint would track every
      // session EVER served instead of the active population.
      shards[rec.shard]->release(rec.slot);
      it = sessions.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::Impl::begin_drain() {
  draining = true;
  if (listen_fd >= 0) {
    ::close(listen_fd);
    listen_fd = -1;
  }
  for (auto& cp : conns) {
    Conn& c = *cp;
    if (c.closed || c.want_close) continue;
    if (c.state == Conn::State::kEnding) continue;  // END ack in flight
    send_error(c, wire::ErrorCode::kDraining, "server shutting down");
    abort_session(c);
    zombify(c);
  }
}

void Server::Impl::send_control(Conn& c, wire::ControlCode code,
                                std::uint64_t sid, std::uint64_t value,
                                const std::string& msg) {
  wire::ControlBody body;
  body.code = code;
  body.session_id = sid;
  body.value = value;
  body.message = msg;
  wire::append_control(c.out, body);
  flush_out(c);
}

void Server::Impl::send_error(Conn& c, wire::ErrorCode code,
                              const std::string& msg) {
  send_control(c, wire::ControlCode::kError, c.session_id,
               static_cast<std::uint64_t>(code), msg);
}

void Server::Impl::want_close_after_flush(Conn& c) {
  c.want_close = true;
  c.close_deadline = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(kCloseLingerMs);
}

void Server::Impl::zombify(Conn& c) {
  c.state = Conn::State::kZombie;
  want_close_after_flush(c);
}

void Server::Impl::abort_session(Conn& c) {
  if (c.session_id == 0) return;
  const auto it = sessions.find(c.session_id);
  if (it == sessions.end() || it->second.done_handled) return;
  SessionRec& rec = it->second;
  if (!rec.finish_submitted) {
    // Flush what was accepted: the partial session still drains, writes
    // its outputs and frees its slot; it is just counted as aborted.
    shards[rec.shard]->submit_finish(rec.slot);
    rec.finish_submitted = true;
    rec.aborted = true;
  }
}

void Server::Impl::on_disconnect(Conn& c) {
  abort_session(c);
  close_conn(c);
}

void Server::Impl::close_conn(Conn& c) {
  if (c.closed) return;
  ::close(c.fd);
  c.closed = true;
  st.connections_closed += 1;
  if (c.session_id != 0) {
    const auto it = sessions.find(c.session_id);
    if (it != sessions.end()) it->second.conn = nullptr;
  }
}

void Server::Impl::flush_out(Conn& c) {
  while (c.out_pos < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                             c.out.size() - c.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_pos += static_cast<std::size_t>(n);
      st.bytes_tx += static_cast<std::uint64_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    on_disconnect(c);
    return;
  }
  c.out.clear();
  c.out_pos = 0;
}

// --------------------------------------------------------------- Server

Server::Server(ServeConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

Server::~Server() = default;

std::uint16_t Server::port() const { return impl_->port; }

void Server::run() { impl_->run(); }

void Server::request_stop() {
  impl_->stop_requested.store(true, std::memory_order_release);
  impl_->wake();
}

void Server::install_signal_handlers() {
  g_signal_wake_fd.store(impl_->wake_tx, std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = serve_signal_handler;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  impl_->signals_installed = true;
}

ServerStats Server::stats() const {
  const std::lock_guard<std::mutex> lock(impl_->stats_mu);
  ServerStats out = impl_->st_shared;
  out.chunk_to_envelope.count = impl_->histo.count;
  out.chunk_to_envelope.p50_us = impl_->histo.percentile(0.50);
  out.chunk_to_envelope.p90_us = impl_->histo.percentile(0.90);
  out.chunk_to_envelope.p99_us = impl_->histo.percentile(0.99);
  out.chunk_to_envelope.max_us = impl_->histo.max_us;
  return out;
}

}  // namespace datc::net
