#pragma once
// Layer probes shared by the workloads: the bench-owned Session decorator
// and closed-loop managed streaming (runtime), the Recorder replay
// (store), a closed-loop wire session (net), and the one function that
// turns their measurements into the per-layer metric set.

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "chain.hpp"
#include "common.hpp"
#include "net/server.hpp"
#include "runtime/session.hpp"
#include "trace.hpp"

namespace perfbench {

/// One chunk's path through a SessionManager, on the now_s() clock.
struct ChunkTimes {
  double submit_begin{0.0};  ///< producer: submit_chunk called
  double submit_end{0.0};    ///< producer: submit_chunk returned
  double push_begin{0.0};    ///< strand: push_chunk entered
  double push_end{0.0};      ///< strand: push_chunk returned
};

/// push_chunk returns counted across sessions, so a producer can wait for
/// the round it submitted.
class Completions {
 public:
  void add_one();
  void wait_for(std::uint64_t n);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t done_{0};
};

/// Decorator timing each push_chunk of the wrapped session. Chunk k's
/// producer fields and strand fields are written by different threads
/// into distinct members and read only after SessionManager::drain().
class TimedSession final : public datc::runtime::Session {
 public:
  TimedSession(std::unique_ptr<datc::runtime::Session> inner,
               std::vector<ChunkTimes>* times, Completions* completions)
      : inner_(std::move(inner)), times_(times), completions_(completions) {}

  void push_chunk(std::span<const Real> samples_v) override;
  void finish() override { inner_->finish(); }

 private:
  std::unique_ptr<datc::runtime::Session> inner_;
  std::vector<ChunkTimes>* times_;
  Completions* completions_;
  std::size_t next_{0};
};

/// Per-chunk samples of one managed pass, in seconds.
struct ManagedPass {
  double wall_s{0.0};
  std::vector<double> latency_s;       ///< submit called -> push_chunk returned
  std::vector<double> push_s;          ///< push_chunk duration
  std::vector<double> queue_wait_s;    ///< submit returned -> push_chunk entered
  std::vector<double> submit_block_s;  ///< submit_chunk duration
  std::vector<double> lag_s;  ///< producer: last submit returned -> next called

  void append(const ManagedPass& other);
};

/// Closed loop from the calling thread: lockstep rounds over `ids` (round
/// r submits chunk r of every session that has one, and round r + 1 waits
/// until every chunk of round r left push_chunk), then finish + drain.
/// `times[g]` must hold one entry per chunk of session g and belong to the
/// TimedSession registered as ids[g]; every TimedSession reports to
/// `completions`.
[[nodiscard]] ManagedPass run_managed(
    datc::runtime::SessionManager& manager,
    std::span<const datc::runtime::SessionManager::SessionId> ids,
    const std::vector<std::vector<std::span<const Real>>>& chunks,
    std::vector<std::vector<ChunkTimes>>& times, Completions& completions);

/// One private StreamingSession per chunk list (channel id = index), each
/// wrapped in a TimedSession, through a SessionManager with `jobs` workers.
[[nodiscard]] ManagedPass probe_managed(
    const datc::config::PipelineFactory& factory,
    const std::vector<std::vector<std::span<const Real>>>& chunks,
    std::size_t jobs);

/// `n`-sample chunks of one private channel.
[[nodiscard]] std::vector<std::span<const Real>> private_chunks(
    const datc::emg::Recording& rec, std::size_t n);

struct RecorderProbe {
  std::vector<double> offer_s;
  std::uint64_t offered{0};
  std::uint64_t written{0};
};

/// Replays `chunks` through a factory session (private channel 0, or the
/// shared radio when `shared`) teed into a Recorder under `dir`, timing
/// every Recorder::offer call.
[[nodiscard]] RecorderProbe probe_recorder(
    const datc::config::PipelineFactory& factory,
    const std::vector<std::span<const Real>>& chunks, bool shared,
    const std::string& dir, Tracer& tracer);

/// One closed-loop session through an in-process persisting Server.
[[nodiscard]] datc::net::ServerStats probe_server(
    const datc::config::PipelineFactory& factory,
    const std::vector<std::span<const Real>>& chunks,
    std::uint16_t channel_count, const std::string& dir, Tracer& tracer);

/// Everything the per-layer metric set is computed from.
struct LayerProbe {
  SetupTimes setup;
  ChainResult chain;
  double chain_traced_s{0.0};    ///< the traced chain's root span
  double chain_untraced_s{0.0};  ///< median untraced chain wall
  Accounting accounting;
  double runner_wall_s{0.0};     ///< median untraced PipelineRunner::run
  std::size_t runner_jobs{1};
  ManagedPass managed;
  RecorderProbe recorder;
  datc::net::ServerStats server;
  std::vector<double> lag_s;     ///< the workload's generator lag
};

/// The traced chain with its untraced twins: fills chain, chain_traced_s,
/// chain_untraced_s (median of `reps` untraced runs) inside `tracer`'s
/// root span "bench.chain".
void probe_chain(const datc::config::PipelineFactory& factory,
                 std::span<const datc::emg::Recording> recs, int reps,
                 Tracer& tracer, LayerProbe& probe);

/// Median wall of `reps` runs of factory.make_runner()->run(recs).
void probe_runner(const datc::config::PipelineFactory& factory,
                  std::span<const datc::emg::Recording> recs, int reps,
                  LayerProbe& probe);

/// Appends every per-layer metric, in BENCHMARK.json order.
void report_layers(Report& report, const LayerProbe& probe);

}  // namespace perfbench
