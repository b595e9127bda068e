#include "probes.hpp"

#include <algorithm>
#include <filesystem>
#include <thread>

#include "net/client.hpp"
#include "net/wire.hpp"
#include "runtime/pipeline_runner.hpp"
#include "stats.hpp"
#include "store/recorder.hpp"

namespace perfbench {

using namespace datc;

void Completions::add_one() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++done_;
  }
  cv_.notify_all();
}

void Completions::wait_for(std::uint64_t n) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this, n] { return done_ >= n; });
}

void TimedSession::push_chunk(std::span<const Real> samples_v) {
  // Counted even when the chunk throws, so the producer never waits on a
  // chunk the SessionManager has quarantined.
  struct Done {
    Completions* c;
    ~Done() { c->add_one(); }
  } const done{completions_};
  ChunkTimes* t = next_ < times_->size() ? &(*times_)[next_] : nullptr;
  ++next_;
  if (t != nullptr) t->push_begin = now_s();
  inner_->push_chunk(samples_v);
  if (t != nullptr) t->push_end = now_s();
}

void ManagedPass::append(const ManagedPass& other) {
  wall_s += other.wall_s;
  const auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  cat(latency_s, other.latency_s);
  cat(push_s, other.push_s);
  cat(queue_wait_s, other.queue_wait_s);
  cat(submit_block_s, other.submit_block_s);
  cat(lag_s, other.lag_s);
}

ManagedPass run_managed(
    runtime::SessionManager& manager,
    std::span<const runtime::SessionManager::SessionId> ids,
    const std::vector<std::vector<std::span<const Real>>>& chunks,
    std::vector<std::vector<ChunkTimes>>& times, Completions& completions) {
  ManagedPass pass;
  std::size_t rounds = 0;
  for (const auto& c : chunks) rounds = std::max(rounds, c.size());
  const auto t0 = Clock::now();
  std::uint64_t submitted = 0;
  double round_done = -1.0;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t g = 0; g < ids.size(); ++g) {
      if (r >= chunks[g].size()) continue;
      ChunkTimes& t = times[g][r];
      t.submit_begin = now_s();
      // The producer's own lag: previous round done -> this round issued.
      if (round_done >= 0.0) pass.lag_s.push_back(t.submit_begin - round_done);
      round_done = -1.0;
      manager.submit_chunk(ids[g], chunks[g][r]);
      t.submit_end = now_s();
      ++submitted;
    }
    completions.wait_for(submitted);
    round_done = now_s();
  }
  for (const auto id : ids) manager.submit_finish(id);
  manager.drain();
  pass.wall_s = seconds_since(t0);
  for (std::size_t g = 0; g < ids.size(); ++g) {
    for (std::size_t r = 0; r < chunks[g].size(); ++r) {
      const ChunkTimes& t = times[g][r];
      pass.latency_s.push_back(t.push_end - t.submit_begin);
      pass.push_s.push_back(t.push_end - t.push_begin);
      pass.queue_wait_s.push_back(std::max(0.0, t.push_begin - t.submit_end));
      pass.submit_block_s.push_back(t.submit_end - t.submit_begin);
    }
  }
  return pass;
}

ManagedPass probe_managed(
    const config::PipelineFactory& factory,
    const std::vector<std::vector<std::span<const Real>>>& chunks,
    std::size_t jobs) {
  runtime::SessionManager::Config mc;
  mc.jobs = jobs;
  Completions completions;
  runtime::SessionManager manager(mc);
  std::vector<std::vector<ChunkTimes>> times(chunks.size());
  std::vector<runtime::SessionManager::SessionId> ids;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    times[i].resize(chunks[i].size());
    ids.push_back(manager.add(std::make_unique<TimedSession>(
        factory.make_streaming_session(static_cast<std::uint32_t>(i)),
        &times[i], &completions)));
  }
  return run_managed(manager, ids, chunks, times, completions);
}

std::vector<std::span<const Real>> private_chunks(const emg::Recording& rec,
                                                  std::size_t n) {
  const auto& s = rec.emg_v.samples();
  std::vector<std::span<const Real>> out;
  for (std::size_t at = 0; at < s.size(); at += n) {
    out.emplace_back(s.data() + at, std::min(n, s.size() - at));
  }
  return out;
}

RecorderProbe probe_recorder(const config::PipelineFactory& factory,
                             const std::vector<std::span<const Real>>& chunks,
                             bool shared, const std::string& dir,
                             Tracer& tracer) {
  RecorderProbe probe;
  // A log left in `dir` would be resumed, not replaced.
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const Scope root(tracer, "bench.store", -1);
  store::Recorder recorder(factory.recorder_config(dir));
  const runtime::EventTee tee = [&](std::span<const core::Event> events) {
    const Scope s(tracer, "store.recorder.offer");
    const double t0 = now_s();
    recorder.offer(events);
    probe.offer_s.push_back(now_s() - t0);
  };
  std::unique_ptr<runtime::Session> session;
  if (shared) {
    auto s = factory.make_shared_session();
    s->set_event_tee(tee);
    session = std::move(s);
  } else {
    auto s = factory.make_streaming_session(0);
    s->set_event_tee(tee);
    session = std::move(s);
  }
  for (const auto& c : chunks) {
    const Scope s(tracer, "runtime.session.push_chunk");
    session->push_chunk(c);
  }
  {
    const Scope s(tracer, "runtime.session.finish");
    session->finish();
  }
  {
    const Scope s(tracer, "store.recorder.close");
    recorder.close();
  }
  const auto st = recorder.stats();
  probe.offered = st.offered;
  probe.written = st.written;
  return probe;
}

net::ServerStats probe_server(const config::PipelineFactory& factory,
                              const std::vector<std::span<const Real>>& chunks,
                              std::uint16_t channel_count,
                              const std::string& dir, Tracer& tracer) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  net::Server server(net::make_serve_config(factory.spec(), dir));
  std::thread loop([&server] { server.run(); });
  try {
    const Scope root(tracer, "bench.net", -1);
    net::Client client("127.0.0.1", server.port());
    net::wire::HelloBody hello;
    hello.channel_count = channel_count;
    hello.tenant = "probe";
    {
      const Scope s(tracer, "net.client.hello");
      client.hello(hello);
    }
    for (const auto& c : chunks) {
      const Scope s(tracer, "net.client.send_chunk");
      client.send_chunk(c);
    }
    const Scope s(tracer, "net.client.finish");
    client.finish();
  } catch (...) {
    server.request_stop();
    loop.join();
    throw;
  }
  server.request_stop();
  loop.join();
  return server.stats();
}

void probe_chain(const config::PipelineFactory& factory,
                 std::span<const emg::Recording> recs, int reps,
                 Tracer& tracer, LayerProbe& probe) {
  // Untraced and traced passes alternate so drift hits both alike.
  std::vector<double> untraced;
  std::vector<double> traced;
  for (int r = 0; r < reps; ++r) {
    Tracer off(false);
    auto t0 = Clock::now();
    (void)run_chain(factory, recs, off);
    untraced.push_back(seconds_since(t0));
    if (r + 1 < reps) {
      Tracer scratch(true);
      t0 = Clock::now();
      const Scope root(scratch, "bench.chain", -1);
      (void)run_chain(factory, recs, scratch);
      traced.push_back(seconds_since(t0));
    }
  }
  const auto t0 = Clock::now();
  {
    const Scope root(tracer, "bench.chain", -1);
    probe.chain = run_chain(factory, recs, tracer);
  }
  traced.push_back(seconds_since(t0));
  probe.chain_untraced_s = median(untraced);
  probe.chain_traced_s = median(traced);
}

void probe_runner(const config::PipelineFactory& factory,
                  std::span<const emg::Recording> recs, int reps,
                  LayerProbe& probe) {
  auto runner = factory.make_runner();
  (void)runner->run(recs);  // pool start-up and first touch
  std::vector<double> walls;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    (void)runner->run(recs);
    walls.push_back(seconds_since(t0));
  }
  probe.runner_wall_s = median(walls);
  probe.runner_jobs = runner->jobs();
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void report_layers(Report& report, const LayerProbe& p) {
  const Accounting& acc = p.accounting;
  const auto self = [&acc](const char* name) {
    const auto it = acc.span_self_ns.find(name);
    return it == acc.span_self_ns.end() ? 0.0 : it->second;
  };
  const auto calls = [&acc](const char* name) {
    const auto it = acc.calls.find(name);
    return it == acc.calls.end() ? std::size_t{0} : it->second;
  };
  const ChainResult& c = p.chain;
  std::size_t events_tx = 0;
  for (const auto& ch : c.channels) events_tx += ch.events_tx;
  const double stage_sum_ns =
      self("core.encode") + self("core.recon") + self("emg.score") +
      self("uwb.modulate") + self("uwb.channel") + self("uwb.receive") +
      self("uwb.aer");

  report.add("emg.synthesis_s", p.setup.synthesis_s, "s", p.setup.reps);
  report.add("config.calibration_s", p.setup.calibration_s, "s",
             p.setup.reps);
  report.add("core.encode.ns_per_sample",
             ratio(self("core.encode"), static_cast<double>(c.samples_in)),
             "ns", calls("core.encode"));
  report.add("core.encode.events", static_cast<double>(events_tx), "count");
  report.add("core.recon.ns_per_output_sample",
             ratio(self("core.recon"), static_cast<double>(c.recon_out)),
             "ns", calls("core.recon"));
  report.add("core.recon.share",
             ratio(self("core.recon"), p.chain_traced_s * 1e9), "ratio",
             calls("core.recon"));
  report.add("uwb.modulate.ns_per_event",
             ratio(self("uwb.modulate"), static_cast<double>(c.frames_on_air)),
             "ns", calls("uwb.modulate"));
  report.add("uwb.channel.ns_per_pulse",
             ratio(self("uwb.channel"), static_cast<double>(c.pulses_tx)),
             "ns", calls("uwb.channel"));
  report.add("uwb.receive.ns_per_pulse",
             ratio(self("uwb.receive"),
                   static_cast<double>(c.pulses_tx - c.pulses_erased)),
             "ns", calls("uwb.receive"));
  report.add("uwb.pulses_on_air", static_cast<double>(c.pulses_tx), "count");
  report.add("uwb.frames_decoded_ratio",
             ratio(static_cast<double>(c.decode.packets_decoded),
                   static_cast<double>(c.frames_on_air)),
             "ratio", c.frames_on_air);
  report.add("uwb.aer.address_errors",
             static_cast<double>(c.demux.invalid_address), "count");
  report.add("uwb.aer.arbiter_dropped", static_cast<double>(c.arbiter.dropped),
             "count");
  report.add("uwb.aer.queue_delay_max_ms", c.arbiter.max_delay_s * 1e3, "ms",
             c.arbiter.in_events);
  report.add("runtime.runner.parallel_efficiency",
             ratio(stage_sum_ns * 1e-9,
                   static_cast<double>(p.runner_jobs) * p.runner_wall_s),
             "ratio");
  const auto us = [](const std::vector<double>& v, double q) {
    return quantile(v, q) * 1e6;
  };
  const ManagedPass& m = p.managed;
  report.add("runtime.session.push_chunk_us_p50", us(m.push_s, 0.5), "us",
             m.push_s.size());
  report.add("runtime.session.push_chunk_us_p99", us(m.push_s, 0.99), "us",
             m.push_s.size());
  report.add("runtime.manager.queue_wait_us_p50", us(m.queue_wait_s, 0.5),
             "us", m.queue_wait_s.size());
  report.add("runtime.manager.submit_block_us_p99",
             us(m.submit_block_s, 0.99), "us", m.submit_block_s.size());
  const RecorderProbe& r = p.recorder;
  report.add("store.recorder.offer_us_p99", us(r.offer_s, 0.99), "us",
             r.offer_s.size());
  report.add("store.recorder.written_ratio",
             ratio(static_cast<double>(r.written),
                   static_cast<double>(r.offered)),
             "ratio", r.offered);
  const net::ServerStats& s = p.server;
  report.add("net.server.chunk_to_envelope_p50_us",
             s.chunk_to_envelope.p50_us, "us", s.chunk_to_envelope.count);
  report.add("net.server.chunk_to_envelope_p99_us",
             s.chunk_to_envelope.p99_us, "us", s.chunk_to_envelope.count);
  report.add("net.server.throttle_events",
             static_cast<double>(s.throttle_events), "count");
  report.add("net.server.frames_bad", static_cast<double>(s.frames_bad),
             "count");
  report.add("net.bytes_per_sample",
             ratio(static_cast<double>(s.bytes_rx),
                   static_cast<double>(s.samples_rx)),
             "bytes", s.chunks_rx);
  report.add("loadgen.lag_p99_ms", quantile(p.lag_s, 0.99) * 1e3, "ms",
             p.lag_s.size());
  report.add("trace.overhead_ratio",
             ratio(p.chain_traced_s, p.chain_untraced_s), "ratio");
  report.add("trace.unaccounted_share",
             ratio(acc.unaccounted_ns, acc.wall_ns), "ratio");

  // The accounting identity the traced window must satisfy: layer self
  // times plus the unaccounted remainder cover the traced wall.
  double layers_ns = 0.0;
  for (const auto& [layer, ns] : acc.self_ns) {
    layers_ns += ns;
    report.note("trace: layer " + layer + " self " +
                std::to_string(ns * 1e-6) + " ms (" +
                std::to_string(100.0 * ratio(ns, acc.wall_ns)) + "% of " +
                std::to_string(acc.wall_ns * 1e-6) + " ms traced)");
  }
  const double covered = ratio(layers_ns + acc.unaccounted_ns, acc.wall_ns);
  report.note("trace: layers + unaccounted = " + std::to_string(covered) +
              " of the traced wall");
  report.check(covered > 0.999 && covered < 1.001,
               "layer self times + unaccounted == traced wall");
}

}  // namespace perfbench
