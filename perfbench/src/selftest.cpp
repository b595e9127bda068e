// Tests of the benchmark's own arithmetic: the tail-percentile choice,
// span self time under overlapping children, and open-loop latency when
// acks are coalesced or never arrive. Exit status 0 = all passed.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "openloop.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

int g_failed = 0;
int g_checks = 0;

void expect(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failed;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentile_choice() {
  // p99 needs 10 samples beyond it: exactly 1000 samples qualify.
  expect(samples_beyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  expect(supported_tail(1000).label == "p99", "1000 samples support p99");
  expect(supported_tail(999).label == "p90", "999 samples fall back to p90");
  expect(supported_tail(10000).label == "p99.9",
         "10000 samples support p99.9");
  expect(supported_tail(100).label == "p90", "100 samples support p90");
  expect(supported_tail(99).label == "p50", "99 samples support only p50");
  expect(supported_tail(5).label == "p50", "tiny samples report the median");

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Tail tail = supported_tail(v.size());
  expect(near(quantile(v, 0.5), 500.5), "median of 1..1000 is 500.5");
  expect(near(quantile(v, tail.q), 990.01),
         "p99 of 1..1000 interpolates to 990.01");
  expect(near(quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5),
         "quantile sorts and interpolates");
  expect(quantile({}, 0.5) == 0.0, "empty sample quantile is 0");
  // One bursty window does not move the median of window quantiles.
  expect(near(median_of_window_quantiles(
                  {{1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}, {100.0, 200.0, 300.0}},
                  0.5),
              2.0),
         "window medians ignore a single bursty window");
}

void test_self_time_overlapping_children() {
  // parent [0,100]; children [10,40] and [30,60] overlap; [90,120] sticks
  // out of the parent and is clipped. Covered: [10,60] + [90,100] = 60.
  std::vector<Span> spans = {
      {"bench.root", 0, 100, -1},
      {"core.a", 10, 40, 0},
      {"core.b", 30, 60, 0},
      {"uwb.c", 90, 120, 0},
      {"uwb.d", 15, 25, 1},  // grandchild: only shrinks core.a
  };
  const std::vector<double> self = self_times_ns(spans);
  expect(near(self[0], 40.0), "root self = 100 - |union of children| = 40");
  expect(near(self[1], 20.0), "child self excludes its own child");
  expect(near(self[2], 30.0), "leaf self is its duration");
  expect(near(self[4], 10.0), "grandchild self");

  const Accounting acc = account(spans);
  expect(near(acc.wall_ns, 100.0), "traced wall = root duration");
  expect(near(acc.unaccounted_ns, 40.0), "unaccounted = root self");
  expect(near(acc.self_ns.at("core"), 50.0), "layer core = 20 + 30");
  expect(near(acc.self_ns.at("uwb"), 40.0), "layer uwb = 30 + 10");
  expect(acc.calls.at("core.a") == 1, "calls counted per span name");

  // Serial children (the traced chain's shape): the identity is exact.
  const std::vector<Span> serial = {
      {"bench.chain", 0, 100, -1}, {"core.encode", 0, 30, 0},
      {"core.recon", 30, 90, 0}};
  const Accounting s = account(serial);
  expect(near(s.self_ns.at("core") + s.unaccounted_ns, s.wall_ns),
         "serial layers + unaccounted == traced wall");
}

void test_scope_nesting() {
  Tracer tracer(true);
  {
    const Scope root(tracer, "bench.root", -1);
    { const Scope a(tracer, "core.a"); }
    { const Scope b(tracer, "core.b"); }
  }
  const auto spans = tracer.spans();
  expect(spans.size() == 3, "three spans recorded");
  expect(spans.size() == 3 && spans[1].parent == 0 && spans[2].parent == 0,
         "scopes nest under the open scope of their thread");
  Tracer off(false);
  { const Scope x(off, "core.x"); }
  expect(off.spans().empty(), "a disabled tracer records nothing");
}

void test_open_loop_coalesced_ack() {
  AckLedger l;
  for (int i = 0; i < 4; ++i) l.add_due(static_cast<double>(i));
  l.ack(1, 2.5);  // one ack covers seq 0 and 1
  expect(l.acked() == 2, "one ack covers every seq up to its value");
  expect(near(l.latencies()[0], 2.5) && near(l.latencies()[1], 1.5),
         "each covered chunk is timed from its own due time");
  l.ack(1, 3.0);  // a repeated ack changes nothing
  expect(near(l.latencies()[1], 1.5), "first covering ack wins");
  l.ack(3, 3.5);
  expect(near(l.latencies()[2], 1.5) && near(l.latencies()[3], 0.5),
         "later ack covers the rest");
}

void test_never_acked_is_late() {
  AckLedger l;
  for (int i = 0; i < 3; ++i) l.add_due(static_cast<double>(i));
  l.ack(0, 0.01);
  const LateCount c = count_late(l.latencies(), 0.05);
  expect(c.attempted == 3, "every chunk attempted is counted");
  expect(c.never_acked == 2, "two chunks never acked");
  expect(c.late == 2, "never-acked chunks count as late");
  l.ack_all(2.02);  // the END ack covers the tail
  const LateCount d = count_late(l.latencies(), 0.05);
  expect(d.never_acked == 0 && d.late == 1,
         "END ack covers the tail; seq 1 (1.02 s) is still late");
}

}  // namespace

int main() {
  test_percentile_choice();
  test_self_time_overlapping_children();
  test_scope_nesting();
  test_open_loop_coalesced_ack();
  test_never_acked_is_late();
  std::printf("perfbench selftest: %d/%d checks passed\n",
              g_checks - g_failed, g_checks);
  return g_failed == 0 ? 0 : 1;
}
