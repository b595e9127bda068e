#include "openloop.hpp"

namespace perfbench {

void AckLedger::add_due(double due_s) {
  due_.push_back(due_s);
  latency_.push_back(-1.0);
}

void AckLedger::ack(std::uint64_t highest_seq, double t_s) {
  while (next_unacked_ < due_.size() && next_unacked_ <= highest_seq) {
    latency_[next_unacked_] = t_s - due_[next_unacked_];
    ++next_unacked_;
  }
}

void AckLedger::ack_all(double t_s) {
  if (due_.empty()) return;
  ack(due_.size() - 1, t_s);
}

LateCount count_late(const std::vector<double>& latencies_s, double limit_s) {
  LateCount c;
  for (const double l : latencies_s) {
    ++c.attempted;
    if (l < 0.0) {
      ++c.never_acked;
      ++c.late;
    } else if (l > limit_s) {
      ++c.late;
    }
  }
  return c;
}

}  // namespace perfbench
