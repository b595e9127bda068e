#pragma once
// Open-loop latency accounting. A chunk is due at a fixed time whatever
// the server does; its latency runs from that due time to the first
// acknowledgement that covers its sequence number. The server coalesces
// acks (one CHUNK ack names the highest sequence processed so far), so a
// single ack can cover several chunks, and the END ack covers every
// chunk of its session.

#include <cstdint>
#include <vector>

namespace perfbench {

class AckLedger {
 public:
  /// Registers the next chunk (its seq is the number registered before).
  void add_due(double due_s);
  /// An ack covering every seq <= highest_seq, received at t_s.
  void ack(std::uint64_t highest_seq, double t_s);
  /// An ack covering every registered chunk (the session's END ack).
  void ack_all(double t_s);

  [[nodiscard]] std::uint64_t registered() const { return due_.size(); }
  [[nodiscard]] std::uint64_t acked() const { return next_unacked_; }
  /// Latency per chunk in seq order; negative = never acked.
  [[nodiscard]] const std::vector<double>& latencies() const {
    return latency_;
  }
  [[nodiscard]] const std::vector<double>& due() const { return due_; }

 private:
  std::vector<double> due_;
  std::vector<double> latency_;
  std::uint64_t next_unacked_{0};
};

struct LateCount {
  std::uint64_t attempted{0};
  std::uint64_t late{0};         ///< over the limit, never-acked included
  std::uint64_t never_acked{0};
};

/// Chunks over `limit_s`, counting never-acked chunks as late.
[[nodiscard]] LateCount count_late(const std::vector<double>& latencies_s,
                                   double limit_s);

}  // namespace perfbench
