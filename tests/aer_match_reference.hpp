#pragma once
// Test-only oracle for the shared-AER TX <-> RX ledger: the one-pass
// greedy two-pointer match over whole streams. uwb::AerLedger must equal
// it for any chunking, and the shared-mode runner's ledger must equal it
// over the batch link's merged streams.

#include <cmath>

#include "core/events.hpp"
#include "dsp/types.hpp"
#include "uwb/aer.hpp"

namespace datc::oracle {

/// Each decoded frame, in time order, takes the oldest unmatched sent
/// event within `window_s` of it; sent events more than the window before
/// the frame are passed over for good.
inline uwb::AerLedgerCounts match_streams(const core::EventStream& tx,
                                          const core::EventStream& rx,
                                          dsp::Real window_s) {
  uwb::AerLedgerCounts m;
  const auto& te = tx.events();
  std::size_t k = 0;
  for (const auto& r : rx.events()) {
    while (k < te.size() && te[k].time_s < r.time_s - window_s) ++k;
    if (k < te.size() && std::abs(te[k].time_s - r.time_s) <= window_s) {
      ++m.matched;
      if (te[k].channel != r.channel) {
        ++m.address_errors;
      } else if (te[k].vth_code != r.vth_code) {
        ++m.code_errors;
      }
      ++k;
    } else {
      ++m.spurious;
    }
  }
  return m;
}

}  // namespace datc::oracle
