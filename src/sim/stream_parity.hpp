#pragma once
// Streaming == batch acceptance machinery. The streaming session layer
// claims bit-identicality with the batch pipeline for any chunking; these
// helpers run both paths on the same recording(s) and seeds and compare
// decoded events and ARV output EXACTLY (double equality, not tolerance).
// Shared by the parity tests, bench_stream's JSON gate and `datc stream
// --verify`.

#include <cstdint>
#include <span>
#include <vector>

#include "core/reconstruct.hpp"
#include "dsp/types.hpp"
#include "emg/evaluation.hpp"
#include "runtime/session.hpp"
#include "store/recorder.hpp"
#include "uwb/link_pipeline.hpp"

namespace datc::sim {

/// The replay manifest for a session parameterised by `eval` — the ONE
/// EvalConfig -> SessionManifest mapping (CLI `record`, bench_store and
/// the replay tests all share it, so a new replay-relevant parameter
/// cannot silently diverge between them).
[[nodiscard]] store::SessionManifest make_session_manifest(
    const emg::EvalConfig& eval, std::uint32_t channel, dsp::Real duration_s);

struct StreamParityResult {
  std::size_t chunk_size{0};  ///< samples per chunk (per channel); 0 = whole
  bool events_equal{false};   ///< decoded streams identical (time/code/addr)
  bool arv_equal{false};      ///< reconstructed envelopes identical
  std::size_t events_batch{0};
  std::size_t events_stream{0};
  std::size_t arv_samples{0};
  dsp::Real max_abs_arv_diff{0.0};

  [[nodiscard]] bool identical() const { return events_equal && arv_equal; }
};

/// One channel over its private radio: StreamingSession in `chunk_size`
/// sample chunks vs the batch encode -> link -> reconstruct path with the
/// same seeds. chunk_size 0 feeds the whole record as one chunk.
[[nodiscard]] StreamParityResult check_stream_parity(
    const dsp::TimeSeries& emg_v, const emg::EvalConfig& eval,
    const uwb::LinkConfig& link, core::CalibrationPtr calibration,
    std::size_t chunk_size, std::uint32_t channel_id = 0);

/// Compares outputs a session ALREADY produced (its kept decoded events
/// and drained ARV) against the batch reference. `datc stream --verify`
/// uses this so the verified artifact is the envelope it actually wrote,
/// including the CLI's own feed path, at no extra streaming cost.
[[nodiscard]] StreamParityResult check_stream_output(
    const dsp::TimeSeries& emg_v, const emg::EvalConfig& eval,
    const uwb::LinkConfig& link, core::CalibrationPtr calibration,
    std::size_t chunk_size, std::uint32_t channel_id,
    const core::EventStream& rx_events, const std::vector<dsp::Real>& arv);

/// Shared-AER mode: every signal is one contending channel, chunks arrive
/// in lockstep rounds of `chunk_size` samples per channel. Compared
/// against the batch run_aer_over_link + per-channel reconstruction;
/// `events_equal` also requires equal arbiter and demux counts, and the
/// session's ledger to equal one AerLedger pass over the batch run's
/// whole merged TX and RX streams.
[[nodiscard]] StreamParityResult check_shared_stream_parity(
    std::span<const dsp::TimeSeries> channels, const emg::EvalConfig& eval,
    const uwb::LinkConfig& link, const uwb::SharedAerConfig& shared,
    core::CalibrationPtr calibration, std::size_t chunk_size);

}  // namespace datc::sim
