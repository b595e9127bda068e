#pragma once
// Synthetic reproduction of the paper's measurement campaign: 190 sEMG
// patterns from 8 subjects (cylindrical power grip, 70 % MVC -> 0 %,
// 50 000 samples over 20 s). Subjects differ in effective gain — the
// skin-thickness / gender / electrode-placement variability that defeats a
// fixed threshold in the paper — modelled as a log-uniform spread of the
// full-MVC ARV expressed in volts at the comparator input.

#include <cstdint>
#include <string>
#include <vector>

#include "dsp/rng.hpp"
#include "dsp/types.hpp"
#include "emg/force_profile.hpp"
#include "emg/generator.hpp"

namespace datc::emg {

/// Parameters describing one synthetic recording.
struct RecordingSpec {
  std::uint64_t seed{0};
  Real sample_rate_hz{2500.0};  ///< 50 000 samples / 20 s
  Real duration_s{20.0};
  Real gain_v{0.5};      ///< ARV at 100 % MVC, in volts after amplification
  Real start_mvc{0.7};   ///< protocol starts at 70 % MVC
  EmgModel model{EmgModel::kMotorUnitPool};
  std::string name;
};

/// One synthesised recording plus its ground truth.
struct Recording {
  RecordingSpec spec;
  dsp::TimeSeries emg_v;     ///< amplified sEMG in volts (bipolar)
  ForceProfile force;        ///< the drive that generated it (fraction MVC)
};

/// Configuration of the whole dataset.
struct DatasetConfig {
  std::size_t num_patterns{190};
  std::size_t num_subjects{8};
  std::uint64_t base_seed{20150309};  ///< DATE'15 started March 9, 2015
  // Population spread calibrated so the weakest recordings land at the
  // paper's reported D-ATC correlation floor (~85 %, Fig. 5) while still
  // defeating the fixed 0.3 V threshold (ATC floor ~47 %).
  Real gain_lo_v{0.16};  ///< weakest subject/electrode combination
  Real gain_hi_v{0.85};  ///< strongest
  Real sample_rate_hz{2500.0};
  Real duration_s{20.0};
  EmgModel model{EmgModel::kMotorUnitPool};
};

/// Deterministic factory: the same config always produces the same specs
/// and recordings.
class DatasetFactory {
 public:
  explicit DatasetFactory(DatasetConfig config);

  /// Specs of all patterns (cheap; no synthesis performed).
  [[nodiscard]] const std::vector<RecordingSpec>& specs() const {
    return specs_;
  }

  /// Synthesises pattern `index`.
  [[nodiscard]] Recording make(std::size_t index) const;

  [[nodiscard]] const DatasetConfig& config() const { return config_; }

 private:
  DatasetConfig config_;
  std::vector<RecordingSpec> specs_;
};

/// Synthesises a single recording from its spec (usable without a factory).
[[nodiscard]] Recording make_recording(const RecordingSpec& spec);

/// The paper's "showcase" recording used by Figs. 3 and 6: a mid-gain
/// pattern with clear high- and low-amplitude episodes.
[[nodiscard]] Recording showcase_recording();

}  // namespace datc::emg
