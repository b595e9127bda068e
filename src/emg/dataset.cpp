#include "dsp/types.hpp"
#include "emg/dataset.hpp"
#include "emg/force_profile.hpp"
#include "emg/generator.hpp"

#include <cmath>
#include <limits>

namespace datc::emg {

DatasetFactory::DatasetFactory(DatasetConfig config)
    : config_(std::move(config)) {
  dsp::require(config_.num_patterns >= 1 && config_.num_subjects >= 1,
               "DatasetFactory: need >= 1 pattern and subject");
  dsp::require(config_.gain_lo_v > 0.0 &&
                   config_.gain_hi_v >= config_.gain_lo_v,
               "DatasetFactory: invalid gain range");

  dsp::Rng rng(config_.base_seed);
  // Per-subject base gains: log-uniform across the population spread.
  std::vector<Real> subject_gain(config_.num_subjects);
  for (auto& g : subject_gain) {
    g = rng.log_uniform(config_.gain_lo_v, config_.gain_hi_v);
  }

  specs_.reserve(config_.num_patterns);
  for (std::size_t i = 0; i < config_.num_patterns; ++i) {
    RecordingSpec spec;
    spec.seed = rng.integer(1, std::numeric_limits<std::uint64_t>::max() / 2);
    spec.sample_rate_hz = config_.sample_rate_hz;
    spec.duration_s = config_.duration_s;
    const std::size_t subject = i % config_.num_subjects;
    // Session-to-session electrode variability on top of the subject gain.
    spec.gain_v = subject_gain[subject] * rng.uniform(0.8, 1.25);
    spec.start_mvc = 0.7;
    spec.model = config_.model;
    spec.name = "subj" + std::to_string(subject + 1) + "_pat" +
                std::to_string(i + 1);
    specs_.push_back(std::move(spec));
  }
}

Recording DatasetFactory::make(std::size_t index) const {
  dsp::require(index < specs_.size(), "DatasetFactory::make: index range");
  return make_recording(specs_[index]);
}

Recording make_recording(const RecordingSpec& spec) {
  dsp::Rng rng(spec.seed);
  Recording rec;
  rec.spec = spec;
  rec.force = grip_protocol(rng, spec.start_mvc, spec.duration_s,
                            spec.sample_rate_hz);
  rec.emg_v = synthesize(spec.model, rec.force, rng);
  // Scale from normalised units (ARV(100 % MVC) ~ 1) to volts.
  for (auto& v : rec.emg_v.samples()) v *= spec.gain_v;
  return rec;
}

Recording showcase_recording() {
  RecordingSpec spec;
  spec.seed = 4221;  // chosen for clear high- and low-force episodes
  spec.sample_rate_hz = 2500.0;
  spec.duration_s = 20.0;
  spec.gain_v = 0.28;  // puts ATC(0.3 V) in the paper's ~91 % regime
  spec.start_mvc = 0.7;
  spec.model = EmgModel::kMotorUnitPool;
  spec.name = "showcase";
  return make_recording(spec);
}

}  // namespace datc::emg
