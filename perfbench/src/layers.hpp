// The traced run's per-layer metrics: each one times (or counts) a call
// into one library module from the benchmark's side, on the same inputs
// the timed session used. Nothing is instrumented inside the library.
#pragma once

#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

struct LayerInputs {
  const FitInputs& fit;
  const mfti::api::FitReport& alg1;  ///< the warm-up Algorithm 1 fit
  const mfti::api::FitReport& alg2;  ///< the warm-up Algorithm 2 fit
  const std::string& served_name;  ///< fleet model the probes evaluate
  const mfti::ss::DescriptorSystem& served;
  mfti::serving::ServingEngine& engine;
  FrequencySource& freqs;
  std::string work;  ///< the run's work directory
  double fit_s = 0.0;  ///< median Algorithm 1 operation of the session
  double roundtrip_p50_s = 0.0;
  double response_bytes = 0.0;  ///< mean over the session's responses
  mfti::serving::ServingStats stats;  ///< engine stats after the session
};

std::vector<Metric> probe_layers(const LayerInputs& in);

}  // namespace perfbench
