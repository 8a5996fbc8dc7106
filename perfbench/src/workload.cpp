#include "workload.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "netgen/mna.hpp"
#include "netgen/pdn.hpp"
#include "sampling/grid.hpp"
#include "sampling/noise.hpp"

namespace perfbench {

namespace {

// Every workload runs both operations, so each measures every end-to-end
// metric on its own mix. Both spend 60% of their time fitting: the fit
// metrics take the fastest of a run's fits, which needs about ten of each
// kind, while a few hundred requests already fix the serving metrics.
constexpr Workload kWorkloads[] = {
    {"serve_cold", FleetKind::Mimo, 4, Traffic::Fresh, 16, 0.6},
    {"serve_repeat", FleetKind::Pdn, 3, Traffic::Repeat, 32, 0.6},
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit_interval(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  return splitmix64(splitmix64(seed) ^ splitmix64(tag + 0x51ed));
}

FitInputs make_fit_inputs(std::uint64_t board_seed, std::uint64_t noise_seed) {
  namespace netgen = mfti::netgen;
  mfti::la::Rng rng(board_seed);
  const netgen::Circuit pdn =
      netgen::make_pdn_circuit(netgen::PdnOptions{}, rng);
  const auto freqs =
      mfti::sampling::linear_grid(kBandLoHz, kBandHiHz, kFitFrequencies);
  mfti::la::Rng noise(noise_seed);
  FitInputs in;
  in.measured = mfti::sampling::add_noise(
      netgen::sample_s_parameters(pdn, freqs, 50.0, /*skin_f_hz=*/1e7),
      kNoise, noise);
  // Midpoints of a 40-cell split of the band: (i + 1/2) / 40 never equals
  // k / 119, so no held-out frequency is on the fit grid.
  for (std::size_t i = 0; i < kHeldOutFrequencies; ++i) {
    in.held_freqs.push_back(kBandLoHz + (static_cast<double>(i) + 0.5) *
                                            (kBandHiHz - kBandLoHz) /
                                            kHeldOutFrequencies);
  }
  const auto held =
      netgen::sample_s_parameters(pdn, in.held_freqs, 50.0, 1e7);
  for (std::size_t i = 0; i < held.size(); ++i) {
    const auto& s = held[i].s;
    std::vector<cplx> flat;
    for (std::size_t r = 0; r < s.rows(); ++r) {
      for (std::size_t c = 0; c < s.cols(); ++c) flat.push_back(s(r, c));
    }
    in.held.push_back(std::move(flat));
  }
  return in;
}

mfti::core::MftiOptions alg1_options() {
  mfti::core::MftiOptions o;
  o.data.uniform_t = 3;
  o.realization.selection = mfti::loewner::OrderSelection::Tolerance;
  o.realization.rank_tol = 1e-2;  // truncate at the noise knee
  return o;
}

mfti::core::RecursiveMftiOptions alg2_options() {
  mfti::core::RecursiveMftiOptions o;
  o.data.uniform_t = 3;
  o.units_per_iteration = 5;
  o.relative_error = true;
  o.selection = mfti::core::SelectionRule::WorstFirst;
  // No early stop: a fixed budget of 8 iterations (40 of the 60 units), so
  // the cost does not depend on when a noise realization crosses a
  // threshold (with a 1% threshold it ranged 0.57-1.29 s across seeds).
  o.threshold = 0.0;
  o.max_iterations = 8;
  o.realization = alg1_options().realization;
  return o;
}

mfti::serving::VerificationOptions verification_options() {
  mfti::serving::VerificationOptions o;
  o.band_lo_hz = kBandLoHz;
  o.band_hi_hz = kBandHiHz;
  return o;
}

mfti::ss::RandomSystemOptions mimo_options() {
  mfti::ss::RandomSystemOptions o;
  o.order = 160;
  o.num_inputs = 4;
  o.num_outputs = 4;
  o.f_min_hz = kBandLoHz;
  o.f_max_hz = kBandHiHz;
  return o;
}

DenseModel to_dense(std::string name, std::uint64_t version,
                    const mfti::ss::DescriptorSystem& sys) {
  DenseModel out;
  out.name = std::move(name);
  out.version = version;
  const mfti::la::Mat* src[] = {&sys.e, &sys.a, &sys.b, &sys.c, &sys.d};
  Dense* dst[] = {&out.e, &out.a, &out.b, &out.c, &out.d};
  for (int k = 0; k < 5; ++k) {
    dst[k]->rows = src[k]->rows();
    dst[k]->cols = src[k]->cols();
    dst[k]->v.resize(dst[k]->rows * dst[k]->cols);
    for (std::size_t i = 0; i < dst[k]->rows; ++i) {
      for (std::size_t j = 0; j < dst[k]->cols; ++j) {
        dst[k]->v[i * dst[k]->cols + j] = (*src[k])(i, j);
      }
    }
  }
  return out;
}

FrequencySource::FrequencySource(const Workload& w, std::uint64_t seed)
    : w_(w), phase_(unit_interval(derive_seed(seed, 7))) {
  if (w.traffic == Traffic::Repeat) {
    for (std::size_t i = 0; i < w.points_per_request; ++i) {
      grid_.push_back(kBandLoHz + unit_interval(derive_seed(seed, 100 + i)) *
                                      (kBandHiHz - kBandLoHz));
    }
    std::sort(grid_.begin(), grid_.end());
  }
}

std::vector<double> FrequencySource::next() {
  if (w_.traffic == Traffic::Repeat) return grid_;
  constexpr double kGolden = 0.6180339887498948482;
  std::vector<double> out;
  for (std::size_t i = 0; i < w_.points_per_request; ++i) {
    const double x = phase_ + static_cast<double>(counter_++) * kGolden;
    out.push_back(kBandLoHz + (x - std::floor(x)) * (kBandHiHz - kBandLoHz));
  }
  return out;
}

std::string eval_body(const std::string& model,
                      const std::vector<double>& freqs) {
  std::string out = "{\"model\":\"" + model + "\",\"freqs_hz\":[";
  char buf[32];
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.17g", i == 0 ? "" : ",", freqs[i]);
    out += buf;
  }
  out += "]}";
  return out;
}

double mono_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace perfbench
