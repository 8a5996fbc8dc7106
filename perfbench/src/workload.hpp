// Workload definitions shared by the set-up, the timed session and the
// per-layer probes: the fit inputs (the paper's Example 2 PDN set-up), the
// serving fleets, the request traffic, and the bounds the checks use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/api.hpp"
#include "oracle.hpp"
#include "serving/serving.hpp"
#include "statespace/random_system.hpp"

namespace perfbench {

// -60 dB relative noise on the fitted S-parameters.
inline constexpr double kNoise = 1e-3;
inline constexpr double kBandLoHz = 1e6;
inline constexpr double kBandHiHz = 1e9;
inline constexpr std::size_t kFitFrequencies = 120;
inline constexpr std::size_t kHeldOutFrequencies = 40;

// Held-out ERR bounds, in units of the noise level. Algorithm 1 truncates
// at the noise knee (measured ERR ~4-5x the noise); Algorithm 2 stops at a
// 1% tangential threshold on a subset of the samples (measured up to ~36x
// over 16 boards). A wrong model, port order or frequency gives ERR ~1.
inline constexpr double kAlg1ErrBound = 20 * kNoise;
inline constexpr double kAlg2ErrBound = 100 * kNoise;

// Served values against the benchmark's own solver: relative Frobenius
// error per point. The modal kernel planned for the serving path agreed
// with LU to 5e-10..1.7e-9; a wrong port, point or model version is off by
// 1e-3 or more.
inline constexpr double kServedBound = 1e-7;

enum class FleetKind { Pdn, Mimo };
enum class Traffic { Fresh, Repeat };

struct Workload {
  std::string_view name;
  FleetKind fleet;
  std::size_t models;  ///< fleet size (each published as v1 then v2)
  Traffic traffic;
  std::size_t points_per_request;
  double fit_share;  ///< share of --seconds spent fitting
};

const Workload* find_workload(std::string_view name);

/// Deterministic 64-bit stream derived from the run seed and a tag.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/// The board of the paper's Example 2 set-up (examples/pdn_macromodel.cpp
/// builds it from the same generator seed). Fleet boards follow it. The
/// boards are fixed so that every run does the same amount of work; the run
/// seed draws the measurement noise, the cold fleet and the traffic.
inline constexpr std::uint64_t kBoardSeed = 2024;

/// Noisy S-parameters of one 14-port PDN board on the fit grid, plus
/// noise-free samples of the same board at held-out frequencies that are
/// not on the grid.
struct FitInputs {
  mfti::sampling::SampleSet measured;
  std::vector<double> held_freqs;
  std::vector<std::vector<cplx>> held;
};
FitInputs make_fit_inputs(std::uint64_t board_seed, std::uint64_t noise_seed);

mfti::core::MftiOptions alg1_options();
mfti::core::RecursiveMftiOptions alg2_options();
/// Passivity over the data band plus stability: the publish gate.
mfti::serving::VerificationOptions verification_options();

/// The 4-port, order-160 system of the cold fleet.
mfti::ss::RandomSystemOptions mimo_options();

DenseModel to_dense(std::string name, std::uint64_t version,
                    const mfti::ss::DescriptorSystem& sys);

/// Request frequencies. Fresh traffic walks an irrational rotation of the
/// band, so no frequency repeats within a run; repeat traffic reuses one
/// seeded grid.
class FrequencySource {
 public:
  FrequencySource(const Workload& w, std::uint64_t seed);
  std::vector<double> next();

 private:
  const Workload& w_;
  double phase_ = 0.0;
  std::uint64_t counter_ = 0;
  std::vector<double> grid_;
};

/// `{"model":"<name>","freqs_hz":[...]}` with round-trip-exact doubles.
std::string eval_body(const std::string& model,
                      const std::vector<double>& freqs);

/// Monotonic clock in seconds (CLOCK_MONOTONIC, comparable across
/// processes on one host).
double mono_seconds();

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Median of a non-empty sample (copied; the caller's order is kept).
double median(std::vector<double> v);

/// Linear-interpolated percentile, `q` in [0, 1].
double percentile(std::vector<double> v, double q);

}  // namespace perfbench
