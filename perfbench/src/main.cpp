// perfbench: one workload run of the MFTI benchmark.
//
//   perfbench prepare --workload W --seed N --work DIR
//       Builds the run's inputs that are not timed: the durable serving
//       fleet in DIR/fleet (each model published as v1, then v2), a copy
//       for the per-layer probes, and DIR/expected.bin, the published v2
//       matrices in the benchmark's own format.
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --work DIR
//                 [--t0 T] [--trace-out FILE]
//       set-up: warm restart of DIR/fleet (with the publish gate on), the
//       serving engine and the HTTP front, timed from T (CLOCK_MONOTONIC
//       seconds taken by the launcher just before it started this process).
//       Then, after an untimed warm-up of both, rounds of the two timed
//       operations: fits (one Algorithm 1 and one Algorithm 2 fit, each
//       verified and durably published) and /v1/eval requests (a closed
//       loop on one keep-alive connection). Prints one JSON result line.
//
// Threads while serving: this process's main thread is the load generator
// (one connection); the front runs one worker plus its accept and
// deadline-timer threads, which block in poll/wait; the engine pool runs
// one worker, which with the calling front worker evaluates a request
// two ways. At most three threads compute at once on a 4-core host.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "client.hpp"
#include "layers.hpp"
#include "net/net.hpp"
#include "workload.hpp"

namespace {

namespace api = mfti::api;
namespace fs = std::filesystem;
namespace net = mfti::net;
namespace serving = mfti::serving;
using namespace perfbench;

constexpr std::size_t kFrontWorkers = 1;
constexpr std::size_t kEngineWorkers = 1;
constexpr std::size_t kMinFitRounds = 2;
// At least ten requests beyond p90.
constexpr std::size_t kMinRequests = 100;
// Every k-th timed response is checked against the oracle (all warm-up
// responses are); the check runs outside the request's timing.
constexpr std::size_t kCheckEvery = 8;

struct Args {
  std::string mode;
  std::string workload;
  std::string work;
  std::string trace_out;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  double t0 = -1.0;
};

bool parse_args(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      a->workload = value;
    } else if (key == "--work") {
      a->work = value;
    } else if (key == "--trace-out") {
      a->trace_out = value;
    } else if (key == "--seed") {
      a->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(value);
    } else if (key == "--trace") {
      a->trace = std::atoi(value);
    } else if (key == "--t0") {
      a->t0 = std::atof(value);
    } else {
      return false;
    }
  }
  return (a->mode == "prepare" || a->mode == "run") && !a->work.empty() &&
         find_workload(a->workload) != nullptr && a->seconds > 0.0;
}

std::string model_name(const Workload& w, std::size_t i) {
  return (w.fleet == FleetKind::Pdn ? "pdn-" : "mimo-") + std::to_string(i);
}

int prepare(const Workload& w, const Args& a) {
  fs::create_directories(a.work);
  serving::ModelRegistryOptions ropts;
  ropts.max_versions = 2;
  auto registry = serving::ModelRegistry::open(
      a.work + "/fleet", ropts, serving::RegistryPersistenceOptions{});
  if (!registry) {
    std::fprintf(stderr, "prepare: %s\n",
                 registry.status().to_string().c_str());
    return 1;
  }
  const api::Fitter fitter;
  std::vector<DenseModel> expected;
  for (std::size_t i = 0; i < w.models; ++i) {
    const std::string name = model_name(w, i);
    mfti::ss::DescriptorSystem v2;
    if (w.fleet == FleetKind::Pdn) {
      const FitInputs in = make_fit_inputs(kBoardSeed + 1 + i,
                                           derive_seed(a.seed, 1000 + i));
      auto fit = fitter.fit(in.measured, api::MftiStrategy{alg1_options()});
      if (!fit) {
        std::fprintf(stderr, "prepare: fleet fit failed\n");
        return 1;
      }
      v2 = std::move(fit->model);
    } else {
      mfti::la::Rng rng(derive_seed(a.seed, 2000 + i));
      v2 = mfti::ss::random_stable_mimo(mimo_options(), rng);
    }
    // v1, the version the warm restart must not serve, differs only in its
    // feedthrough: a reply from it is off by ~1e-2 at every point.
    mfti::ss::DescriptorSystem v1 = v2;
    for (std::size_t k = 0; k < std::min(v1.d.rows(), v1.d.cols()); ++k) {
      v1.d(k, k) += 1e-2;
    }
    (*registry)->publish(name, std::make_shared<const api::ModelHandle>(v1));
    const std::uint64_t version = (*registry)->publish(
        name, std::make_shared<const api::ModelHandle>(v2));
    std::fprintf(stderr, "prepare: %s v%llu order %zu\n", name.c_str(),
                 static_cast<unsigned long long>(version), v2.order());
    expected.push_back(to_dense(name, version, v2));
  }
  registry->reset();
  fs::copy(a.work + "/fleet", a.work + "/fleet_probe",
           fs::copy_options::recursive);
  if (!write_models(a.work + "/expected.bin", expected)) {
    std::fprintf(stderr, "prepare: cannot write expected.bin\n");
    return 1;
  }
  return 0;
}

// Failed checks, reported on stderr; any one makes the run incorrect.
struct Checks {
  std::vector<std::string> failures;
  double worst_served = 0.0;
  double worst_alg1_err = 0.0;
  double worst_alg2_err = 0.0;
  void fail(std::string what) {
    if (failures.size() < 20) std::fprintf(stderr, "CHECK: %s\n", what.c_str());
    failures.push_back(std::move(what));
  }
};

// A served reply against the oracle: right model and version, right
// shape, and values at a spread of its points (all ports of each).
void check_reply(const HttpReply& reply, const DenseModel& model,
                 const std::vector<double>& freqs, Checks* checks) {
  EvalReply er;
  if (!scan_eval_reply(reply.body, &er)) {
    checks->fail("unreadable eval reply for " + model.name);
    return;
  }
  if (er.model != model.name || er.version != model.version ||
      er.values.size() != freqs.size() || er.rows != model.outputs() ||
      er.cols != model.inputs()) {
    checks->fail("reply for " + model.name + " v" +
                 std::to_string(model.version) + " names " + er.model +
                 " v" + std::to_string(er.version) + " or has a wrong shape");
    return;
  }
  const std::size_t n = freqs.size();
  for (std::size_t i : {std::size_t{0}, n / 3, (2 * n) / 3, n - 1}) {
    const double err =
        relative_error(er.values[i], transfer_hz(model, freqs[i]));
    checks->worst_served = std::max(checks->worst_served, err);
    if (!(err <= kServedBound)) {
      checks->fail(model.name + " at " + std::to_string(freqs[i]) +
                   " Hz: relative error " + std::to_string(err));
    }
  }
}

std::size_t thread_count() {
  std::size_t n = 0;
  std::error_code ec;
  for (auto it = fs::directory_iterator("/proc/self/task", ec);
       !ec && it != fs::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

void print_result(const Checks& checks, std::size_t attempted,
                  std::size_t failed, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += checks.failures.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.9g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

bool write_trace_file(const std::string& path, const Workload& w,
                      const Args& a, const std::vector<Metric>& metrics) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"layers\": {",
               std::string(w.name).c_str(),
               static_cast<unsigned long long>(a.seed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(f, "%s\n  \"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                 i == 0 ? "" : ",", metrics[i].name.c_str(), metrics[i].value,
                 metrics[i].unit.c_str());
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

int run(const Workload& w, const Args& a) {
  const double t0 = a.t0 >= 0.0 ? a.t0 : mono_seconds();

  // --- set-up: warm restart, engine, front ---------------------------------
  serving::ModelRegistryOptions ropts;
  ropts.max_versions = 2;
  ropts.verification = std::make_shared<const serving::VerificationPolicy>(
      verification_options());
  auto opened = serving::ModelRegistry::open(
      a.work + "/fleet", ropts, serving::RegistryPersistenceOptions{});
  if (!opened) {
    std::fprintf(stderr, "run: %s\n", opened.status().to_string().c_str());
    return 1;
  }
  serving::ModelRegistry& registry = **opened;
  serving::ServingEngineOptions eopts;
  eopts.workers = kEngineWorkers;
  serving::ServingEngine engine(registry, eopts);
  net::ServingFrontOptions fopts;
  fopts.workers = kFrontWorkers;
  net::ServingFront front(engine, registry, fopts);
  if (!front.start().is_ok()) {
    std::fprintf(stderr, "run: the front did not start\n");
    return 1;
  }
  const double setup_s = mono_seconds() - t0;

  Checks checks;
  // --- warm restart served what was published, bit for bit -----------------
  std::vector<DenseModel> fleet;
  if (!read_models(a.work + "/expected.bin", &fleet) ||
      fleet.size() != w.models) {
    std::fprintf(stderr, "run: cannot read expected.bin\n");
    return 1;
  }
  for (const DenseModel& m : fleet) {
    const auto live = registry.acquire(m.name);
    if (!live || live->info.version != m.version ||
        !bitwise_equal(to_dense(m.name, m.version, live->handle->model()),
                       m)) {
      checks.fail("warm restart changed " + m.name);
    }
  }

  // --- fit inputs and warm-up ------------------------------------------------
  const FitInputs inputs = make_fit_inputs(kBoardSeed, derive_seed(a.seed, 1));
  const api::Fitter fitter;
  api::FitRequest alg1;
  alg1.samples = inputs.measured;
  alg1.strategy = api::MftiStrategy{alg1_options()};
  api::FitRequest alg2;
  alg2.samples = inputs.measured;
  alg2.strategy = api::RecursiveMftiStrategy{alg2_options()};
  std::size_t quarantined = 0;
  std::size_t promoted = 0;
  // One operation: fit, then verify and durably publish (the registry's
  // gate runs the policy inside publish). Returns its seconds, or < 0.
  const auto fit_op = [&](bool recursive, api::FitReport* keep) {
    const double start = mono_seconds();
    auto report = fitter.fit(recursive ? alg2 : alg1);
    if (!report) return -1.0;
    serving::PublishResult published;
    try {
      published = registry.publish(recursive ? "fit-recursive" : "fit-mfti",
                                   *report);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "publish failed: %s\n", e.what());
      return -1.0;
    }
    const double seconds = mono_seconds() - start;
    (published.quarantined ? quarantined : promoted) += 1;
    const double err = fit_error(to_dense("fit", 0, report->model),
                                 inputs.held_freqs, inputs.held);
    const double bound = recursive ? kAlg2ErrBound : kAlg1ErrBound;
    double& worst = recursive ? checks.worst_alg2_err : checks.worst_alg1_err;
    worst = std::max(worst, err);
    if (!(err <= bound)) {
      checks.fail(std::string(recursive ? "Algorithm 2" : "Algorithm 1") +
                  " held-out ERR " + std::to_string(err) + " above " +
                  std::to_string(bound));
    }
    if (keep != nullptr) *keep = std::move(*report);
    return seconds;
  };

  std::size_t attempted = 0;
  std::size_t failed = 0;
  api::FitReport warm1, warm2;
  if (fit_op(false, &warm1) < 0.0 || fit_op(true, &warm2) < 0.0) {
    checks.fail("warm-up fit failed");
  }
  // --- serving warm-up -------------------------------------------------------
  HttpClient client;
  if (!client.connect(front.port())) {
    std::fprintf(stderr, "run: cannot connect to the front\n");
    return 1;
  }
  FrequencySource source(w, a.seed);
  std::vector<double> latency_s;
  std::size_t points = 0;
  double response_bytes = 0.0;
  // One request; returns false when it failed.
  const auto request = [&](std::size_t r, bool timed) {
    const DenseModel& model = fleet[r % fleet.size()];
    const std::vector<double> freqs = source.next();
    const std::string body = eval_body(model.name, freqs);
    HttpReply reply;
    const double start = mono_seconds();
    const bool ok = client.post("/v1/eval", body, &reply);
    const double seconds = mono_seconds() - start;
    if (!ok || reply.status != 200) {
      std::fprintf(stderr, "request to %s failed (HTTP %d)\n",
                   model.name.c_str(), reply.status);
      return false;
    }
    if (timed) {
      latency_s.push_back(seconds);
      points += freqs.size();
      response_bytes += static_cast<double>(reply.wire_bytes);
    }
    if (!timed || r % kCheckEvery == 0) check_reply(reply, model, freqs, &checks);
    return true;
  };
  // Warm-up: every model twice (fills the caches for repeat traffic).
  for (std::size_t r = 0; r < 2 * fleet.size(); ++r) {
    if (!request(r, false)) checks.fail("warm-up request failed");
  }
  // --- timed session ---------------------------------------------------------
  // Rounds of one Algorithm 1 fit, one Algorithm 2 fit and a block of
  // requests sized to keep the workload's time shares, so both operations
  // sample the whole run rather than one stretch of it.
  std::vector<double> alg1_s, alg2_s;
  double fit_time = 0.0;
  double serve_time = 0.0;
  const double serve_per_fit = (1.0 - w.fit_share) / w.fit_share;
  std::size_t r = 0;
  for (std::size_t round = 0; round < kMinFitRounds || r < kMinRequests ||
                              fit_time + serve_time < a.seconds;
       ++round) {
    const double fits_start = mono_seconds();
    for (const bool recursive : {false, true}) {
      ++attempted;
      const double s = fit_op(recursive, nullptr);
      if (s < 0.0) {
        ++failed;
      } else {
        (recursive ? alg2_s : alg1_s).push_back(s);
      }
    }
    fit_time += mono_seconds() - fits_start;
    const double serve_start = mono_seconds();
    while (serve_time + (mono_seconds() - serve_start) <
           fit_time * serve_per_fit) {
      ++attempted;
      if (!request(r++, true)) ++failed;
    }
    serve_time += mono_seconds() - serve_start;
  }
  if (alg1_s.empty() || alg2_s.empty() || latency_s.empty()) {
    std::fprintf(stderr, "run: an operation never completed\n");
    return 1;
  }
  const serving::ServingStats stats = engine.stats();
  const std::size_t threads = thread_count();

  double busy_s = 0.0;
  for (double s : latency_s) busy_s += s;
  std::fprintf(stderr,
               "%s seed %llu: setup %.4f s, %zu+%zu fits (%zu quarantined, "
               "%zu promoted), worst held-out ERR %.3g / %.3g, %zu requests, "
               "worst served error %.3g, %zu threads, %zu failed checks\n",
               std::string(w.name).c_str(),
               static_cast<unsigned long long>(a.seed), setup_s,
               alg1_s.size(), alg2_s.size(), quarantined, promoted,
               checks.worst_alg1_err, checks.worst_alg2_err, latency_s.size(),
               checks.worst_served, threads, checks.failures.size());

  std::string ops = "fit seconds:";
  for (std::size_t i = 0; i < alg1_s.size(); ++i) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), " %.3f/%.3f", alg1_s[i],
                  i < alg2_s.size() ? alg2_s[i] : 0.0);
    ops += buf;
  }
  std::fprintf(stderr, "%s\n", ops.c_str());

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::vector<Metric> metrics;
  if (a.trace == 0) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"fit_min_s", *std::min_element(alg1_s.begin(), alg1_s.end()), "s"},
        {"recursive_fit_min_s",
         *std::min_element(alg2_s.begin(), alg2_s.end()), "s"},
        {"eval_points_per_s", static_cast<double>(points) / busy_s, "points/s"},
        {"eval_p90_ms", 1e3 * percentile(latency_s, 0.9), "ms"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
    };
  } else {
    const std::string served_name = fleet.front().name;
    const auto served = registry.acquire(served_name);
    if (!served || !warm2.recursive) {
      std::fprintf(stderr, "run: nothing to probe\n");
      return 1;
    }
    const LayerInputs in{inputs,
                         warm1,
                         warm2,
                         served_name,
                         served->handle->model(),
                         engine,
                         source,
                         a.work,
                         median(alg1_s),
                         percentile(latency_s, 0.5),
                         response_bytes /
                             static_cast<double>(latency_s.size()),
                         stats};
    metrics = probe_layers(in);
    if (!a.trace_out.empty() && !write_trace_file(a.trace_out, w, a, metrics)) {
      std::fprintf(stderr, "run: cannot write %s\n", a.trace_out.c_str());
      return 1;
    }
  }
  print_result(checks, attempted, failed, metrics);
  front.begin_drain();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench prepare|run --workload W --seed N "
                 "--work DIR [--seconds S] [--trace 0|1] [--t0 T] "
                 "[--trace-out FILE]\n");
    return 2;
  }
  const Workload& w = *find_workload(args.workload);
  return args.mode == "prepare" ? prepare(w, args) : run(w, args);
}
