#include "layers.hpp"

#include <filesystem>
#include <numbers>

#include "linalg/lu.hpp"
#include "linalg/svd.hpp"
#include "loewner/matrices.hpp"
#include "loewner/realization.hpp"
#include "loewner/tangential.hpp"
#include "client.hpp"
#include "net/net.hpp"

namespace perfbench {

namespace {

namespace api = mfti::api;
namespace la = mfti::la;
namespace loewner = mfti::loewner;
namespace net = mfti::net;
namespace serving = mfti::serving;

template <typename F>
double median_seconds(int reps, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double start = mono_seconds();
    f();
    t.push_back(mono_seconds() - start);
  }
  return median(t);
}

// The front's eval response shape (docs/serving-protocol.md), built with
// the net module's public JSON type.
net::Json encode_response(const serving::EvalResponse& eval) {
  net::Json entry = net::Json::object();
  entry.set("model", net::Json(eval.model));
  entry.set("version", net::Json(static_cast<double>(eval.version)));
  entry.set("unique_points",
            net::Json(static_cast<double>(eval.unique_points)));
  net::Json values = net::Json::array();
  for (const la::CMat& m : eval.values) {
    net::Json one = net::Json::object();
    one.set("rows", net::Json(static_cast<double>(m.rows())));
    one.set("cols", net::Json(static_cast<double>(m.cols())));
    net::Json re = net::Json::array();
    net::Json im = net::Json::array();
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t j = 0; j < m.cols(); ++j) {
        re.push_back(net::Json(m(i, j).real()));
        im.push_back(net::Json(m(i, j).imag()));
      }
    }
    one.set("re", std::move(re));
    one.set("im", std::move(im));
    values.push_back(std::move(one));
  }
  entry.set("values", std::move(values));
  net::Json list = net::Json::array();
  list.push_back(std::move(entry));
  net::Json body = net::Json::object();
  body.set("responses", std::move(list));
  return body;
}

// Points for the kernel probes, off the request traffic's frequencies.
la::Complex probe_point(std::size_t k) {
  const double f = kBandLoHz + (static_cast<double>(k) + 0.25) / 64.0 *
                                   (kBandHiHz - kBandLoHz);
  return {0.0, 2.0 * std::numbers::pi * f};
}

}  // namespace

std::vector<Metric> probe_layers(const LayerInputs& in) {
  std::vector<Metric> out;
  const auto add = [&](const char* name, double value, const char* unit) {
    out.push_back({name, value, unit});
  };

  // --- loewner + linalg: Algorithm 1's stages on the session's data ----
  const auto o1 = alg1_options();
  loewner::TangentialData data;
  const double build_s = median_seconds(3, [&] {
    data = loewner::build_tangential_data(in.fit.measured, o1.data);
  });
  std::pair<la::CMat, la::CMat> pair;
  const double pair_s =
      median_seconds(3, [&] { pair = loewner::loewner_pair(data); });
  const double realize_s = median_seconds(3, [&] {
    loewner::realize(data, pair.first, pair.second, o1.realization);
  });
  add("loewner.build_tangential_data_s", build_s, "s");
  add("loewner.loewner_pair_s", pair_s, "s");
  add("loewner.realize_s", realize_s, "s");
  // The row-stacked pencil [LL sLL] the realization decomposes.
  const std::size_t kl = pair.first.rows();
  const std::size_t kr = pair.first.cols();
  la::Mat stacked(kl, 2 * kr);
  for (std::size_t i = 0; i < kl; ++i) {
    for (std::size_t j = 0; j < kr; ++j) {
      stacked(i, j) = pair.first(i, j).real();
      stacked(i, kr + j) = pair.second(i, j).imag();
    }
  }
  add("linalg.svd_s", median_seconds(3, [&] { la::svd(stacked); }), "s");

  // --- core: Algorithm 2's work as counts ----------------------------------
  add("core.recursive_iterations",
      static_cast<double>(in.alg2.recursive->iterations), "count");
  add("core.recursive_units",
      static_cast<double>(in.alg2.recursive->used_units.size()), "count");

  // --- serving: the publish gate's checks, then a durable publish ---------
  auto only = verification_options();
  only.check_stability = false;
  const serving::VerificationPolicy passivity(only);
  only = verification_options();
  only.check_passivity = false;
  const serving::VerificationPolicy stability(only);
  const double passivity_s =
      median_seconds(3, [&] { passivity.verify(in.alg1.model); });
  const double stability_s =
      median_seconds(3, [&] { stability.verify(in.alg1.model); });
  add("serving.verify_passivity_s", passivity_s, "s");
  add("serving.verify_stability_s", stability_s, "s");

  namespace fs = std::filesystem;
  serving::ModelRegistryOptions ropts;
  ropts.max_versions = 2;
  const std::string pub_dir = in.work + "/probe_publish";
  auto pub = serving::ModelRegistry::open(pub_dir, ropts,
                                          serving::RegistryPersistenceOptions{});
  double publish_s = 0.0;
  double journal_bytes = 0.0;
  if (pub) {
    const auto handle = std::make_shared<const api::ModelHandle>(in.alg1.model);
    const fs::path journal = fs::path(pub_dir) / "registry.journal";
    const auto size = [&] {
      std::error_code ec;
      const auto n = fs::file_size(journal, ec);
      return ec ? 0.0 : static_cast<double>(n);
    };
    const double before = size();
    constexpr int kPublishes = 5;
    publish_s = median_seconds(kPublishes, [&] { (*pub)->publish("probe", handle); });
    journal_bytes = (size() - before) / kPublishes;
  }
  add("serving.publish_s", publish_s, "s");
  add("io.journal_bytes", journal_bytes, "bytes");
  ropts.verification = std::make_shared<const serving::VerificationPolicy>(
      verification_options());
  add("serving.registry_open_s", median_seconds(3, [&] {
        serving::ModelRegistry::open(in.work + "/fleet_probe", ropts,
                                     serving::RegistryPersistenceOptions{});
      }),
      "s");

  // --- linalg + api: one point's kernels at the served order -------------
  const auto& sys = in.served;
  constexpr std::size_t kPoints = 16;
  std::vector<double> lu_s, factor_s, solve_s;
  const api::ModelHandle handle(sys);
  for (std::size_t k = 0; k < kPoints; ++k) {
    const la::Complex s = probe_point(k);
    la::CMat pencil(sys.order(), sys.order());
    for (std::size_t i = 0; i < sys.order(); ++i) {
      for (std::size_t j = 0; j < sys.order(); ++j) {
        pencil(i, j) = s * sys.e(i, j) - sys.a(i, j);
      }
    }
    const double start = mono_seconds();
    const la::LuDecomposition<la::Complex> lu(std::move(pencil));
    lu_s.push_back(mono_seconds() - start);
    api::EvalBreakdown miss, hit;
    handle.evaluate(s, &miss);
    handle.evaluate(s, &hit);
    factor_s.push_back(miss.factor_seconds);
    solve_s.push_back(hit.solve_seconds);
  }
  add("linalg.lu_us", 1e6 * median(lu_s), "us");
  add("api.factor_us", 1e6 * median(factor_s), "us");
  add("api.solve_us", 1e6 * median(solve_s), "us");
  add("api.cache_hits", static_cast<double>(in.stats.cache.hits), "count");
  add("api.cache_misses", static_cast<double>(in.stats.cache.misses), "count");
  add("serving.cache_bytes", static_cast<double>(in.stats.memory_bytes),
      "bytes");

  // --- serving + net: one request of the session's shape, layer by layer --
  constexpr int kRequests = 15;
  std::vector<double> engine_s;
  std::vector<double> last_freqs;
  serving::EvalResponse last;
  for (int k = 0; k < kRequests; ++k) {
    last_freqs = in.freqs.next();
    const auto request =
        serving::EvalRequest::at_hz(in.served_name, last_freqs);
    const double start = mono_seconds();
    auto response = in.engine.evaluate(request);
    engine_s.push_back(mono_seconds() - start);
    if (response) last = std::move(*response);
  }
  const std::string body = eval_body(in.served_name, last_freqs);
  const std::string wire = HttpClient::frame("/v1/eval", body);
  const double parse_s = median_seconds(kRequests, [&] {
    net::HttpRequestParser parser;
    parser.feed(wire);
  });
  const double decode_s =
      median_seconds(kRequests, [&] { net::parse_json(body); });
  const double encode_s = median_seconds(kRequests, [&] {
    net::HttpResponse response;
    response.body = encode_response(last).dump();
    net::serialize_response(response);
  });
  const double engine_eval_s = median(engine_s);
  add("serving.engine_eval_us", 1e6 * engine_eval_s, "us");
  add("net.request_parse_us", 1e6 * parse_s, "us");
  add("net.json_decode_us", 1e6 * decode_s, "us");
  add("net.json_encode_us", 1e6 * encode_s, "us");
  add("net.response_bytes", in.response_bytes, "bytes");
  const double layer_sum_s = parse_s + decode_s + engine_eval_s + encode_s;
  add("net.roundtrip_p50_us", 1e6 * in.roundtrip_p50_s, "us");
  add("net.layer_sum_us", 1e6 * layer_sum_s, "us");
  add("net.unaccounted_us", 1e6 * (in.roundtrip_p50_s - layer_sum_s), "us");
  add("fit.unaccounted_s",
      in.fit_s - (build_s + pair_s + realize_s + passivity_s + stability_s +
                  publish_s),
      "s");
  return out;
}

}  // namespace perfbench
