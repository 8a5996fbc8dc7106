#include "oracle.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <numbers>
#include <utility>

namespace perfbench {

std::vector<cplx> transfer(const DenseModel& model, cplx s) {
  const std::size_t n = model.order();
  const std::size_t m = model.inputs();
  const std::size_t p = model.outputs();
  // Augmented system [sE - A | B], eliminated in place.
  const std::size_t w = n + m;
  std::vector<cplx> g(n * w);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      g[i * w + j] = s * model.e.at(i, j) - model.a.at(i, j);
    }
    for (std::size_t j = 0; j < m; ++j) g[i * w + n + j] = model.b.at(i, j);
  }
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    for (std::size_t i = k + 1; i < n; ++i) {
      if (std::abs(g[i * w + k]) > std::abs(g[piv * w + k])) piv = i;
    }
    if (piv != k) {
      for (std::size_t j = k; j < w; ++j) std::swap(g[k * w + j], g[piv * w + j]);
    }
    const cplx pivot = g[k * w + k];
    for (std::size_t i = k + 1; i < n; ++i) {
      const cplx f = g[i * w + k] / pivot;
      if (f == cplx(0.0)) continue;
      for (std::size_t j = k; j < w; ++j) g[i * w + j] -= f * g[k * w + j];
    }
  }
  // Back substitution: X = (sE - A)^{-1} B, n x m.
  std::vector<cplx> x(n * m);
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t j = 0; j < m; ++j) {
      cplx acc = g[ii * w + n + j];
      for (std::size_t k = ii + 1; k < n; ++k) acc -= g[ii * w + k] * x[k * m + j];
      x[ii * m + j] = acc / g[ii * w + ii];
    }
  }
  std::vector<cplx> h(p * m);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      cplx acc = model.d.at(i, j);
      for (std::size_t k = 0; k < n; ++k) acc += model.c.at(i, k) * x[k * m + j];
      h[i * m + j] = acc;
    }
  }
  return h;
}

std::vector<cplx> transfer_hz(const DenseModel& model, double f_hz) {
  return transfer(model, cplx(0.0, 2.0 * std::numbers::pi * f_hz));
}

double relative_error(const std::vector<cplx>& got,
                      const std::vector<cplx>& want) {
  if (got.size() != want.size()) return INFINITY;
  double diff = 0.0;
  double ref = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    diff += std::norm(got[i] - want[i]);
    ref += std::norm(want[i]);
  }
  return std::sqrt(diff / ref);
}

double fit_error(const DenseModel& model, const std::vector<double>& freqs_hz,
                 const std::vector<std::vector<cplx>>& samples) {
  double sum = 0.0;
  for (std::size_t i = 0; i < freqs_hz.size(); ++i) {
    const double e = relative_error(transfer_hz(model, freqs_hz[i]), samples[i]);
    sum += e * e;
  }
  return std::sqrt(sum / static_cast<double>(freqs_hz.size()));
}

namespace {

void put_u64(std::FILE* f, std::uint64_t x) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(x >> (8 * i));
  std::fwrite(b, 1, 8, f);
}

bool get_u64(std::FILE* f, std::uint64_t* x) {
  unsigned char b[8];
  if (std::fread(b, 1, 8, f) != 8) return false;
  *x = 0;
  for (int i = 0; i < 8; ++i) *x |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return true;
}

void put_dense(std::FILE* f, const Dense& m) {
  put_u64(f, m.rows);
  put_u64(f, m.cols);
  for (double v : m.v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, 8);
    put_u64(f, bits);
  }
}

bool get_dense(std::FILE* f, Dense* m) {
  std::uint64_t rows = 0, cols = 0;
  if (!get_u64(f, &rows) || !get_u64(f, &cols)) return false;
  if (rows > 100000 || cols > 100000) return false;
  m->rows = rows;
  m->cols = cols;
  m->v.resize(rows * cols);
  for (double& v : m->v) {
    std::uint64_t bits = 0;
    if (!get_u64(f, &bits)) return false;
    std::memcpy(&v, &bits, 8);
  }
  return true;
}

}  // namespace

bool write_models(const std::string& path,
                  const std::vector<DenseModel>& models) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  put_u64(f, models.size());
  for (const DenseModel& m : models) {
    put_u64(f, m.name.size());
    std::fwrite(m.name.data(), 1, m.name.size(), f);
    put_u64(f, m.version);
    for (const Dense* d : {&m.e, &m.a, &m.b, &m.c, &m.d}) put_dense(f, *d);
  }
  return std::fclose(f) == 0;
}

bool read_models(const std::string& path, std::vector<DenseModel>* models) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::uint64_t count = 0;
  bool ok = get_u64(f, &count) && count < 1000;
  for (std::uint64_t i = 0; ok && i < count; ++i) {
    DenseModel m;
    std::uint64_t len = 0;
    ok = get_u64(f, &len) && len < 1000;
    if (!ok) break;
    m.name.resize(len);
    ok = std::fread(m.name.data(), 1, len, f) == len && get_u64(f, &m.version);
    for (Dense* d : {&m.e, &m.a, &m.b, &m.c, &m.d}) ok = ok && get_dense(f, d);
    if (ok) models->push_back(std::move(m));
  }
  std::fclose(f);
  return ok;
}

bool bitwise_equal(const DenseModel& a, const DenseModel& b) {
  const Dense* da[] = {&a.e, &a.a, &a.b, &a.c, &a.d};
  const Dense* db[] = {&b.e, &b.a, &b.b, &b.c, &b.d};
  for (int i = 0; i < 5; ++i) {
    if (da[i]->rows != db[i]->rows || da[i]->cols != db[i]->cols) return false;
    if (std::memcmp(da[i]->v.data(), db[i]->v.data(),
                    da[i]->v.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
