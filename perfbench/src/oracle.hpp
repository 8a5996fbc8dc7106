// Reference evaluations the benchmark checks the program against. Nothing
// here calls the library: the descriptor matrices are plain row-major
// vectors, the transfer function is solved by textbook Gaussian
// elimination with partial pivoting, and the fit error is recomputed from
// its definition. A fault in the library's LU, response or error code can
// therefore not hide itself.
#pragma once

#include <complex>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using cplx = std::complex<double>;

/// Row-major dense matrix of doubles.
struct Dense {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<double> v;
  double at(std::size_t i, std::size_t j) const { return v[i * cols + j]; }
};

/// One published model as the benchmark saw it before the warm restart:
/// `H(s) = C (sE - A)^{-1} B + D`.
struct DenseModel {
  std::string name;
  std::uint64_t version = 0;
  Dense e, a, b, c, d;
  std::size_t order() const { return a.rows; }
  std::size_t inputs() const { return b.cols; }
  std::size_t outputs() const { return c.rows; }
};

/// `H(s)` as a row-major outputs x inputs matrix.
std::vector<cplx> transfer(const DenseModel& model, cplx s);

/// `H(j 2 pi f)`.
std::vector<cplx> transfer_hz(const DenseModel& model, double f_hz);

/// `||got - want||_F / ||want||_F`.
double relative_error(const std::vector<cplx>& got,
                      const std::vector<cplx>& want);

/// The paper's `ERR = sqrt(mean_i err_i^2)` with the per-sample relative
/// Frobenius error `err_i = ||H(j 2 pi f_i) - S_i||_F / ||S_i||_F`.
double fit_error(const DenseModel& model, const std::vector<double>& freqs_hz,
                 const std::vector<std::vector<cplx>>& samples);

/// Own binary format for the expected fleet (not the library's snapshot
/// format): little-endian counts and raw IEEE-754 doubles.
bool write_models(const std::string& path,
                  const std::vector<DenseModel>& models);
bool read_models(const std::string& path, std::vector<DenseModel>* models);

/// True when every matrix of `a` equals the one of `b` bit for bit.
bool bitwise_equal(const DenseModel& a, const DenseModel& b);

}  // namespace perfbench
