#include "util/math.h"

#include <math.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace windim::util {

double log_add(double log_a, double log_b) noexcept {
  if (std::isinf(log_a) && log_a < 0) return log_b;
  if (std::isinf(log_b) && log_b < 0) return log_a;
  const double hi = std::max(log_a, log_b);
  const double lo = std::min(log_a, log_b);
  return hi + std::log1p(std::exp(lo - hi));
}

double log_factorial(int n) {
  if (n < 0) throw std::domain_error("log_factorial: negative argument");
  // lgamma_r, not std::lgamma: glibc's lgamma also stores the sign in
  // the global `signgam`, a data race between threads.  Same value.
  int sign = 0;
  return ::lgamma_r(static_cast<double>(n) + 1.0, &sign);
}

double factorial(int n) {
  if (n < 0) throw std::domain_error("factorial: negative argument");
  if (n > 170) throw std::overflow_error("factorial: overflow for n > 170");
  double f = 1.0;
  for (int i = 2; i <= n; ++i) f *= i;
  return f;
}

double binomial(int n, int k) {
  if (k < 0 || n < 0 || k > n) return 0.0;
  k = std::min(k, n - k);
  double result = 1.0;
  for (int i = 1; i <= k; ++i) {
    result *= static_cast<double>(n - k + i) / static_cast<double>(i);
  }
  return result;
}

bool approx_equal(double a, double b, double rel_tol, double abs_tol) noexcept {
  const double scale = std::max(std::abs(a), std::abs(b));
  return std::abs(a - b) <= abs_tol + rel_tol * scale;
}

double relative_error(double a, double b, double floor) noexcept {
  return std::abs(a - b) / std::max(std::abs(b), floor);
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("max_abs_diff: size mismatch");
  }
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

}  // namespace windim::util
