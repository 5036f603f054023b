// Small numerical helpers shared by the analytic solvers.
#pragma once

#include <cstddef>
#include <vector>

namespace windim::util {

/// log(exp(a) + exp(b)) computed without overflow.  Either argument may be
/// -infinity (representing log of zero).
[[nodiscard]] double log_add(double log_a, double log_b) noexcept;

/// log(n!) via lgamma_r (thread-safe: no write to glibc's signgam).
[[nodiscard]] double log_factorial(int n);

/// n! as a double (exact up to n = 170; throws std::overflow_error above).
[[nodiscard]] double factorial(int n);

/// Binomial coefficient C(n, k) as a double.
[[nodiscard]] double binomial(int n, int k);

/// True if |a - b| <= abs_tol + rel_tol * max(|a|, |b|).
[[nodiscard]] bool approx_equal(double a, double b, double rel_tol = 1e-9,
                                double abs_tol = 1e-12) noexcept;

/// Relative error |a - b| / max(|b|, floor); conventional "error of a
/// against reference b".
[[nodiscard]] double relative_error(double a, double b,
                                    double floor = 1e-12) noexcept;

/// Maximum absolute componentwise difference.  Vectors must be equal size.
[[nodiscard]] double max_abs_diff(const std::vector<double>& a,
                                  const std::vector<double>& b);

}  // namespace windim::util
