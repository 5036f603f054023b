#include "util/mixed_radix.h"

#include <numeric>
#include <stdexcept>
#include <string>

#include "qn/error.h"
#include "util/checked_math.h"

namespace windim::util {

MixedRadixIndexer::MixedRadixIndexer(PopVector limits)
    : limits_(std::move(limits)) {
  for (int limit : limits_) {
    if (limit < 0) {
      throw std::invalid_argument(
          "MixedRadixIndexer: limits must be non-negative");
    }
  }
  strides_.assign(limits_.size(), 1);
  std::size_t size = 1;
  // Last coordinate varies fastest: stride[r] = prod_{k > r} (limit_k + 1).
  for (std::size_t r = limits_.size(); r-- > 0;) {
    strides_[r] = size;
    if (mul_overflows(size, static_cast<std::size_t>(limits_[r]) + 1, size) ||
        size > kMaxLatticePoints) {
      throw qn::OverflowError(
          "population lattice exceeds " + std::to_string(kMaxLatticePoints) +
          " points");
    }
  }
  size_ = size;
}

std::size_t MixedRadixIndexer::offset(const PopVector& v) const {
  if (v.size() != limits_.size()) {
    throw std::out_of_range("MixedRadixIndexer::offset: dimension mismatch");
  }
  std::size_t off = 0;
  for (std::size_t r = 0; r < v.size(); ++r) {
    if (v[r] < 0 || v[r] > limits_[r]) {
      throw std::out_of_range(
          "MixedRadixIndexer::offset: coordinate out of range");
    }
    off += static_cast<std::size_t>(v[r]) * strides_[r];
  }
  return off;
}

std::size_t MixedRadixIndexer::offset_minus_one(const PopVector& v,
                                                std::size_t r) const {
  std::size_t base = offset(v);
  if (r >= v.size() || v[r] < 1) {
    throw std::out_of_range(
        "MixedRadixIndexer::offset_minus_one: coordinate not decrementable");
  }
  return base - strides_[r];
}

PopVector MixedRadixIndexer::vector_at(std::size_t offset) const {
  if (offset >= size_) {
    throw std::out_of_range("MixedRadixIndexer::vector_at: offset too large");
  }
  PopVector v(limits_.size(), 0);
  for (std::size_t r = 0; r < limits_.size(); ++r) {
    v[r] = static_cast<int>(offset / strides_[r]);
    offset %= strides_[r];
  }
  return v;
}

bool MixedRadixIndexer::next(PopVector& v) const {
  for (std::size_t r = v.size(); r-- > 0;) {
    if (v[r] < limits_[r]) {
      ++v[r];
      return true;
    }
    v[r] = 0;
  }
  return false;
}

bool component_le(const PopVector& a, const PopVector& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("component_le: dimension mismatch");
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
  }
  return true;
}

long total_population(const PopVector& v) noexcept {
  return std::accumulate(v.begin(), v.end(), 0L);
}

}  // namespace windim::util
