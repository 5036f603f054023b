// Mixed-radix indexing of population vectors.
//
// Multichain queueing-network algorithms (the convolution algorithm of
// Reiser & Kobayashi, exact mean value analysis) recurse over the lattice
// of population vectors n = (n_1, ..., n_R) with 0 <= n_r <= D_r.  This
// header provides a bijection between such vectors and dense array offsets
// so that lattice-indexed quantities can be stored in flat std::vectors.
#pragma once

#include <cstddef>
#include <vector>

namespace windim::util {

/// A population vector: entry r is the number of customers in chain r.
using PopVector = std::vector<int>;

/// The most lattice points an indexer spans: the 20,000,000 states of
/// exact::solve_product_form's default cap.  An exact solver holds at
/// least one value per point, so a larger lattice is refused before
/// anything is allocated.
inline constexpr std::size_t kMaxLatticePoints = 20'000'000;

/// Bijection between population vectors bounded by `limits` and the dense
/// offset range [0, size()).  Offsets are assigned in row-major order with
/// the last coordinate varying fastest, matching the iteration order of
/// `next()`.
class MixedRadixIndexer {
 public:
  /// `limits[r]` is the maximum (inclusive) value of coordinate r.
  /// All limits must be >= 0 (std::invalid_argument otherwise), and the
  /// lattice may span at most kMaxLatticePoints points
  /// (qn::OverflowError otherwise, also where the product would wrap).
  explicit MixedRadixIndexer(PopVector limits);

  /// Zero-dimensional lattice (a single point); lets result structs that
  /// embed an indexer be default-constructed before being filled in.
  MixedRadixIndexer() : MixedRadixIndexer(PopVector{}) {}

  /// Number of lattice points, i.e. prod_r (limits[r] + 1).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Number of coordinates.
  [[nodiscard]] std::size_t dimensions() const noexcept {
    return limits_.size();
  }

  [[nodiscard]] const PopVector& limits() const noexcept { return limits_; }

  /// Dense offset of `v`.  Precondition: 0 <= v[r] <= limits[r] for all r
  /// and v.size() == dimensions(); throws std::out_of_range otherwise.
  [[nodiscard]] std::size_t offset(const PopVector& v) const;

  /// Dense offset of `v` with coordinate r decremented by one.
  /// Precondition: v[r] >= 1.  This is the hot operation of the lattice
  /// recursions (access g(n - e_r)); it avoids materializing the
  /// decremented vector.
  [[nodiscard]] std::size_t offset_minus_one(const PopVector& v,
                                             std::size_t r) const;

  /// Inverse of offset().
  [[nodiscard]] PopVector vector_at(std::size_t offset) const;

  /// Advance `v` to the next lattice point in offset order.  Returns false
  /// (leaving `v` all-zero) once the last point has been passed.  Starting
  /// from the all-zero vector this enumerates every point exactly once.
  bool next(PopVector& v) const;

 private:
  PopVector limits_;
  std::vector<std::size_t> strides_;
  std::size_t size_;
};

/// Returns true if every coordinate of `a` is <= the matching coordinate
/// of `b`.  Vectors must have equal length.
[[nodiscard]] bool component_le(const PopVector& a, const PopVector& b);

/// Sum of all coordinates.
[[nodiscard]] long total_population(const PopVector& v) noexcept;

}  // namespace windim::util
