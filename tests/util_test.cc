#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>

#include "qn/error.h"
#include "util/checked_math.h"
#include "util/math.h"
#include "util/mixed_radix.h"
#include "util/rng.h"
#include "util/table.h"

namespace windim::util {
namespace {

// ---------------------------------------------------------------- checked math

TEST(CheckedMath, MulDetectsOverflowAtTheBoundary) {
  std::size_t out = 0;
  EXPECT_FALSE(mul_overflows(0, SIZE_MAX, out));
  EXPECT_EQ(out, 0u);
  EXPECT_FALSE(mul_overflows(1, SIZE_MAX, out));
  EXPECT_EQ(out, SIZE_MAX);
  EXPECT_FALSE(mul_overflows(SIZE_MAX / 2, 2, out));
  EXPECT_EQ(out, SIZE_MAX - 1);
  EXPECT_TRUE(mul_overflows(SIZE_MAX / 2 + 1, 2, out));
  EXPECT_TRUE(mul_overflows(SIZE_MAX, 2, out));
  EXPECT_TRUE(mul_overflows(std::size_t{1} << 32, std::size_t{1} << 32, out));
}

TEST(CheckedMath, AddDetectsOverflowAtTheBoundary) {
  std::size_t out = 0;
  EXPECT_FALSE(add_overflows(SIZE_MAX - 1, 1, out));
  EXPECT_EQ(out, SIZE_MAX);
  EXPECT_TRUE(add_overflows(SIZE_MAX, 1, out));
  EXPECT_TRUE(add_overflows(SIZE_MAX / 2 + 1, SIZE_MAX / 2 + 1, out));
}

// ---------------------------------------------------------------- mixed radix

TEST(MixedRadix, SizeIsProductOfExtents) {
  EXPECT_EQ(MixedRadixIndexer({2, 3}).size(), 3u * 4u);
  EXPECT_EQ(MixedRadixIndexer({0}).size(), 1u);
  EXPECT_EQ(MixedRadixIndexer({5}).size(), 6u);
  EXPECT_EQ(MixedRadixIndexer({1, 1, 1}).size(), 8u);
}

TEST(MixedRadix, DefaultConstructedIsSinglePoint) {
  const MixedRadixIndexer indexer;
  EXPECT_EQ(indexer.size(), 1u);
  EXPECT_EQ(indexer.dimensions(), 0u);
}

TEST(MixedRadix, RejectsNegativeLimits) {
  EXPECT_THROW((void)MixedRadixIndexer({2, -1}), std::invalid_argument);
}

TEST(MixedRadix, RefusesLatticesPastTheCap) {
  // 65536^4 = 2^64 wraps std::size_t to exactly 0; 100001^2 fits but is
  // far past the cap.  Both are refused before anything is allocated.
  EXPECT_THROW((void)MixedRadixIndexer({65535, 65535, 65535, 65535}),
               qn::OverflowError);
  EXPECT_THROW((void)MixedRadixIndexer({100000, 100000}), qn::OverflowError);
  EXPECT_THROW((void)MixedRadixIndexer(PopVector(64, 1)), qn::OverflowError);
  // 4472^2 = 19,998,784 points is under the cap, 4473^2 is over it.
  EXPECT_EQ(MixedRadixIndexer({4471, 4471}).size(), 4472u * 4472u);
  EXPECT_THROW((void)MixedRadixIndexer({4472, 4472}), qn::OverflowError);
}

TEST(MixedRadix, OffsetAndVectorAtAreInverse) {
  const MixedRadixIndexer indexer({3, 2, 4});
  for (std::size_t off = 0; off < indexer.size(); ++off) {
    const PopVector v = indexer.vector_at(off);
    EXPECT_EQ(indexer.offset(v), off);
  }
}

TEST(MixedRadix, NextEnumeratesAllPointsInOffsetOrder) {
  const MixedRadixIndexer indexer({2, 1, 3});
  PopVector v(3, 0);
  std::size_t expected = 0;
  do {
    EXPECT_EQ(indexer.offset(v), expected);
    ++expected;
  } while (indexer.next(v));
  EXPECT_EQ(expected, indexer.size());
  // After exhaustion the vector wraps to all-zero.
  EXPECT_EQ(v, PopVector(3, 0));
}

TEST(MixedRadix, OffsetMinusOneMatchesExplicitDecrement) {
  const MixedRadixIndexer indexer({3, 4, 2});
  PopVector v{2, 1, 2};
  for (std::size_t r = 0; r < 3; ++r) {
    PopVector dec = v;
    --dec[r];
    EXPECT_EQ(indexer.offset_minus_one(v, r), indexer.offset(dec));
  }
}

TEST(MixedRadix, OffsetMinusOneRejectsZeroCoordinate) {
  const MixedRadixIndexer indexer({3, 4});
  const PopVector v{0, 2};
  EXPECT_THROW((void)indexer.offset_minus_one(v, 0), std::out_of_range);
}

TEST(MixedRadix, OffsetRejectsOutOfRange) {
  const MixedRadixIndexer indexer({2, 2});
  EXPECT_THROW((void)indexer.offset({3, 0}), std::out_of_range);
  EXPECT_THROW((void)indexer.offset({0, -1}), std::out_of_range);
  EXPECT_THROW((void)indexer.offset({1}), std::out_of_range);
}

TEST(MixedRadix, SmallerVectorsHaveSmallerOffsets) {
  // The lattice recursions rely on offset(v - e_r) < offset(v).
  const MixedRadixIndexer indexer({3, 3, 3});
  PopVector v(3, 0);
  do {
    for (std::size_t r = 0; r < 3; ++r) {
      if (v[r] == 0) continue;
      EXPECT_LT(indexer.offset_minus_one(v, r), indexer.offset(v));
    }
  } while (indexer.next(v));
}

TEST(MixedRadix, ComponentLe) {
  EXPECT_TRUE(component_le({1, 2}, {1, 2}));
  EXPECT_TRUE(component_le({0, 2}, {1, 2}));
  EXPECT_FALSE(component_le({2, 2}, {1, 3}));
  EXPECT_THROW((void)component_le({1}, {1, 2}), std::invalid_argument);
}

TEST(MixedRadix, TotalPopulation) {
  EXPECT_EQ(total_population({1, 2, 3}), 6);
  EXPECT_EQ(total_population({}), 0);
}

// ----------------------------------------------------------------------- math

TEST(MathTest, LogAddMatchesDirectComputation) {
  EXPECT_NEAR(log_add(std::log(3.0), std::log(4.0)), std::log(7.0), 1e-12);
  EXPECT_NEAR(log_add(0.0, 0.0), std::log(2.0), 1e-12);
}

TEST(MathTest, LogAddHandlesNegativeInfinity) {
  const double ninf = -std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(log_add(ninf, 1.5), 1.5);
  EXPECT_DOUBLE_EQ(log_add(2.5, ninf), 2.5);
  EXPECT_TRUE(std::isinf(log_add(ninf, ninf)));
}

TEST(MathTest, LogAddAvoidsOverflow) {
  // exp(800) overflows a double, but the log-sum must not.
  const double result = log_add(800.0, 800.0);
  EXPECT_NEAR(result, 800.0 + std::log(2.0), 1e-9);
}

TEST(MathTest, FactorialExactSmallValues) {
  EXPECT_DOUBLE_EQ(factorial(0), 1.0);
  EXPECT_DOUBLE_EQ(factorial(1), 1.0);
  EXPECT_DOUBLE_EQ(factorial(5), 120.0);
  EXPECT_DOUBLE_EQ(factorial(10), 3628800.0);
  EXPECT_THROW((void)factorial(-1), std::domain_error);
  EXPECT_THROW((void)factorial(200), std::overflow_error);
}

TEST(MathTest, LogFactorialMatchesFactorial) {
  for (int n = 0; n <= 20; ++n) {
    EXPECT_NEAR(std::exp(log_factorial(n)), factorial(n),
                1e-9 * factorial(n));
  }
}

TEST(MathTest, Binomial) {
  EXPECT_DOUBLE_EQ(binomial(5, 2), 10.0);
  EXPECT_DOUBLE_EQ(binomial(10, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomial(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(binomial(3, 5), 0.0);
  EXPECT_DOUBLE_EQ(binomial(52, 5), 2598960.0);
}

TEST(MathTest, ApproxEqual) {
  EXPECT_TRUE(approx_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approx_equal(1.0, 1.001));
  EXPECT_TRUE(approx_equal(0.0, 0.0));
}

TEST(MathTest, RelativeError) {
  EXPECT_NEAR(relative_error(1.1, 1.0), 0.1, 1e-12);
  EXPECT_NEAR(relative_error(0.0, 0.0), 0.0, 1e-12);
}

TEST(MathTest, MaxAbsDiff) {
  EXPECT_DOUBLE_EQ(max_abs_diff({1.0, 2.0}, {1.5, 1.0}), 1.0);
  EXPECT_THROW((void)max_abs_diff({1.0}, {1.0, 2.0}), std::invalid_argument);
}

// ------------------------------------------------------------------------ rng

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
  }
}

TEST(RngTest, ExponentialMeanIsApproximatelyCorrect) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(3);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(1, 4));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.begin(), 1);
  EXPECT_EQ(*seen.rbegin(), 4);
}

// ---------------------------------------------------------------------- table

TEST(TableTest, RendersAlignedColumns) {
  TextTable t({"a", "long-header"});
  t.begin_row().add("x").add(1);
  t.begin_row().add("longer-cell").add(2.5, 1);
  const std::string out = t.render();
  EXPECT_NE(out.find("| a           | long-header |"), std::string::npos);
  EXPECT_NE(out.find("| longer-cell | 2.5         |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableTest, CsvQuotesCommaCells) {
  TextTable t({"e", "p"});
  t.begin_row().add_window({1, 2}).add(3);
  const std::string csv = t.render_csv();
  EXPECT_NE(csv.find("\"(1, 2)\",3"), std::string::npos);
}

TEST(TableTest, FormatWindow) {
  EXPECT_EQ(format_window({4, 4, 3, 1}), "(4, 4, 3, 1)");
  EXPECT_EQ(format_window({}), "()");
}

TEST(TableTest, RejectsEmptyHeader) {
  EXPECT_THROW((void)TextTable({}), std::invalid_argument);
}

}  // namespace
}  // namespace windim::util
