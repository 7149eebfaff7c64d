#include "dsp/resample.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace pllbist::dsp {
namespace {

TEST(InterpolateAt, MidpointsAndClamping) {
  std::vector<double> t{0.0, 1.0, 2.0};
  std::vector<double> x{0.0, 10.0, 0.0};
  EXPECT_DOUBLE_EQ(interpolateAt(t, x, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(interpolateAt(t, x, 1.5), 5.0);
  EXPECT_DOUBLE_EQ(interpolateAt(t, x, -1.0), 0.0);   // clamp low
  EXPECT_DOUBLE_EQ(interpolateAt(t, x, 5.0), 0.0);    // clamp high
  EXPECT_DOUBLE_EQ(interpolateAt(t, x, 1.0), 10.0);   // exact node
}

TEST(InterpolateAt, Validation) {
  EXPECT_THROW(interpolateAt({}, {}, 0.5), std::invalid_argument);
  EXPECT_THROW(interpolateAt({0.0, 1.0}, {0.0}, 0.5), std::invalid_argument);
}

TEST(FrequencyFromEdges, UniformEdges) {
  std::vector<double> edges{0.0, 0.01, 0.02, 0.03};
  auto f = frequencyFromEdges(edges);
  ASSERT_EQ(f.size(), 3u);
  for (const auto& p : f) EXPECT_NEAR(p.value, 100.0, 1e-9);
  EXPECT_NEAR(f[0].time_s, 0.005, 1e-12);
}

TEST(FrequencyFromEdges, ChirpedEdges) {
  // Periods 10 ms then 5 ms -> 100 Hz then 200 Hz.
  auto f = frequencyFromEdges({0.0, 0.01, 0.015});
  ASSERT_EQ(f.size(), 2u);
  EXPECT_NEAR(f[0].value, 100.0, 1e-9);
  EXPECT_NEAR(f[1].value, 200.0, 1e-9);
}

TEST(FrequencyFromEdges, DegenerateInputs) {
  EXPECT_TRUE(frequencyFromEdges({}).empty());
  EXPECT_TRUE(frequencyFromEdges({1.0}).empty());
  EXPECT_THROW(frequencyFromEdges({1.0, 0.5}), std::invalid_argument);
}

}  // namespace
}  // namespace pllbist::dsp
