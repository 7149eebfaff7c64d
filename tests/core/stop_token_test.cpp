#include "common/stop_token.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>

namespace pllbist {
namespace {

using Clock = StopSource::Clock;

TEST(StopSource, RequestPropagatesDownAChain) {
  StopSource upstream;
  StopSource middle;
  StopSource engine;
  middle.chainTo(&upstream);
  engine.chainTo(&middle);
  EXPECT_FALSE(engine.stopRequested());

  upstream.requestStop();
  EXPECT_TRUE(middle.stopRequested());
  EXPECT_TRUE(engine.stopRequested());
  // A request is not a deadline.
  EXPECT_FALSE(upstream.deadlineReached());
  EXPECT_FALSE(engine.deadlineReached());

  upstream.clear();
  EXPECT_FALSE(engine.stopRequested());
}

TEST(StopSource, DeadlineStopsOnlyOnceItHasPassed) {
  StopSource future;
  future.stopAt(Clock::now() + std::chrono::hours(1));
  EXPECT_FALSE(future.deadlineReached());
  EXPECT_FALSE(future.stopRequested());

  StopSource past;
  past.stopAt(Clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(past.deadlineReached());
  EXPECT_TRUE(past.stopRequested());

  // An expired upstream deadline stops the chain, but the downstream
  // token's own deadline has not been reached.
  StopSource engine;
  engine.chainTo(&past);
  EXPECT_TRUE(engine.stopRequested());
  EXPECT_FALSE(engine.deadlineReached());
}

// A budget past the clock's range (or inf, or NaN) is "never"; a budget
// inside it lands exactly where the nanosecond cast puts it.
TEST(StopSource, DeadlineAfterSaturatesPastTheClockRange) {
  const Clock::time_point start = Clock::now();
  for (double never : {1e30, 9.3e9, std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()})
    EXPECT_EQ(deadlineAfter(start, never), Clock::time_point::max()) << never;
  EXPECT_EQ(deadlineAfter(start, 1.5), start + std::chrono::milliseconds(1500));
  EXPECT_LT(deadlineAfter(start, 1e9), Clock::time_point::max());
}

}  // namespace
}  // namespace pllbist
