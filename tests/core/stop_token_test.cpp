#include "common/stop_token.hpp"

#include <gtest/gtest.h>

#include <chrono>

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

}  // namespace
}  // namespace pllbist
