// Hand-computed RFC 6298 sequences for RttEst (src/net/rtt_estimator.h):
// EWMA arithmetic, clamping, Karn's rule, wraparound-safe sample completion,
// and the §5.7 backoff rules (double per timeout, reset only on a fresh
// non-retransmitted sample).

#include "src/net/rtt_estimator.h"

#include "gtest/gtest.h"
#include "src/sim/time.h"

namespace newtos {
namespace {

constexpr SimTime kRtoInitial = 50 * kMillisecond;
constexpr SimTime kRtoMin = 10 * kMillisecond;
constexpr SimTime kRtoMax = 4 * kSecond;

RttEst MakeEst() { return RttEst(kRtoInitial); }

TEST(RttEst, FirstSampleSeedsSrttAndHalvesVar) {
  RttEst est = MakeEst();
  EXPECT_EQ(est.rto(), kRtoInitial);
  est.Update(20 * kMillisecond, kRtoMin, kRtoMax);
  EXPECT_EQ(est.srtt(), 20 * kMillisecond);
  EXPECT_EQ(est.rttvar(), 10 * kMillisecond);
  EXPECT_EQ(est.rto(), 60 * kMillisecond);  // srtt + 4*rttvar
}

TEST(RttEst, EwmaSequenceMatchesHandComputation) {
  RttEst est = MakeEst();
  est.Update(20 * kMillisecond, kRtoMin, kRtoMax);  // srtt=20ms rttvar=10ms
  est.Update(28 * kMillisecond, kRtoMin, kRtoMax);
  // err=8ms; rttvar=(3*10+8)/4=9.5ms; srtt=(7*20+28)/8=21ms; rto=21+38=59ms.
  EXPECT_EQ(est.srtt(), 21 * kMillisecond);
  EXPECT_EQ(est.rttvar(), 9500 * kMicrosecond);
  EXPECT_EQ(est.rto(), 59 * kMillisecond);
  est.Update(12 * kMillisecond, kRtoMin, kRtoMax);
  // err=9ms; rttvar=(3*9.5+9)/4=9.375ms; srtt=(7*21+12)/8=19.875ms;
  // rto=19.875+37.5=57.375ms.
  EXPECT_EQ(est.srtt(), 19875 * kMicrosecond);
  EXPECT_EQ(est.rttvar(), 9375 * kMicrosecond);
  EXPECT_EQ(est.rto(), 57375 * kMicrosecond);
}

TEST(RttEst, RtoClampsToMinAndMax) {
  RttEst low = MakeEst();
  low.Update(1 * kMillisecond, kRtoMin, kRtoMax);  // srtt+4*rttvar = 3ms < rto_min
  EXPECT_EQ(low.rto(), kRtoMin);
  RttEst high = MakeEst();
  high.Update(2 * kSecond, kRtoMin, kRtoMax);      // srtt+4*rttvar = 6s > rto_max
  EXPECT_EQ(high.rto(), kRtoMax);
}

TEST(RttEst, FreshSampleCompletesAndResetsBackoff) {
  RttEst est = MakeEst();
  est.OnTimeout();
  est.OnTimeout();
  est.OnTimeout();
  EXPECT_EQ(est.backoff(), 3);
  est.StartSample(1000, 100 * kMicrosecond);
  EXPECT_TRUE(est.sample_pending());
  EXPECT_FALSE(est.OnAck(999, 200 * kMicrosecond, kRtoMin, kRtoMax));  // timed byte not covered
  EXPECT_TRUE(est.sample_pending());
  EXPECT_TRUE(est.OnAck(1000, 25100 * kMicrosecond, kRtoMin, kRtoMax));
  EXPECT_FALSE(est.sample_pending());
  EXPECT_EQ(est.srtt(), 25 * kMillisecond);
  EXPECT_EQ(est.backoff(), 0);  // §5.7: fresh sample un-backs-off
}

TEST(RttEst, KarnTaintedSampleIsDiscardedAndKeepsBackoff) {
  RttEst est = MakeEst();
  est.StartSample(500, 0);
  est.OnTimeout();
  est.OnRetransmit();
  EXPECT_FALSE(est.OnAck(500, 30 * kMillisecond, kRtoMin, kRtoMax));  // delivered, but ambiguous
  EXPECT_FALSE(est.sample_pending());
  EXPECT_EQ(est.srtt(), 0);        // no measurement folded in
  EXPECT_EQ(est.backoff(), 1);     // §5.7: retransmitted ACK must not reset
  EXPECT_EQ(est.rto(), kRtoInitial);
}

TEST(RttEst, BackoffDoublesAndSaturatesAtMax) {
  RttEst est = MakeEst();  // base rto 50ms
  const SimTime expected[] = {50 * kMillisecond,  100 * kMillisecond, 200 * kMillisecond,
                              400 * kMillisecond, 800 * kMillisecond, 1600 * kMillisecond,
                              3200 * kMillisecond, kRtoMax, kRtoMax};
  for (size_t i = 0; i < sizeof(expected) / sizeof(expected[0]); ++i) {
    EXPECT_EQ(est.BackoffedRto(kRtoMax), expected[i]) << "after " << i << " timeouts";
    est.OnTimeout();
  }
  est.ResetBackoff();
  EXPECT_EQ(est.BackoffedRto(kRtoMax), 50 * kMillisecond);
}

TEST(RttEst, SampleCompletionIsWraparoundSafe) {
  RttEst est = MakeEst();
  est.StartSample(0xFFFFFFF0u, 0);
  EXPECT_FALSE(est.OnAck(0xFFFFFFEFu, kMillisecond, kRtoMin, kRtoMax));  // just below: pending
  EXPECT_TRUE(est.OnAck(5u, 15 * kMillisecond, kRtoMin, kRtoMax));       // wrapped past: covered
  EXPECT_EQ(est.srtt(), 15 * kMillisecond);
}

TEST(RttEst, OnlyOneSampleAtATime) {
  RttEst est = MakeEst();
  EXPECT_FALSE(est.OnAck(100, kMillisecond, kRtoMin, kRtoMax));  // nothing pending: no-op
  est.StartSample(100, 0);
  EXPECT_TRUE(est.OnAck(100, 20 * kMillisecond, kRtoMin, kRtoMax));
  EXPECT_FALSE(est.OnAck(200, 40 * kMillisecond, kRtoMin, kRtoMax));  // consumed; must re-start
  EXPECT_EQ(est.srtt(), 20 * kMillisecond);
}

}  // namespace
}  // namespace newtos
