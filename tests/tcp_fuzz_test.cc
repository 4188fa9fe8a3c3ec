// TCP property fuzzing: random loss, reordering, and duplication must never
// break exactly-once in-order delivery or teardown convergence.
//
// Each seed drives an adversarial wire that, per segment, may drop it,
// duplicate it, or delay it by a random extra interval (reordering). The
// invariants checked per run:
//   1. every submitted byte is delivered exactly once (counts match),
//   2. both endpoints converge to CLOSED after mutual CloseSend,
//   3. no counter goes pathological (retransmits bounded by segments sent).

#include <gtest/gtest.h>

#include <memory>

#include "src/net/tcp.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/timer_wheel.h"

namespace newtos {
namespace {

struct FuzzConfig {
  uint64_t seed = 0;
  double drop = 0.05;
  double dup = 0.03;
  double delay = 0.10;   // probability of extra delay (reordering)
  uint64_t bytes = 200 * 1024;
  bool sack = false;
};

class AdversarialPair {
 public:
  explicit AdversarialPair(const FuzzConfig& cfg) : cfg_(cfg), rng_(cfg.seed) {
    const FlowKey key{Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 40000, 80};
    params_.sack = cfg.sack;
    const TcpConnection::Callbacks ca{
        .hooks = &no_hooks_,
        .output = [](void* self, PacketPtr p) {
          static_cast<AdversarialPair*>(self)->Wire(std::move(p), /*to_server=*/true);
        },
        .owner_arg = this};
    client_ = std::make_unique<TcpConnection>(&sim_, &wheel_, key, &params_, ca);
    const TcpConnection::Callbacks cb{
        .hooks = &no_hooks_,
        .output = [](void* self, PacketPtr p) {
          static_cast<AdversarialPair*>(self)->Wire(std::move(p), /*to_server=*/false);
        },
        .owner_arg = this};
    server_ = std::make_unique<TcpConnection>(&sim_, &wheel_, key.Reversed(), &params_, cb);
    server_->Listen();
  }

  void Wire(PacketPtr p, bool to_server) {
    if (rng_.Bernoulli(cfg_.drop)) {
      return;
    }
    DeliverAfter(p, to_server, BaseDelay());
    if (rng_.Bernoulli(cfg_.dup)) {
      DeliverAfter(p, to_server, BaseDelay() + 20 * kMicrosecond);
    }
  }

  SimTime BaseDelay() {
    SimTime d = 30 * kMicrosecond;
    if (rng_.Bernoulli(cfg_.delay)) {
      d += static_cast<SimTime>(rng_.UniformInt(1, 200)) * kMicrosecond;
    }
    return d;
  }

  void DeliverAfter(const PacketPtr& p, bool to_server, SimTime delay) {
    sim_.Schedule(delay, [this, p, to_server] {
      (to_server ? server_ : client_)->OnSegment(*p);
    });
  }

  Simulation sim_;
  TimerWheel wheel_{&sim_};  // before the connections: they cancel into it on destruction
  FuzzConfig cfg_;
  Rng rng_;
  TcpParams params_;  // borrowed by both connections
  TcpConnection::AppHooks no_hooks_;
  std::unique_ptr<TcpConnection> client_;
  std::unique_ptr<TcpConnection> server_;
};

class TcpFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TcpFuzz, ExactDeliveryAndCleanTeardown) {
  FuzzConfig cfg;
  cfg.seed = GetParam();
  AdversarialPair pair(cfg);

  pair.client_->Connect();
  pair.sim_.RunFor(2 * kSecond);  // handshake may retry under loss
  ASSERT_EQ(pair.client_->state(), TcpState::kEstablished) << "seed=" << cfg.seed;

  pair.client_->Send(cfg.bytes);
  pair.server_->Send(cfg.bytes / 4);  // bidirectional traffic
  pair.sim_.RunFor(60 * kSecond);

  // Invariant 1: exactly-once delivery, both directions.
  EXPECT_EQ(pair.server_->stats().bytes_received, cfg.bytes) << "seed=" << cfg.seed;
  EXPECT_EQ(pair.client_->stats().bytes_acked, cfg.bytes) << "seed=" << cfg.seed;
  EXPECT_EQ(pair.client_->stats().bytes_received, cfg.bytes / 4) << "seed=" << cfg.seed;

  // Invariant 3: sane counters.
  EXPECT_LE(pair.client_->stats().retransmits, pair.client_->stats().segs_sent);

  // Invariant 2: mutual close converges (TIME_WAIT included).
  pair.client_->CloseSend();
  pair.server_->CloseSend();
  pair.sim_.RunFor(120 * kSecond);
  EXPECT_EQ(pair.client_->state(), TcpState::kClosed) << "seed=" << cfg.seed;
  EXPECT_EQ(pair.server_->state(), TcpState::kClosed) << "seed=" << cfg.seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcpFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                                           17, 18, 19, 20));

// Heavier adversary: 15% loss, 10% duplication, aggressive reordering.
class TcpFuzzHeavy : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TcpFuzzHeavy, SurvivesHostileNetwork) {
  FuzzConfig cfg;
  cfg.seed = GetParam();
  cfg.drop = 0.15;
  cfg.dup = 0.10;
  cfg.delay = 0.30;
  cfg.bytes = 50 * 1024;
  AdversarialPair pair(cfg);

  pair.client_->Connect();
  pair.sim_.RunFor(10 * kSecond);
  ASSERT_EQ(pair.client_->state(), TcpState::kEstablished) << "seed=" << cfg.seed;
  pair.client_->Send(cfg.bytes);
  pair.sim_.RunFor(120 * kSecond);
  EXPECT_EQ(pair.server_->stats().bytes_received, cfg.bytes) << "seed=" << cfg.seed;
  EXPECT_GT(pair.client_->stats().retransmits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcpFuzzHeavy, ::testing::Values(101, 102, 103, 104, 105, 106));

// The same invariants must hold with SACK enabled (its scoreboard must
// never convince the sender to skip a byte the receiver lacks).
class TcpFuzzSack : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TcpFuzzSack, ExactDeliveryWithSelectiveAcks) {
  FuzzConfig cfg;
  cfg.seed = GetParam();
  cfg.sack = true;
  cfg.drop = 0.08;
  cfg.dup = 0.05;
  cfg.delay = 0.20;
  AdversarialPair pair(cfg);

  pair.client_->Connect();
  pair.sim_.RunFor(5 * kSecond);
  ASSERT_EQ(pair.client_->state(), TcpState::kEstablished) << "seed=" << cfg.seed;
  pair.client_->Send(cfg.bytes);
  pair.server_->Send(cfg.bytes / 4);
  pair.sim_.RunFor(120 * kSecond);

  EXPECT_EQ(pair.server_->stats().bytes_received, cfg.bytes) << "seed=" << cfg.seed;
  EXPECT_EQ(pair.client_->stats().bytes_acked, cfg.bytes) << "seed=" << cfg.seed;
  EXPECT_EQ(pair.client_->stats().bytes_received, cfg.bytes / 4) << "seed=" << cfg.seed;

  pair.client_->CloseSend();
  pair.server_->CloseSend();
  pair.sim_.RunFor(120 * kSecond);
  EXPECT_EQ(pair.client_->state(), TcpState::kClosed) << "seed=" << cfg.seed;
  EXPECT_EQ(pair.server_->state(), TcpState::kClosed) << "seed=" << cfg.seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcpFuzzSack,
                         ::testing::Values(201, 202, 203, 204, 205, 206, 207, 208, 209, 210, 211,
                                           212));

}  // namespace
}  // namespace newtos
