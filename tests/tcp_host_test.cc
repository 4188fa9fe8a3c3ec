// TcpHost demux/listen/accept tests (two hosts joined by a zero-loss wire),
// FlowTable probe/erase/growth tests, closed-list reap tests, and a seeded
// differential run of the host's table against a std::unordered_map.

#include "src/net/tcp_host.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/sim/random.h"
#include "src/sim/simulation.h"

namespace newtos {
namespace {

// Connect borrows its hooks, so it must refuse a temporary: the set would be
// gone before the connection's first event. An lvalue is accepted (the
// control that keeps the first check from passing vacuously).
template <typename Host>
concept ConnectTakesTemporaryHooks = requires(Host& host) {
  host.Connect(Ipv4Addr{}, uint16_t{80}, typename Host::AppHooks{});
};
template <typename Host>
concept ConnectTakesLvalueHooks = requires(Host& host, typename Host::AppHooks& hooks) {
  host.Connect(Ipv4Addr{}, uint16_t{80}, hooks);
};
static_assert(!ConnectTakesTemporaryHooks<TcpHost>);
static_assert(ConnectTakesLvalueHooks<TcpHost>);

class TcpHostTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = std::make_unique<TcpHost>(&sim_, Ipv4(10, 0, 0, 1),
                                   [this](PacketPtr p) { Wire(std::move(p), b_.get()); });
    b_ = std::make_unique<TcpHost>(&sim_, Ipv4(10, 0, 0, 2),
                                   [this](PacketPtr p) { Wire(std::move(p), a_.get()); });
  }

  void Wire(PacketPtr p, TcpHost* dst) {
    sim_.Schedule(10 * kMicrosecond, [p = std::move(p), dst] { dst->OnPacket(p); });
  }

  Simulation sim_;
  TcpHost::AppHooks no_hooks_;  // outlives the hosts' connections
  std::unique_ptr<TcpHost> a_;
  std::unique_ptr<TcpHost> b_;
};

TEST_F(TcpHostTest, ListenAcceptsIncomingSyn) {
  int accepted = 0;
  TcpHost::AppHooks hooks;
  hooks.on_established = [&](TcpConnection*) { ++accepted; };
  ASSERT_TRUE(b_->Listen(80, hooks));

  TcpConnection* c = a_->Connect(b_->addr(), 80, no_hooks_);
  ASSERT_NE(c, nullptr);
  sim_.RunFor(10 * kMillisecond);
  EXPECT_EQ(accepted, 1);
  EXPECT_EQ(c->state(), TcpState::kEstablished);
  EXPECT_EQ(b_->connection_count(), 1u);
}

TEST_F(TcpHostTest, DoubleListenRejected) {
  EXPECT_TRUE(b_->Listen(80, {}));
  EXPECT_FALSE(b_->Listen(80, {}));
  EXPECT_TRUE(b_->Listen(81, {}));
}

TEST_F(TcpHostTest, SynToUnboundPortIsDropped) {
  TcpConnection* c = a_->Connect(b_->addr(), 9999, no_hooks_);
  sim_.RunFor(50 * kMillisecond);
  EXPECT_NE(c->state(), TcpState::kEstablished);
  EXPECT_GT(b_->dropped_no_match(), 0u);
}

TEST_F(TcpHostTest, EphemeralPortsAreDistinct) {
  b_->Listen(80, {});
  TcpConnection* c1 = a_->Connect(b_->addr(), 80, no_hooks_);
  TcpConnection* c2 = a_->Connect(b_->addr(), 80, no_hooks_);
  ASSERT_NE(c1, nullptr);
  ASSERT_NE(c2, nullptr);
  EXPECT_NE(c1->key().src_port, c2->key().src_port);
  sim_.RunFor(10 * kMillisecond);
  EXPECT_EQ(b_->connection_count(), 2u);
}

TEST_F(TcpHostTest, DataFlowsToTheRightConnection) {
  uint64_t got1 = 0, got2 = 0;
  TcpHost::AppHooks hooks;
  hooks.on_data = [&](TcpConnection* c, uint32_t bytes) {
    // Demux check: tag by destination port of the peer's ephemeral port.
    if (c->key().dst_port % 2 == 0) {
      got1 += bytes;
    } else {
      got2 += bytes;
    }
  };
  b_->Listen(80, hooks);
  TcpConnection* c1 = a_->Connect(b_->addr(), 80, no_hooks_);
  TcpConnection* c2 = a_->Connect(b_->addr(), 80, no_hooks_);
  sim_.RunFor(10 * kMillisecond);
  c1->Send(1000);
  c2->Send(3000);
  sim_.RunFor(100 * kMillisecond);
  EXPECT_EQ(got1 + got2, 4000u);
  EXPECT_TRUE((got1 == 1000 && got2 == 3000) || (got1 == 3000 && got2 == 1000));
}

TEST_F(TcpHostTest, ReapClosedRemovesDeadConnections) {
  b_->Listen(80, {});
  TcpConnection* c = a_->Connect(b_->addr(), 80, no_hooks_);
  sim_.RunFor(10 * kMillisecond);
  ASSERT_EQ(c->state(), TcpState::kEstablished);
  c->CloseSend();
  sim_.RunFor(5 * kMillisecond);
  // Close from the passive side too.
  for (TcpConnection* bc : b_->Connections()) {
    bc->CloseSend();
  }
  sim_.RunFor(1 * kSecond);
  EXPECT_GT(a_->ReapClosed(), 0u);
  EXPECT_GT(b_->ReapClosed(), 0u);
  EXPECT_EQ(a_->connection_count(), 0u);
  EXPECT_EQ(b_->connection_count(), 0u);
}

TEST_F(TcpHostTest, OnClosedHookFires) {
  int closed = 0;
  TcpHost::AppHooks hooks;
  hooks.on_closed = [&](TcpConnection*) { ++closed; };
  b_->Listen(80, hooks);
  TcpConnection* c = a_->Connect(b_->addr(), 80, no_hooks_);
  sim_.RunFor(10 * kMillisecond);
  c->Abort();
  sim_.RunFor(10 * kMillisecond);
  EXPECT_EQ(closed, 1);
}

TEST_F(TcpHostTest, ConnectBorrowsTheCallersHooks) {
  ASSERT_TRUE(b_->Listen(80, no_hooks_));
  int at_connect = 0;
  int reassigned = 0;
  TcpHost::AppHooks hooks;
  hooks.on_established = [&](TcpConnection*) { ++at_connect; };
  TcpConnection* c = a_->Connect(b_->addr(), 80, hooks);
  ASSERT_NE(c, nullptr);
  // The handshake has not completed yet: the connection must call the
  // caller's object as it is now, not a copy taken at Connect.
  hooks.on_established = [&](TcpConnection*) { ++reassigned; };
  sim_.RunFor(10 * kMillisecond);
  ASSERT_EQ(c->state(), TcpState::kEstablished);
  EXPECT_EQ(at_connect, 0);
  EXPECT_EQ(reassigned, 1);
}

TEST_F(TcpHostTest, ParamsAreInternedPerDistinctValue) {
  TcpParams sack;
  sack.sack = true;
  sack.mss = 1000;
  ASSERT_TRUE(b_->Listen(80, no_hooks_));
  ASSERT_TRUE(b_->Listen(81, no_hooks_, sack));
  TcpConnection* plain = a_->Connect(b_->addr(), 80, no_hooks_);
  TcpConnection* selective = a_->Connect(b_->addr(), 81, no_hooks_, sack);
  TcpConnection* plain2 = a_->Connect(b_->addr(), 80, no_hooks_, TcpParams{});
  TcpConnection* selective2 = a_->Connect(b_->addr(), 81, no_hooks_, sack);

  // Each connection keeps its own value; equal values share one copy.
  EXPECT_FALSE(plain->params().sack);
  EXPECT_EQ(plain->params().mss, 1460u);
  EXPECT_TRUE(selective->params().sack);
  EXPECT_EQ(selective->params().mss, 1000u);
  EXPECT_EQ(&plain->params(), &plain2->params());
  EXPECT_EQ(&selective->params(), &selective2->params());
  EXPECT_NE(&plain->params(), &selective->params());

  sim_.RunFor(10 * kMillisecond);
  // Accepted connections share their listener's copy.
  std::vector<const TcpParams*> accepted;
  for (TcpConnection* bc : b_->Connections()) {
    ASSERT_EQ(bc->state(), TcpState::kEstablished);
    accepted.push_back(&bc->params());
  }
  std::sort(accepted.begin(), accepted.end());
  EXPECT_EQ(std::unique(accepted.begin(), accepted.end()) - accepted.begin(), 2);

  // And each segments its data at its own MSS: 10000 B is 7 segments at
  // 1460 B and 10 at 1000 B.
  const uint64_t plain_segs = plain->stats().segs_sent;
  const uint64_t selective_segs = selective->stats().segs_sent;
  plain->Send(10'000);
  selective->Send(10'000);
  sim_.RunFor(10 * kMillisecond);
  EXPECT_EQ(plain->stats().segs_sent - plain_segs, 7u);
  EXPECT_EQ(selective->stats().segs_sent - selective_segs, 10u);
}

TEST_F(TcpHostTest, ManyConcurrentConnections) {
  uint64_t total = 0;
  TcpHost::AppHooks hooks;
  hooks.on_data = [&](TcpConnection*, uint32_t bytes) { total += bytes; };
  b_->Listen(80, hooks);
  std::vector<TcpConnection*> conns;
  for (int i = 0; i < 50; ++i) {
    conns.push_back(a_->Connect(b_->addr(), 80, no_hooks_));
  }
  sim_.RunFor(50 * kMillisecond);
  for (TcpConnection* c : conns) {
    ASSERT_EQ(c->state(), TcpState::kEstablished);
    c->Send(10'000);
  }
  sim_.RunFor(2 * kSecond);
  EXPECT_EQ(total, 50u * 10'000u);
}

// --- FlowTable --------------------------------------------------------------

// Bare connections for table tests: never opened, so they arm no timers.
class FlowTableTest : public ::testing::Test {
 protected:
  std::unique_ptr<TcpConnection> Make(const FlowKey& key) {
    const TcpConnection::Callbacks cb{.hooks = &no_hooks_, .output = [](void*, PacketPtr) {}};
    return std::make_unique<TcpConnection>(&sim_, &wheel_, key, &params_, cb);
  }

  // The next key (by source port) whose probe run starts at `home`.
  FlowKey KeyHomedAt(size_t home, size_t capacity) {
    while (true) {
      const FlowKey key{Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), next_port_++, 80};
      if (FlowTable::HomeSlot(key, capacity) == home) {
        return key;
      }
    }
  }

  Simulation sim_;
  TimerWheel wheel_{&sim_};  // before any table: connections cancel into it
  TcpParams params_;
  TcpConnection::AppHooks no_hooks_;
  uint16_t next_port_ = 1;
};

TEST_F(FlowTableTest, BackwardShiftKeepsProbeRunFindable) {
  const size_t cap = FlowTable().capacity();
  ASSERT_GE(cap, 16u);
  // One probe run that wraps the array end: keys homed two slots before the
  // end, at the last slot, at slot 0 and at slot 5, inserted interleaved so
  // entries sitting in their home slot (the slot-0 keys) lie between
  // displaced ones — a shift must step past them. 9 keys stay under the 3/4
  // growth load.
  std::vector<FlowKey> keys;
  for (size_t home : {cap - 2, cap - 2, size_t{0}, cap - 2, cap - 1, cap - 2, size_t{0}, cap - 1,
                      size_t{5}}) {
    keys.push_back(KeyHomedAt(home, cap));
  }
  // Erase each key in turn from a fresh table, then drain the rest in a
  // seeded order; every survivor must stay findable after every erase.
  Rng rng(7);
  for (size_t victim = 0; victim < keys.size(); ++victim) {
    FlowTable table;
    std::vector<TcpConnection*> conns;
    for (const FlowKey& k : keys) {
      conns.push_back(table.Insert(k, Make(k)));
    }
    ASSERT_EQ(table.capacity(), cap) << "the run must not be spread by a rehash";
    std::vector<size_t> order{victim};
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i != victim) order.push_back(i);
    }
    for (size_t i = order.size() - 1; i > 1; --i) {
      std::swap(order[i], order[1 + static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
    }
    std::vector<bool> gone(keys.size(), false);
    for (size_t e : order) {
      ASSERT_TRUE(table.Erase(keys[e]));
      EXPECT_FALSE(table.Erase(keys[e]));
      gone[e] = true;
      for (size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(table.Find(keys[i]), gone[i] ? nullptr : conns[i])
            << "victim " << victim << " erased " << e << " key " << i;
      }
    }
    EXPECT_EQ(table.size(), 0u);
  }
}

TEST_F(FlowTableTest, GrowsAcrossRehashesAndNeverShrinks) {
  FlowTable table;
  const size_t initial = table.capacity();
  std::vector<FlowKey> keys;
  std::vector<TcpConnection*> conns;
  int rehashes = 0;
  for (uint16_t port = 1; port <= 3000; ++port) {
    const FlowKey key{Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), port, 80};
    const size_t before = table.capacity();
    keys.push_back(key);
    conns.push_back(table.Insert(key, Make(key)));
    if (table.capacity() != before) {
      ++rehashes;
      EXPECT_EQ(table.capacity(), 2 * before);
      for (size_t i = 0; i < keys.size(); ++i) {
        ASSERT_EQ(table.Find(keys[i]), conns[i]) << "after growing to " << table.capacity();
      }
    }
    EXPECT_LE(table.size() * 4, table.capacity() * 3);
  }
  EXPECT_GE(rehashes, 7);
  EXPECT_EQ(table.capacity(), initial << rehashes);
  size_t visited = 0;
  table.ForEach([&visited](TcpConnection*) { ++visited; });
  EXPECT_EQ(visited, 3000u);

  const size_t grown = table.capacity();
  for (size_t i = 0; i < keys.size(); i += 2) {
    ASSERT_TRUE(table.Erase(keys[i]));
  }
  EXPECT_EQ(table.capacity(), grown);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(table.Find(keys[i]), i % 2 == 0 ? nullptr : conns[i]);
  }
}

// --- Closed-list reap ---------------------------------------------------------

// A host whose segments go nowhere: connections stay where the test puts
// them (SYN_SENT after Connect, CLOSED after Abort).
class ReapTest : public ::testing::Test {
 protected:
  Simulation sim_;
  TcpHost::AppHooks no_hooks_;  // outlives host_'s connections
  TcpHost host_{&sim_, Ipv4(10, 0, 0, 1), [](PacketPtr) {}};
};

TEST_F(ReapTest, ReturnsHowManyItRemoved) {
  std::vector<TcpConnection*> conns;
  for (int i = 0; i < 5; ++i) {
    conns.push_back(host_.Connect(Ipv4(10, 0, 0, 2), 80, no_hooks_));
  }
  EXPECT_EQ(host_.ReapClosed(), 0u);
  for (int i = 0; i < 3; ++i) {
    conns[i]->Abort();
  }
  conns[0]->Abort();  // a second Abort must not list it twice
  EXPECT_EQ(host_.ReapClosed(), 3u);
  EXPECT_EQ(host_.ReapClosed(), 0u);
  EXPECT_EQ(host_.connection_count(), 2u);
  EXPECT_EQ(host_.Find(conns[3]->key()), conns[3]);
  conns[3]->Abort();
  conns[4]->Abort();
  EXPECT_EQ(host_.ReapClosed(), 2u);
  EXPECT_EQ(host_.connection_count(), 0u);
}

TEST_F(ReapTest, DestroyedConnectionIsNeverTouched) {
  // A listed connection that Destroy() freed is skipped by key and pointer
  // (ASan catches any read of the freed object) — even when a new
  // connection now holds the very same flow key.
  const auto only_port = [](uint16_t port) {
    return [port](const FlowKey& k) { return k.src_port == port; };
  };
  TcpConnection* old = host_.Connect(Ipv4(10, 0, 0, 2), 80, no_hooks_, {}, only_port(50000));
  ASSERT_NE(old, nullptr);
  const FlowKey key = old->key();
  old->Abort();
  host_.Destroy(old);
  EXPECT_EQ(host_.Find(key), nullptr);
  EXPECT_EQ(host_.ReapClosed(), 0u);

  old = host_.Connect(Ipv4(10, 0, 0, 2), 80, no_hooks_, {}, only_port(50000));
  old->Abort();
  host_.Destroy(old);
  TcpConnection* fresh = host_.Connect(Ipv4(10, 0, 0, 2), 80, no_hooks_, {}, only_port(50000));
  ASSERT_NE(fresh, nullptr);
  ASSERT_EQ(fresh->key(), key);
  EXPECT_EQ(host_.ReapClosed(), 0u);  // the listed entry is stale; fresh is open
  EXPECT_EQ(host_.Find(key), fresh);
  fresh->Abort();
  EXPECT_EQ(host_.ReapClosed(), 1u);
  EXPECT_EQ(host_.connection_count(), 0u);
}

TEST_F(ReapTest, ReapsConnectionAbortedFromListen) {
  ASSERT_TRUE(host_.Listen(80, {}));
  // SYN+RST: the host accepts the SYN into a new passive connection, which
  // ignores the RST in LISTEN and stays there.
  PacketPtr p = MakePacket();
  p->ip.proto = IpProto::kTcp;
  p->ip.src = Ipv4(10, 0, 0, 9);
  p->ip.dst = host_.addr();
  p->tcp.src_port = 1234;
  p->tcp.dst_port = 80;
  p->tcp.flags = kTcpSyn | kTcpRst;
  host_.OnPacket(p);
  const std::vector<TcpConnection*> conns = host_.Connections();
  ASSERT_EQ(conns.size(), 1u);
  ASSERT_EQ(conns[0]->state(), TcpState::kListen);
  EXPECT_EQ(host_.ReapClosed(), 0u);
  conns[0]->Abort();
  EXPECT_EQ(conns[0]->state(), TcpState::kClosed);
  EXPECT_EQ(host_.ReapClosed(), 1u);
  EXPECT_EQ(host_.connection_count(), 0u);
}

// 100k seeded open/close/destroy/lookup/reap operations on a host, mirrored
// in a std::unordered_map. The first half opens more than it closes (the
// table grows through several rehashes), the second half drains it.
TEST_F(ReapTest, MatchesUnorderedMapReference) {
  struct Ref {
    TcpConnection* conn;
    bool closed;
    size_t index;  // position in `keys`
  };
  std::unordered_map<FlowKey, Ref, FlowKeyHash> ref;
  std::vector<FlowKey> keys;    // ref's keys, for O(1) random picks
  std::vector<FlowKey> closed;  // closed since the last reap (may be stale)
  const auto remove = [&](const FlowKey& key) {
    const size_t i = ref.at(key).index;
    keys[i] = keys.back();
    ref.at(keys[i]).index = i;
    keys.pop_back();
    ref.erase(key);
  };
  const auto pick = [&](Rng& rng) -> const FlowKey& {
    return keys[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(keys.size()) - 1))];
  };

  Rng rng(20260917);
  constexpr int kOps = 100'000;
  size_t peak = 0;
  for (int op = 0; op < kOps; ++op) {
    const double open_share = op < kOps / 2 ? 0.45 : 0.15;
    const double r = rng.NextDouble();
    const Ipv4Addr dst = Ipv4(10, 0, 1, static_cast<uint8_t>(rng.UniformInt(1, 4)));
    const uint16_t dst_port = static_cast<uint16_t>(80 + rng.UniformInt(0, 3));
    if (r < open_share) {
      TcpConnection* c = host_.Connect(dst, dst_port, no_hooks_);
      ASSERT_NE(c, nullptr);
      ASSERT_EQ(ref.count(c->key()), 0u) << "Connect reused a key the table holds";
      ref.emplace(c->key(), Ref{c, false, keys.size()});
      keys.push_back(c->key());
    } else if (r < 0.65) {
      if (keys.empty()) continue;
      Ref& e = ref.at(pick(rng));
      if (!e.closed) {
        e.closed = true;
        closed.push_back(e.conn->key());
      }
      e.conn->Abort();
    } else if (r < 0.70) {
      if (keys.empty()) continue;
      const FlowKey key = pick(rng);
      Ref& e = ref.at(key);
      if (!e.closed) {
        e.closed = true;
        closed.push_back(key);
      }
      e.conn->Abort();
      host_.Destroy(e.conn);
      remove(key);
    } else if (r < 0.99) {
      // Lookup: half known keys, half arbitrary ones (mostly absent).
      FlowKey key{host_.addr(), dst, static_cast<uint16_t>(rng.UniformInt(49152, 65535)),
                  dst_port};
      if (!keys.empty() && rng.Bernoulli(0.5)) {
        key = pick(rng);
      }
      const auto it = ref.find(key);
      ASSERT_EQ(host_.Find(key), it == ref.end() ? nullptr : it->second.conn);
    } else {
      size_t want = 0;
      for (const FlowKey& key : closed) {
        const auto it = ref.find(key);
        if (it != ref.end() && it->second.closed) {
          remove(key);
          ++want;
        }
      }
      closed.clear();
      ASSERT_EQ(host_.ReapClosed(), want) << "op " << op;
    }
    ASSERT_EQ(host_.connection_count(), ref.size()) << "op " << op;
    peak = std::max(peak, ref.size());
  }
  EXPECT_GT(peak, 5000u) << "the run should grow the table through several rehashes";

  std::vector<TcpConnection*> want;
  for (const FlowKey& key : keys) {
    want.push_back(ref.at(key).conn);
    EXPECT_EQ(host_.Find(key), ref.at(key).conn);
  }
  std::vector<TcpConnection*> got = host_.Connections();
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace newtos
