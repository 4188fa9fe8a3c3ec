// Allocation gate for the TCP control path: once the flow table, the closed
// list, the packet pool and the event queue have reached their high-water
// marks, a Connect -> FIN/TIME_WAIT -> reap cycle allocates exactly one heap
// block per TcpConnection — the connection object itself, and not a byte
// more. Connections borrow their hooks and their (per-host interned)
// params, and reach the host through plain function pointers, so nothing
// else may allocate per connection, and the object holds only its own state.
//
// The counting global allocator of src/check/alloc_counter.h does the
// measuring, so this binary is built only without sanitizers.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "src/check/alloc_counter.h"
#include "src/net/tcp_host.h"
#include "src/sim/simulation.h"

namespace newtos {
namespace {

constexpr Ipv4Addr kClientIp = Ipv4(10, 2, 0, 1);
constexpr Ipv4Addr kServerIp = Ipv4(10, 2, 0, 2);
constexpr uint16_t kPort = 80;
constexpr int kFlowsPerCycle = 512;
// Per-socket budget for the connection object: 664 B with libstdc++, where
// a connection that copied its hooks, params and output took 912 B.
constexpr size_t kMaxConnectionBytes = 680;

// Two bare hosts on a 50 us wire. Both ends close as soon as they are
// established, so every flow runs the whole control path: handshake, FIN
// exchange, TIME_WAIT, and the reap of both connections. Client flows
// alternate between two params values, so every cycle also runs the
// host's params interning.
class ChurnPair {
 public:
  ChurnPair() {
    TcpHost::AppHooks server;
    server.on_established = [](TcpConnection* c) { c->CloseSend(); };
    server.on_closed = [this](TcpConnection*) { ++closed_; };
    server_.Listen(kPort, server);
    client_hooks_.on_established = [](TcpConnection* c) { c->CloseSend(); };
    client_hooks_.on_closed = [this](TcpConnection*) { ++closed_; };
    sack_params_.sack = true;
  }

  // Opens `flows` connections, runs past TIME_WAIT and reaps both hosts.
  // Returns the number of connections reaped.
  size_t Cycle(int flows) {
    for (int i = 0; i < flows; ++i) {
      const TcpParams& params = i % 2 == 0 ? default_params_ : sack_params_;
      if (client_.Connect(kServerIp, kPort, client_hooks_, params) == nullptr) {
        return 0;
      }
    }
    sim_.RunFor(20 * kMillisecond);  // handshake + FIN exchange + 10 ms TIME_WAIT
    return client_.ReapClosed() + server_.ReapClosed();
  }

  uint64_t closed() const { return closed_; }
  size_t connections() const { return client_.connection_count() + server_.connection_count(); }

 private:
  void Wire(PacketPtr p, TcpHost* dst) {
    sim_.Schedule(50 * kMicrosecond, [p = std::move(p), dst] { dst->OnPacket(p); });
  }

  Simulation sim_;
  TcpHost server_{&sim_, kServerIp, [this](PacketPtr p) { Wire(std::move(p), &client_); }};
  TcpHost client_{&sim_, kClientIp, [this](PacketPtr p) { Wire(std::move(p), &server_); }};
  TcpHost::AppHooks client_hooks_;
  TcpParams default_params_;
  TcpParams sack_params_;
  uint64_t closed_ = 0;
};

TEST(TcpHostAllocGate, SteadyCycleAllocatesOnlyTheConnections) {
  ChurnPair pair;
  // Warm-up: identical cycles grow the table, the closed lists, the packet
  // pool, the wheel and the event queue to their high-water marks.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(pair.Cycle(kFlowsPerCycle), 2u * kFlowsPerCycle);
  }
  const uint64_t closed0 = pair.closed();
  const uint64_t allocs0 = AllocCount();
  const uint64_t bytes0 = AllocBytes();
  const size_t reaped = pair.Cycle(kFlowsPerCycle);
  const uint64_t allocs = AllocCount() - allocs0;
  const uint64_t bytes = AllocBytes() - bytes0;
  ASSERT_EQ(reaped, 2u * kFlowsPerCycle);
  ASSERT_EQ(pair.closed() - closed0, 2u * kFlowsPerCycle);
  ASSERT_EQ(pair.connections(), 0u);
  constexpr uint64_t kConns = 2u * kFlowsPerCycle;  // a client and a server end per flow
  std::printf("steady cycle: %.2f allocations, %.1f bytes per connection "
              "(sizeof(TcpConnection) = %zu)\n",
              static_cast<double>(allocs) / kConns, static_cast<double>(bytes) / kConns,
              sizeof(TcpConnection));
  // One block per TcpConnection, and that block is the object itself.
  EXPECT_EQ(allocs, kConns) << static_cast<double>(allocs) / kConns
                            << " allocations per connection";
  EXPECT_EQ(bytes, kConns * sizeof(TcpConnection))
      << static_cast<double>(bytes) / kConns << " bytes per connection";
}

TEST(TcpHostAllocGate, ConnectionFitsTheSocketBudget) {
  EXPECT_LE(sizeof(TcpConnection), kMaxConnectionBytes);
}

// Interning copies a params value once, on its first use; every later
// connection with an equal value allocates only itself.
TEST(TcpHostAllocGate, NewParamsValueAllocatesOnceOnFirstUse) {
  Simulation sim;
  TcpHost host(&sim, kClientIp, [](PacketPtr) {});
  const TcpHost::AppHooks hooks;
  TcpParams small_mss;
  small_mss.mss = 1000;
  const auto allocs_for = [&](const TcpParams& params) {
    const uint64_t before = AllocCount();
    EXPECT_NE(host.Connect(kServerIp, kPort, hooks, params), nullptr);
    return AllocCount() - before;
  };
  // Warm-up: the first Connect also fills the packet pool and the event
  // queue (its SYN, its RTO wake).
  allocs_for(TcpParams{});
  EXPECT_EQ(allocs_for(TcpParams{}), 1u);
  EXPECT_EQ(allocs_for(small_mss), 2u);  // the interned copy + the connection
  EXPECT_EQ(allocs_for(small_mss), 1u);
  EXPECT_EQ(allocs_for(TcpParams{}), 1u);
}

}  // namespace
}  // namespace newtos
