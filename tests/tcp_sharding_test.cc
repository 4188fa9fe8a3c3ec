// Sharded TCP server tests: flow demux, gateway routing, scaling.

#include <gtest/gtest.h>

#include "src/core/testbed.h"
#include "src/workload/httpd.h"
#include "src/workload/iperf.h"

namespace newtos {
namespace {

TestbedOptions ShardedOptions(int shards) {
  TestbedOptions opt;
  opt.machine.num_cores = 7;
  opt.stack.tcp_shards = shards;
  opt.stack.use_syscall_gateway = true;  // keep the gateway even at 1 shard
  return opt;
}

void BindShards(Testbed& tb) {
  // driver->1, ip/pf/gateway->2, shards->3.., apps on 0.
  Machine& m = tb.machine();
  tb.stack()->driver()->BindCore(m.core(1));
  tb.stack()->ip()->BindCore(m.core(2));
  if (tb.stack()->pf() != nullptr) {
    tb.stack()->pf()->BindCore(m.core(2));
  }
  tb.stack()->syscall()->BindCore(m.core(2));
  tb.stack()->udp()->BindCore(m.core(1));
  for (int i = 0; i < tb.stack()->tcp_shard_count(); ++i) {
    tb.stack()->tcp_shard(i)->BindCore(m.core(3 + i));
  }
}

TEST(TcpSharding, ShardingAutoEnablesGateway) {
  Testbed tb(ShardedOptions(2));
  EXPECT_NE(tb.stack()->syscall(), nullptr);
  EXPECT_EQ(tb.stack()->tcp_shard_count(), 2);
}

// The gateway forwards every request under its own app id, so an app that
// one shard knows under another id would get another app's socket events.
// CreateApp must refuse to continue in every build type, whichever shard
// drifted (here the first of two).
TEST(TcpShardingDeathTest, CreateAppDiesWhenAShardsAppIdIsSkewed) {
  Testbed tb(ShardedOptions(2));
  tb.stack()->tcp_shard(0)->RegisterApp(tb.stack()->syscall()->evt_in());
  EXPECT_DEATH(tb.stack()->CreateApp("skewed", tb.machine().core(0)),
               "tcp shard 0 registered app id 1, the gateway 0");
}

TEST(TcpSharding, AcceptedConnectionsSpreadAcrossShards) {
  Testbed tb(ShardedOptions(3));
  BindShards(tb);
  SocketApi* api = tb.stack()->CreateApp("httpd", tb.machine().core(0));
  HttpParams hp;
  hp.concurrency = 32;
  HttpServerApp server(api, hp);
  server.Start();
  tb.sim().RunFor(2 * kMillisecond);
  HttpPeerClient client(&tb.peer(), tb.sut_addr(), hp);
  client.Start();
  tb.sim().RunFor(50 * kMillisecond);

  int shards_used = 0;
  for (int i = 0; i < 3; ++i) {
    if (tb.stack()->tcp_shard(i)->host().connection_count() > 0) {
      ++shards_used;
    }
  }
  EXPECT_GE(shards_used, 2) << "32 flows must hash onto more than one shard";
  EXPECT_GT(client.responses(), 100u);
}

TEST(TcpSharding, ActiveConnectionsPickRssCompatiblePorts) {
  Testbed tb(ShardedOptions(2));
  BindShards(tb);
  SocketApi* api = tb.stack()->CreateApp("iperf", tb.machine().core(0));
  IperfSender::Params sp;
  sp.dst = tb.peer_addr();
  sp.connections = 6;
  IperfSender sender(api, sp);
  IperfPeerSink sink(&tb.peer());
  sender.Start();
  tb.sim().RunFor(100 * kMillisecond);

  // Round-robin connects: both shards own connections, and every connection
  // key hashes to the shard that owns it (RSS consistency).
  for (int i = 0; i < 2; ++i) {
    TcpServer* shard = tb.stack()->tcp_shard(i);
    EXPECT_GT(shard->host().connection_count(), 0u) << "shard " << i;
    for (TcpConnection* c : shard->host().Connections()) {
      EXPECT_EQ(SymmetricFlowHash(c->key()) % 2, static_cast<size_t>(i));
    }
  }
  EXPECT_GT(sink.total_bytes(), 0u);
}

TEST(TcpSharding, AcceptHandleEncodesShard) {
  EXPECT_TRUE(TcpServer::IsAcceptHandle((1ULL << 62) | (5ULL << 48) | 7));
  EXPECT_FALSE(TcpServer::IsAcceptHandle(42));
  EXPECT_EQ(TcpServer::ShardOfAcceptHandle((1ULL << 62) | (5ULL << 48) | 7), 5u);
}

TEST(TcpSharding, TwoShardsBeatOneOnSlowCores) {
  // HTTP load: TCP RX segment processing (which, unlike cumulative ACKs,
  // cannot be thinned under overload) saturates a single 1.2 GHz shard.
  auto rps = [](int shards) {
    Testbed tb(ShardedOptions(shards));
    BindShards(tb);
    for (int i = 0; i < shards; ++i) {
      tb.machine().core(3 + i)->SetFrequency(1'200'000 * kKhz);
    }
    SocketApi* api = tb.stack()->CreateApp("httpd", tb.machine().core(0));
    HttpParams hp;
    hp.concurrency = 64;
    hp.server_compute_cycles = 2'000;
    HttpServerApp server(api, hp);
    server.Start();
    tb.sim().RunFor(2 * kMillisecond);
    HttpPeerClient client(&tb.peer(), tb.sut_addr(), hp);
    client.Start();
    tb.sim().RunFor(100 * kMillisecond);
    client.ResetWindow(tb.sim().Now());
    tb.sim().RunFor(200 * kMillisecond);
    return client.window().EventsPerSec(tb.sim().Now());
  };
  const double one = rps(1);
  const double two = rps(2);
  EXPECT_GT(two, one * 1.3) << "one=" << one << " two=" << two;
}

TEST(TcpSharding, SingleShardConfigStillWorksThroughGateway) {
  TestbedOptions opt;
  opt.stack.tcp_shards = 1;
  opt.stack.use_syscall_gateway = true;
  Testbed tb(opt);
  SocketApi* api = tb.stack()->CreateApp("iperf", tb.machine().core(0));
  IperfSender::Params sp;
  sp.dst = tb.peer_addr();
  IperfSender sender(api, sp);
  IperfPeerSink sink(&tb.peer());
  sender.Start();
  tb.sim().RunFor(100 * kMillisecond);
  EXPECT_GT(sink.total_bytes(), 0u);
}

TEST(TcpSharding, ShardCrashOnlyKillsItsOwnConnections) {
  Testbed tb(ShardedOptions(2));
  BindShards(tb);
  SocketApi* api = tb.stack()->CreateApp("iperf", tb.machine().core(0));
  IperfSender::Params sp;
  sp.dst = tb.peer_addr();
  sp.connections = 4;  // round-robin: 2 per shard
  IperfSender sender(api, sp);
  IperfPeerSink sink(&tb.peer());
  sender.Start();
  tb.sim().RunFor(100 * kMillisecond);
  const size_t shard1_conns = tb.stack()->tcp_shard(1)->host().connection_count();
  ASSERT_GT(shard1_conns, 0u);

  tb.stack()->tcp_shard(0)->Crash();
  tb.sim().RunFor(10 * kMillisecond);
  EXPECT_EQ(tb.stack()->tcp_shard(0)->host().connection_count(), 0u);
  EXPECT_EQ(tb.stack()->tcp_shard(1)->host().connection_count(), shard1_conns);

  // Shard 1 keeps moving data while shard 0 is down.
  sink.window().Reset(tb.sim().Now());
  tb.sim().RunFor(100 * kMillisecond);
  EXPECT_GT(sink.window().bytes(), 0u);
}

}  // namespace
}  // namespace newtos
