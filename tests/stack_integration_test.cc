// End-to-end integration: testbed machine + multiserver stack + peer host.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/steering.h"
#include "src/core/testbed.h"
#include "src/workload/httpd.h"
#include "src/workload/iperf.h"
#include "src/workload/udp_flood.h"

namespace newtos {
namespace {

TestbedOptions DefaultOptions() {
  TestbedOptions opt;
  opt.machine.num_cores = 5;
  return opt;
}

TEST(StackIntegration, IperfTransmitApproachesLineRate) {
  Testbed tb(DefaultOptions());
  SocketApi* api = tb.stack()->CreateApp("iperf", tb.machine().core(0));

  IperfSender::Params sp;
  sp.dst = tb.peer_addr();
  IperfSender sender(api, sp);
  IperfPeerSink sink(&tb.peer());
  sender.Start();

  tb.sim().RunFor(200 * kMillisecond);
  sink.window().Reset(tb.sim().Now());
  tb.sim().RunFor(300 * kMillisecond);

  const double gbps = sink.window().GbitsPerSec(tb.sim().Now());
  // 10 GbE payload goodput tops out near ~9.3 Gbit/s for 1448B MSS.
  EXPECT_GT(gbps, 8.0) << "measured " << gbps << " Gbit/s";
  EXPECT_LT(gbps, 10.0);
}

TEST(StackIntegration, IperfReceiveApproachesLineRate) {
  Testbed tb(DefaultOptions());
  SocketApi* api = tb.stack()->CreateApp("sink", tb.machine().core(0));
  IperfSutSink sink(api);
  sink.Start();
  tb.sim().RunFor(1 * kMillisecond);  // let the listen request land

  IperfPeerSender::Params pp;
  pp.sut = tb.sut_addr();
  IperfPeerSender sender(&tb.peer(), pp);
  sender.Start();

  tb.sim().RunFor(200 * kMillisecond);
  sink.window().Reset(tb.sim().Now());
  tb.sim().RunFor(300 * kMillisecond);

  const double gbps = sink.window().GbitsPerSec(tb.sim().Now());
  EXPECT_GT(gbps, 8.0) << "measured " << gbps << " Gbit/s";
}

TEST(StackIntegration, SlowStackCoresStillSustainLineRate) {
  // The paper's headline: scale the three system cores down to 2.4 GHz and
  // bulk throughput barely moves.
  Testbed tb(DefaultOptions());
  SteeringPlan plan = DedicatedSlowPlan(*tb.stack(), 2'400'000 * kKhz, 3'600'000 * kKhz);
  plan.Apply(tb.machine());

  SocketApi* api = tb.stack()->CreateApp("iperf", tb.machine().core(0));
  IperfSender::Params sp;
  sp.dst = tb.peer_addr();
  IperfSender sender(api, sp);
  IperfPeerSink sink(&tb.peer());
  sender.Start();

  tb.sim().RunFor(200 * kMillisecond);
  sink.window().Reset(tb.sim().Now());
  tb.sim().RunFor(300 * kMillisecond);
  EXPECT_GT(sink.window().GbitsPerSec(tb.sim().Now()), 8.0);
}

TEST(StackIntegration, VerySlowStackCoresBottleneckThroughput) {
  Testbed tb(DefaultOptions());
  SteeringPlan plan = DedicatedSlowPlan(*tb.stack(), 600'000 * kKhz, 3'600'000 * kKhz);
  plan.Apply(tb.machine());

  SocketApi* api = tb.stack()->CreateApp("iperf", tb.machine().core(0));
  IperfSender::Params sp;
  sp.dst = tb.peer_addr();
  IperfSender sender(api, sp);
  IperfPeerSink sink(&tb.peer());
  sender.Start();

  tb.sim().RunFor(200 * kMillisecond);
  sink.window().Reset(tb.sim().Now());
  tb.sim().RunFor(300 * kMillisecond);
  const double gbps = sink.window().GbitsPerSec(tb.sim().Now());
  EXPECT_LT(gbps, 8.0) << "a 0.6 GHz TCP core cannot keep 10 GbE full";
  EXPECT_GT(gbps, 0.5);
}

TEST(StackIntegration, HttpServesRequestsAndMeasuresLatency) {
  Testbed tb(DefaultOptions());
  SocketApi* api = tb.stack()->CreateApp("httpd", tb.machine().core(0));

  HttpParams hp;
  hp.concurrency = 8;
  HttpServerApp server(api, hp);
  server.Start();
  tb.sim().RunFor(1 * kMillisecond);

  HttpPeerClient client(&tb.peer(), tb.sut_addr(), hp);
  client.Start();

  tb.sim().RunFor(100 * kMillisecond);
  client.ResetWindow(tb.sim().Now());
  tb.sim().RunFor(400 * kMillisecond);

  EXPECT_GT(client.responses(), 1000u);
  EXPECT_GT(client.latency().count(), 0u);
  EXPECT_GE(client.latency().P99(), client.latency().P50());
  EXPECT_LT(client.latency().P50(), 5 * kMillisecond);
  EXPECT_EQ(server.open_connections(), hp.concurrency);
}

TEST(StackIntegration, UdpFloodIsDeliveredThroughTheStack) {
  Testbed tb(DefaultOptions());
  UdpSutSink sink;
  sink.BindDirect(tb.stack()->udp(), kUdpFloodPort);
  tb.sim().RunFor(1 * kMillisecond);

  UdpPeerFlood::Params fp;
  fp.sut = tb.sut_addr();
  fp.packets_per_sec = 50'000;
  UdpPeerFlood flood(&tb.peer(), fp);
  flood.Start();

  tb.sim().RunFor(200 * kMillisecond);
  flood.Stop();
  tb.sim().RunFor(50 * kMillisecond);

  EXPECT_GT(flood.sent(), 9000u);
  // Allow a little in-flight slack but essentially everything arrives.
  EXPECT_GE(sink.received(), flood.sent() * 99 / 100);
}

TEST(StackIntegration, PfDropRulesFilterTraffic) {
  TestbedOptions opt = DefaultOptions();
  opt.stack.use_pf = true;
  opt.stack.pf_rules = 8;
  Testbed tb(opt);

  // Replace the synthetic chain with one that drops all UDP.
  PacketFilter pf(FilterAction::kAccept);
  FilterRule drop_udp;
  drop_udp.proto = IpProto::kUdp;
  drop_udp.action = FilterAction::kDrop;
  pf.Append(drop_udp);
  tb.stack()->pf()->ReplaceFilter(std::move(pf));

  UdpSutSink sink;
  sink.BindDirect(tb.stack()->udp(), kUdpFloodPort);
  UdpPeerFlood::Params fp;
  fp.sut = tb.sut_addr();
  fp.packets_per_sec = 10'000;
  UdpPeerFlood flood(&tb.peer(), fp);
  flood.Start();

  tb.sim().RunFor(100 * kMillisecond);
  EXPECT_GT(tb.stack()->pf()->dropped(), 0u);
  EXPECT_EQ(sink.received(), 0u);
}

TEST(StackIntegration, SyscallGatewayPathWorks) {
  TestbedOptions opt = DefaultOptions();
  opt.stack.use_syscall_gateway = true;
  Testbed tb(opt);
  ASSERT_NE(tb.stack()->syscall(), nullptr);

  SocketApi* api = tb.stack()->CreateApp("iperf", tb.machine().core(0));
  IperfSender::Params sp;
  sp.dst = tb.peer_addr();
  IperfSender sender(api, sp);
  IperfPeerSink sink(&tb.peer());
  sender.Start();

  tb.sim().RunFor(300 * kMillisecond);
  EXPECT_GT(sink.total_bytes(), 0u);
  EXPECT_GT(tb.stack()->syscall()->forwarded(), 0u);
}

TEST(StackIntegration, MultipleConcurrentAppsShareTheStack) {
  Testbed tb(DefaultOptions());
  SocketApi* iperf_api = tb.stack()->CreateApp("iperf", tb.machine().core(0));
  SocketApi* http_api = tb.stack()->CreateApp("httpd", tb.machine().core(4));

  IperfSender::Params sp;
  sp.dst = tb.peer_addr();
  IperfSender sender(iperf_api, sp);
  IperfPeerSink sink(&tb.peer());
  HttpParams hp;
  hp.concurrency = 4;
  HttpServerApp http_server(http_api, hp);
  http_server.Start();
  sender.Start();
  tb.sim().RunFor(1 * kMillisecond);
  HttpPeerClient client(&tb.peer(), tb.sut_addr(), hp);
  client.Start();

  tb.sim().RunFor(300 * kMillisecond);
  EXPECT_GT(client.responses(), 100u);
  EXPECT_GT(sink.total_bytes(), 0u);
}

// The TCP server gives each listener its own hook set (it names the app that
// accepts) but lends one shared set to every active open. Two apps that each
// listen on their own port and each open one connection must still see only
// their own events.
TEST(StackIntegration, TcpServerRoutesEventsPerAppWithSharedConnectHooks) {
  Testbed tb(DefaultOptions());
  constexpr uint16_t kAppPorts[2] = {7000, 8000};
  constexpr uint16_t kPeerPort = 9000;
  struct Seen {
    std::vector<uint16_t> accepted_ports;
    std::vector<uint64_t> established_handles;
  };
  Seen seen[2];
  SocketApi* apis[2] = {tb.stack()->CreateApp("a", tb.machine().core(0)),
                        tb.stack()->CreateApp("b", tb.machine().core(4))};
  for (int i = 0; i < 2; ++i) {
    apis[i]->SetEventHandler([&seen, i](const Msg& m) {
      if (m.type == MsgType::kEvtAccepted) {
        seen[i].accepted_ports.push_back(m.port);
      } else if (m.type == MsgType::kEvtEstablished) {
        seen[i].established_handles.push_back(m.handle);
      }
    });
    apis[i]->Listen(kAppPorts[i]);
  }
  const TcpHost::AppHooks peer_hooks;
  tb.peer().tcp().Listen(kPeerPort, peer_hooks, tb.peer().tcp_params());
  tb.sim().RunFor(1 * kMillisecond);

  uint64_t handles[2];
  for (int i = 0; i < 2; ++i) {
    tb.peer().tcp().Connect(tb.sut_addr(), kAppPorts[i], peer_hooks, tb.peer().tcp_params());
    handles[i] = apis[i]->Connect(tb.peer_addr(), kPeerPort);
  }
  tb.sim().RunFor(20 * kMillisecond);

  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(seen[i].accepted_ports, std::vector<uint16_t>{kAppPorts[i]}) << "app " << i;
    EXPECT_EQ(seen[i].established_handles, std::vector<uint64_t>{handles[i]}) << "app " << i;
  }
}

TEST(StackIntegration, DeterministicEndToEnd) {
  auto run = [] {
    Testbed tb(DefaultOptions());
    SocketApi* api = tb.stack()->CreateApp("iperf", tb.machine().core(0));
    IperfSender::Params sp;
    sp.dst = tb.peer_addr();
    IperfSender sender(api, sp);
    IperfPeerSink sink(&tb.peer());
    sender.Start();
    tb.sim().RunFor(250 * kMillisecond);
    return std::make_tuple(sink.total_bytes(), tb.sim().events_processed(),
                           tb.stack()->tcp()->segments_out());
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace newtos
