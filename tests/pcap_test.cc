// PcapWriter + NIC tap: captures must be valid pcap containing the traffic.

#include "src/net/pcap.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "src/core/testbed.h"
#include "src/net/codec.h"
#include "src/workload/iperf.h"

namespace newtos {
namespace {

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(f)),
                              std::istreambuf_iterator<char>());
}

uint32_t Le32(const std::vector<uint8_t>& b, size_t at) {
  return static_cast<uint32_t>(b[at]) | (static_cast<uint32_t>(b[at + 1]) << 8) |
         (static_cast<uint32_t>(b[at + 2]) << 16) | (static_cast<uint32_t>(b[at + 3]) << 24);
}

class PcapTest : public ::testing::Test {
 protected:
  // One file per test: ctest -j runs these cases as separate processes at
  // once, and a shared path let one case read another's capture.
  void SetUp() override {
    path_ = ::testing::TempDir() + "/newtos_capture_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".pcap";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(PcapTest, GlobalHeaderIsValid) {
  {
    PcapWriter w(path_);
    ASSERT_TRUE(w.ok());
  }
  const auto bytes = ReadFile(path_);
  ASSERT_EQ(bytes.size(), 24u);
  EXPECT_EQ(Le32(bytes, 0), 0xa1b2c3d4u);  // magic
  EXPECT_EQ(Le32(bytes, 20), 1u);          // linktype Ethernet
}

TEST_F(PcapTest, WrittenPacketRoundTripsThroughTheCodec) {
  PacketPtr p = MakePacket();
  p->ip.proto = IpProto::kTcp;
  p->ip.src = Ipv4(10, 0, 0, 1);
  p->ip.dst = Ipv4(10, 0, 0, 2);
  p->tcp.src_port = 1234;
  p->tcp.dst_port = 80;
  p->payload_bytes = 100;
  {
    PcapWriter w(path_);
    w.Write(*p, 1500 * kMillisecond);
    EXPECT_EQ(w.packets_written(), 1u);
  }
  const auto bytes = ReadFile(path_);
  ASSERT_GE(bytes.size(), 24u + 16u);
  // Record header: ts=1.5s, caplen == len == frame size.
  EXPECT_EQ(Le32(bytes, 24), 1u);        // ts_sec
  EXPECT_EQ(Le32(bytes, 28), 500000u);   // ts_usec
  const uint32_t caplen = Le32(bytes, 32);
  EXPECT_EQ(caplen, p->FrameBytes());
  EXPECT_EQ(Le32(bytes, 36), caplen);
  ASSERT_EQ(bytes.size(), 24u + 16u + caplen);
  // The captured frame parses back with intact checksums.
  std::vector<uint8_t> frame(bytes.begin() + 40, bytes.end());
  auto parsed = ParsePacket(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->ip_checksum_ok);
  EXPECT_TRUE(parsed->l4_checksum_ok);
  EXPECT_EQ(parsed->packet.tcp.dst_port, 80);
  EXPECT_EQ(parsed->packet.payload_bytes, 100u);
}

TEST_F(PcapTest, UnopenableePathReportsNotOk) {
  PcapWriter w("/nonexistent-dir/capture.pcap");
  EXPECT_FALSE(w.ok());
  Packet p;
  w.Write(p, 0);  // safe no-op
  EXPECT_EQ(w.packets_written(), 0u);
}

TEST_F(PcapTest, NicTapCapturesLiveTraffic) {
  Testbed tb;
  PcapWriter w(path_);
  uint64_t tx = 0, rx = 0;
  tb.machine().nic()->SetTap([&](Nic::TapDirection dir, const PacketPtr& p) {
    (dir == Nic::TapDirection::kTx ? tx : rx) += 1;
    w.Write(*p, tb.sim().Now());
  });

  SocketApi* api = tb.stack()->CreateApp("iperf", tb.machine().core(0));
  IperfSender::Params sp;
  sp.dst = tb.peer_addr();
  IperfSender sender(api, sp);
  IperfPeerSink sink(&tb.peer());
  sender.Start();
  tb.sim().RunFor(20 * kMillisecond);

  EXPECT_GT(tx, 1000u);  // data segments out
  EXPECT_GT(rx, 400u);   // acks in
  EXPECT_EQ(w.packets_written(), tx + rx);
  w.Flush();
  const auto bytes = ReadFile(path_);
  EXPECT_GT(bytes.size(), 24u + (tx + rx) * 16u);  // headers + payload bytes
}

}  // namespace
}  // namespace newtos
