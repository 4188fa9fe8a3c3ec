// Bulk-TCP (iperf-like) workload.
//
// Four composable pieces cover both directions of the paper's streaming
// tests:
//   SUT transmits:  IperfSender (on a SocketApi)  ->  IperfPeerSink
//   SUT receives:   IperfPeerSender               ->  IperfSutSink
// Senders keep the pipe full with fixed-size bursts re-armed on the drained
// notification; sinks count delivered bytes in a resettable window.

#ifndef SRC_WORKLOAD_IPERF_H_
#define SRC_WORKLOAD_IPERF_H_

#include <cstdint>
#include <unordered_map>

#include "src/metrics/stats.h"
#include "src/os/peer_host.h"
#include "src/os/socket_api.h"

namespace newtos {

inline constexpr uint16_t kIperfPort = 5001;

// Application on the system under test that streams data to the peer.
class IperfSender {
 public:
  struct Params {
    Ipv4Addr dst = 0;
    uint16_t port = kIperfPort;
    uint64_t burst_bytes = 1024 * 1024;  // submitted two-deep per drain
    int connections = 1;
  };

  IperfSender(SocketApi* api, const Params& params);
  void Start();

  uint64_t bytes_submitted() const { return bytes_submitted_; }
  int established() const { return established_; }

 private:
  void OnEvent(const Msg& m);

  SocketApi* api_;
  Params params_;
  uint64_t bytes_submitted_ = 0;
  int established_ = 0;
};

// Peer-side listener that counts what actually arrived (the measured end).
class IperfPeerSink {
 public:
  IperfPeerSink(PeerHost* peer, uint16_t port = kIperfPort);

  uint64_t total_bytes() const { return total_bytes_; }
  RateMeter& window() { return window_; }

 private:
  RateMeter window_;
  uint64_t total_bytes_ = 0;
};

// Peer-side bulk sender (for SUT-receive tests). Zero CPU cost, real TCP.
class IperfPeerSender {
 public:
  struct Params {
    Ipv4Addr sut = 0;
    uint16_t port = kIperfPort;
    uint64_t burst_bytes = 256 * 1024;
    int connections = 1;
  };

  IperfPeerSender(PeerHost* peer, const Params& params);
  void Start();

  uint64_t bytes_submitted() const { return bytes_submitted_; }

 private:
  PeerHost* peer_;
  Params params_;
  TcpHost::AppHooks hooks_;  // shared by every connection Start opens
  uint64_t bytes_submitted_ = 0;
};

// SUT application that listens and counts received bytes.
class IperfSutSink {
 public:
  IperfSutSink(SocketApi* api, uint16_t port = kIperfPort);
  void Start();

  uint64_t total_bytes() const { return total_bytes_; }
  RateMeter& window() { return window_; }

 private:
  void OnEvent(const Msg& m);

  SocketApi* api_;
  uint16_t port_;
  RateMeter window_;
  uint64_t total_bytes_ = 0;
};

}  // namespace newtos

#endif  // SRC_WORKLOAD_IPERF_H_
