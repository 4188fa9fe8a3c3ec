// HTTP-like request/response workload (the paper's lighttpd experiments).
//
// The peer runs a closed-loop client: `concurrency` keep-alive connections,
// each sending a fixed-size request, waiting for the full fixed-size
// response, recording the latency, and immediately issuing the next request.
// The SUT runs the server application: after a request fully arrives it
// burns `server_compute_cycles` on its own core (static files -> near zero;
// dynamic content -> tens of kilocycles) and then sends the response. Fixed
// response sizes per run mirror how lighttpd benchmarks sweep file size.

#ifndef SRC_WORKLOAD_HTTPD_H_
#define SRC_WORKLOAD_HTTPD_H_

#include <cstdint>
#include <unordered_map>

#include "src/metrics/histogram.h"
#include "src/metrics/stats.h"
#include "src/os/peer_host.h"
#include "src/os/socket_api.h"

namespace newtos {

struct HttpParams {
  uint16_t port = 80;
  uint32_t request_bytes = 300;
  uint32_t response_bytes = 8 * 1024;
  Cycles server_compute_cycles = 10'000;
  int concurrency = 16;
  // false = HTTP/1.0-style churn: one request per connection, both sides
  // close after the response and the client dials a fresh connection.
  // Exercises the handshake/teardown path and TIME_WAIT reaping under load.
  bool keep_alive = true;
};

// Server application on the system under test.
class HttpServerApp {
 public:
  HttpServerApp(SocketApi* api, const HttpParams& params);
  void Start();

  uint64_t requests_served() const { return requests_served_; }
  int open_connections() const { return static_cast<int>(conns_.size()); }

 private:
  struct ConnState {
    uint64_t request_bytes_pending = 0;
  };

  void OnEvent(const Msg& m);

  SocketApi* api_;
  HttpParams params_;
  std::unordered_map<uint64_t, ConnState> conns_;
  uint64_t requests_served_ = 0;
};

// Closed-loop client on the peer host.
class HttpPeerClient {
 public:
  HttpPeerClient(PeerHost* peer, Ipv4Addr sut, const HttpParams& params);
  void Start();

  uint64_t responses() const { return responses_; }
  LatencyHistogram& latency() { return latency_; }
  RateMeter& window() { return window_; }

  // Excludes warm-up: zeroes the window counters and latency histogram.
  void ResetWindow(SimTime now) {
    window_.Reset(now);
    latency_.Reset();
  }

  uint64_t connections_opened() const { return connections_opened_; }

 private:
  struct ConnState {
    uint64_t response_bytes_pending = 0;
    SimTime request_sent_at = 0;
  };

  void OpenConnection();
  void SendRequest(TcpConnection* c);

  PeerHost* peer_;
  Ipv4Addr sut_;
  HttpParams params_;
  TcpHost::AppHooks hooks_;  // shared by every connection OpenConnection opens
  std::unordered_map<TcpConnection*, ConnState> conns_;
  uint64_t responses_ = 0;
  uint64_t connections_opened_ = 0;
  LatencyHistogram latency_;
  RateMeter window_;
};

}  // namespace newtos

#endif  // SRC_WORKLOAD_HTTPD_H_
