// TCP server: owns the machine's TCP protocol state (a TcpHost) and runs it
// as a pinned, message-driven stack stage.
//
// Inputs: inbound segments (from PF/IP) and socket requests (from apps or
// the syscall gateway). Internal work sources: the protocol's outbound
// segment queue (every segment the state machines generate is charged
// tx_segment cycles before it leaves for IP) and the application event queue
// (established/data/drained/closed notifications, charged evt_deliver each).
// Timers (RTO, delayed ACK, persist) fire on simulated time and enqueue
// their output into the same internal queues, so retransmissions pay the
// server's cycle costs like any other segment.
//
// Crash model: with checkpointing off (the default), a crash destroys every
// connection — apps get kEvtClosed on restart and listeners are re-created
// from the recovery set, mirroring a stateful-server microreboot. With
// checkpointing on, protocol state survives in a replica and only in-queue
// messages are lost; TCP's own retransmission repairs the gap. Fig. 8
// compares the two.

#ifndef SRC_OS_TCP_SERVER_H_
#define SRC_OS_TCP_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/net/tcp_host.h"
#include "src/os/costs.h"
#include "src/os/server.h"
#include "src/sim/ring_deque.h"

namespace newtos {

class TcpServer : public Server {
 public:
  TcpServer(Simulation* sim, Ipv4Addr addr, const TcpCosts& costs, const TcpParams& tcp_params,
            size_t chan_capacity, const ChannelCostModel& chan_cost);

  // Downstream to the IP server's TX channel.
  void set_ip_tx(Chan* ip_tx) { ip_tx_ = ip_tx; }

  Chan* rx_in() { return rx_in_; }
  Chan* app_in() { return app_in_; }

  // Registers an application event channel; the returned id goes into
  // Msg::app on every request the application sends.
  uint32_t RegisterApp(Chan* app_events);

  // Checkpointed recovery: protocol state survives crashes.
  void set_checkpointing(bool on) { checkpointing_ = on; }
  bool checkpointing() const { return checkpointing_; }

  // Sharded deployment: this instance is shard `index` of `count`. Inbound
  // flows are routed here by symmetric flow hash (IP/PF demux); outbound
  // connections pick ephemeral ports that hash back to this shard; accepted
  // handles encode the shard in bits 48..61 so the gateway can route
  // follow-up requests. Call before any traffic.
  void set_shard(uint32_t index, uint32_t count);
  uint32_t shard_index() const { return shard_index_; }

  // Shard owning `handle` for accept-side handles (bit 62 set).
  static uint32_t ShardOfAcceptHandle(uint64_t handle) {
    return static_cast<uint32_t>((handle >> 48) & 0x3fff);
  }
  static bool IsAcceptHandle(uint64_t handle) { return (handle >> 62) & 1; }

  // Exposes protocol state for tests/metrics (do not mutate mid-run).
  TcpHost& host() { return *host_; }

  const TcpCosts& costs() const { return costs_; }
  uint64_t segments_in() const { return segments_in_; }
  uint64_t segments_out() const { return segments_out_; }
  uint64_t events_out() const { return events_out_; }
  // Segments discarded on RX because the TCP checksum would not verify
  // (Packet::corrupt carries kCorruptL4 from wire fault injection).
  uint64_t rx_checksum_drops() const { return rx_checksum_drops_; }

 protected:
  Cycles CostFor(const Msg& msg) override;
  void Handle(const Msg& msg) override;
  void OnCrash() override;
  void OnRestart() override;

 private:
  struct SockId {
    uint32_t app = 0;
    uint64_t handle = 0;
    friend bool operator==(const SockId&, const SockId&) = default;
  };
  struct SockIdHash {
    size_t operator()(const SockId& s) const {
      return std::hash<uint64_t>()(s.handle * 0x9e3779b97f4a7c15ULL ^ s.app);
    }
  };

  void MakeHost();
  // Hooks for sockets of app `id.app`. Only a listener's accepted
  // connections read `id`; a connecting socket is already in by_conn_.
  TcpHost::AppHooks HooksFor(SockId id);
  void QueueEvent(Msg evt);
  void HandleSockRequest(const Msg& msg);

  Ipv4Addr addr_;
  TcpCosts costs_;
  TcpParams tcp_params_;
  Chan* rx_in_ = nullptr;
  Chan* app_in_ = nullptr;
  Chan* ip_tx_ = nullptr;

  // Every active open borrows this one set (declared before host_, which
  // holds the connections that point at it).
  TcpHost::AppHooks connect_hooks_ = HooksFor(SockId{});
  std::unique_ptr<TcpHost> host_;
  RingDeque<PacketPtr> pending_tx_;
  RingDeque<Msg> pending_evt_;

  std::vector<Chan*> apps_;  // index = app id
  std::unordered_map<SockId, TcpConnection*, SockIdHash> by_sock_;
  std::unordered_map<TcpConnection*, SockId> by_conn_;
  struct ListenEntry {
    uint16_t tcp_port = 0;
    uint32_t app = 0;
  };
  std::vector<ListenEntry> listeners_;  // recovery set
  uint64_t next_accept_handle_ = (1ULL << 62);
  uint32_t shard_index_ = 0;
  uint32_t shard_count_ = 1;

  bool checkpointing_ = false;
  uint64_t segments_in_ = 0;
  uint64_t segments_out_ = 0;
  uint64_t events_out_ = 0;
  uint64_t rx_checksum_drops_ = 0;
};

}  // namespace newtos

#endif  // SRC_OS_TCP_SERVER_H_
