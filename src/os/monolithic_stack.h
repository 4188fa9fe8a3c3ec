// MonolithicStack: the Linux-like baseline — the same protocol code, but
// executed on the application's own core with syscall-crossing costs.
//
// Architecture under comparison:
//   multiserver: app core runs only the app; stack stages run on their own
//     (possibly slower) cores and talk through channels.
//   monolithic: one core runs the app AND the whole stack; packets cost the
//     fused rx/tx path, socket calls cost a trap, and app compute competes
//     with protocol processing for the same cycles.
//
// Implemented as a Server pinned to the app core so that stack work and app
// Compute() serialize through the same FIFO executor, exactly like softirqs
// and userspace sharing a CPU.

#ifndef SRC_OS_MONOLITHIC_STACK_H_
#define SRC_OS_MONOLITHIC_STACK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/hw/machine.h"
#include "src/net/tcp_host.h"
#include "src/os/costs.h"
#include "src/os/server.h"
#include "src/os/socket_api.h"
#include "src/sim/ring_deque.h"

namespace newtos {

// Fused in-kernel path costs (no channel hops, no per-stage dequeues — the
// monolithic design's advantage), roughly matching the sum of the
// multiserver stages' work.
struct MonolithicCosts {
  Cycles rx_path = 3200;
  Cycles tx_path = 2300;
  Cycles syscall = 1400;      // trap entry/exit + copyin for a socket call
  Cycles evt_deliver = 400;   // wakeup + copyout to the application
};

class MonolithicStack : public Server {
 public:
  MonolithicStack(Simulation* sim, Machine* machine, int core_index, Ipv4Addr addr,
                  MonolithicCosts costs = {}, TcpParams tcp_params = {});

  // Per-application view; owned by the stack. All apps share the core.
  class Api : public SocketApi {
   public:
    Api(MonolithicStack* stack, uint32_t app_id) : stack_(stack), app_id_(app_id) {}
    void SetEventHandler(std::function<void(const Msg&)> handler) override;
    uint64_t Connect(Ipv4Addr dst, uint16_t port) override;
    void Listen(uint16_t port) override;
    void Send(uint64_t handle, uint64_t bytes) override;
    void Close(uint64_t handle) override;
    void Compute(Cycles cycles, std::function<void()> then) override;
    Simulation* sim() override;

   private:
    MonolithicStack* stack_;
    uint32_t app_id_;
  };

  Api* CreateApp();

  TcpHost& host() { return *host_; }
  Core* app_core() { return core(); }
  const MonolithicCosts& costs() const { return costs_; }
  uint64_t packets_in() const { return packets_in_; }
  uint64_t packets_out() const { return packets_out_; }
  // Inbound packets discarded because a checksum would not verify.
  uint64_t rx_checksum_drops() const { return rx_checksum_drops_; }

 protected:
  Cycles CostFor(const Msg& msg) override;
  void Handle(const Msg& msg) override;

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

  void QueueEvent(Msg evt);
  void SubmitRequest(Msg msg);
  // Hooks for sockets of app `id.app`. Only a listener's accepted
  // connections read `id`; a connecting socket is already in by_conn_.
  TcpHost::AppHooks HooksFor(SockId id);
  void HandleSockRequest(const Msg& msg);

  Ipv4Addr addr_;
  MonolithicCosts costs_;
  TcpParams tcp_params_;
  Nic* nic_;

  // Every active open borrows this one set (declared before host_, which
  // holds the connections that point at it).
  TcpHost::AppHooks connect_hooks_ = HooksFor(SockId{});
  std::unique_ptr<TcpHost> host_;
  RingDeque<PacketPtr> pending_tx_;
  RingDeque<Msg> pending_evt_;
  RingDeque<Msg> pending_req_;

  std::vector<std::unique_ptr<Api>> apis_;
  std::vector<std::function<void(const Msg&)>> handlers_;
  std::unordered_map<SockId, TcpConnection*, SockIdHash> by_sock_;
  std::unordered_map<TcpConnection*, SockId> by_conn_;
  uint64_t next_handle_ = 1;
  uint64_t next_accept_handle_ = (1ULL << 62);

  uint64_t packets_in_ = 0;
  uint64_t packets_out_ = 0;
  uint64_t rx_checksum_drops_ = 0;
};

}  // namespace newtos

#endif  // SRC_OS_MONOLITHIC_STACK_H_
