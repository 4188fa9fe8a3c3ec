// Connection table: demultiplexes TCP segments to connections, owns
// listening sockets, and allocates ephemeral ports.
//
// Both ends of every simulated link use this class: the "system under test"
// wraps one inside its TCP server (charging cycle costs per operation), and
// the remote load-generator host uses one directly with zero processing cost
// (an infinitely fast peer, like the dedicated load machines in the paper's
// testbed).

#ifndef SRC_NET_TCP_HOST_H_
#define SRC_NET_TCP_HOST_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/net/packet.h"
#include "src/net/tcp.h"
#include "src/sim/simulation.h"
#include "src/sim/timer_wheel.h"

namespace newtos {

// Flat open-addressing flow table: FlowKey -> owned TcpConnection. Slots hold
// the key inline next to the owner pointer in one power-of-two array, probed
// linearly from the key's home slot, so a lookup touches one or two cache
// lines instead of chasing a node chain. Erase shifts the rest of the probe
// run back (no tombstones); the table grows at 3/4 load and never shrinks.
// DESIGN.md §9.6 covers the layout and invariants.
class FlowTable {
 public:
  FlowTable();
  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;

  // The connection stored under `key`, or nullptr.
  TcpConnection* Find(const FlowKey& key) const {
    const Slot* s = Lookup(key);
    return s != nullptr ? s->conn.get() : nullptr;
  }

  // Stores `conn` under `key`, which must be absent. Returns the raw pointer.
  TcpConnection* Insert(const FlowKey& key, std::unique_ptr<TcpConnection> conn);

  // Destroys the connection stored under `key`. False if there is none.
  bool Erase(const FlowKey& key);

  // Calls fn(TcpConnection*) for every stored connection, in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.conn != nullptr) {
        fn(s.conn.get());
      }
    }
  }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

  // Where `key`'s probe run starts in a table of `capacity` slots: the top
  // bits of FlowKeyHash, the best-mixed ones of its multiplicative hash.
  static size_t HomeSlot(const FlowKey& key, size_t capacity);

 private:
  struct Slot {
    FlowKey key;
    std::unique_ptr<TcpConnection> conn;  // nullptr = empty slot
  };

  const Slot* Lookup(const FlowKey& key) const;
  // Puts `conn` in the first free slot of `key`'s probe run (no size check).
  TcpConnection* Place(const FlowKey& key, std::unique_ptr<TcpConnection> conn);
  void Grow();

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

class TcpHost {
 public:
  // `output` transmits a segment toward the peer (wire, or the stack below).
  TcpHost(Simulation* sim, Ipv4Addr addr, std::function<void(PacketPtr)> output);

  TcpHost(const TcpHost&) = delete;
  TcpHost& operator=(const TcpHost&) = delete;

  Ipv4Addr addr() const { return addr_; }

  // Application hooks for a connection created by Connect or by a listener.
  // Connections never copy them: each one points at a set that outlives it.
  using AppHooks = TcpConnection::AppHooks;

  // Starts accepting connections on `port`. The host keeps a copy of `hooks`
  // for as long as it lives, and every accepted connection points at it.
  // Returns false if the port is already bound.
  bool Listen(uint16_t port, AppHooks hooks, const TcpParams& params = {});

  // Active open to dst:dst_port from an ephemeral local port. The connection
  // borrows `hooks`: the caller keeps that object alive (and may reassign
  // its members) for as long as the connection exists. When `key_filter` is
  // set, only ephemeral ports whose resulting flow key satisfies it are used
  // — how a sharded stack picks source ports that RSS back to the issuing
  // shard.
  TcpConnection* Connect(Ipv4Addr dst, uint16_t dst_port, const AppHooks& hooks,
                         const TcpParams& params = {},
                         const std::function<bool(const FlowKey&)>& key_filter = {});
  // A temporary hook set would be gone before the connection's first event.
  TcpConnection* Connect(Ipv4Addr dst, uint16_t dst_port, AppHooks&& hooks,
                         const TcpParams& params = {},
                         const std::function<bool(const FlowKey&)>& key_filter = {}) = delete;

  // Input from the wire/stack. Creates a connection on SYN to a bound
  // listener; otherwise demuxes to the matching connection (or drops).
  void OnPacket(const PacketPtr& p);

  // The connection whose local end is `key.src_*`, or nullptr.
  TcpConnection* Find(const FlowKey& key) const { return conns_.Find(key); }

  // Destroys a connection object (after kClosed). Invalidates the pointer.
  void Destroy(TcpConnection* conn);

  // Removes every closed connection from the table (periodic GC in long
  // runs) and returns how many it removed. Costs O(connections closed since
  // the last reap), not O(table).
  size_t ReapClosed();

  // Schedules a ReapClosed for "now" on the host's own timer wheel. Safe to
  // call from a connection callback (the reap runs after the current event);
  // the node dies with the host, so a crash that replaces the host can never
  // leave a dangling reap behind.
  void ScheduleReap();

  // The wheel all of this host's connection timers live on. One pending
  // simulation event services every armed timer on the host.
  TimerWheel* wheel() { return &wheel_; }

  size_t connection_count() const { return conns_.size(); }
  uint64_t dropped_no_match() const { return dropped_no_match_; }

  // Enumerates the table's connections (closed ones until they are reaped),
  // sorted by FlowKey.
  std::vector<TcpConnection*> Connections() const;

 private:
  struct Listener {
    AppHooks hooks;  // accepted connections point here
    const TcpParams* params;
  };

  // A connection that reached kClosed: its key, and the pointer it had then
  // (compared against the table's slot, never dereferenced).
  struct ClosedEntry {
    FlowKey key;
    const TcpConnection* conn;
  };

  TcpConnection* CreateConnection(const FlowKey& key, const TcpParams* params,
                                  const AppHooks* hooks);

  // The host's copy of `params`, made on the first request for that value.
  const TcpParams* Intern(const TcpParams& params);

  static void Output(void* arg, PacketPtr p) { static_cast<TcpHost*>(arg)->output_(std::move(p)); }

  static void ReapFired(void* arg) { static_cast<TcpHost*>(arg)->ReapClosed(); }
  static void ConnClosed(void* arg, TcpConnection* conn) {
    static_cast<TcpHost*>(arg)->closed_.push_back({conn->key(), conn});
  }

  Simulation* sim_;
  Ipv4Addr addr_;
  std::function<void(PacketPtr)> output_;
  // Declared before conns_: connections cancel their timer nodes out of the
  // wheel in their destructors, so they must be destroyed first.
  TimerWheel wheel_;
  TimerNode reap_node_{&TcpHost::ReapFired, this};
  // Connections point into both of these, so entries never move: the map's
  // nodes are stable across rehash, and the list never relocates.
  std::unordered_map<uint16_t, Listener> listeners_;
  std::list<TcpParams> interned_params_;  // one per distinct value, never erased
  FlowTable conns_;
  std::vector<ClosedEntry> closed_;  // since the last ReapClosed
  uint16_t next_ephemeral_ = 49152;
  uint64_t dropped_no_match_ = 0;
};

}  // namespace newtos

#endif  // SRC_NET_TCP_HOST_H_
