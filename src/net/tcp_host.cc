#include "src/net/tcp_host.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "src/sim/logger.h"

namespace newtos {

namespace {

constexpr size_t kInitialFlowSlots = 16;

}  // namespace

FlowTable::FlowTable() : slots_(kInitialFlowSlots), mask_(kInitialFlowSlots - 1) {}

size_t FlowTable::HomeSlot(const FlowKey& key, size_t capacity) {
  assert(capacity >= 2 && (capacity & (capacity - 1)) == 0);
  const uint64_t h = FlowKeyHash{}(key);
  return static_cast<size_t>(h >> (64 - std::countr_zero(capacity)));
}

const FlowTable::Slot* FlowTable::Lookup(const FlowKey& key) const {
  // Load never exceeds 3/4, so an empty slot always ends the probe.
  for (size_t i = HomeSlot(key, slots_.size());; i = (i + 1) & mask_) {
    const Slot& s = slots_[i];
    if (s.conn == nullptr) {
      return nullptr;
    }
    if (s.key == key) {
      return &s;
    }
  }
}

TcpConnection* FlowTable::Insert(const FlowKey& key, std::unique_ptr<TcpConnection> conn) {
  assert(conn != nullptr && Find(key) == nullptr);
  if ((size_ + 1) * 4 > slots_.size() * 3) {
    Grow();
  }
  ++size_;
  return Place(key, std::move(conn));
}

TcpConnection* FlowTable::Place(const FlowKey& key, std::unique_ptr<TcpConnection> conn) {
  size_t i = HomeSlot(key, slots_.size());
  while (slots_[i].conn != nullptr) {
    i = (i + 1) & mask_;
  }
  slots_[i].key = key;
  slots_[i].conn = std::move(conn);
  return slots_[i].conn.get();
}

bool FlowTable::Erase(const FlowKey& key) {
  const Slot* found = Lookup(key);
  if (found == nullptr) {
    return false;
  }
  size_t hole = static_cast<size_t>(found - slots_.data());
  slots_[hole].conn.reset();
  --size_;
  // Backward shift: walk the rest of the probe run and move back every entry
  // whose home slot does not lie cyclically in (hole, j], i.e. every entry
  // the hole would otherwise cut off from its home.
  for (size_t j = (hole + 1) & mask_; slots_[j].conn != nullptr; j = (j + 1) & mask_) {
    const size_t home = HomeSlot(slots_[j].key, slots_.size());
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      slots_[hole].key = slots_[j].key;
      slots_[hole].conn = std::move(slots_[j].conn);
      hole = j;
    }
  }
  return true;
}

void FlowTable::Grow() {
  std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(slots_.size() * 2));
  mask_ = slots_.size() - 1;
  for (Slot& s : old) {
    if (s.conn != nullptr) {
      Place(s.key, std::move(s.conn));
    }
  }
}

TcpHost::TcpHost(Simulation* sim, Ipv4Addr addr, std::function<void(PacketPtr)> output)
    : sim_(sim), addr_(addr), output_(std::move(output)), wheel_(sim) {
  assert(output_);
}

bool TcpHost::Listen(uint16_t port, AppHooks hooks, const TcpParams& params) {
  if (listeners_.contains(port)) {
    return false;
  }
  listeners_.emplace(port, Listener{std::move(hooks), Intern(params)});
  return true;
}

const TcpParams* TcpHost::Intern(const TcpParams& params) {
  // Hosts see one or two distinct values, so a linear scan is the lookup.
  for (const TcpParams& p : interned_params_) {
    if (p == params) {
      return &p;
    }
  }
  return &interned_params_.emplace_back(params);
}

TcpConnection* TcpHost::CreateConnection(const FlowKey& key, const TcpParams* params,
                                         const AppHooks* hooks) {
  const TcpConnection::Callbacks cb{.hooks = hooks,
                                    .output = &TcpHost::Output,
                                    .owner_closed = &TcpHost::ConnClosed,
                                    .owner_arg = this};
  return conns_.Insert(key, std::make_unique<TcpConnection>(sim_, &wheel_, key, params, cb));
}

TcpConnection* TcpHost::Connect(Ipv4Addr dst, uint16_t dst_port, const AppHooks& hooks,
                                const TcpParams& params,
                                const std::function<bool(const FlowKey&)>& key_filter) {
  const TcpParams* interned = Intern(params);
  // Find a free ephemeral port (wraps within the dynamic range) whose flow
  // key passes the filter, if any.
  for (int attempts = 0; attempts < 16384; ++attempts) {
    const uint16_t port = next_ephemeral_;
    next_ephemeral_ = next_ephemeral_ >= 65535 ? 49152 : next_ephemeral_ + 1;
    const FlowKey key{addr_, dst, port, dst_port};
    if (key_filter && !key_filter(key)) {
      continue;
    }
    if (conns_.Find(key) == nullptr) {
      TcpConnection* conn = CreateConnection(key, interned, &hooks);
      conn->Connect();
      return conn;
    }
  }
  return nullptr;  // ephemeral range exhausted (or the filter rejected it all)
}

void TcpHost::OnPacket(const PacketPtr& p) {
  if (p->ip.proto != IpProto::kTcp || p->ip.dst != addr_) {
    ++dropped_no_match_;
    return;
  }
  // Our flow key is the reverse of the packet's.
  const FlowKey key = PacketFlowKey(*p).Reversed();
  if (TcpConnection* conn = conns_.Find(key)) {
    conn->OnSegment(*p);
    return;
  }
  if (p->tcp.syn() && !p->tcp.ack_flag()) {
    auto lit = listeners_.find(p->tcp.dst_port);
    if (lit != listeners_.end()) {
      TcpConnection* conn = CreateConnection(key, lit->second.params, &lit->second.hooks);
      conn->Listen();
      conn->OnSegment(*p);
      return;
    }
  }
  ++dropped_no_match_;
  NEWTOS_LOG(kTrace, sim_->Now(), "tcphost", "no match for " << p->ToString());
}

void TcpHost::Destroy(TcpConnection* conn) {
  assert(conn != nullptr && conns_.Find(conn->key()) == conn);
  conns_.Erase(conn->key());
}

size_t TcpHost::ReapClosed() {
  // Every connection reaches kClosed through ToClosed, which lists it here.
  // An entry is stale when Destroy() freed that connection (its slot is gone
  // or holds a newer one) or when it left kClosed again; stale entries are
  // dropped. Only connections the table still owns are dereferenced.
  size_t reaped = 0;
  for (const ClosedEntry& e : closed_) {
    const TcpConnection* conn = conns_.Find(e.key);
    if (conn == e.conn && conn->state() == TcpState::kClosed) {
      conns_.Erase(e.key);
      ++reaped;
    }
  }
  closed_.clear();
  return reaped;
}

void TcpHost::ScheduleReap() { wheel_.Arm(&reap_node_, sim_->Now()); }

std::vector<TcpConnection*> TcpHost::Connections() const {
  std::vector<TcpConnection*> out;
  out.reserve(conns_.size());
  conns_.ForEach([&out](TcpConnection* conn) { out.push_back(conn); });
  // Slot order follows the hash; callers iterate this list to fold
  // per-connection stats and drive campaigns, so normalize to flow-key order.
  std::sort(out.begin(), out.end(), [](const TcpConnection* a, const TcpConnection* b) {
    const FlowKey& ka = a->key();
    const FlowKey& kb = b->key();
    if (ka.src_ip != kb.src_ip) return ka.src_ip < kb.src_ip;
    if (ka.dst_ip != kb.dst_ip) return ka.dst_ip < kb.dst_ip;
    if (ka.src_port != kb.src_port) return ka.src_port < kb.src_port;
    return ka.dst_port < kb.dst_port;
  });
  return out;
}

}  // namespace newtos
