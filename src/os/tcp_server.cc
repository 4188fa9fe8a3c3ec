#include "src/os/tcp_server.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/sim/logger.h"

namespace newtos {

TcpServer::TcpServer(Simulation* sim, Ipv4Addr addr, const TcpCosts& costs,
                     const TcpParams& tcp_params, size_t chan_capacity,
                     const ChannelCostModel& chan_cost)
    : Server(sim, "tcp"), addr_(addr), costs_(costs), tcp_params_(tcp_params) {
  rx_in_ = CreateInput("rx", chan_capacity, chan_cost);
  app_in_ = CreateInput("app", chan_capacity, chan_cost);

  // Internal source: segments generated by the protocol state machines.
  AddWorkSource(WorkSource{
      .has_work = [this] { return !pending_tx_.empty(); },
      .take =
          [this] {
            Msg m;
            m.type = MsgType::kPacketTx;
            m.packet = std::move(pending_tx_.front());
            pending_tx_.pop_front();
            return m;
          },
      .overhead_cycles = 0,
  });
  // Internal source: application events awaiting delivery.
  AddWorkSource(WorkSource{
      .has_work = [this] { return !pending_evt_.empty(); },
      .take =
          [this] {
            Msg m = std::move(pending_evt_.front());
            pending_evt_.pop_front();
            return m;
          },
      .overhead_cycles = 0,
  });

  MakeHost();
}

void TcpServer::MakeHost() {
  host_ = std::make_unique<TcpHost>(sim(), addr_, [this](PacketPtr p) {
    pending_tx_.push_back(std::move(p));
    MaybeSchedule();
  });
}

void TcpServer::set_shard(uint32_t index, uint32_t count) {
  assert(index < count && count <= 0x3fff);
  shard_index_ = index;
  shard_count_ = count;
  next_accept_handle_ = (1ULL << 62) | (static_cast<uint64_t>(index) << 48);
}

uint32_t TcpServer::RegisterApp(Chan* app_events) {
  apps_.push_back(app_events);
  return static_cast<uint32_t>(apps_.size() - 1);
}

void TcpServer::QueueEvent(Msg evt) {
  pending_evt_.push_back(std::move(evt));
  MaybeSchedule();
}

TcpHost::AppHooks TcpServer::HooksFor(SockId id) {
  // `id.handle == 0` marks listener hooks: connections arriving there get a
  // server-assigned handle on first establishment.
  TcpHost::AppHooks hooks;
  hooks.on_established = [this, id](TcpConnection* c) {
    auto it = by_conn_.find(c);
    Msg evt;
    if (it == by_conn_.end()) {
      const SockId assigned{id.app, next_accept_handle_++};
      by_conn_[c] = assigned;
      by_sock_[assigned] = c;
      evt.type = MsgType::kEvtAccepted;
      evt.handle = assigned.handle;
      evt.app = assigned.app;
      evt.port = c->key().src_port;  // the listening port
    } else {
      evt.type = MsgType::kEvtEstablished;
      evt.handle = it->second.handle;
      evt.app = it->second.app;
    }
    QueueEvent(std::move(evt));
  };
  hooks.on_data = [this](TcpConnection* c, uint32_t bytes) {
    auto it = by_conn_.find(c);
    if (it == by_conn_.end()) {
      return;
    }
    Msg evt;
    evt.type = MsgType::kEvtData;
    evt.handle = it->second.handle;
    evt.app = it->second.app;
    evt.value = bytes;
    QueueEvent(std::move(evt));
  };
  hooks.on_drained = [this](TcpConnection* c) {
    auto it = by_conn_.find(c);
    if (it == by_conn_.end()) {
      return;
    }
    Msg evt;
    evt.type = MsgType::kEvtDrained;
    evt.handle = it->second.handle;
    evt.app = it->second.app;
    QueueEvent(std::move(evt));
  };
  hooks.on_closed = [this](TcpConnection* c) {
    auto it = by_conn_.find(c);
    if (it == by_conn_.end()) {
      return;
    }
    Msg evt;
    evt.type = MsgType::kEvtClosed;
    evt.handle = it->second.handle;
    evt.app = it->second.app;
    by_sock_.erase(it->second);
    by_conn_.erase(it);
    QueueEvent(std::move(evt));
    // Deferred reap: never delete a connection from inside its own callback.
    // Armed on the host's own wheel so a crash-time host replacement takes
    // the pending reap down with it.
    host_->ScheduleReap();
  };
  return hooks;
}

Cycles TcpServer::CostFor(const Msg& msg) {
  switch (msg.type) {
    case MsgType::kPacketRx:
      return costs_.rx_segment;
    case MsgType::kPacketTx:
      return costs_.tx_segment;
    case MsgType::kSockConnect:
    case MsgType::kSockListen:
    case MsgType::kSockSend:
    case MsgType::kSockClose:
    case MsgType::kSockRead:
      return costs_.sock_op;
    default:
      return costs_.evt_deliver;
  }
}

void TcpServer::HandleSockRequest(const Msg& msg) {
  const SockId id{msg.app, msg.handle};
  switch (msg.type) {
    case MsgType::kSockConnect: {
      std::function<bool(const FlowKey&)> filter;
      if (shard_count_ > 1) {
        filter = [this](const FlowKey& key) {
          return SymmetricFlowHash(key) % shard_count_ == shard_index_;
        };
      }
      TcpConnection* conn = host_->Connect(msg.addr, msg.port, connect_hooks_, tcp_params_, filter);
      if (conn != nullptr) {
        by_sock_[id] = conn;
        by_conn_[conn] = id;
      }
      break;
    }
    case MsgType::kSockListen: {
      if (host_->Listen(msg.port, HooksFor(SockId{msg.app, 0}), tcp_params_)) {
        listeners_.push_back(ListenEntry{msg.port, msg.app});
      }
      break;
    }
    case MsgType::kSockSend: {
      auto it = by_sock_.find(id);
      if (it != by_sock_.end()) {
        it->second->Send(msg.value);
      } else {
        Msg evt;
        evt.type = MsgType::kEvtClosed;
        evt.handle = msg.handle;
        evt.app = msg.app;
        QueueEvent(std::move(evt));  // the connection died (e.g. in a crash)
      }
      break;
    }
    case MsgType::kSockClose: {
      auto it = by_sock_.find(id);
      if (it != by_sock_.end()) {
        it->second->CloseSend();
      }
      break;
    }
    case MsgType::kSockRead: {
      auto it = by_sock_.find(id);
      if (it != by_sock_.end()) {
        it->second->Read(msg.value);
      }
      break;
    }
    default:
      break;
  }
}

void TcpServer::Handle(const Msg& msg) {
  switch (msg.type) {
    case MsgType::kPacketRx:
      if (msg.packet->corrupt != 0) {
        // TCP checksum mismatch: never reaches the FSM. The check covers any
        // corruption class — the L4 checksum spans the pseudo-header, so
        // damage flagged as IP-level (addresses) fails it too, including
        // damage picked up after the IP server already verified the header.
        ++rx_checksum_drops_;
        break;
      }
      ++segments_in_;
      host_->OnPacket(msg.packet);
      break;
    case MsgType::kPacketTx:
      assert(ip_tx_ != nullptr && "TCP server needs the IP TX channel");
      ++segments_out_;
      Emit(ip_tx_, msg);
      break;
    case MsgType::kEvtAccepted:
    case MsgType::kEvtEstablished:
    case MsgType::kEvtData:
    case MsgType::kEvtDrained:
    case MsgType::kEvtClosed:
      assert(msg.app < apps_.size());
      ++events_out_;
      Emit(apps_[msg.app], msg);
      break;
    default:
      HandleSockRequest(msg);
      break;
  }
}

void TcpServer::OnCrash() {
  pending_tx_.clear();
  if (checkpointing_) {
    // Protocol state survives in the replica; only queued work is lost.
    return;
  }
  pending_evt_.clear();
  // All connections die with the server's address space. Apps are told after
  // the restart (the event queue starts draining again then). by_conn_ is
  // keyed by pointer, so its raw order differs run to run with heap layout;
  // sort by (app, handle) so the post-crash event order is replayable.
  std::vector<SockId> dead;
  dead.reserve(by_conn_.size());
  for (const auto& [conn, id] : by_conn_) {  // lint:allow(map-iteration): order normalized by the sort below
    dead.push_back(id);
  }
  std::sort(dead.begin(), dead.end(), [](const SockId& a, const SockId& b) {
    return a.app != b.app ? a.app < b.app : a.handle < b.handle;
  });
  for (const SockId& id : dead) {
    Msg evt;
    evt.type = MsgType::kEvtClosed;
    evt.handle = id.handle;
    evt.app = id.app;
    pending_evt_.push_back(std::move(evt));
  }
  by_sock_.clear();
  by_conn_.clear();
  MakeHost();  // destroys every TcpConnection (cancelling their timers)
}

void TcpServer::OnRestart() {
  if (!checkpointing_) {
    // The recovery script reinstates listening sockets.
    for (const ListenEntry& l : listeners_) {
      host_->Listen(l.tcp_port, HooksFor(SockId{l.app, 0}), tcp_params_);
    }
  }
  MaybeSchedule();
}

}  // namespace newtos
