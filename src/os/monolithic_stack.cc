#include "src/os/monolithic_stack.h"

#include <cassert>
#include <utility>

namespace newtos {

MonolithicStack::MonolithicStack(Simulation* sim, Machine* machine, int core_index, Ipv4Addr addr,
                                 MonolithicCosts costs, TcpParams tcp_params)
    : Server(sim, "monolithic"),
      addr_(addr),
      costs_(costs),
      tcp_params_(tcp_params),
      nic_(machine->nic()) {
  BindCore(machine->core(core_index));

  host_ = std::make_unique<TcpHost>(sim, addr_, [this](PacketPtr p) {
    pending_tx_.push_back(std::move(p));
    MaybeSchedule();
  });

  // NIC RX ring (softirq-equivalent work source).
  AddWorkSource(WorkSource{
      .has_work = [this] { return nic_->rx_pending() > 0; },
      .take =
          [this] {
            Msg m;
            m.type = MsgType::kPacketRx;
            m.packet = nic_->PollRx();
            return m;
          },
      .overhead_cycles = 150,
  });
  nic_->SetRxNotify([this] { MaybeSchedule(); });

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
  AddWorkSource(WorkSource{
      .has_work = [this] { return !pending_req_.empty(); },
      .take =
          [this] {
            Msg m = std::move(pending_req_.front());
            pending_req_.pop_front();
            return m;
          },
      .overhead_cycles = 0,
  });
}

MonolithicStack::Api* MonolithicStack::CreateApp() {
  const uint32_t id = static_cast<uint32_t>(apis_.size());
  apis_.push_back(std::make_unique<Api>(this, id));
  handlers_.emplace_back();
  return apis_.back().get();
}

void MonolithicStack::QueueEvent(Msg evt) {
  pending_evt_.push_back(std::move(evt));
  MaybeSchedule();
}

void MonolithicStack::SubmitRequest(Msg msg) {
  pending_req_.push_back(std::move(msg));
  MaybeSchedule();
}

TcpHost::AppHooks MonolithicStack::HooksFor(SockId id) {
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
      evt.port = c->key().src_port;
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
    // Deferred reap on the host's own wheel (see TcpServer for rationale).
    host_->ScheduleReap();
  };
  return hooks;
}

Cycles MonolithicStack::CostFor(const Msg& msg) {
  switch (msg.type) {
    case MsgType::kPacketRx:
      return costs_.rx_path;
    case MsgType::kPacketTx:
      return costs_.tx_path;
    case MsgType::kSockConnect:
    case MsgType::kSockListen:
    case MsgType::kSockSend:
    case MsgType::kSockClose:
    case MsgType::kSockRead:
      return costs_.syscall;
    default:
      return costs_.evt_deliver;
  }
}

void MonolithicStack::HandleSockRequest(const Msg& msg) {
  const SockId id{msg.app, msg.handle};
  switch (msg.type) {
    case MsgType::kSockConnect: {
      TcpConnection* conn = host_->Connect(msg.addr, msg.port, connect_hooks_, tcp_params_);
      if (conn != nullptr) {
        by_sock_[id] = conn;
        by_conn_[conn] = id;
      }
      break;
    }
    case MsgType::kSockListen:
      host_->Listen(msg.port, HooksFor(SockId{msg.app, 0}), tcp_params_);
      break;
    case MsgType::kSockSend: {
      auto it = by_sock_.find(id);
      if (it != by_sock_.end()) {
        it->second->Send(msg.value);
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
    default:
      break;
  }
}

void MonolithicStack::Handle(const Msg& msg) {
  switch (msg.type) {
    case MsgType::kPacketRx:
      if (msg.packet->corrupt != 0) {
        ++rx_checksum_drops_;  // fused path verifies IP and L4 in one pass
        break;
      }
      ++packets_in_;
      if (msg.packet->ip.dst == addr_ && msg.packet->ip.proto == IpProto::kTcp) {
        host_->OnPacket(msg.packet);
      }
      break;
    case MsgType::kPacketTx:
      ++packets_out_;
      nic_->Transmit(msg.packet);
      break;
    case MsgType::kEvtAccepted:
    case MsgType::kEvtEstablished:
    case MsgType::kEvtData:
    case MsgType::kEvtDrained:
    case MsgType::kEvtClosed:
      assert(msg.app < handlers_.size());
      if (handlers_[msg.app]) {
        handlers_[msg.app](msg);
      }
      break;
    default:
      HandleSockRequest(msg);
      break;
  }
}

// --- Api ---

void MonolithicStack::Api::SetEventHandler(std::function<void(const Msg&)> handler) {
  stack_->handlers_[app_id_] = std::move(handler);
}

uint64_t MonolithicStack::Api::Connect(Ipv4Addr dst, uint16_t port) {
  const uint64_t handle = stack_->next_handle_++;
  Msg m;
  m.type = MsgType::kSockConnect;
  m.handle = handle;
  m.addr = dst;
  m.port = port;
  m.app = app_id_;
  stack_->SubmitRequest(std::move(m));
  return handle;
}

void MonolithicStack::Api::Listen(uint16_t port) {
  Msg m;
  m.type = MsgType::kSockListen;
  m.port = port;
  m.app = app_id_;
  stack_->SubmitRequest(std::move(m));
}

void MonolithicStack::Api::Send(uint64_t handle, uint64_t bytes) {
  Msg m;
  m.type = MsgType::kSockSend;
  m.handle = handle;
  m.value = bytes;
  m.app = app_id_;
  stack_->SubmitRequest(std::move(m));
}

void MonolithicStack::Api::Close(uint64_t handle) {
  Msg m;
  m.type = MsgType::kSockClose;
  m.handle = handle;
  m.app = app_id_;
  stack_->SubmitRequest(std::move(m));
}

void MonolithicStack::Api::Compute(Cycles cycles, std::function<void()> then) {
  Core* core = stack_->core();
  assert(core != nullptr);
  // A null continuation must become an *empty* callback, not a wrapped null
  // std::function (which would look engaged and throw when invoked).
  if (then) {
    core->Execute(cycles, std::move(then));
  } else {
    core->Execute(cycles, InlineCallback());
  }
}

Simulation* MonolithicStack::Api::sim() { return stack_->sim(); }

}  // namespace newtos
