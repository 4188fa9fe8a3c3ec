#include "src/workload/iperf.h"

namespace newtos {

// --- IperfSender ---

IperfSender::IperfSender(SocketApi* api, const Params& params) : api_(api), params_(params) {
  api_->SetEventHandler([this](const Msg& m) { OnEvent(m); });
}

void IperfSender::Start() {
  for (int i = 0; i < params_.connections; ++i) {
    api_->Connect(params_.dst, params_.port);
  }
}

void IperfSender::OnEvent(const Msg& m) {
  switch (m.type) {
    case MsgType::kEvtEstablished:
      ++established_;
      // Two outstanding bursts (double buffering): the refill submitted on
      // each drained notification overlaps the drain of the other burst, so
      // the pipe never empties while the notification crosses the channels.
      api_->Send(m.handle, params_.burst_bytes);
      api_->Send(m.handle, params_.burst_bytes);
      bytes_submitted_ += 2 * params_.burst_bytes;
      break;
    case MsgType::kEvtDrained:
      // Pipe ran dry: top it up two bursts deep again.
      api_->Send(m.handle, params_.burst_bytes);
      api_->Send(m.handle, params_.burst_bytes);
      bytes_submitted_ += 2 * params_.burst_bytes;
      break;
    default:
      break;
  }
}

// --- IperfPeerSink ---

IperfPeerSink::IperfPeerSink(PeerHost* peer, uint16_t port) {
  TcpHost::AppHooks hooks;
  hooks.on_data = [this](TcpConnection*, uint32_t bytes) {
    total_bytes_ += bytes;
    window_.Add(1, bytes);
  };
  peer->tcp().Listen(port, hooks, peer->tcp_params());
}

// --- IperfPeerSender ---

IperfPeerSender::IperfPeerSender(PeerHost* peer, const Params& params)
    : peer_(peer), params_(params) {}

void IperfPeerSender::Start() {
  hooks_.on_established = [this](TcpConnection* c) {
    c->Send(params_.burst_bytes);
    bytes_submitted_ += params_.burst_bytes;
  };
  hooks_.on_drained = [this](TcpConnection* c) {
    c->Send(params_.burst_bytes);
    bytes_submitted_ += params_.burst_bytes;
  };
  for (int i = 0; i < params_.connections; ++i) {
    peer_->tcp().Connect(params_.sut, params_.port, hooks_, peer_->tcp_params());
  }
}

// --- IperfSutSink ---

IperfSutSink::IperfSutSink(SocketApi* api, uint16_t port) : api_(api), port_(port) {
  api_->SetEventHandler([this](const Msg& m) { OnEvent(m); });
}

void IperfSutSink::Start() { api_->Listen(port_); }

void IperfSutSink::OnEvent(const Msg& m) {
  if (m.type == MsgType::kEvtData) {
    total_bytes_ += m.value;
    window_.Add(1, m.value);
  }
}

}  // namespace newtos
