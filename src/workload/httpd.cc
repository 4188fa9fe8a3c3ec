#include "src/workload/httpd.h"

namespace newtos {

// --- HttpServerApp ---

HttpServerApp::HttpServerApp(SocketApi* api, const HttpParams& params)
    : api_(api), params_(params) {
  api_->SetEventHandler([this](const Msg& m) { OnEvent(m); });
}

void HttpServerApp::Start() { api_->Listen(params_.port); }

void HttpServerApp::OnEvent(const Msg& m) {
  switch (m.type) {
    case MsgType::kEvtAccepted:
      conns_[m.handle] = ConnState{params_.request_bytes};
      break;
    case MsgType::kEvtData: {
      auto it = conns_.find(m.handle);
      if (it == conns_.end()) {
        return;
      }
      ConnState& st = it->second;
      uint64_t bytes = m.value;
      while (bytes > 0) {
        if (bytes < st.request_bytes_pending) {
          st.request_bytes_pending -= bytes;
          bytes = 0;
        } else {
          bytes -= st.request_bytes_pending;
          st.request_bytes_pending = params_.request_bytes;  // re-arm for the next one
          const uint64_t handle = m.handle;
          // Full request received: compute, then respond.
          api_->Compute(params_.server_compute_cycles, [this, handle] {
            api_->Send(handle, params_.response_bytes);
            ++requests_served_;
            if (!params_.keep_alive) {
              api_->Close(handle);  // FIN after the queued response drains
            }
          });
        }
      }
      break;
    }
    case MsgType::kEvtClosed:
      conns_.erase(m.handle);
      break;
    default:
      break;
  }
}

// --- HttpPeerClient ---

HttpPeerClient::HttpPeerClient(PeerHost* peer, Ipv4Addr sut, const HttpParams& params)
    : peer_(peer), sut_(sut), params_(params) {
  hooks_.on_established = [this](TcpConnection* c) {
    conns_[c] = ConnState{};
    SendRequest(c);
  };
  hooks_.on_data = [this](TcpConnection* c, uint32_t bytes) {
    auto it = conns_.find(c);
    if (it == conns_.end()) {
      return;
    }
    ConnState& st = it->second;
    uint64_t got = bytes;
    while (got > 0 && st.response_bytes_pending > 0) {
      const uint64_t used = got < st.response_bytes_pending ? got : st.response_bytes_pending;
      st.response_bytes_pending -= used;
      got -= used;
      if (st.response_bytes_pending == 0) {
        ++responses_;
        latency_.Record(peer_->sim()->Now() - st.request_sent_at);
        window_.Add(1, params_.response_bytes);
        if (params_.keep_alive) {
          SendRequest(c);  // next request on the same connection
        } else {
          conns_.erase(c);
          c->CloseSend();
          OpenConnection();  // churn: a fresh connection per request
        }
      }
    }
  };
  hooks_.on_closed = [this](TcpConnection* c) { conns_.erase(c); };
}

void HttpPeerClient::Start() {
  for (int i = 0; i < params_.concurrency; ++i) {
    OpenConnection();
  }
}

void HttpPeerClient::OpenConnection() {
  ++connections_opened_;
  if (!params_.keep_alive && connections_opened_ % 64 == 0) {
    peer_->tcp().ReapClosed();  // periodic TIME_WAIT garbage collection
  }
  peer_->tcp().Connect(sut_, params_.port, hooks_, peer_->tcp_params());
}

void HttpPeerClient::SendRequest(TcpConnection* c) {
  ConnState& st = conns_[c];
  st.response_bytes_pending = params_.response_bytes;
  st.request_sent_at = peer_->sim()->Now();
  c->Send(params_.request_bytes);
}

}  // namespace newtos
