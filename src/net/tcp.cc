#include "src/net/tcp.h"

#include <algorithm>
#include <cassert>

#include "src/sim/logger.h"

namespace newtos {
namespace {

constexpr int kMaxRtoBackoff = 12;  // give up after ~2^12 * rto

}  // namespace

const char* TcpStateName(TcpState s) {
  switch (s) {
    case TcpState::kClosed:
      return "CLOSED";
    case TcpState::kListen:
      return "LISTEN";
    case TcpState::kSynSent:
      return "SYN_SENT";
    case TcpState::kSynRcvd:
      return "SYN_RCVD";
    case TcpState::kEstablished:
      return "ESTABLISHED";
    case TcpState::kFinWait1:
      return "FIN_WAIT_1";
    case TcpState::kFinWait2:
      return "FIN_WAIT_2";
    case TcpState::kCloseWait:
      return "CLOSE_WAIT";
    case TcpState::kLastAck:
      return "LAST_ACK";
    case TcpState::kClosing:
      return "CLOSING";
    case TcpState::kTimeWait:
      return "TIME_WAIT";
  }
  return "?";
}

TcpConnection::TcpConnection(Simulation* sim, TimerWheel* wheel, const FlowKey& key,
                             const TcpParams* params, const Callbacks& callbacks)
    : sim_(sim),
      key_(key),
      params_(params),
      cb_(callbacks),
      est_(params_->rto_initial),
      wheel_(wheel),
      rto_node_(&TcpConnection::RtoFired, this),
      delack_node_(&TcpConnection::DelackFired, this),
      persist_node_(&TcpConnection::PersistFired, this),
      time_wait_node_(&TcpConnection::TimeWaitFired, this) {
  assert(params_ != nullptr && "TcpConnection borrows its params");
  assert(cb_.hooks != nullptr && "TcpConnection borrows its hooks (an empty set if none)");
  assert(cb_.output != nullptr && "TcpConnection requires an output function");
  assert(wheel_ != nullptr && "TcpConnection timers live on a TimerWheel");
  iss_ = static_cast<uint32_t>(FlowKeyHash{}(key_));
  snd_una_ = snd_nxt_ = iss_;
  cwnd_ = params_->init_cwnd_segments * params_->mss;
  last_advertised_wnd_ = params_->rcv_wnd;
}

TcpConnection::~TcpConnection() {
  wheel_->Cancel(&rto_node_);
  wheel_->Cancel(&delack_node_);
  wheel_->Cancel(&persist_node_);
  wheel_->Cancel(&time_wait_node_);
}

void TcpConnection::Connect() {
  assert(state_ == TcpState::kClosed);
  state_ = TcpState::kSynSent;
  SendControl(kTcpSyn, snd_nxt_);
  snd_nxt_ = iss_ + 1;
  ArmRto();
}

void TcpConnection::Listen() {
  assert(state_ == TcpState::kClosed);
  state_ = TcpState::kListen;
}

void TcpConnection::Send(uint64_t bytes) {
  if (fin_queued_ || bytes == 0) {
    return;
  }
  send_queue_bytes_ += bytes;
  if (state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait) {
    TrySend();
  }
}

void TcpConnection::CloseSend() {
  if (fin_queued_) {
    return;
  }
  fin_queued_ = true;
  if (state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait) {
    TrySend();
  }
}

void TcpConnection::Abort() {
  if (state_ != TcpState::kClosed && state_ != TcpState::kListen) {
    SendControl(kTcpRst | kTcpAck, snd_nxt_);
  }
  ToClosed();
}

uint32_t TcpConnection::AdvertisedWindow() const {
  if (unread_bytes_ >= params_->rcv_wnd) {
    return 0;
  }
  return params_->rcv_wnd - static_cast<uint32_t>(unread_bytes_);
}

PacketPtr TcpConnection::MakeSegment(uint8_t flags, uint32_t seq, uint32_t payload) {
  PacketPtr p = MakePacket();
  // Every segment of this connection — retransmits included — shares one
  // trace flow id (the first segment's packet id), so tracing can follow the
  // connection end to end even when individual packets are re-made.
  if (trace_flow_ == 0) {
    trace_flow_ = p->id;
  }
  p->trace_id = trace_flow_;
  p->ip.proto = IpProto::kTcp;
  p->ip.src = key_.src_ip;
  p->ip.dst = key_.dst_ip;
  p->tcp.src_port = key_.src_port;
  p->tcp.dst_port = key_.dst_port;
  p->tcp.seq = seq;
  p->tcp.ack = rcv_nxt_;
  p->tcp.flags = flags;
  p->tcp.window = AdvertisedWindow();
  if (params_->sack && (flags & kTcpAck) != 0) {
    // Advertise up to kMaxSackBlocks buffered ranges, newest (highest) first
    // — RFC 2018 requires the block with the most recent arrival to lead,
    // and under sequential arrival behind holes that is the trailing range.
    for (auto it = ooo_.rbegin(); it != ooo_.rend() && p->tcp.n_sack < kMaxSackBlocks; ++it) {
      p->tcp.sack[p->tcp.n_sack].start = irs_ + it->first;
      p->tcp.sack[p->tcp.n_sack].end = irs_ + it->second;
      ++p->tcp.n_sack;
    }
  }
  p->payload_bytes = payload;
  p->created_at = sim_->Now();
  return p;
}

void TcpConnection::InsertRange(std::map<uint32_t, uint32_t>* m, uint32_t start, uint32_t end) {
  if (start >= end) {
    return;
  }
  // Merge with any overlapping/adjacent ranges (keys are relative offsets,
  // so plain unsigned comparison is safe).
  auto it = m->upper_bound(start);
  if (it != m->begin()) {
    auto prev = std::prev(it);
    if (prev->second >= start) {
      start = prev->first;
      end = std::max(end, prev->second);
      it = m->erase(prev);
    }
  }
  while (it != m->end() && it->first <= end) {
    end = std::max(end, it->second);
    it = m->erase(it);
  }
  (*m)[start] = end;
}

void TcpConnection::AbsorbSackBlocks(const TcpHeader& h) {
  for (int i = 0; i < h.n_sack; ++i) {
    const SackBlock& b = h.sack[static_cast<size_t>(i)];
    // Only ranges within the send window make sense.
    if (SeqLt(snd_una_, b.end) && SeqLeq(b.end, snd_nxt_) && SeqLt(b.start, b.end)) {
      InsertRange(&sacked_, b.start - iss_, b.end - iss_);
    }
  }
}

std::optional<std::pair<uint32_t, uint32_t>> TcpConnection::NextHole(uint32_t from) const {
  if (sacked_.empty()) {
    return std::nullopt;  // no selective information: the plain path handles it
  }
  // Only data below the highest SACKed byte is presumed lost; everything
  // above it is still in flight (RFC 6675's rescue rule is out of scope).
  const uint32_t high_sacked = sacked_.rbegin()->second;
  const uint32_t data_end_rel =
      std::min(high_sacked, static_cast<uint32_t>((fin_sent_ ? fin_seq_ : snd_nxt_) - iss_));
  uint32_t start = from;
  // Skip forward past any SACKed run covering `start`.
  auto it = sacked_.upper_bound(start);
  if (it != sacked_.begin()) {
    auto prev = std::prev(it);
    if (prev->second > start) {
      start = prev->second;
    }
  }
  if (start >= data_end_rel) {
    return std::nullopt;
  }
  uint32_t end = data_end_rel;
  it = sacked_.lower_bound(start);
  if (it != sacked_.end() && it->first < end) {
    end = it->first;
  }
  if (end - start > params_->mss) {
    end = start + params_->mss;
  }
  return std::make_pair(start, end);
}

bool TcpConnection::RetransmitNextHole() {
  const uint32_t una_rel = snd_una_ - iss_;
  const auto hole = NextHole(std::max(retran_high_, una_rel));
  if (!hole.has_value()) {
    return false;
  }
  const auto [rel_start, rel_end] = *hole;
  retran_high_ = rel_end;
  est_.OnRetransmit();
  ++stats_.retransmits;
  ++stats_.sack_retransmits;
  Emit(MakeSegment(kTcpAck, iss_ + rel_start, rel_end - rel_start));
  return true;
}

void TcpConnection::Emit(PacketPtr p) {
  ++stats_.segs_sent;
  last_advertised_wnd_ = p->tcp.window;
  cb_.output(cb_.owner_arg, std::move(p));
}

void TcpConnection::SendControl(uint8_t flags, uint32_t seq) { Emit(MakeSegment(flags, seq, 0)); }

void TcpConnection::SendAck(bool forced) {
  if (!forced && params_->delayed_ack && segs_since_ack_ < 2 && ooo_.empty()) {
    if (!delack_node_.armed()) {
      wheel_->Arm(&delack_node_, sim_->Now() + params_->delayed_ack_timeout);
    }
    return;
  }
  wheel_->Cancel(&delack_node_);
  segs_since_ack_ = 0;
  SendControl(kTcpAck, snd_nxt_);
}

uint32_t TcpConnection::UsableWindow() const {
  const uint32_t wnd = std::min(cwnd_, snd_wnd_);
  const uint32_t flight = snd_nxt_ - snd_una_;
  return wnd > flight ? wnd - flight : 0;
}

void TcpConnection::TrySend() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait) {
    return;
  }
  bool sent = false;
  while (send_queue_bytes_ > 0) {
    const uint32_t usable = UsableWindow();
    if (usable == 0) {
      if (snd_wnd_ == 0 && flight_size() == 0) {
        ArmPersist();
      }
      break;
    }
    const uint32_t len = static_cast<uint32_t>(
        std::min<uint64_t>({params_->mss, send_queue_bytes_, usable}));
    uint8_t flags = kTcpAck;
    if (len == send_queue_bytes_) {
      flags |= kTcpPsh;
    }
    PacketPtr seg = MakeSegment(flags, snd_nxt_, len);
    if (!est_.sample_pending()) {
      est_.StartSample(snd_nxt_ + len, sim_->Now());
    }
    snd_nxt_ += len;
    send_queue_bytes_ -= len;
    stats_.bytes_sent += len;
    segs_since_ack_ = 0;  // data segments carry the ACK
    wheel_->Cancel(&delack_node_);
    Emit(std::move(seg));
    sent = true;
  }
  if (sent || send_queue_bytes_ == 0) {
    MaybeFin();
  }
  if (flight_size() > 0 && !rto_node_.armed()) {
    ArmRto();
  }
}

void TcpConnection::MaybeFin() {
  if (!fin_queued_ || fin_sent_ || send_queue_bytes_ > 0) {
    return;
  }
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait) {
    return;
  }
  fin_seq_ = snd_nxt_;
  SendControl(kTcpFin | kTcpAck, snd_nxt_);
  snd_nxt_ += 1;
  fin_sent_ = true;
  state_ = state_ == TcpState::kEstablished ? TcpState::kFinWait1 : TcpState::kLastAck;
  ArmRto();
}

void TcpConnection::EnterEstablished() {
  state_ = TcpState::kEstablished;
  cwnd_ = params_->init_cwnd_segments * params_->mss;
  est_.ResetBackoff();
  tlp_fired_ = false;
  NEWTOS_LOG(kDebug, sim_->Now(), "tcp", "established " << Ipv4ToString(key_.src_ip) << ":"
                                                        << key_.src_port);
  if (cb_.hooks->on_established) {
    cb_.hooks->on_established(this);
  }
  TrySend();
}

void TcpConnection::OnSegment(const Packet& p) {
  assert(p.ip.proto == IpProto::kTcp);
  ++stats_.segs_rcvd;
  if (p.corrupt != 0) {
    ++stats_.corrupt_segments_accepted;  // verification below TCP failed us
  }
  const TcpHeader& h = p.tcp;

  if (h.rst()) {
    if (state_ != TcpState::kClosed && state_ != TcpState::kListen) {
      ToClosed();
    }
    return;
  }

  switch (state_) {
    case TcpState::kClosed:
      return;  // dead connection: ignore (a full stack would RST)

    case TcpState::kListen:
      if (h.syn() && !h.ack_flag()) {
        irs_ = h.seq;
        rcv_nxt_ = h.seq + 1;
        snd_wnd_ = h.window;
        SendControl(kTcpSyn | kTcpAck, snd_nxt_);
        snd_nxt_ = iss_ + 1;
        state_ = TcpState::kSynRcvd;
        ArmRto();
      }
      return;

    case TcpState::kSynSent:
      if (h.syn() && h.ack_flag() && h.ack == snd_nxt_) {
        snd_una_ = h.ack;
        irs_ = h.seq;
        rcv_nxt_ = h.seq + 1;
        snd_wnd_ = h.window;
        DisarmRto();
        SendControl(kTcpAck, snd_nxt_);
        EnterEstablished();
      }
      return;

    case TcpState::kSynRcvd:
      if (h.ack_flag() && h.ack == snd_nxt_) {
        snd_una_ = h.ack;
        snd_wnd_ = h.window;
        DisarmRto();
        EnterEstablished();
        // The ACK may carry data; continue into data processing below only if
        // it does (fall through by reprocessing).
        if (p.payload_bytes > 0 || h.fin()) {
          DeliverInOrder(p);
        }
      }
      return;

    default:
      break;  // data states handled below
  }

  // Established and later states.
  if (h.ack_flag()) {
    ProcessAck(p);
  }
  if (state_ == TcpState::kClosed) {
    return;  // ProcessAck may close (e.g. final ACK in kLastAck)
  }
  if (p.payload_bytes > 0 || h.fin()) {
    DeliverInOrder(p);
  }
}

void TcpConnection::ProcessAck(const Packet& p) {
  const uint32_t ack = p.tcp.ack;

  if (SeqLt(snd_nxt_, ack)) {
    SendAck(true);  // acks data we never sent; resynchronize
    return;
  }

  if (params_->sack) {
    AbsorbSackBlocks(p.tcp);
  }

  if (SeqLt(snd_una_, ack)) {
    // New data acknowledged.
    const uint32_t delta = ack - snd_una_;
    uint32_t control = 0;
    if (SeqLeq(snd_una_, iss_) && SeqLt(iss_, ack)) {
      ++control;  // SYN occupies iss_
    }
    if (fin_sent_ && SeqLeq(snd_una_, fin_seq_) && SeqLt(fin_seq_, ack)) {
      ++control;  // FIN occupies fin_seq_
    }
    const uint32_t payload_acked = delta - control;
    stats_.bytes_acked += payload_acked;

    // RTT sample (Karn's rule inside: a tainted sample is discarded). Per
    // RFC 6298 §5.7 the RTO backoff resets only when a *fresh* sample is
    // taken — i.e. a newly transmitted segment was acked — not on any
    // cumulative advance. An ACK for a retransmission is ambiguous (it may
    // be the original, long-delayed) and must keep the backed-off RTO.
    est_.OnAck(ack, sim_->Now(), params_->rto_min, params_->rto_max);

    snd_una_ = ack;
    tlp_fired_ = false;  // new episode: the tail moved forward
    snd_wnd_ = p.tcp.window;

    // The scoreboard never needs ranges at or below the cumulative ACK.
    if (params_->sack && !sacked_.empty()) {
      const uint32_t ack_rel = ack - iss_;
      auto it = sacked_.begin();
      while (it != sacked_.end() && it->second <= ack_rel) {
        it = sacked_.erase(it);
      }
      if (it != sacked_.end() && it->first < ack_rel) {
        const uint32_t end = it->second;
        sacked_.erase(it);
        sacked_[ack_rel] = end;
      }
    }

    // Congestion control.
    if (in_fast_recovery_) {
      if (SeqLeq(recover_, ack)) {
        in_fast_recovery_ = false;
        cwnd_ = ssthresh_;
        dupacks_ = 0;
      } else if (params_->sack && !sacked_.empty()) {
        // SACK partial ACK: resend the next hole if one exists; if not, the
        // earlier hole retransmissions are still in flight and a blind
        // resend would only duplicate them.
        RetransmitNextHole();
        cwnd_ = cwnd_ > payload_acked ? cwnd_ - payload_acked + params_->mss : params_->mss;
      } else {
        // NewReno partial ACK: retransmit the next in-order hole, deflate.
        const uint32_t data_end = fin_sent_ ? fin_seq_ : snd_nxt_;
        if (SeqLt(snd_una_, data_end)) {
          const uint32_t len = std::min(params_->mss, data_end - snd_una_);
          PacketPtr seg = MakeSegment(kTcpAck, snd_una_, len);
          ++stats_.retransmits;
          est_.OnRetransmit();
          Emit(std::move(seg));
        }
        cwnd_ = cwnd_ > payload_acked ? cwnd_ - payload_acked + params_->mss : params_->mss;
      }
    } else {
      dupacks_ = 0;
      if (cwnd_ < ssthresh_) {
        cwnd_ += std::min(payload_acked, params_->mss);  // slow start
      } else if (cwnd_ > 0) {
        cwnd_ += std::max<uint32_t>(1, params_->mss * params_->mss / cwnd_);  // AIMD
      }
    }

    if (snd_una_ == snd_nxt_) {
      DisarmRto();
      // Our FIN (if any) is now acknowledged.
      if (fin_sent_) {
        if (state_ == TcpState::kFinWait1) {
          state_ = TcpState::kFinWait2;
        } else if (state_ == TcpState::kClosing) {
          EnterTimeWait();
          return;
        } else if (state_ == TcpState::kLastAck) {
          ToClosed();
          return;
        }
      }
      if (send_queue_bytes_ == 0 && cb_.hooks->on_drained) {
        cb_.hooks->on_drained(this);
      }
    } else {
      ArmRto();
    }
    TrySend();
    return;
  }

  if (SeqLt(ack, snd_una_)) {
    return;  // stale (reordered) ACK: ignore entirely
  }

  // ack == snd_una_: duplicate or window update.
  const bool window_update = p.tcp.window != snd_wnd_;
  snd_wnd_ = p.tcp.window;
  if (p.payload_bytes == 0 && !window_update && flight_size() > 0) {
    ++dupacks_;
    ++stats_.dupacks_rcvd;
    if (!in_fast_recovery_ && dupacks_ == params_->dupack_threshold) {
      // Fast retransmit.
      const uint32_t flight = flight_size();
      ssthresh_ = std::max(flight / 2, 2 * params_->mss);
      retran_high_ = snd_una_ - iss_;
      const uint32_t data_end = fin_sent_ ? fin_seq_ : snd_nxt_;
      if (params_->sack && RetransmitNextHole()) {
        ++stats_.fast_retransmits;
      } else if (SeqLt(snd_una_, data_end)) {
        const uint32_t len = std::min(params_->mss, data_end - snd_una_);
        PacketPtr seg = MakeSegment(kTcpAck, snd_una_, len);
        ++stats_.retransmits;
        ++stats_.fast_retransmits;
        est_.OnRetransmit();
        Emit(std::move(seg));
      } else if (fin_sent_) {
        SendControl(kTcpFin | kTcpAck, fin_seq_);
        ++stats_.retransmits;
        ++stats_.fast_retransmits;
      }
      cwnd_ = ssthresh_ + 3 * params_->mss;
      in_fast_recovery_ = true;
      recover_ = snd_nxt_;
    } else if (in_fast_recovery_) {
      cwnd_ += params_->mss;  // inflate per extra dupack
      if (params_->sack) {
        // Each dupack's fresh SACK info can reveal the next hole to fill —
        // the mechanism that repairs multiple losses per window in one RTT.
        RetransmitNextHole();
      }
      TrySend();
    }
  } else if (window_update) {
    wheel_->Cancel(&persist_node_);
    TrySend();
  }
}

void TcpConnection::DeliverInOrder(const Packet& p) {
  const uint32_t seq = p.tcp.seq;
  const uint32_t len = p.payload_bytes;
  const uint32_t seg_end = seq + len;

  if (len > 0) {
    if (SeqLeq(seg_end, rcv_nxt_)) {
      // Entirely old data (retransmission we already have): re-ACK.
      SendAck(true);
    } else if (SeqLt(rcv_nxt_, seq)) {
      // Hole before this segment: zero-window drops, else buffer out of order.
      if (AdvertisedWindow() == 0) {
        SendAck(true);
      } else {
        InsertRange(&ooo_, seq - irs_, seg_end - irs_);
        ++stats_.ooo_segments;
        SendAck(true);  // immediate dup ACK so the sender can fast-retransmit
      }
    } else {
      // Overlaps rcv_nxt_: accept the new part.
      if (AdvertisedWindow() == 0) {
        SendAck(true);  // window probe handling: refuse, re-advertise
      } else {
        uint64_t delivered = seg_end - rcv_nxt_;
        rcv_nxt_ = seg_end;
        // Drain any now-contiguous out-of-order ranges (keys are relative).
        uint32_t rcv_rel = rcv_nxt_ - irs_;
        auto it = ooo_.begin();
        while (it != ooo_.end() && it->first <= rcv_rel) {
          if (it->second > rcv_rel) {
            delivered += it->second - rcv_rel;
            rcv_rel = it->second;
          }
          it = ooo_.erase(it);
        }
        rcv_nxt_ = irs_ + rcv_rel;
        stats_.bytes_received += delivered;
        if (auto_consume_) {
          // Consumed instantly; window never closes.
        } else {
          unread_bytes_ += delivered;
        }
        ++segs_since_ack_;
        if (cb_.hooks->on_data) {
          cb_.hooks->on_data(this, static_cast<uint32_t>(delivered));
        }
        SendAck(!ooo_.empty() || !params_->delayed_ack || segs_since_ack_ >= 2);
      }
    }
  }

  if (p.tcp.fin()) {
    const uint32_t fin_seq = seq + len;
    if (SeqLt(fin_seq, rcv_nxt_)) {
      SendAck(true);  // retransmitted FIN we already consumed (e.g. in TIME_WAIT)
    } else {
      peer_fin_received_ = true;
      peer_fin_seq_ = fin_seq;
    }
  }
  if (peer_fin_received_ && rcv_nxt_ == peer_fin_seq_) {
    peer_fin_received_ = false;  // consume exactly once
    rcv_nxt_ = peer_fin_seq_ + 1;
    SendAck(true);
    switch (state_) {
      case TcpState::kEstablished:
        state_ = TcpState::kCloseWait;
        break;
      case TcpState::kFinWait1:
        // Our FIN not yet acked (else we'd be in kFinWait2): simultaneous close.
        state_ = TcpState::kClosing;
        break;
      case TcpState::kFinWait2:
        EnterTimeWait();
        break;
      default:
        break;
    }
  }
}

void TcpConnection::ArmRto() {
  // TLP (when enabled): with no backoff in effect and an RTT estimate on
  // hand, the first firing of rto_node_ this episode is a probe at
  // PTO = max(2*srtt, 2ms), never later than the RTO it stands in for.
  const SimTime rto = est_.BackoffedRto(params_->rto_max);
  if (params_->tail_loss_probe && !tlp_fired_ && est_.backoff() == 0 && est_.srtt() > 0) {
    const SimTime pto = std::min(std::max(2 * est_.srtt(), 2 * kMillisecond), rto);
    tlp_pending_ = true;
    wheel_->Arm(&rto_node_, sim_->Now() + pto);
    return;
  }
  tlp_pending_ = false;
  wheel_->Arm(&rto_node_, sim_->Now() + rto);
}

void TcpConnection::DisarmRto() {
  tlp_pending_ = false;
  wheel_->Cancel(&rto_node_);
}

void TcpConnection::OnRetransmissionTimer() {
  if (tlp_pending_) {
    tlp_pending_ = false;
    OnTlpTimeout();
    return;
  }
  OnRtoTimeout();
}

void TcpConnection::OnTlpTimeout() {
  tlp_fired_ = true;
  if (state_ == TcpState::kClosed || state_ == TcpState::kListen ||
      state_ == TcpState::kTimeWait || flight_size() == 0) {
    return;
  }
  // Probe: retransmit the tail (highest unacked data, or the FIN). If the
  // tail was lost, the probe repairs it an RTO early; if only its ACK was
  // lost, the probe is a no-op duplicate. No cwnd collapse, no backoff —
  // this is not a timeout, and the sample window is merely tainted.
  ++stats_.tlp_probes;
  const uint32_t data_end = fin_sent_ ? fin_seq_ : snd_nxt_;
  if (SeqLt(snd_una_, data_end)) {
    const uint32_t len = std::min(params_->mss, data_end - snd_una_);
    PacketPtr seg = MakeSegment(kTcpAck, data_end - len, len);
    ++stats_.retransmits;
    est_.OnRetransmit();
    Emit(std::move(seg));
  } else if (fin_sent_) {
    SendControl(kTcpFin | kTcpAck, fin_seq_);
    ++stats_.retransmits;
  }
  ArmRto();  // tlp_fired_ is set: this arms the real backed-off RTO
}

void TcpConnection::OnRtoTimeout() {
  ++stats_.timeouts;
  est_.OnTimeout();
  if (est_.backoff() > kMaxRtoBackoff) {
    NEWTOS_LOG(kWarn, sim_->Now(), "tcp", "giving up after " << kMaxRtoBackoff << " RTOs");
    ToClosed();
    return;
  }

  switch (state_) {
    case TcpState::kSynSent:
      SendControl(kTcpSyn, iss_);
      ++stats_.retransmits;
      ArmRto();
      return;
    case TcpState::kSynRcvd:
      SendControl(kTcpSyn | kTcpAck, iss_);
      ++stats_.retransmits;
      ArmRto();
      return;
    case TcpState::kClosed:
    case TcpState::kListen:
    case TcpState::kTimeWait:
      return;
    default:
      break;
  }

  if (flight_size() == 0) {
    return;  // spurious (everything was acked as the timer fired)
  }

  // Loss response: collapse to one segment, exit any fast recovery. The
  // SACK scoreboard is discarded (conservative: the peer's view may be
  // stale after a full timeout).
  ssthresh_ = std::max(flight_size() / 2, 2 * params_->mss);
  cwnd_ = params_->mss;
  in_fast_recovery_ = false;
  dupacks_ = 0;
  sacked_.clear();
  retran_high_ = snd_una_ - iss_;
  est_.OnRetransmit();

  const uint32_t data_end = fin_sent_ ? fin_seq_ : snd_nxt_;
  if (SeqLt(snd_una_, data_end)) {
    const uint32_t len = std::min(params_->mss, data_end - snd_una_);
    PacketPtr seg = MakeSegment(kTcpAck, snd_una_, len);
    ++stats_.retransmits;
    Emit(std::move(seg));
  } else if (fin_sent_) {
    SendControl(kTcpFin | kTcpAck, fin_seq_);
    ++stats_.retransmits;
  }
  ArmRto();
}

void TcpConnection::ArmPersist() {
  if (persist_node_.armed()) {
    return;
  }
  wheel_->Arm(&persist_node_, sim_->Now() + est_.rto());
}

void TcpConnection::OnPersistTimeout() {
  if (snd_wnd_ > 0 || send_queue_bytes_ == 0 || state_ == TcpState::kClosed) {
    return;
  }
  // Zero-window probe: one byte beyond the window. The receiver refuses it
  // (window is zero) and replies with an ACK carrying its current window.
  // snd_nxt_ is NOT advanced — the byte is a probe, not a transmission.
  PacketPtr probe = MakeSegment(kTcpAck, snd_nxt_, 1);
  Emit(std::move(probe));
  wheel_->Arm(&persist_node_, sim_->Now() + std::min(2 * est_.rto(), params_->rto_max));
}

void TcpConnection::SetAutoConsume(bool on) {
  auto_consume_ = on ? (unread_bytes_ = 0, true) : false;
}

uint64_t TcpConnection::Read(uint64_t max_bytes) {
  const uint64_t n = std::min(max_bytes, unread_bytes_);
  const bool was_closed = AdvertisedWindow() == 0;
  unread_bytes_ -= n;
  if (was_closed && AdvertisedWindow() > 0 && state_ != TcpState::kClosed) {
    SendAck(true);  // window-update ACK reopens the sender
  }
  return n;
}

void TcpConnection::EnterTimeWait() {
  state_ = TcpState::kTimeWait;
  DisarmRto();
  wheel_->Cancel(&persist_node_);
  wheel_->Arm(&time_wait_node_, sim_->Now() + params_->time_wait);
}

void TcpConnection::ToClosed() {
  if (state_ == TcpState::kClosed) {
    return;
  }
  state_ = TcpState::kClosed;
  DisarmRto();
  wheel_->Cancel(&delack_node_);
  wheel_->Cancel(&persist_node_);
  wheel_->Cancel(&time_wait_node_);
  if (cb_.owner_closed != nullptr) {
    cb_.owner_closed(cb_.owner_arg, this);
  }
  if (cb_.hooks->on_closed) {
    cb_.hooks->on_closed(this);
  }
}

}  // namespace newtos
