// RFC 6298 round-trip-time estimation, allocation-free.
//
// Extracted from TcpConnection so the estimator is a self-contained value
// type (cf. ndn-dpdk's RttEst): plain integer state, no heap, no clock —
// callers pass simulated timestamps in. The arithmetic is integer EWMA on
// picosecond SimTime, exactly the computation the connection inlined before:
//
//   first sample:  srtt = m,            rttvar = m / 2
//   afterwards:    rttvar = (3*rttvar + |m - srtt|) / 4      (beta  = 1/4)
//                  srtt   = (7*srtt + m) / 8                 (alpha = 1/8)
//   always:        rto    = clamp(srtt + 4*rttvar, rto_min, rto_max)
//
// The clamp bounds are configuration, not estimator state: callers pass them
// in (a TcpConnection reads them from its shared TcpParams), so the
// per-connection object holds only what it measures.
//
// State machine (one sample in flight at a time, per RFC 6298 §3):
//
//   idle --StartSample(end_seq)--> pending --OnAck(ack >= end_seq)--> idle
//            ^                        |
//            |                OnRetransmit() taints the pending sample
//            |                        v
//            +---- tainted sample is *discarded* on ACK (Karn's rule) ----+
//
// Backoff (§5.5-§5.7): OnTimeout() doubles the effective RTO for each
// consecutive timeout (BackoffedRto caps at rto_max). Per §5.7 the backoff
// resets only when an ACK takes a *fresh* (non-retransmitted) RTT sample —
// an ACK for retransmitted data proves delivery but not path latency, so it
// must not un-back-off the timer. OnAck() applies that rule itself.

#ifndef SRC_NET_RTT_ESTIMATOR_H_
#define SRC_NET_RTT_ESTIMATOR_H_

#include <algorithm>
#include <cstdint>

#include "src/sim/time.h"

namespace newtos {

class RttEst {
 public:
  explicit RttEst(SimTime rto_initial) : rto_(rto_initial) {}

  // --- Sample lifecycle (Karn's rule) ---

  bool sample_pending() const { return sample_pending_; }

  // Begins timing the segment whose last byte is `end_seq` (exclusive), sent
  // now. Callers start a sample only when none is pending.
  void StartSample(uint32_t end_seq, SimTime now) {
    sample_pending_ = true;
    sample_seq_ = end_seq;
    sample_sent_at_ = now;
    tainted_ = false;
  }

  // Any retransmission while a sample is in flight makes its eventual ACK
  // ambiguous (original or retransmit?); the sample must be discarded.
  void OnRetransmit() { tainted_ = true; }

  // Cumulative ACK advanced to `ack`. Returns true iff a fresh RTT sample
  // was taken (the timed segment is covered and nothing was retransmitted
  // meanwhile); per §5.7 that is also the moment the backoff resets.
  bool OnAck(uint32_t ack, SimTime now, SimTime rto_min, SimTime rto_max) {
    if (!sample_pending_ || static_cast<int32_t>(sample_seq_ - ack) > 0) {
      return false;  // no sample in flight, or the timed segment is not covered
    }
    sample_pending_ = false;
    if (tainted_) {
      return false;  // Karn: ambiguous measurement, discard
    }
    Update(now - sample_sent_at_, rto_min, rto_max);
    backoff_ = 0;
    return true;
  }

  // Folds one measurement into srtt/rttvar and recomputes the RTO, clamped
  // to [rto_min, rto_max].
  void Update(SimTime measured, SimTime rto_min, SimTime rto_max) {
    if (srtt_ == 0) {
      srtt_ = measured;
      rttvar_ = measured / 2;
    } else {
      const SimTime err = measured > srtt_ ? measured - srtt_ : srtt_ - measured;
      rttvar_ = (3 * rttvar_ + err) / 4;
      srtt_ = (7 * srtt_ + measured) / 8;
    }
    rto_ = std::clamp(srtt_ + 4 * rttvar_, rto_min, rto_max);
  }

  // --- Exponential backoff (§5.5-§5.7) ---

  void OnTimeout() { ++backoff_; }
  void ResetBackoff() { backoff_ = 0; }
  int backoff() const { return backoff_; }

  // The RTO to arm: base RTO doubled once per consecutive timeout, saturating
  // at rto_max.
  SimTime BackoffedRto(SimTime rto_max) const {
    SimTime effective = rto_;
    for (int i = 0; i < backoff_ && effective < rto_max; ++i) {
      effective *= 2;
    }
    return std::min(effective, rto_max);
  }

  // --- Introspection ---
  SimTime srtt() const { return srtt_; }
  SimTime rttvar() const { return rttvar_; }
  SimTime rto() const { return rto_; }

 private:
  SimTime srtt_ = 0;    // 0 = no sample yet (first measurement seeds directly)
  SimTime rttvar_ = 0;
  SimTime rto_;
  SimTime sample_sent_at_ = 0;
  int backoff_ = 0;

  uint32_t sample_seq_ = 0;     // sample completes when cumulative ACK covers this
  bool sample_pending_ = false;
  bool tainted_ = false;        // a retransmission overlapped the sample
};

}  // namespace newtos

#endif  // SRC_NET_RTT_ESTIMATOR_H_
