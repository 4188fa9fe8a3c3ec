// Fixture: blocking-push must fire exactly once, on the in-place spin below
// (a push that fills the slot through a callback instead of copying a value
// in). The look-alikes — a single in-place attempt and a spin that appears
// only in a comment — must not fire.

struct Msg {
  int seq;
};

struct Ring {
  template <typename Fill>
  bool TryPushWith(Fill fill);
};

void SpinInPlace(Ring* ring, int seq) {
  while (!ring->TryPushWith([seq](Msg& m) { m.seq = seq; })) {  // the violation
  }
}

bool SingleInPlaceAttempt(Ring* ring, int seq) {
  // `while (!ring->TryPushWith(fill))` in a comment must not count.
  return ring->TryPushWith([seq](Msg& m) { m.seq = seq; });
}
