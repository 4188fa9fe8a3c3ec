// Fixture: a busy-wait on the in-place push (the fill-callback variant) with
// no [[blocking]] sanction — exactly one blocking-push violation. The
// lookalike, a single in-place attempt, must NOT fire. Never compiled;
// parsed by analyze_test.

struct Msg {
  int seq;
};

struct Ring {
  template <typename Fill>
  bool TryPushWith(Fill fill);
};

void SpinInPlace(Ring* ring) {
  int seq = 3;
  while (!ring->TryPushWith([seq](Msg& m) { m.seq = seq; })) {
  }
}

bool SingleAttempt(Ring* ring) {
  int seq = 4;
  return ring->TryPushWith([seq](Msg& m) { m.seq = seq; });
}
