#include "src/chan/spsc_ring.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace newtos {
namespace {

TEST(SpscRing, PushPopSingleThread) {
  SpscRing<int> ring(8);
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_EQ(ring.TryPop(), std::optional<int>(1));
  EXPECT_EQ(ring.TryPop(), std::optional<int>(2));
  EXPECT_EQ(ring.TryPop(), std::nullopt);
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(8).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
}

TEST(SpscRing, FullRingRejectsPush) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.TryPush(i));
  }
  EXPECT_FALSE(ring.TryPush(99));
  EXPECT_EQ(ring.TryPop(), std::optional<int>(0));
  EXPECT_TRUE(ring.TryPush(99));  // slot freed
}

TEST(SpscRing, WrapsAroundManyTimes) {
  SpscRing<int> ring(4);
  for (int round = 0; round < 1000; ++round) {
    ASSERT_TRUE(ring.TryPush(round));
    ASSERT_EQ(ring.TryPop(), std::optional<int>(round));
  }
}

TEST(SpscRing, FifoOrderPreserved) {
  SpscRing<int> ring(128);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(ring.TryPush(i));
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(ring.TryPop(), std::optional<int>(i));
  }
}

TEST(SpscRing, FrontPeeksWithoutConsuming) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.Front(), nullptr);
  ring.TryPush(7);
  ASSERT_NE(ring.Front(), nullptr);
  EXPECT_EQ(*ring.Front(), 7);
  EXPECT_EQ(ring.TryPop(), std::optional<int>(7));
}

TEST(SpscRing, MoveOnlyTypesWork) {
  SpscRing<std::unique_ptr<int>> ring(4);
  EXPECT_TRUE(ring.TryPush(std::make_unique<int>(5)));
  auto out = ring.TryPop();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(**out, 5);
}

TEST(SpscRing, TryEmplaceConstructsInPlace) {
  SpscRing<std::string> ring(4);
  EXPECT_TRUE(ring.TryEmplace("hello"));
  EXPECT_EQ(ring.TryPop(), std::optional<std::string>("hello"));
}

// Counts constructions and destructions of a non-trivial element, so the
// in-place calls can be checked for exactly-once destruction.
struct Tracked {
  static int live;
  static int destroyed;
  int value = -1;
  std::string tag;  // makes the type non-trivial to destroy
  Tracked() noexcept { ++live; }
  Tracked(Tracked&& o) noexcept : value(o.value), tag(std::move(o.tag)) { ++live; }
  ~Tracked() {
    --live;
    ++destroyed;
  }
};
int Tracked::live = 0;
int Tracked::destroyed = 0;

TEST(SpscRing, TryPushWithOnFullRingNeverCallsFill) {
  SpscRing<int> ring(4);
  int fills = 0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.TryPushWith([&](int& slot) {
      ++fills;
      slot = i;
    }));
  }
  EXPECT_FALSE(ring.TryPushWith([&](int& slot) {
    ++fills;
    slot = 99;
  }));
  EXPECT_EQ(fills, 4);
  EXPECT_EQ(ring.SizeProducer(), 4u);
  ASSERT_NE(ring.Front(), nullptr);
  EXPECT_EQ(*ring.Front(), 0);  // the rejected push wrote nothing
}

TEST(SpscRing, InPlaceCallsKeepFifoOrderAcrossWraparound) {
  SpscRing<uint64_t> ring(4);
  uint64_t next_push = 0;
  uint64_t next_pop = 0;
  // Uneven push/pop bursts walk the cursors through many wraps at every
  // slot offset.
  for (int round = 0; round < 500; ++round) {
    const int burst = 1 + round % 4;
    for (int k = 0; k < burst; ++k) {
      if (!ring.TryPushWith([&](uint64_t& slot) { slot = next_push; })) {
        break;
      }
      ++next_push;
    }
    for (int k = 0; k < 1 + (round + 1) % 3; ++k) {
      const uint64_t* front = ring.Front();
      if (front == nullptr) {
        break;
      }
      ASSERT_EQ(*front, next_pop);
      ring.PopFront();
      ++next_pop;
    }
  }
  while (const uint64_t* front = ring.Front()) {
    ASSERT_EQ(*front, next_pop);
    ring.PopFront();
    ++next_pop;
  }
  EXPECT_EQ(next_pop, next_push);
  EXPECT_GT(next_push, 4u * 100);
  EXPECT_TRUE(ring.EmptyConsumer());
}

TEST(SpscRing, InPlaceNonTrivialElementDestroyedExactlyOnce) {
  Tracked::live = 0;
  Tracked::destroyed = 0;
  {
    SpscRing<Tracked> ring(4);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ring.TryPushWith([i](Tracked& t) {
        t.value = i;
        t.tag.assign(64, static_cast<char>('a' + i));  // heap-backed string
      }));
    }
    EXPECT_EQ(Tracked::live, 3);  // built in the slots: no temporaries
    EXPECT_EQ(Tracked::destroyed, 0);
    const Tracked* front = ring.Front();
    ASSERT_NE(front, nullptr);
    EXPECT_EQ(front->value, 0);
    EXPECT_EQ(front->tag, std::string(64, 'a'));
    ring.PopFront();
    EXPECT_EQ(Tracked::live, 2);
    EXPECT_EQ(Tracked::destroyed, 1);
    // The remaining two are drained by the ring's destructor.
  }
  EXPECT_EQ(Tracked::live, 0);
  EXPECT_EQ(Tracked::destroyed, 3);
}

TEST(SpscRing, TryEmplaceConstructsInTheSlotWithoutTemporary) {
  Tracked::live = 0;
  Tracked::destroyed = 0;
  {
    SpscRing<Tracked> ring(2);
    ASSERT_TRUE(ring.TryEmplace());
    EXPECT_EQ(Tracked::live, 1);
    EXPECT_EQ(Tracked::destroyed, 0);  // no moved-from temporary was built
  }
  EXPECT_EQ(Tracked::destroyed, 1);
}

TEST(SpscRing, DestructorDrainsRemainingElements) {
  auto counter = std::make_shared<int>(0);
  struct Probe {
    std::shared_ptr<int> c;
    explicit Probe(std::shared_ptr<int> cc) noexcept : c(std::move(cc)) { ++*c; }
    Probe(Probe&& o) noexcept : c(std::move(o.c)) {}
    ~Probe() {
      if (c) {
        --*c;
      }
    }
  };
  {
    SpscRing<Probe> ring(8);
    for (int i = 0; i < 5; ++i) {
      ring.TryPush(Probe(counter));
    }
    EXPECT_EQ(*counter, 5);
  }
  EXPECT_EQ(*counter, 0);  // all destroyed on ring teardown
}

TEST(SpscRing, SizeEstimates) {
  SpscRing<int> ring(8);
  EXPECT_TRUE(ring.EmptyConsumer());
  for (int i = 0; i < 5; ++i) {
    ring.TryPush(i);
  }
  EXPECT_EQ(ring.SizeProducer(), 5u);
  EXPECT_EQ(ring.SizeConsumer(), 5u);
  EXPECT_FALSE(ring.EmptyConsumer());
}

// Real two-thread stress: every token arrives exactly once, in order.
TEST(SpscRing, TwoThreadStressPreservesOrderAndCount) {
  constexpr uint64_t kN = 200'000;
  SpscRing<uint64_t> ring(256);
  uint64_t received = 0;
  uint64_t sum = 0;
  bool order_ok = true;

  std::thread consumer([&] {
    uint64_t expect = 0;
    while (expect < kN) {
      auto v = ring.TryPop();
      if (!v) {
        std::this_thread::yield();
        continue;
      }
      if (*v != expect) {
        order_ok = false;
        break;
      }
      sum += *v;
      ++expect;
      ++received;
    }
  });

  for (uint64_t i = 0; i < kN; ++i) {
    while (!ring.TryPush(i)) {
      std::this_thread::yield();
    }
  }
  consumer.join();

  EXPECT_TRUE(order_ok);
  EXPECT_EQ(received, kN);
  EXPECT_EQ(sum, kN * (kN - 1) / 2);
}

// Stress with tiny capacity: maximum contention on the full/empty edges.
TEST(SpscRing, TinyRingStress) {
  constexpr uint64_t kN = 50'000;
  SpscRing<uint64_t> ring(1);
  uint64_t received = 0;
  std::thread consumer([&] {
    while (received < kN) {
      if (auto v = ring.TryPop()) {
        ++received;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (uint64_t i = 0; i < kN; ++i) {
    while (!ring.TryPush(i)) {
      std::this_thread::yield();
    }
  }
  consumer.join();
  EXPECT_EQ(received, kN);
}

}  // namespace
}  // namespace newtos
