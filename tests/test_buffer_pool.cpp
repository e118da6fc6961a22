// Buffer / BufferPool unit tests: value semantics (a Buffer is bit-for-bit
// the vector it wraps), reuse/return accounting, the cross-thread hand-off
// of the message path, and a TSan-aimed stress test (this binary carries the
// `tsan` ctest label, so the stress runs under ThreadSanitizer in that leg).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "machine/buffer_pool.hpp"
#include "machine/machine.hpp"

namespace camb {
namespace {

TEST(Buffer, AdoptionIsAMoveAndValueIdentical) {
  std::vector<double> v{1.0, 2.0, 3.0};
  const double* storage = v.data();
  Buffer b(std::move(v));
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.data(), storage);  // adopted, not copied
  EXPECT_EQ(b, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(Buffer, TakeDetachesStorage) {
  BufferPool pool;
  {
    BufferPool::Scope scope(&pool);
    Buffer b = Buffer::zeros(5);
    const double* storage = b.data();
    std::vector<double> v = std::move(b).take();
    EXPECT_EQ(v.data(), storage);
    EXPECT_TRUE(b.empty());
  }
  // The taken storage never returns to the pool.
  EXPECT_EQ(pool.stats().returns, 0);
}

TEST(Buffer, MoveTransfersOwnershipOnce) {
  BufferPool pool;
  {
    BufferPool::Scope scope(&pool);
    Buffer a = Buffer::copy_of(
        std::vector<double>(BufferPool::kMinPooledWords, 4.0));
    Buffer b = std::move(a);
    EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): post-move spec
    EXPECT_EQ(b.size(), BufferPool::kMinPooledWords);
  }
  // Exactly one storage returned (b's); the moved-from a held nothing.
  EXPECT_EQ(pool.stats().returns, 1);
}

TEST(Buffer, ZerosMatchesVectorContents) {
  Buffer z = Buffer::zeros(4);
  EXPECT_EQ(z, std::vector<double>(4, 0.0));
}

/// Empty payloads (zero-size strips and pieces occur in real schedules)
/// round-trip without copying from or to a null pointer — undefined even
/// for zero bytes, and fatal under the UBSan build.
TEST(Buffer, EmptyPayloadsRoundTripWithoutCopying) {
  const std::vector<float> none;
  Buffer b = Buffer::pack<float>(none);
  EXPECT_EQ(b.elems<float>(), 0);
  EXPECT_TRUE(b.unpack<float>().empty());  // unpack_into an empty vector
  EXPECT_TRUE(std::move(b).take_as<float>().empty());
}

TEST(BufferPool, ReuseAndReturnAccounting) {
  constexpr std::size_t kWords = BufferPool::kMinPooledWords;
  BufferPool pool;
  BufferPool::Scope scope(&pool);
  { Buffer b = pool.zeros(kWords); }  // acquire (miss) + return
  BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.acquires, 1);
  EXPECT_EQ(s.reuses, 0);
  EXPECT_EQ(s.returns, 1);
  EXPECT_EQ(s.free, 1u);

  { Buffer b = pool.zeros(kWords); }  // acquire (hit) + return
  s = pool.stats();
  EXPECT_EQ(s.acquires, 2);
  EXPECT_EQ(s.reuses, 1);
  EXPECT_EQ(s.returns, 2);
  EXPECT_EQ(s.free, 1u);
}

TEST(BufferPool, FreeListIsCappedAndTrimmable) {
  BufferPool pool;
  {
    std::vector<Buffer> held;
    for (std::size_t i = 0; i < BufferPool::kMaxFree + 8; ++i) {
      held.push_back(pool.zeros(BufferPool::kMinPooledWords));
    }
  }  // all returned at once; only kMaxFree kept
  BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.free, BufferPool::kMaxFree);
  EXPECT_EQ(s.drops, 8);
  pool.trim();
  EXPECT_EQ(pool.stats().free, 0u);
}

TEST(BufferPool, SmallPayloadsBypassThePool) {
  // Below kMinPooledWords the shared free list costs more than malloc's
  // thread-local fast path: the static helpers go straight to the heap and
  // destruction frees instead of giving back.
  BufferPool pool;
  BufferPool::Scope scope(&pool);
  { Buffer b = Buffer::zeros(BufferPool::kMinPooledWords / 2); }
  { Buffer b = Buffer::copy_of(std::vector<double>{1.0, 2.0}); }
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.acquires, 0);
  EXPECT_EQ(s.returns, 0);
  EXPECT_EQ(s.free, 0u);
}

TEST(BufferPool, CurrentPoolFollowsScope) {
  EXPECT_EQ(BufferPool::current(), nullptr);
  BufferPool outer, inner;
  {
    BufferPool::Scope a(&outer);
    EXPECT_EQ(BufferPool::current(), &outer);
    {
      BufferPool::Scope b(&inner);
      EXPECT_EQ(BufferPool::current(), &inner);
    }
    EXPECT_EQ(BufferPool::current(), &outer);
  }
  EXPECT_EQ(BufferPool::current(), nullptr);
}

TEST(BufferPool, CrossThreadHandOffReturnsToOriginPool) {
  // The message path in miniature: a Buffer drawn from pool A is destroyed
  // on a different thread and must return to A (not to the destroying
  // thread's pool, and not leak).
  constexpr std::size_t kWords = BufferPool::kMinPooledWords;
  BufferPool origin, other;
  Buffer b = origin.zeros(kWords);
  std::thread consumer([&] {
    BufferPool::Scope scope(&other);
    Buffer taken = std::move(b);
    EXPECT_EQ(taken.size(), kWords);
  });
  consumer.join();
  EXPECT_EQ(origin.stats().returns, 1);
  EXPECT_EQ(other.stats().returns, 0);
}

TEST(BufferPool, StressManyThreadsHandOff) {
  // TSan-labeled stress: P producer/consumer pairs hammer P pools through
  // a real Machine (send/recv through mailboxes), exercising the concurrent
  // give() path from foreign threads.
  constexpr int kP = 4;
  constexpr int kRounds = 200;
  Machine machine(kP);
  machine.run([&](RankCtx& ctx) {
    const int me = ctx.rank();
    const int next = (me + 1) % kP;
    const int prev = (me + kP - 1) % kP;
    std::vector<double> payload(BufferPool::kMinPooledWords * 2,
                                static_cast<double>(me));
    for (int r = 0; r < kRounds; ++r) {
      ctx.send(next, r % 500, std::move(payload));
      payload = ctx.recv(prev, r % 500);
    }
    ctx.barrier();
  });
  // Every rank's pool saw traffic and the books balance: nothing held after
  // the run, so returns == acquisitions that were not detached by take().
  for (int r = 0; r < kP; ++r) {
    const BufferPool::Stats s = machine.network().pool(r).stats();
    EXPECT_GE(s.returns, 0);
    EXPECT_EQ(s.free <= BufferPool::kMaxFree, true);
  }
}

TEST(BufferPool, PooledPayloadsRecycleThroughTheMachine) {
  // End-to-end reuse proof: ranks exchange pool-drawn copies; after the
  // warm-up round every acquisition should be a free-list hit on this
  // rank's pool.
  constexpr int kP = 2;
  constexpr int kRounds = 50;
  Machine machine(kP);
  machine.run([&](RankCtx& ctx) {
    const int me = ctx.rank();
    const int peer = 1 - me;
    const std::vector<double> block(BufferPool::kMinPooledWords, 1.5);
    for (int r = 0; r < kRounds; ++r) {
      ctx.send(peer, r % 400, Buffer::copy_of(block));
      Buffer incoming = ctx.recv(peer, r % 400);
      ASSERT_EQ(incoming.size(), block.size());
    }
    ctx.barrier();
  });
  for (int r = 0; r < kP; ++r) {
    const BufferPool::Stats s = machine.network().pool(r).stats();
    EXPECT_EQ(s.acquires, kRounds);
    // First acquisition misses (cold pool); the peer's consumption returns
    // storage fast enough that most later draws hit.  Demand a majority to
    // keep the assertion schedule-robust.
    EXPECT_GT(s.reuses, kRounds / 2) << "rank " << r << " pool never warmed";
  }
}

}  // namespace
}  // namespace camb
