// Unit tests for the communicator layer: Comm construction and validation
// (including the group-size-512 regression for the duplicate check and the
// named duplicate / out-of-range errors), tag-lease allocation and
// exhaustion, and split.
#include "collectives/comm.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <mutex>
#include <numeric>
#include <string>

#include "machine/machine.hpp"

namespace camb {
namespace {

// ---------------------------------------------------------------------------
// TagAllocator (satellite: exhaustion must throw, not wrap around)
// ---------------------------------------------------------------------------

TEST(TagAllocator, AlgorithmRegionExhaustionThrows) {
  TagAllocator alloc;
  const int total = alloc.algorithm_blocks_left();
  EXPECT_EQ(total, kRecoveryTagBase / kTagBlockWidth);
  // Drain the region in large leases, then demand one block too many.
  while (alloc.algorithm_blocks_left() >= 1024) alloc.lease(1024);
  const int left = alloc.algorithm_blocks_left();
  if (left > 0) alloc.lease(left);
  EXPECT_EQ(alloc.algorithm_blocks_left(), 0);
  EXPECT_THROW(alloc.lease(1), Error);
  // The recovery region is independent and still serviceable.
  const TagLease rec = alloc.lease_recovery(1);
  EXPECT_GE(rec.base, kRecoveryTagBase);
}

TEST(TagAllocator, RecoveryRegionExhaustionThrows) {
  TagAllocator alloc;
  while (alloc.recovery_blocks_left() >= 4096) alloc.lease_recovery(4096);
  const int left = alloc.recovery_blocks_left();
  if (left > 0) alloc.lease_recovery(left);
  EXPECT_THROW(alloc.lease_recovery(1), Error);
  // The algorithm region is untouched.
  EXPECT_EQ(alloc.algorithm_blocks_left(), kRecoveryTagBase / kTagBlockWidth);
}

TEST(TagAllocator, RejectsEmptyLease) {
  TagAllocator alloc;
  EXPECT_THROW(alloc.lease(0), Error);
  EXPECT_THROW(alloc.lease(-3), Error);
}

TEST(TagAllocator, LeaseGeometry) {
  TagAllocator alloc;
  const TagLease a = alloc.lease(2);
  const TagLease b = alloc.lease(1);
  EXPECT_EQ(a.base, 0);
  EXPECT_EQ(a.limit(), 2 * kTagBlockWidth);
  EXPECT_EQ(b.base, a.limit());  // contiguous, disjoint
}

// ---------------------------------------------------------------------------
// Comm construction and validation
// ---------------------------------------------------------------------------

TEST(CommValidation, GroupSize512SinglePass) {
  // Regression for the O(n^2) duplicate scan (now a sorted copy of the
  // member list): construction of a 512-member comm (and rejection of a
  // duplicate buried at its end) must be exact at sizes where the quadratic
  // scan hurt.
  const int P = 512;
  Machine machine(P);
  machine.run([&](RankCtx& ctx) {
    if (ctx.rank() != 0) return;
    std::vector<int> everyone(static_cast<std::size_t>(P));
    std::iota(everyone.begin(), everyone.end(), 0);
    const coll::Comm comm(ctx, everyone);
    EXPECT_EQ(comm.size(), P);
    EXPECT_EQ(comm.my_index(), 0);
    EXPECT_EQ(comm.rank_at(P - 1), P - 1);
    std::vector<int> dup = everyone;
    dup.back() = 0;  // duplicate of the first member, at the far end
    EXPECT_THROW(coll::Comm(ctx, dup), Error);
    std::vector<int> oob = everyone;
    oob.back() = P;  // one past the machine
    EXPECT_THROW(coll::Comm(ctx, oob), Error);
  });
}

/// The message of the Error `make` throws, or "" if it throws none.
std::string comm_error(const std::function<void()>& make) {
  try {
    make();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(CommValidation, NamesDuplicateAndOutOfRangeMembers) {
  // Validation costs O(p log p) in the comm size, not O(P) in the machine
  // size, and names which rule a member list broke.
  Machine machine(64);
  machine.run([&](RankCtx& ctx) {
    if (ctx.rank() != 5) return;
    const std::string distinct = "comm ranks must be distinct";
    const std::string range = "comm rank out of range";
    EXPECT_NE(comm_error([&] { coll::Comm(ctx, {5, 40, 3, 40}); })
                  .find(distinct),
              std::string::npos);
    EXPECT_NE(comm_error([&] { coll::Comm(ctx, {63, 5, 63}); }).find(distinct),
              std::string::npos);
    EXPECT_NE(comm_error([&] { coll::Comm(ctx, {5, 64}); }).find(range),
              std::string::npos);
    EXPECT_NE(comm_error([&] { coll::Comm(ctx, {-1, 5}); }).find(range),
              std::string::npos);
    // Unsorted, distinct, in range: accepted, order kept.
    const coll::Comm ok(ctx, {40, 5, 3});
    EXPECT_EQ(ok.my_index(), 1);
    EXPECT_EQ(ok.rank_at(0), 40);
    EXPECT_EQ(comm_error([&] { coll::Comm(ctx, {63, 0, 5}); }), "");
  });
}

TEST(Comm, TakeTagBlockWalksTheLeaseAndThenThrows) {
  Machine machine(2);
  machine.run([&](RankCtx& ctx) {
    const coll::Comm comm = coll::Comm::world(ctx, /*tag_blocks=*/2);
    const int first = comm.take_tag_block();
    const int second = comm.take_tag_block();
    EXPECT_EQ(first, comm.lease().base);
    EXPECT_EQ(second, first + kTagBlockWidth);
    EXPECT_THROW(comm.take_tag_block(), Error);  // lease exhausted
  });
}

TEST(Comm, LeaseSequenceAgreesAcrossRanks) {
  // The SPMD contract: every rank performs the same sequence of comm
  // constructions, so the k-th lease has the same base everywhere even
  // though the member lists differ (each rank builds its own fiber).
  const int P = 6;
  Machine machine(P);
  std::mutex mutex;
  std::vector<std::pair<int, int>> bases(static_cast<std::size_t>(P));
  machine.run([&](RankCtx& ctx) {
    const coll::Comm world = coll::Comm::world(ctx);
    const coll::Comm mine =
        world.split([&](int idx) { return idx % 2; }, /*tag_blocks=*/4);
    std::lock_guard<std::mutex> lock(mutex);
    bases[static_cast<std::size_t>(ctx.rank())] = {world.lease().base,
                                                   mine.lease().base};
  });
  for (int r = 1; r < P; ++r) {
    EXPECT_EQ(bases[static_cast<std::size_t>(r)], bases[0]) << "rank " << r;
  }
}

TEST(Comm, SplitByParityOrdersByParentIndex) {
  const int P = 8;
  Machine machine(P);
  machine.run([&](RankCtx& ctx) {
    const coll::Comm world = coll::Comm::world(ctx);
    const coll::Comm half = world.split([](int idx) { return idx % 2; });
    ASSERT_EQ(half.size(), P / 2);
    EXPECT_EQ(half.my_index(), ctx.rank() / 2);
    for (int i = 0; i < half.size(); ++i) {
      EXPECT_EQ(half.rank_at(i), 2 * i + ctx.rank() % 2);
    }
  });
}

TEST(Comm, RecoveryLeasesComeFromTheRecoveryRegion) {
  Machine machine(3);
  machine.run([&](RankCtx& ctx) {
    const coll::Comm algo = coll::Comm::world(ctx);
    const coll::Comm rec = coll::Comm::recovery(ctx, {0, 1, 2});
    EXPECT_FALSE(algo.is_recovery());
    EXPECT_LT(algo.lease().limit(), kRecoveryTagBase);
    EXPECT_TRUE(rec.is_recovery());
    EXPECT_GE(rec.lease().base, kRecoveryTagBase);
  });
}

TEST(Comm, NonMembersMayNotCommunicate) {
  Machine machine(4);
  machine.run([&](RankCtx& ctx) {
    const coll::Comm rec = coll::Comm::recovery(ctx, {0, 1});
    if (ctx.rank() >= 2) {
      EXPECT_FALSE(rec.member());
      EXPECT_THROW(rec.send(0, rec.lease().base, {1.0}), Error);
      EXPECT_THROW((void)rec.recv(0, rec.lease().base), Error);
      return;
    }
    const int tag = rec.take_tag_block();
    const auto got = rec.sendrecv(1 - ctx.rank(), tag,
                                  {static_cast<double>(ctx.rank())});
    ASSERT_EQ(got.size(), 1u);
    EXPECT_DOUBLE_EQ(got[0], static_cast<double>(1 - ctx.rank()));
  });
}

}  // namespace
}  // namespace camb
