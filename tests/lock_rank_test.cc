// Lock-rank deadlock detector (src/common/lock_rank.h): the rank table is
// well-formed, and the debug checker aborts on each class of discipline
// violation — rank inversion, self-deadlock, REQUIRES/AssertHeld violation,
// and release-without-acquire. The violation tests are death tests: each one
// forks, commits the violation in the child, and asserts the child dies with
// the expected diagnostic. Under NDEBUG the checker compiles away, so the
// death tests skip.
#include "src/common/lock_rank.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/common/thread_annotations.h"

namespace fdpcache {
namespace {

using lock_rank::DocumentedRanks;
using lock_rank::Make;

// --- Rank table well-formedness (runs in all build types) -------------------

TEST(LockRankTableTest, MajorsUniqueAndStrictlyAscending) {
  const auto& table = DocumentedRanks();
  ASSERT_FALSE(table.empty());
  uint32_t prev = lock_rank::kUnranked;
  for (const auto& row : table) {
    EXPECT_GT(static_cast<uint32_t>(row.major), prev)
        << "rank table out of order at \"" << row.name << "\"";
    prev = row.major;
  }
}

TEST(LockRankTableTest, NamesUniqueAndNonEmpty) {
  std::set<std::string> names;
  for (const auto& row : DocumentedRanks()) {
    ASSERT_NE(row.name, nullptr);
    EXPECT_FALSE(std::string(row.name).empty());
    EXPECT_TRUE(names.insert(row.name).second)
        << "duplicate rank name \"" << row.name << "\"";
  }
}

TEST(LockRankTableTest, CompositeRankEncoding) {
  const uint32_t rank = Make(lock_rank::kLane, 3);
  EXPECT_EQ(lock_rank::MajorOf(rank), static_cast<uint32_t>(lock_rank::kLane));
  EXPECT_EQ(lock_rank::MinorOf(rank), 3u);
  // Majors dominate minors: lane 65535 still orders before the next major.
  EXPECT_LT(Make(lock_rank::kLane, 0xffff), Make(lock_rank::kQueuePair, 0));
}

// --- Checker behaviour (debug builds only) ----------------------------------

#ifndef NDEBUG

TEST(LockRankCheckerTest, CorrectNestingIsSilent) {
  fdp::Mutex outer(Make(lock_rank::kShard), "shard");
  fdp::Mutex inner(Make(lock_rank::kSsd), "ssd");
  fdp::MutexLock outer_lock(&outer);
  fdp::MutexLock inner_lock(&inner);
  const auto held = lock_rank::HeldLocksForTest();
  ASSERT_EQ(held.size(), 2u);
  EXPECT_STREQ(held[0].name, "shard");
  EXPECT_STREQ(held[1].name, "ssd");
}

TEST(LockRankCheckerTest, AscendingMinorsWithinFamilyAreSilent) {
  fdp::Mutex lane0(Make(lock_rank::kLane, 0), "lane");
  fdp::Mutex lane1(Make(lock_rank::kLane, 1), "lane");
  fdp::MutexLock lock0(&lane0);
  fdp::MutexLock lock1(&lane1);
  EXPECT_EQ(lock_rank::HeldLocksForTest().size(), 2u);
}

TEST(LockRankCheckerTest, UnrankedLockOrdersAgainstNothing) {
  fdp::Mutex ranked(Make(lock_rank::kMetrics), "metrics");
  fdp::Mutex unranked;  // kUnranked: AssertHeld works, ordering is exempt.
  fdp::MutexLock lock_ranked(&ranked);
  fdp::MutexLock lock_unranked(&unranked);  // Below the innermost major: fine.
  unranked.AssertHeld();
}

TEST(LockRankCheckerTest, ReleaseClearsTheHeldStack) {
  fdp::Mutex mu(Make(lock_rank::kTrace), "trace");
  {
    fdp::MutexLock lock(&mu);
    EXPECT_EQ(lock_rank::HeldLocksForTest().size(), 1u);
  }
  EXPECT_TRUE(lock_rank::HeldLocksForTest().empty());
  // Re-acquiring at the same rank after release is not an inversion.
  fdp::MutexLock again(&mu);
}

using LockRankDeathTest = ::testing::Test;

TEST(LockRankDeathTest, RankInversionAborts) {
  EXPECT_DEATH(
      {
        fdp::Mutex inner(Make(lock_rank::kSsd), "ssd");
        fdp::Mutex outer(Make(lock_rank::kShard), "shard");
        fdp::MutexLock inner_lock(&inner);
        fdp::MutexLock outer_lock(&outer);  // shard under ssd: inverted.
      },
      "lock rank inversion");
}

TEST(LockRankDeathTest, DescendingMinorsWithinFamilyAbort) {
  EXPECT_DEATH(
      {
        fdp::Mutex lane1(Make(lock_rank::kLane, 1), "lane");
        fdp::Mutex lane0(Make(lock_rank::kLane, 0), "lane");
        fdp::MutexLock lock1(&lane1);
        fdp::MutexLock lock0(&lane0);  // Sweeps must ascend by index.
      },
      "lock rank inversion");
}

TEST(LockRankDeathTest, EqualRanksAbort) {
  // Two distinct mutexes at the same composite rank cannot nest: neither
  // order is the documented one.
  EXPECT_DEATH(
      {
        fdp::Mutex a(Make(lock_rank::kQueuePair, 2), "qp");
        fdp::Mutex b(Make(lock_rank::kQueuePair, 2), "qp");
        fdp::MutexLock lock_a(&a);
        fdp::MutexLock lock_b(&b);
      },
      "lock rank inversion");
}

TEST(LockRankDeathTest, SelfDeadlockAborts) {
  EXPECT_DEATH(
      {
        fdp::Mutex mu(Make(lock_rank::kShard), "shard");
        mu.Lock();
        mu.Lock();  // Would deadlock a real run; the checker names it first.
      },
      "same mutex acquired twice");
}

TEST(LockRankDeathTest, AssertHeldWithoutLockAborts) {
  // The runtime twin of a REQUIRES() violation: a type-erased callback
  // (lambda, virtual override) reached guarded state without the capability.
  EXPECT_DEATH(
      {
        fdp::Mutex mu(Make(lock_rank::kSsd), "ssd");
        mu.AssertHeld();
      },
      "REQUIRES violation");
}

TEST(LockRankDeathTest, ReleaseWithoutAcquireAborts) {
  EXPECT_DEATH(
      {
        fdp::Mutex held(Make(lock_rank::kShard), "shard");
        fdp::Mutex other(Make(lock_rank::kSsd), "ssd");
        fdp::MutexLock lock(&held);
        other.Unlock();  // This thread never took `other`.
      },
      "does not hold");
}

#else  // NDEBUG

TEST(LockRankCheckerTest, CheckerCompiledOut) {
  GTEST_SKIP() << "lock-rank checking is debug-only; NDEBUG build";
}

#endif  // NDEBUG

}  // namespace
}  // namespace fdpcache
