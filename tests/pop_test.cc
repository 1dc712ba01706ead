#include "prkb/pop.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/serial.h"
#include "edbms/cipherbase_qpf.h"
#include "gtest/gtest.h"
#include "prkb/selection.h"
#include "prkb/wal.h"

namespace prkb::core {
namespace {

using edbms::TupleId;

edbms::Trapdoor FakeTrapdoor(uint64_t uid,
                             edbms::PredicateKind kind =
                                 edbms::PredicateKind::kComparison) {
  edbms::Trapdoor td;
  td.attr = 0;
  td.kind = kind;
  td.uid = uid;
  td.blob = {1, 2, 3};
  return td;
}

TEST(PopTest, InitSingleCoversAllTuples) {
  Pop pop;
  pop.InitSingle(5);
  EXPECT_EQ(pop.k(), 1u);
  EXPECT_EQ(pop.num_tuples(), 5u);
  EXPECT_EQ(pop.members_at(0).Size(), 5u);
  for (TupleId t = 0; t < 5; ++t) {
    EXPECT_EQ(pop.partition_of(t), pop.pid_at(0));
  }
  EXPECT_TRUE(pop.Validate().ok());
}

TEST(PopTest, InitSingleEmptyTableHasNoChain) {
  Pop pop;
  pop.InitSingle(0);
  EXPECT_EQ(pop.k(), 0u);
  EXPECT_TRUE(pop.Validate().ok());
}

TEST(PopTest, SplitCreatesOrderedChainAndCut) {
  Pop pop;
  pop.InitSingle(4);  // {0,1,2,3}
  const PartitionId pid = pop.pid_at(0);
  const uint64_t cut =
      pop.SplitPartition(pid, {0, 2}, {1, 3}, FakeTrapdoor(1), false);
  EXPECT_EQ(pop.k(), 2u);
  EXPECT_NE(cut, Pop::kNoCut);
  // Left half at position 0, right (keeping the old pid) at position 1.
  EXPECT_EQ(pop.pid_at(1), pid);
  EXPECT_EQ(pop.members_at(0).ToVector(), (std::vector<TupleId>{0, 2}));
  EXPECT_EQ(pop.members_at(1).ToVector(), (std::vector<TupleId>{1, 3}));
  EXPECT_EQ(pop.partition_of(0), pop.pid_at(0));
  EXPECT_EQ(pop.partition_of(1), pid);
  EXPECT_TRUE(pop.Validate().ok());

  const Pop::Cut* c = pop.FindCut(cut);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(pop.CutPos(*c), 1u);
  EXPECT_FALSE(c->left_label);
  EXPECT_TRUE(c->UsableForInsert());
}

TEST(PopTest, NestedSplitsKeepCutPositionsCorrect) {
  Pop pop;
  pop.InitSingle(8);
  const PartitionId p0 = pop.pid_at(0);
  const uint64_t cut1 = pop.SplitPartition(p0, {0, 1, 2, 3}, {4, 5, 6, 7},
                                           FakeTrapdoor(1), false);
  // Split the LEFT half; cut1 must shift right.
  const PartitionId left = pop.pid_at(0);
  const uint64_t cut2 =
      pop.SplitPartition(left, {0, 1}, {2, 3}, FakeTrapdoor(2), true);
  EXPECT_EQ(pop.k(), 3u);
  EXPECT_EQ(pop.CutPos(*pop.FindCut(cut2)), 1u);
  EXPECT_EQ(pop.CutPos(*pop.FindCut(cut1)), 2u);
  // Split the RIGHT-most partition.
  const PartitionId right = pop.pid_at(2);
  const uint64_t cut3 =
      pop.SplitPartition(right, {4, 6}, {5, 7}, FakeTrapdoor(3), false);
  EXPECT_EQ(pop.k(), 4u);
  EXPECT_EQ(pop.CutPos(*pop.FindCut(cut1)), 2u);
  EXPECT_EQ(pop.CutPos(*pop.FindCut(cut3)), 3u);
  EXPECT_TRUE(pop.Validate().ok());
}

TEST(PopTest, AddTupleGrowsPartition) {
  Pop pop;
  pop.InitSingle(3);
  pop.AddTuple(pop.pid_at(0), 7);
  EXPECT_EQ(pop.num_tuples(), 4u);
  EXPECT_EQ(pop.partition_of(7), pop.pid_at(0));
  EXPECT_TRUE(pop.Validate().ok());
}

TEST(PopTest, RemoveTupleKeepsNonEmptyPartition) {
  Pop pop;
  pop.InitSingle(3);
  pop.RemoveTuple(1);
  EXPECT_EQ(pop.num_tuples(), 2u);
  EXPECT_EQ(pop.partition_of(1), Pop::kNoPartition);
  EXPECT_EQ(pop.k(), 1u);
  EXPECT_TRUE(pop.Validate().ok());
}

TEST(PopTest, EmptyingMiddlePartitionShrinksChain) {
  Pop pop;
  pop.InitSingle(4);
  pop.SplitPartition(pop.pid_at(0), {0}, {1, 2, 3}, FakeTrapdoor(1), false);
  pop.SplitPartition(pop.pid_at(1), {1}, {2, 3}, FakeTrapdoor(2), false);
  ASSERT_EQ(pop.k(), 3u);
  // Remove the middle partition's only tuple: POP_3 -> POP_2 (Sec. 7.2).
  pop.RemoveTuple(1);
  EXPECT_EQ(pop.k(), 2u);
  EXPECT_EQ(pop.members_at(0).ToVector(), (std::vector<TupleId>{0}));
  EXPECT_EQ(pop.members_at(1).ToVector(), (std::vector<TupleId>{2, 3}));
  EXPECT_TRUE(pop.Validate().ok());
  // A surviving cut still separates the two remaining partitions.
  size_t live = 0;
  for (const auto& cut : pop.cuts()) {
    if (!cut.dropped) {
      ++live;
      EXPECT_EQ(pop.CutPos(cut), 1u);
    }
  }
  EXPECT_GE(live, 1u);
}

TEST(PopTest, EmptyingHeadPartitionDropsEdgeCut) {
  Pop pop;
  pop.InitSingle(3);
  pop.SplitPartition(pop.pid_at(0), {0}, {1, 2}, FakeTrapdoor(1), false);
  pop.RemoveTuple(0);
  EXPECT_EQ(pop.k(), 1u);
  for (const auto& cut : pop.cuts()) EXPECT_TRUE(cut.dropped);
  EXPECT_TRUE(pop.Validate().ok());
}

TEST(PopTest, EmptyingTailPartitionDropsEdgeCut) {
  Pop pop;
  pop.InitSingle(3);
  pop.SplitPartition(pop.pid_at(0), {0, 1}, {2}, FakeTrapdoor(1), true);
  pop.RemoveTuple(2);
  EXPECT_EQ(pop.k(), 1u);
  for (const auto& cut : pop.cuts()) EXPECT_TRUE(cut.dropped);
  EXPECT_TRUE(pop.Validate().ok());
}

TEST(PopTest, MergeRetiresInteriorCutAndKeepsOuterOnes) {
  Pop pop;
  pop.InitSingle(6);
  pop.SplitPartition(pop.pid_at(0), {0, 1}, {2, 3, 4, 5}, FakeTrapdoor(1),
                     false);
  pop.SplitPartition(pop.pid_at(1), {2, 3}, {4, 5}, FakeTrapdoor(2), false);
  ASSERT_EQ(pop.k(), 3u);
  pop.MergeAt(1);  // merge {2,3} and {4,5}
  EXPECT_EQ(pop.k(), 2u);
  EXPECT_EQ(pop.members_at(1).Size(), 4u);
  size_t live = 0;
  for (const auto& cut : pop.cuts()) live += !cut.dropped;
  EXPECT_EQ(live, 1u);  // only the first cut survives
  EXPECT_TRUE(pop.Validate().ok());
}

TEST(PopTest, LinkBetweenCutsMakesThemInsertUsable) {
  Pop pop;
  pop.InitSingle(6);
  const auto between = FakeTrapdoor(9, edbms::PredicateKind::kBetween);
  const uint64_t c1 = pop.SplitPartition(pop.pid_at(0), {0, 1}, {2, 3, 4, 5},
                                         between, false);
  EXPECT_FALSE(pop.FindCut(c1)->UsableForInsert());
  const uint64_t c2 =
      pop.SplitPartition(pop.pid_at(1), {2, 3}, {4, 5}, between, true);
  pop.LinkBetweenCuts(c1, c2);
  EXPECT_TRUE(pop.FindCut(c1)->UsableForInsert());
  EXPECT_TRUE(pop.FindCut(c2)->UsableForInsert());
  // Dropping one end makes the other unusable again.
  pop.RemoveTuple(0);
  pop.RemoveTuple(1);  // head partition gone; c1 dropped
  EXPECT_EQ(pop.FindCut(c1), nullptr);
  EXPECT_FALSE(pop.FindCut(c2)->UsableForInsert());
}

TEST(PopTest, SizeBytesScalesWithTuplesAndCuts) {
  Pop pop;
  pop.InitSingle(1000);
  const size_t base = pop.SizeBytes();
  // Membership is compressed: 1000 contiguous tuples are one run container,
  // far below the raw vector<TupleId> footprint.
  EXPECT_GT(base, 0u);
  EXPECT_LT(pop.MembershipBytes(), pop.RawMembershipBytes());
  std::vector<TupleId> left, right;
  for (TupleId t = 0; t < 1000; ++t) (t < 500 ? left : right).push_back(t);
  edbms::Trapdoor td = FakeTrapdoor(1);
  td.blob.resize(41);
  pop.SplitPartition(pop.pid_at(0), left, right, td, false);
  EXPECT_GT(pop.SizeBytes(), base);
}

TEST(PopTest, ValidateAgainstPlainAcceptsBothOrientations) {
  // Values: tid0=5, tid1=1, tid2=9. Ascending chain {1} {5} {9}.
  std::vector<edbms::Value> plain = {5, 1, 9};
  Pop pop;
  pop.InitSingle(3);
  pop.SplitPartition(pop.pid_at(0), {1}, {0, 2}, FakeTrapdoor(1), true);
  pop.SplitPartition(pop.pid_at(1), {0}, {2}, FakeTrapdoor(2), true);
  EXPECT_TRUE(pop.ValidateAgainstPlain(plain).ok());

  // Descending chain {9} {5} {1} is equally valid knowledge.
  Pop desc;
  desc.InitSingle(3);
  desc.SplitPartition(desc.pid_at(0), {2}, {0, 1}, FakeTrapdoor(1), true);
  desc.SplitPartition(desc.pid_at(1), {0}, {1}, FakeTrapdoor(2), true);
  EXPECT_TRUE(desc.ValidateAgainstPlain(plain).ok());
}

TEST(PopTest, ValidateAgainstPlainRejectsBrokenChain) {
  // Chain {5} {1} {9} is neither ascending nor descending.
  std::vector<edbms::Value> plain = {5, 1, 9};
  Pop pop;
  pop.InitSingle(3);
  pop.SplitPartition(pop.pid_at(0), {0}, {1, 2}, FakeTrapdoor(1), true);
  pop.SplitPartition(pop.pid_at(1), {1}, {2}, FakeTrapdoor(2), true);
  EXPECT_FALSE(pop.ValidateAgainstPlain(plain).ok());
}

TEST(PopTest, ValidateAgainstPlainRejectsOverlappingRanges) {
  // tid0=1, tid1=3, tid2=2: partitions {1,3} {2} overlap in range.
  std::vector<edbms::Value> plain = {1, 3, 2};
  Pop pop;
  pop.InitSingle(3);
  pop.SplitPartition(pop.pid_at(0), {0, 1}, {2}, FakeTrapdoor(1), true);
  EXPECT_FALSE(pop.ValidateAgainstPlain(plain).ok());
}

// ------------------------------------------ chain-ordered layout differential

std::vector<uint8_t> Encoded(const Pop& pop) {
  Encoder enc;
  pop.EncodeTo(&enc);
  return enc.Release();
}

/// The layout must be exactly the memberships concatenated in chain order:
/// over the whole chain and over a random run of partitions.
void ExpectLayoutMatchesMembers(const Pop& pop, Rng* rng) {
  ASSERT_TRUE(pop.Validate().ok()) << pop.Validate().ToString();
  std::vector<TupleId> all;
  for (size_t p = 0; p < pop.k(); ++p) {
    const std::vector<TupleId> m = pop.members_at(p).ToVector();
    ASSERT_EQ(pop.size_at(p), m.size());
    all.insert(all.end(), m.begin(), m.end());
  }
  const auto whole = pop.tuples(0, pop.k());
  ASSERT_EQ(std::vector<TupleId>(whole.begin(), whole.end()), all);
  if (pop.k() == 0) return;
  const size_t b = rng->UniformInt(0, pop.k() - 1);
  const size_t e = rng->UniformInt(b, pop.k());
  std::vector<TupleId> want;
  for (size_t p = b; p < e; ++p) {
    const std::vector<TupleId> m = pop.members_at(p).ToVector();
    want.insert(want.end(), m.begin(), m.end());
  }
  const auto run = pop.tuples(b, e);
  EXPECT_EQ(std::vector<TupleId>(run.begin(), run.end()), want);
}

TEST(PopTest, RandomMutationsKeepLayoutExactThroughCodecAndWalReplay) {
  // Interleaves every chain mutation — splits (comparison and linked
  // BETWEEN pairs), single and batched adds, removes of chained and
  // buffered tuples, merges, re-inits, snapshot round trips — on a chain
  // logged by a real WAL. After each step the layout must equal the
  // memberships; every 16 steps a replica recovered from a copy of the WAL
  // directory must encode to the same bytes and hold the same layout.
  namespace fs = std::filesystem;
  constexpr TupleId kUniverse = 300;
  edbms::PlainTable plain(1);
  for (TupleId t = 0; t < kUniverse; ++t) {
    plain.AddRow({static_cast<edbms::Value>(t)});
  }
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    auto db = edbms::CipherbaseEdbms::FromPlainTable(seed, plain);
    PrkbIndex index(&db);
    index.EnableAttr(0);
    const std::string dir = ::testing::TempDir() + "/pop_layout_wal_" +
                            std::to_string(seed);
    const std::string copy = dir + "_replica";
    fs::remove_all(dir);
    auto wal = PrkbWal::Open(&index, dir);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    Rng rng(seed * 977);
    uint64_t uid = 1;
    const auto uncovered = [&](Pop& pop) {
      std::vector<TupleId> out;
      for (TupleId t = 0; t < kUniverse; ++t) {
        if (pop.partition_of(t) == Pop::kNoPartition &&
            !pop.insert_buffer().Contains(t)) {
          out.push_back(t);
        }
      }
      return out;
    };
    const auto split = [&](Pop& pop, edbms::PredicateKind kind) -> uint64_t {
      std::vector<size_t> splittable;
      for (size_t p = 0; p < pop.k(); ++p) {
        if (pop.size_at(p) >= 2) splittable.push_back(p);
      }
      if (splittable.empty()) return Pop::kNoCut;
      const size_t pos = splittable[rng.UniformInt(0, splittable.size() - 1)];
      std::vector<TupleId> members = pop.members_at(pos).ToVector();
      rng.Shuffle(&members);
      const size_t cut = rng.UniformInt(1, members.size() - 1);
      return pop.SplitPartition(
          pop.pid_at(pos),
          std::vector<TupleId>(members.begin(), members.begin() + cut),
          std::vector<TupleId>(members.begin() + cut, members.end()),
          FakeTrapdoor(uid++, kind), rng.UniformInt(0, 1) == 1);
    };
    for (int step = 0; step < 400; ++step) {
      SCOPED_TRACE(::testing::Message() << "step " << step);
      Pop& pop = index.pop(0);
      const int op = static_cast<int>(rng.UniformInt(0, 99));
      const std::vector<TupleId> free = uncovered(pop);
      if (op < 30) {
        split(pop, edbms::PredicateKind::kComparison);
      } else if (op < 35) {
        const uint64_t lo = split(pop, edbms::PredicateKind::kBetween);
        const uint64_t hi = split(pop, edbms::PredicateKind::kBetween);
        if (lo != Pop::kNoCut && hi != Pop::kNoCut && pop.FindCut(lo) &&
            pop.FindCut(hi)) {
          pop.LinkBetweenCuts(lo, hi);
        }
      } else if (op < 48) {
        if (!free.empty() && pop.k() > 0) {
          const TupleId tid = free[rng.UniformInt(0, free.size() - 1)];
          pop.AddTuple(pop.pid_at(rng.UniformInt(0, pop.k() - 1)), tid);
        }
      } else if (op < 63) {
        if (pop.num_tuples() + pop.insert_buffer().Size() > 1) {
          std::vector<TupleId> present;
          for (TupleId t = 0; t < kUniverse; ++t) {
            if (pop.partition_of(t) != Pop::kNoPartition ||
                pop.insert_buffer().Contains(t)) {
              present.push_back(t);
            }
          }
          pop.RemoveTuple(present[rng.UniformInt(0, present.size() - 1)]);
        }
      } else if (op < 71) {
        if (pop.k() >= 2) pop.MergeAt(rng.UniformInt(0, pop.k() - 2));
      } else if (op < 78) {
        if (!free.empty()) {
          pop.BufferAppend(free[rng.UniformInt(0, free.size() - 1)]);
        }
      } else if (op < 90) {
        // Batch placement, as a buffer flush does it: every buffered tuple
        // plus a few fresh ones, each into a random partition.
        if (pop.k() > 0) {
          std::vector<std::pair<PartitionId, TupleId>> batch;
          const std::vector<TupleId> buffered = pop.insert_buffer().order();
          for (TupleId t : buffered) {
            batch.emplace_back(pop.pid_at(rng.UniformInt(0, pop.k() - 1)), t);
          }
          const size_t fresh =
              std::min<size_t>(free.size(), rng.UniformInt(0, 12));
          for (size_t i = 0; i < fresh; ++i) {
            batch.emplace_back(pop.pid_at(rng.UniformInt(0, pop.k() - 1)),
                               free[i]);
          }
          pop.AddTuples(batch);
          if (!buffered.empty()) pop.NoteBufferFlushed(buffered.size());
        }
      } else if (op < 93) {
        std::vector<TupleId> some;
        for (TupleId t = 0; t < kUniverse; ++t) {
          if (rng.UniformInt(0, 2) != 0) some.push_back(t);
        }
        pop.InitSingle(some);
      } else {
        Pop decoded;
        const std::vector<uint8_t> bytes = Encoded(pop);
        Decoder dec(bytes.data(), bytes.size());
        ASSERT_TRUE(decoded.DecodeFrom(&dec).ok());
        ExpectLayoutMatchesMembers(decoded, &rng);
        EXPECT_EQ(Encoded(decoded), bytes);
        index.InstallPop(0, std::move(decoded));
      }
      ASSERT_TRUE((*wal)->Commit().ok());
      ExpectLayoutMatchesMembers(index.pop(0), &rng);
      if (step % 16 == 15) {
        fs::remove_all(copy);
        fs::copy(dir, copy, fs::copy_options::recursive);
        PrkbIndex replica(&db);
        auto rwal = PrkbWal::Open(&replica, copy);
        ASSERT_TRUE(rwal.ok()) << rwal.status().ToString();
        ASSERT_TRUE(replica.IsEnabled(0));
        ExpectLayoutMatchesMembers(replica.pop(0), &rng);
        EXPECT_EQ(Encoded(replica.pop(0)), Encoded(index.pop(0)));
        const auto a = replica.pop(0).tuples(0, replica.pop(0).k());
        const auto b = index.pop(0).tuples(0, index.pop(0).k());
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
      }
    }
    wal->reset();
    fs::remove_all(dir);
    fs::remove_all(copy);
  }
}

}  // namespace
}  // namespace prkb::core
