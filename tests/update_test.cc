#include <cstdio>
#include <string>
#include <vector>

#include "common/serial.h"

#include "edbms/cipherbase_qpf.h"
#include "gtest/gtest.h"
#include "prkb/prkb_io.h"
#include "prkb/selection.h"
#include "tests/test_util.h"

namespace prkb::core {
namespace {

using edbms::CipherbaseEdbms;
using edbms::CompareOp;
using edbms::PlainPredicate;
using edbms::PlainTable;
using edbms::SelectionStats;
using edbms::TupleId;
using edbms::Value;
using testutil::OracleSelect;
using testutil::RandomTable;
using testutil::Sorted;

constexpr uint64_t kSeed = 31337;

// Mirror of the encrypted table kept in plaintext so the oracle can follow
// inserts/deletes.
struct Mirror {
  PlainTable plain{1};
};

// Placement QPF bound for one insert: the paper's ⌈lg k⌉ + 1 at m = 2, and
// its m-ary analogue (m−1)·⌈log_m k⌉ + 1 when the probe scheduler ships m−1
// cuts per round trip.
void CheckPlacementBound(PrkbOptions options) {
  Rng data_rng(1);
  PlainTable plain = RandomTable(2000, 1, &data_rng, 0, 1000000);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db, options);
  index.EnableAttr(0);
  Rng qrng(2);
  for (int i = 0; i < 200; ++i) {
    index.Select(
        db.MakeComparison(0, CompareOp::kLt, qrng.UniformInt64(0, 1000000)));
  }
  const size_t k = index.pop(0).k();
  ASSERT_GT(k, 50u);
  const size_t m = options.probe_fanout;
  size_t log_m = 0;
  for (size_t reach = 1; reach < k; reach *= m) ++log_m;

  SelectionStats stats;
  index.Insert({123456}, &stats);
  EXPECT_LE(stats.qpf_uses, (m - 1) * log_m + 1);
  EXPECT_EQ(index.pop(0).num_tuples(), 2001u);
}

TEST(InsertTest, PlacementIsLogarithmicInK) {
  CheckPlacementBound(testutil::FanoutTwoControl());
}

TEST(InsertTest, MaryPlacementRespectsTheInflatedBound) {
  CheckPlacementBound(PrkbOptions{});
}

TEST(InsertTest, InsertedTuplesAreFoundByLaterQueries) {
  Rng data_rng(3);
  PlainTable plain = RandomTable(300, 1, &data_rng, 0, 1000);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  Rng qrng(4);
  for (int i = 0; i < 40; ++i) {
    index.Select(
        db.MakeComparison(0, CompareOp::kLt, qrng.UniformInt64(0, 1000)));
  }
  // Insert values all over the domain, including duplicates and extremes.
  for (Value v : {Value{0}, Value{1000}, Value{500}, Value{500}, Value{17}}) {
    const TupleId tid = index.Insert({v});
    plain.AddRow({v});
    EXPECT_EQ(tid, plain.num_rows() - 1);
  }
  EXPECT_TRUE(index.pop(0).ValidateAgainstPlain(plain.column(0)).ok());
  for (Value c : {Value{10}, Value{400}, Value{501}, Value{999}}) {
    PlainPredicate p{.attr = 0, .op = CompareOp::kLe, .lo = c};
    const auto got = index.Select(db.MakeComparison(0, p.op, c));
    ASSERT_EQ(Sorted(got), OracleSelect(plain, p)) << "c=" << c;
  }
}

TEST(InsertTest, IntoEmptyIndexCreatesFirstPartition) {
  PlainTable plain(1);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  index.Insert({42});
  index.Insert({7});
  EXPECT_EQ(index.pop(0).k(), 1u);
  EXPECT_EQ(index.pop(0).num_tuples(), 2u);
  const auto got = index.Select(db.MakeComparison(0, CompareOp::kLt, 10));
  EXPECT_EQ(got, (std::vector<TupleId>{1}));
}

TEST(DeleteTest, DeletedTuplesVanishFromResults) {
  Rng data_rng(5);
  PlainTable plain = RandomTable(100, 1, &data_rng, 0, 200);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  Rng qrng(6);
  for (int i = 0; i < 20; ++i) {
    index.Select(
        db.MakeComparison(0, CompareOp::kLt, qrng.UniformInt64(0, 200)));
  }
  for (TupleId tid : {TupleId{0}, TupleId{50}, TupleId{99}}) {
    index.Delete(tid);
  }
  PlainPredicate p{.attr = 0, .op = CompareOp::kGe, .lo = 0};  // everything
  const auto got = index.Select(db.MakeComparison(0, p.op, p.lo));
  EXPECT_EQ(Sorted(got), OracleSelect(plain, p, &db));
  EXPECT_EQ(got.size(), 97u);
}

TEST(DeleteTest, EmptyingPartitionsShrinksChain) {
  PlainTable plain(1);
  for (Value v : {10, 20, 30, 40}) plain.AddRow({v});
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  index.Select(db.MakeComparison(0, CompareOp::kLt, 25));
  index.Select(db.MakeComparison(0, CompareOp::kLt, 35));
  ASSERT_EQ(index.pop(0).k(), 3u);
  index.Delete(2);  // value 30 is alone in its partition
  EXPECT_EQ(index.pop(0).k(), 2u);
  EXPECT_TRUE(index.pop(0).Validate().ok());
}

TEST(UpdateChurnTest, MixedWorkloadStaysExact) {
  Rng data_rng(7);
  PlainTable plain = RandomTable(200, 2, &data_rng, 0, 500);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db, PrkbOptions{.seed = 99});
  index.EnableAttr(0);
  index.EnableAttr(1);
  Rng wrng(8);
  std::vector<TupleId> live;
  for (TupleId t = 0; t < 200; ++t) live.push_back(t);

  for (int i = 0; i < 150; ++i) {
    const double dice = wrng.UniformDouble();
    if (dice < 0.2) {
      const Value a = wrng.UniformInt64(0, 500);
      const Value b = wrng.UniformInt64(0, 500);
      index.Insert({a, b});
      plain.AddRow({a, b});
      live.push_back(static_cast<TupleId>(plain.num_rows() - 1));
    } else if (dice < 0.35 && !live.empty()) {
      const size_t pos = wrng.UniformInt(0, live.size() - 1);
      index.Delete(live[pos]);
      live.erase(live.begin() + static_cast<ptrdiff_t>(pos));
    } else {
      const auto attr = static_cast<edbms::AttrId>(wrng.UniformInt(0, 1));
      PlainPredicate p{.attr = attr, .op = CompareOp::kLt,
                       .lo = wrng.UniformInt64(0, 500)};
      const auto got = index.Select(db.MakeComparison(attr, p.op, p.lo));
      ASSERT_EQ(Sorted(got), OracleSelect(plain, p, &db)) << "step " << i;
    }
    for (edbms::AttrId a = 0; a < 2; ++a) {
      // Validation oracle ignores tombstoned tuples automatically: they are
      // no longer members of any partition.
      ASSERT_TRUE(index.pop(a).ValidateAgainstPlain(plain.column(a)).ok())
          << "attr " << a << " step " << i;
    }
  }
}

TEST(UpdateChurnTest, InsertAfterBetweenQueriesUsesSiblingCuts) {
  Rng data_rng(9);
  PlainTable plain = RandomTable(300, 1, &data_rng, 0, 1000);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  Rng qrng(10);
  // One comparison to bootstrap (a cold k=1 chain can never orient a BETWEEN
  // band), then a chain grown purely from BETWEEN queries: almost every cut
  // is a between cut, so insertion has to use sibling-pair evaluation.
  index.Select(db.MakeComparison(0, CompareOp::kLt, 500));
  for (int i = 0; i < 30; ++i) {
    const Value lo = qrng.UniformInt64(0, 900);
    index.Select(db.MakeBetween(0, lo, lo + 100));
  }
  ASSERT_GT(index.pop(0).k(), 3u);
  for (int i = 0; i < 30; ++i) {
    const Value v = qrng.UniformInt64(0, 1000);
    index.Insert({v});
    plain.AddRow({v});
  }
  EXPECT_TRUE(index.pop(0).ValidateAgainstPlain(plain.column(0)).ok());
  PlainPredicate p{.attr = 0, .op = CompareOp::kLt, .lo = 500};
  const auto got = index.Select(db.MakeComparison(0, p.op, p.lo));
  EXPECT_EQ(Sorted(got), OracleSelect(plain, p));
}

// ------------------------------------------------------------- Persistence

TEST(PrkbIoTest, SaveLoadRoundTripPreservesChainsAndCuts) {
  Rng data_rng(11);
  PlainTable plain = RandomTable(400, 2, &data_rng, 0, 10000);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  index.EnableAttr(1);
  Rng qrng(12);
  for (int i = 0; i < 50; ++i) {
    const auto attr = static_cast<edbms::AttrId>(qrng.UniformInt(0, 1));
    if (qrng.Bernoulli(0.3)) {
      const Value lo = qrng.UniformInt64(0, 9000);
      index.Select(db.MakeBetween(attr, lo, lo + 500));
    } else {
      index.Select(db.MakeComparison(attr, CompareOp::kLt,
                                     qrng.UniformInt64(0, 10000)));
    }
  }

  const std::string path = "/tmp/prkb_io_test.bin";
  ASSERT_TRUE(SavePrkb(index, path).ok());

  PrkbIndex loaded(&db);
  ASSERT_TRUE(LoadPrkb(&loaded, path).ok());
  for (edbms::AttrId a = 0; a < 2; ++a) {
    ASSERT_TRUE(loaded.IsEnabled(a));
    EXPECT_EQ(loaded.pop(a).k(), index.pop(a).k());
    EXPECT_EQ(loaded.pop(a).num_tuples(), index.pop(a).num_tuples());
    EXPECT_TRUE(loaded.pop(a).ValidateAgainstPlain(plain.column(a)).ok());
  }
  // The loaded index answers queries and accepts inserts.
  PlainPredicate p{.attr = 0, .op = CompareOp::kGe, .lo = 5000};
  const auto got = loaded.Select(db.MakeComparison(0, p.op, p.lo));
  EXPECT_EQ(Sorted(got), OracleSelect(plain, p));
  loaded.Insert({1234, 5678});
  plain.AddRow({1234, 5678});
  EXPECT_TRUE(loaded.pop(0).ValidateAgainstPlain(plain.column(0)).ok());
  std::remove(path.c_str());
}

TEST(PrkbIoTest, LoadRejectsGarbage) {
  const std::string path = "/tmp/prkb_io_garbage.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[] = "not a prkb file";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);

  PlainTable plain(1);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  EXPECT_FALSE(LoadPrkb(&index, path).ok());
  std::remove(path.c_str());
}

// Writes a v3 snapshot of one 3-partition chain {0} {1} {2} on attribute 0
// carrying two comparison cuts: the first on boundary 0|1, the second on the
// boundary right of chain position `second_left_pos`.
void WriteTwoCutSnapshot(const std::string& path, CipherbaseEdbms* db,
                         uint64_t second_left_pos) {
  Encoder enc;
  enc.PutU32(0x50524B42);  // "PRKB"
  enc.PutU8(3);
  enc.PutVarint(1);  // one attribute
  enc.PutU32(0);
  enc.PutVarint(3);  // k
  for (uint64_t tid = 0; tid < 3; ++tid) {
    enc.PutVarint(1);
    enc.PutVarint(tid);
  }
  enc.PutVarint(2);  // live cuts
  const uint64_t left_pos[] = {0, second_left_pos};
  for (uint64_t i = 0; i < 2; ++i) {
    enc.PutU64(i + 1);  // cut id
    enc.PutVarint(left_pos[i]);
    enc.PutU8(1);  // left label
    enc.PutU64(Pop::kNoCut);  // no sibling
    EncodeTrapdoor(&enc, db->MakeComparison(0, CompareOp::kLt,
                                            static_cast<Value>(15 + 10 * i)));
  }
  enc.PutU64(3);     // next cut id
  enc.PutVarint(0);  // fast-path entries
  enc.PutVarint(0);  // buffered tuples
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(enc.buffer().data(), 1, enc.buffer().size(), f);
  std::fclose(f);
}

TEST(PrkbIoTest, LoadRejectsTwoCutsOnOneBoundary) {
  PlainTable plain(1);
  for (Value v : {10, 20, 30}) plain.AddRow({v});
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  const std::string path = "/tmp/prkb_io_stacked_cuts.bin";

  // Control: the same snapshot with the cuts on distinct boundaries loads.
  WriteTwoCutSnapshot(path, &db, /*second_left_pos=*/1);
  PrkbIndex ok_index(&db);
  ASSERT_TRUE(LoadPrkb(&ok_index, path).ok());
  EXPECT_NE(ok_index.pop(0).CutAt(1), nullptr);
  EXPECT_NE(ok_index.pop(0).CutAt(2), nullptr);

  // Both cuts on boundary 0|1: every boundary holds at most one live cut.
  WriteTwoCutSnapshot(path, &db, /*second_left_pos=*/0);
  PrkbIndex stacked(&db);
  const Status s = LoadPrkb(&stacked, path);
  EXPECT_EQ(s.code(), Status::Code::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("share a boundary"), std::string::npos)
      << s.ToString();
  std::remove(path.c_str());
}

// Writes a v3 snapshot of one single-partition chain on attribute 0 whose
// member list is `members`, verbatim, with no cuts, cache or buffer.
void WriteOnePartitionSnapshot(const std::string& path,
                               const std::vector<uint64_t>& members) {
  Encoder enc;
  enc.PutU32(0x50524B42);  // "PRKB"
  enc.PutU8(3);
  enc.PutVarint(1);  // one attribute
  enc.PutU32(0);
  enc.PutVarint(1);  // k
  enc.PutVarint(members.size());
  for (uint64_t tid : members) enc.PutVarint(tid);
  enc.PutVarint(0);  // live cuts
  enc.PutU64(1);     // next cut id
  enc.PutVarint(0);  // fast-path entries
  enc.PutVarint(0);  // buffered tuples
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(enc.buffer().data(), 1, enc.buffer().size(), f);
  std::fclose(f);
}

// The encoder writes every partition's members strictly ascending. A list
// out of order, or one naming a tuple twice, is corrupt: it must fail the
// load rather than be sorted or deduplicated into a different chain.
void ExpectMemberListRejected(const std::vector<uint64_t>& members) {
  PlainTable plain(1);
  for (Value v : {10, 20, 30}) plain.AddRow({v});
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  const std::string path = testing::TempDir() + "/prkb_io_member_list.bin";

  WriteOnePartitionSnapshot(path, {0, 1, 2});  // control
  PrkbIndex ok_index(&db);
  ASSERT_TRUE(LoadPrkb(&ok_index, path).ok());
  EXPECT_EQ(ok_index.pop(0).num_tuples(), 3u);

  WriteOnePartitionSnapshot(path, members);
  PrkbIndex index(&db);
  const Status s = LoadPrkb(&index, path);
  EXPECT_EQ(s.code(), Status::Code::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("not strictly ascending"), std::string::npos)
      << s.ToString();
  std::remove(path.c_str());
}

TEST(PrkbIoTest, LoadRejectsUnsortedPartitionMembers) {
  ExpectMemberListRejected({2, 0, 1});
}

TEST(PrkbIoTest, LoadRejectsTupleListedTwiceInOnePartition) {
  ExpectMemberListRejected({0, 1, 1});
}

TEST(PrkbIoTest, LoadRejectsTupleIdBeyondTheIdSpace) {
  // A varint wider than a tuple id must not be truncated into a valid one.
  PlainTable plain(1);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  const std::string path = testing::TempDir() + "/prkb_io_wide_tid.bin";
  WriteOnePartitionSnapshot(path, {0, uint64_t{1} << 32});
  PrkbIndex index(&db);
  const Status s = LoadPrkb(&index, path);
  EXPECT_EQ(s.code(), Status::Code::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("out of range"), std::string::npos)
      << s.ToString();
  std::remove(path.c_str());
}

TEST(PrkbIoTest, LoadRejectsMissingFile) {
  PlainTable plain(1);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  EXPECT_EQ(LoadPrkb(&index, "/tmp/definitely_missing_prkb.bin").code(),
            Status::Code::kIoError);
}

}  // namespace
}  // namespace prkb::core
