// Loopback serving differential: every selection workload driven through a
// RemoteEdbms talking to a QpfServer over a real socket must produce
// byte-identical winner sets and identical QPF-use counts to the same
// workload run in-process — the wire changes *where* Θ evaluates, never
// which bits it produces or how many the client pays for. Plus transport
// failure handling: killing the server mid-session surfaces as a clean
// Status through the planner, not a hang, crash or silent empty result.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <memory>
#include <thread>
#include <vector>

#include "edbms/cipherbase_qpf.h"
#include "gtest/gtest.h"
#include "net/qpf_client.h"
#include "net/qpf_server.h"
#include "prkb/concurrent.h"
#include "prkb/selection.h"
#include "query/planner.h"
#include "tests/test_util.h"

namespace prkb {
namespace {

using edbms::CompareOp;
using edbms::PlainPredicate;
using edbms::PredicateKind;
using edbms::SelectionStats;
using edbms::TupleId;
using edbms::Value;

/// One served deployment: a local Edbms hosted behind a loopback QpfServer,
/// with a connected client and the RemoteEdbms facade over both.
struct Loopback {
  edbms::CipherbaseEdbms db;
  std::unique_ptr<net::QpfServer> server;
  std::unique_ptr<net::QpfClient> client;
  std::unique_ptr<net::RemoteEdbms> remote;

  explicit Loopback(edbms::CipherbaseEdbms local_db)
      : db(std::move(local_db)) {
    server = std::make_unique<net::QpfServer>(&db);
    EXPECT_TRUE(server->ServeTcp(0).ok());
    auto c = net::QpfClient::ConnectTcp("127.0.0.1", server->port());
    EXPECT_TRUE(c.ok());
    client = std::move(c).value();
    remote = std::make_unique<net::RemoteEdbms>(&db, client.get());
  }
};

PlainPredicate Cmp(edbms::AttrId attr, CompareOp op, Value c) {
  PlainPredicate p;
  p.attr = attr;
  p.op = op;
  p.lo = c;
  return p;
}

PlainPredicate Btw(edbms::AttrId attr, Value lo, Value hi) {
  PlainPredicate p;
  p.attr = attr;
  p.kind = PredicateKind::kBetween;
  p.lo = lo;
  p.hi = hi;
  return p;
}

struct OpCost {
  uint64_t uses = 0;
  uint64_t trips = 0;
  uint64_t hits = 0;

  bool operator==(const OpCost&) const = default;
};

OpCost CostOf(const SelectionStats& s) {
  return OpCost{s.qpf_uses, s.qpf_round_trips, s.cache_hits};
}

TEST(NetServingTest, PingAndStatsOverTcp) {
  Rng rng(1);
  Loopback lb(edbms::CipherbaseEdbms::FromPlainTable(
      7, testutil::RandomTable(50, 1, &rng)));
  EXPECT_TRUE(lb.client->Ping().ok());
  auto stats = lb.client->FetchStats();
  ASSERT_TRUE(stats.ok());
  bool saw_qpf_uses = false;
  for (const auto& [name, value] : stats.value()) {
    if (name == "qpf.uses") saw_qpf_uses = true;
  }
  EXPECT_TRUE(saw_qpf_uses);
  EXPECT_TRUE(lb.client->Health().ok());
}

TEST(NetServingTest, PingOverUnixSocket) {
  Rng rng(2);
  auto db = edbms::CipherbaseEdbms::FromPlainTable(
      8, testutil::RandomTable(20, 1, &rng));
  net::QpfServer server(&db);
  const std::string path =
      ::testing::TempDir() + "/prkb_qpf_test.sock";
  ASSERT_TRUE(server.ServeUnix(path).ok());
  auto client = net::QpfClient::ConnectUnix(path);
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client.value()->Ping().ok());
}

/// Runs the full single-predicate workload (comparisons, BETWEENs, repeats
/// interleaved) through one PrkbIndex and returns winners + per-op costs.
struct RunResult {
  std::vector<std::vector<TupleId>> winners;
  std::vector<OpCost> costs;
};

RunResult DriveSinglePredicate(core::PrkbIndex* index, edbms::Edbms* issuer,
                               const std::vector<PlainPredicate>& preds) {
  RunResult out;
  std::vector<edbms::Trapdoor> tds;
  for (const auto& p : preds) {
    if (p.kind == PredicateKind::kBetween) {
      tds.push_back(issuer->MakeBetween(p.attr, p.lo, p.hi));
    } else {
      tds.push_back(issuer->MakeComparison(p.attr, p.op, p.lo));
    }
  }
  // Each predicate twice — fresh then repeat — then every third once more,
  // exercising the zero-QPF fast path over the wire.
  std::vector<size_t> order;
  for (size_t i = 0; i < tds.size(); ++i) {
    order.push_back(i);
    order.push_back(i);
  }
  for (size_t i = 0; i < tds.size(); i += 3) order.push_back(i);
  for (const size_t i : order) {
    SelectionStats stats;
    out.winners.push_back(testutil::Sorted(index->Select(tds[i], &stats)));
    out.costs.push_back(CostOf(stats));
  }
  return out;
}

TEST(NetServingTest, SinglePredicateWorkloadIsByteIdenticalOverLoopback) {
  Rng rng(11);
  const auto plain = testutil::RandomTable(300, 2, &rng, 0, 999);

  const std::vector<PlainPredicate> preds = {
      Cmp(0, CompareOp::kLt, 500), Cmp(0, CompareOp::kGe, 250),
      Btw(0, 300, 700),            Cmp(1, CompareOp::kGt, 100),
      Btw(1, 50, 800),             Cmp(0, CompareOp::kLe, 900),
  };

  // In-process reference run.
  auto db_local = edbms::CipherbaseEdbms::FromPlainTable(99, plain);
  core::PrkbIndex local_index(&db_local);
  local_index.EnableAttr(0);
  local_index.EnableAttr(1);
  const RunResult local = DriveSinglePredicate(&local_index, &db_local, preds);

  // Served run: identical deployment (same master seed), Θ over the wire.
  Loopback lb(edbms::CipherbaseEdbms::FromPlainTable(99, plain));
  core::PrkbIndex remote_index(lb.remote.get());
  remote_index.EnableAttr(0);
  remote_index.EnableAttr(1);
  const RunResult served =
      DriveSinglePredicate(&remote_index, lb.remote.get(), preds);

  ASSERT_EQ(local.winners.size(), served.winners.size());
  for (size_t i = 0; i < local.winners.size(); ++i) {
    EXPECT_EQ(local.winners[i], served.winners[i]) << "operation " << i;
    EXPECT_EQ(local.costs[i], served.costs[i])
        << "operation " << i << ": uses " << local.costs[i].uses << " vs "
        << served.costs[i].uses << ", trips " << local.costs[i].trips
        << " vs " << served.costs[i].trips;
  }
  // Sanity: repeats actually hit the zero-QPF path on the served run too.
  bool saw_zero_use_repeat = false;
  for (const OpCost& c : served.costs) {
    if (c.uses == 0 && c.hits > 0) saw_zero_use_repeat = true;
  }
  EXPECT_TRUE(saw_zero_use_repeat);
  // And the served run really crossed the wire.
  EXPECT_GT(lb.server->frames_served(), 0u);
}

TEST(NetServingTest, MdAndSdPlusAreByteIdenticalOverLoopback) {
  Rng rng(13);
  const auto plain = testutil::RandomTable(250, 3, &rng, 0, 999);

  auto db_local = edbms::CipherbaseEdbms::FromPlainTable(77, plain);
  core::PrkbIndex local_index(&db_local);
  Loopback lb(edbms::CipherbaseEdbms::FromPlainTable(77, plain));
  core::PrkbIndex remote_index(lb.remote.get());
  for (edbms::AttrId a = 0; a < 3; ++a) {
    local_index.EnableAttr(a);
    remote_index.EnableAttr(a);
  }

  const auto run_md = [](core::PrkbIndex* index, edbms::Edbms* issuer,
                         SelectionStats* stats) {
    const std::vector<edbms::Trapdoor> tds = {
        issuer->MakeComparison(0, CompareOp::kLt, 600),
        issuer->MakeComparison(1, CompareOp::kGt, 200),
        issuer->MakeComparison(2, CompareOp::kLe, 850),
    };
    return testutil::Sorted(index->SelectRangeMd(tds, stats));
  };
  SelectionStats local_md, served_md;
  EXPECT_EQ(run_md(&local_index, &db_local, &local_md),
            run_md(&remote_index, lb.remote.get(), &served_md));
  EXPECT_EQ(CostOf(local_md), CostOf(served_md));

  const auto run_sd = [](core::PrkbIndex* index, edbms::Edbms* issuer,
                         SelectionStats* stats) {
    const std::vector<edbms::Trapdoor> tds = {
        issuer->MakeBetween(0, 100, 700),
        issuer->MakeBetween(1, 300, 900),
    };
    return testutil::Sorted(index->SelectRangeSdPlus(tds, stats));
  };
  SelectionStats local_sd, served_sd;
  EXPECT_EQ(run_sd(&local_index, &db_local, &local_sd),
            run_sd(&remote_index, lb.remote.get(), &served_sd));
  EXPECT_EQ(CostOf(local_sd), CostOf(served_sd));
}

TEST(NetServingTest, InsertPlacementIsByteIdenticalOverLoopback) {
  Rng rng(17);
  const auto plain = testutil::RandomTable(200, 1, &rng, 0, 999);

  auto db_local = edbms::CipherbaseEdbms::FromPlainTable(55, plain);
  core::PrkbIndex local_index(&db_local);
  Loopback lb(edbms::CipherbaseEdbms::FromPlainTable(55, plain));
  core::PrkbIndex remote_index(lb.remote.get());
  local_index.EnableAttr(0);
  remote_index.EnableAttr(0);

  // Carve some structure first so placement has cuts to binary-search.
  for (const Value c : {200, 400, 600, 800}) {
    const auto td_l = db_local.MakeComparison(0, CompareOp::kLt, c);
    const auto td_r = lb.remote->MakeComparison(0, CompareOp::kLt, c);
    ASSERT_EQ(testutil::Sorted(local_index.Select(td_l)),
              testutil::Sorted(remote_index.Select(td_r)));
  }
  for (int i = 0; i < 10; ++i) {
    const Value v = static_cast<Value>(i * 97 % 1000);
    SelectionStats sl, sr;
    const TupleId tl = local_index.Insert({v}, &sl);
    const TupleId tr = remote_index.Insert({v}, &sr);
    EXPECT_EQ(tl, tr);
    EXPECT_EQ(CostOf(sl), CostOf(sr)) << "insert " << i;
  }
  // Post-insert selections still agree.
  const auto td_l = db_local.MakeComparison(0, CompareOp::kGe, 500);
  const auto td_r = lb.remote->MakeComparison(0, CompareOp::kGe, 500);
  EXPECT_EQ(testutil::Sorted(local_index.Select(td_l)),
            testutil::Sorted(remote_index.Select(td_r)));
}

TEST(NetServingTest, ConcurrentSelectionsMultiplexOneChannel) {
  Rng rng(19);
  const auto plain = testutil::RandomTable(300, 4, &rng, 0, 999);
  Loopback lb(edbms::CipherbaseEdbms::FromPlainTable(33, plain));
  core::ConcurrentPrkbIndex index(lb.remote.get());
  for (edbms::AttrId a = 0; a < 4; ++a) index.EnableAttr(a);

  // 8 threads, each running selections on its own attribute stream, all
  // funnelled through the single client channel via correlation ids.
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 12;
  std::vector<std::vector<PlainPredicate>> preds(kThreads);
  std::vector<std::vector<edbms::Trapdoor>> tds(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      const auto attr = static_cast<edbms::AttrId>(t % 4);
      const Value c = static_cast<Value>((i * 131 + t * 17) % 1000);
      preds[t].push_back(Cmp(attr, CompareOp::kLt, c));
      tds[t].push_back(lb.remote->MakeComparison(attr, CompareOp::kLt, c));
    }
  }
  std::vector<std::vector<std::vector<TupleId>>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        got[t].push_back(testutil::Sorted(index.Select(tds[t][i])));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      EXPECT_EQ(got[t][i], testutil::OracleSelect(plain, preds[t][i]))
          << "thread " << t << " op " << i;
    }
  }
  EXPECT_TRUE(lb.client->Health().ok());
}

TEST(NetServingTest, KillingServerSurfacesCleanStatusThroughPlanner) {
  Rng rng(23);
  const auto plain = testutil::RandomTable(150, 1, &rng, 0, 999);
  Loopback lb(edbms::CipherbaseEdbms::FromPlainTable(44, plain));
  core::PrkbIndex index(lb.remote.get());
  index.EnableAttr(0);

  query::Catalog catalog;
  catalog.RegisterTable("t", {"c"});
  query::Planner planner(&catalog, lb.remote.get(), &index);

  // Healthy round first.
  auto ok = planner.ExecuteSql("SELECT * FROM t WHERE c < 500");
  ASSERT_TRUE(ok.ok());
  EXPECT_FALSE(ok.value().rows.empty());

  // Kill the server, then query again: the executor's probes fail closed and
  // the planner converts the sticky transport failure into a clean error.
  lb.server->Stop();
  auto dead = planner.ExecuteSql("SELECT * FROM t WHERE c < 100");
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), Status::Code::kIoError);
  EXPECT_FALSE(lb.client->Health().ok());

  // The client stays failed-fast, not hung, for every later call.
  EXPECT_FALSE(lb.client->Ping().ok());
}

TEST(NetServingTest, MalformedFrameGetsErrorResponseAndSeveredConnection) {
  Rng rng(29);
  auto db = edbms::CipherbaseEdbms::FromPlainTable(
      66, testutil::RandomTable(30, 1, &rng));
  net::QpfServer server(&db);
  ASSERT_TRUE(server.ServeTcp(0).ok());

  // Raw channel, bypassing QpfClient: ship a frame with a garbage payload.
  auto ch = net::Channel::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(ch.ok());
  net::Frame bad;
  bad.type = net::MsgType::kEvalReq;
  bad.corr = 42;
  bad.payload = {0xDE, 0xAD, 0xBE, 0xEF};
  ASSERT_TRUE(ch.value().Send(bad).ok());
  net::Frame resp;
  ASSERT_TRUE(ch.value().Recv(&resp).ok());
  EXPECT_EQ(resp.type, net::MsgType::kErrorResp);
  EXPECT_EQ(resp.corr, 42u);
  Status remote;
  ASSERT_TRUE(net::DecodeErrorResp(resp.payload, &remote).ok());
  EXPECT_FALSE(remote.ok());

  // A corrupt *header* (bad magic) severs the connection after an error
  // frame: Channel::Send always writes a valid header, so speak raw bytes.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const uint8_t garbage[net::kFrameHeaderBytes] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::send(fd, garbage, sizeof(garbage), 0),
            static_cast<ssize_t>(sizeof(garbage)));
  net::Channel raw(fd);  // takes ownership for the read side
  net::Frame err;
  ASSERT_TRUE(raw.Recv(&err).ok());
  EXPECT_EQ(err.type, net::MsgType::kErrorResp);
  // After the error frame the server hangs up; the next read is EOF, and the
  // server process is still alive and serving.
  net::Frame eof;
  EXPECT_FALSE(raw.Recv(&eof).ok());
  auto alive = net::QpfClient::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(alive.ok());
  EXPECT_TRUE(alive.value()->Ping().ok());
  server.Stop();
}

TEST(NetServingTest, OutOfRangeIdsAreRefusedAndTheServerKeepsServing) {
  Rng rng(31);
  auto db = edbms::CipherbaseEdbms::FromPlainTable(
      67, testutil::RandomTable(40, 1, &rng, 0, 999));
  net::QpfServer server(&db);
  ASSERT_TRUE(server.ServeTcp(0).ok());
  auto c = net::QpfClient::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(c.ok());
  net::QpfClient& client = *c.value();

  const edbms::Trapdoor td = db.MakeComparison(0, CompareOp::kLt, 500);
  edbms::Trapdoor bad_attr = td;
  bad_attr.attr = 7;  // the served table has one attribute
  const TupleId bad_tid = 50'000'000;
  const std::vector<TupleId> batch = {0, bad_tid, 1};
  const std::vector<edbms::ProbeRequest> many = {{&td, 0}, {&bad_attr, 1}};

  struct BadFrame {
    net::MsgType type;
    std::vector<uint8_t> payload;
  };
  const std::vector<BadFrame> frames = {
      {net::MsgType::kEvalReq, net::EncodeEvalReq(td, bad_tid)},
      {net::MsgType::kEvalReq, net::EncodeEvalReq(bad_attr, 0)},
      {net::MsgType::kEvalBatchReq, net::EncodeEvalBatchReq(td, batch)},
      {net::MsgType::kEvalManyReq, net::EncodeEvalManyReq(many)},
  };
  for (const BadFrame& f : frames) {
    net::Frame resp;
    const Status s = client.Call(f.type, f.payload, &resp);
    EXPECT_EQ(s.code(), Status::Code::kOutOfRange) << s.ToString();
  }

  // The same client's next valid round is still answered, correctly.
  net::Frame resp;
  ASSERT_TRUE(
      client.Call(net::MsgType::kEvalReq, net::EncodeEvalReq(td, 3), &resp)
          .ok());
  BitVector bit;
  ASSERT_TRUE(net::DecodeResultResp(resp.payload, &bit).ok());
  ASSERT_EQ(bit.size(), 1u);
  EXPECT_EQ(bit.Get(0), db.ServeEval(td, 3));
  EXPECT_TRUE(client.Health().ok());
  server.Stop();
}

}  // namespace
}  // namespace prkb
