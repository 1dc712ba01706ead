// Adaptive warehouse: a longer-lived deployment exercising the full API
// surface — mixed comparison/BETWEEN analytics, inserts and deletes arriving
// continuously, PRKB snapshots to disk, extension operators (MIN/MAX,
// skyline), and an SDB-style MPC backend side by side with the trusted-
// machine backend.
//
//   $ ./examples/adaptive_warehouse

#include <cstdio>
#include <string>

#include "edbms/cipherbase_qpf.h"
#include "edbms/sdb_qpf.h"
#include "ext/minmax.h"
#include "ext/skyline.h"
#include "prkb/prkb_io.h"
#include "prkb/selection.h"
#include "workload/query_gen.h"
#include "workload/synthetic_table.h"

namespace {

constexpr prkb::edbms::Value kDomainHi = 1'000'000;

}  // namespace

int main() {
  using namespace prkb;

  // Orders table: (amount, delivery_days).
  workload::SyntheticSpec spec;
  spec.rows = 50000;
  spec.attrs = 2;
  spec.domain_lo = 0;
  spec.domain_hi = kDomainHi;
  spec.seed = 17;
  auto plain = workload::MakeSyntheticTable(spec);
  auto db = edbms::CipherbaseEdbms::FromPlainTable(23, plain);

  core::PrkbIndex index(&db);
  index.EnableAttr(0);
  index.EnableAttr(1);

  workload::QueryGen gen(0, kDomainHi, 29);
  Rng churn(31);

  std::printf("warehouse: %zu encrypted orders, 2 indexed attributes\n\n",
              db.num_rows());

  // --- A day of mixed traffic. ---------------------------------------------
  uint64_t analytics_qpf = 0;
  int selects = 0, inserts = 0, deletes = 0;
  for (int tick = 0; tick < 400; ++tick) {
    const double dice = churn.UniformDouble();
    if (dice < 0.10) {
      index.Insert({churn.UniformInt64(0, kDomainHi),
                    churn.UniformInt64(0, kDomainHi)});
      ++inserts;
    } else if (dice < 0.15) {
      const auto victim =
          static_cast<edbms::TupleId>(churn.UniformInt(0, db.num_rows() - 1));
      if (db.IsLive(victim)) {
        index.Delete(victim);
        ++deletes;
      }
    } else if (dice < 0.45) {
      // BETWEEN analytics: amounts inside a band.
      const auto lo = churn.UniformInt64(0, kDomainHi - 50'000);
      edbms::SelectionStats st;
      index.Select(db.MakeBetween(0, lo, lo + 50'000), &st);
      analytics_qpf += st.qpf_uses;
      ++selects;
    } else {
      // Plain comparison on either attribute.
      const auto p = gen.RandomComparison(
          static_cast<edbms::AttrId>(churn.UniformInt(0, 1)));
      edbms::SelectionStats st;
      index.Select(db.MakeComparison(p.attr, p.op, p.lo), &st);
      analytics_qpf += st.qpf_uses;
      ++selects;
    }
  }
  std::printf(
      "day 1: %d selects, %d inserts, %d deletes; %.0f QPF uses/select "
      "average; chains k=(%zu, %zu)\n",
      selects, inserts, deletes,
      static_cast<double>(analytics_qpf) / selects, index.pop(0).k(),
      index.pop(1).k());

  // --- Nightly snapshot & restart. ----------------------------------------
  const std::string snapshot = "/tmp/warehouse_prkb.bin";
  if (auto s = core::SavePrkb(index, snapshot); !s.ok()) {
    std::printf("snapshot failed: %s\n", s.ToString().c_str());
    return 1;
  }
  core::PrkbIndex restarted(&db);
  if (auto s = core::LoadPrkb(&restarted, snapshot); !s.ok()) {
    std::printf("restore failed: %s\n", s.ToString().c_str());
    return 1;
  }
  edbms::SelectionStats st;
  restarted.Select(db.MakeComparison(0, edbms::CompareOp::kLt, 300'000), &st);
  std::printf(
      "restart: snapshot restored, first query cost %llu QPF uses (knowledge "
      "survived the restart)\n",
      static_cast<unsigned long long>(st.qpf_uses));

  // --- Extension operators on the partial order. ---------------------------
  const auto mn = ext::FindMin(restarted, &db, 0);
  const auto mx = ext::FindMax(restarted, &db, 0);
  std::printf(
      "MIN/MAX(amount): tuples %u / %u found with %llu TM decrypts "
      "(vs %zu for a full scan)\n",
      mn.tid, mx.tid,
      static_cast<unsigned long long>(mn.tm_decrypts + mx.tm_decrypts),
      2 * db.num_rows());

  // Cheapest-and-fastest orders: min-min skyline over (amount, days).
  // Orientation bits come from the data owner (it can learn them from any
  // answered query).
  auto min_at_front = [&](edbms::AttrId attr) {
    const auto& pop = restarted.pop(attr);
    if (pop.k() < 2) return true;
    return plain.at(attr, pop.tuples(0, 1)[0]) <
           plain.at(attr, pop.tuples(pop.k() - 1, pop.k())[0]);
  };
  const auto sky =
      ext::SkylineMinMin(restarted, &db, 0, 1, min_at_front(0),
                         min_at_front(1));
  std::printf(
      "skyline(amount, days): %zu offers on the frontier; grid pruning cut "
      "candidates to %zu of %zu tuples\n",
      sky.skyline.size(), sky.candidates, db.num_rows());

  // --- Same workload shape on the SDB-style MPC backend. -------------------
  auto sdb = edbms::SdbEdbms::FromPlainTable(23, plain);
  core::PrkbIndex sdb_index(&sdb);
  sdb_index.EnableAttr(0);
  for (int i = 0; i < 50; ++i) {
    const auto p = gen.RandomComparison(0);
    sdb_index.Select(sdb.MakeComparison(p.attr, p.op, p.lo));
  }
  std::printf(
      "\nSDB backend: 50 selections cost %llu MPC rounds / %llu bytes on the "
      "wire — PRKB is backend-agnostic, it only ever sees Θ's output bit\n",
      static_cast<unsigned long long>(sdb.rounds()),
      static_cast<unsigned long long>(sdb.bytes_transferred()));
  std::remove(snapshot.c_str());
  return 0;
}
