#ifndef PRKB_NET_QPF_CLIENT_H_
#define PRKB_NET_QPF_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "edbms/edbms.h"
#include "net/channel.h"
#include "net/frame.h"

namespace prkb::net {

/// Correlation-id multiplexer over one Channel: the client half of the
/// pipelined QPF transport (DESIGN.md §12).
///
/// Any number of threads may Submit concurrently; each request is stamped
/// with a fresh correlation id and written to the shared channel, and the
/// caller parks in Await until the completion thread — the single reader of
/// the channel — matches the response id back to its slot. Requests complete
/// in whatever order the server finishes them, so while one selection's
/// m-ary round is being evaluated, other selections' rounds travel and
/// evaluate concurrently: in-flight depth equals the number of concurrently
/// blocked callers, with no per-caller connection.
///
/// On any transport failure the client goes sticky-broken: every pending and
/// future call fails fast with the same IoError (no hangs), surfaced to
/// query processing through QpfOracle::Health.
class QpfClient {
 public:
  static Result<std::unique_ptr<QpfClient>> ConnectTcp(const std::string& host,
                                                       uint16_t port);
  static Result<std::unique_ptr<QpfClient>> ConnectUnix(
      const std::string& path);
  ~QpfClient();

  QpfClient(const QpfClient&) = delete;
  QpfClient& operator=(const QpfClient&) = delete;

  /// Ships a request frame; returns the correlation id to Await on. The
  /// submit-then-await split is what lets a caller overlap local work (or
  /// other submissions) with the round trip.
  Result<uint64_t> Submit(MsgType type, std::vector<uint8_t> payload);

  /// Blocks until the response for `corr` arrives (or the channel dies).
  Status Await(uint64_t corr, Frame* resp);

  /// Submit + Await: one blocking round trip, pipelined with other callers.
  Status Call(MsgType type, std::vector<uint8_t> payload, Frame* resp);

  /// Liveness round trip.
  Status Ping();

  /// Fetches the serving process's counter snapshot (kStatsReq).
  Result<std::vector<StatsEntry>> FetchStats();

  /// Sticky transport status: OK until the channel breaks, then the error.
  Status Health() const;

  /// Severs the channel; pending and future calls fail with IoError.
  void Close();

 private:
  explicit QpfClient(Channel ch);
  void CompletionLoop();
  void FailAllPending(const Status& s);

  Channel ch_;
  std::thread completion_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  struct Slot {
    bool done = false;
    Status st;  // transport verdict; resp is valid only when st.ok()
    Frame resp;
  };
  std::unordered_map<uint64_t, Slot> pending_;
  uint64_t next_corr_ = 1;
  Status broken_;  // sticky
  /// First submission against a broken client logs the sticky status once;
  /// every such call also bumps net.client.failclosed, so fail-closed
  /// all-false bits are observable rather than silent.
  std::atomic<bool> logged_failclosed_{false};
};

/// Client-side Edbms for serving deployments: the data-owner surface
/// (Insert / Delete / trapdoor issuing) and the SP-side table geometry stay
/// on the co-located `local` instance — both roles live at the service
/// provider in the paper's model — while every Θ evaluation crosses the
/// channel to the QpfServer hosting `local`'s trusted machine. Drop-in for
/// PrkbIndex: selections run unchanged, but each probe round is a real
/// network round trip, counted once by this oracle's wrappers (the server
/// serves uncounted).
class RemoteEdbms : public edbms::Edbms {
 public:
  RemoteEdbms(edbms::Edbms* local, QpfClient* client)
      : local_(local), client_(client) {}

  edbms::TupleId Insert(const std::vector<edbms::Value>& row) override {
    return local_->Insert(row);
  }
  void Delete(edbms::TupleId tid) override { local_->Delete(tid); }
  edbms::Trapdoor MakeComparison(edbms::AttrId attr, edbms::CompareOp op,
                                 edbms::Value c) override {
    return local_->MakeComparison(attr, op, c);
  }
  edbms::Trapdoor MakeBetween(edbms::AttrId attr, edbms::Value lo,
                              edbms::Value hi) override {
    return local_->MakeBetween(attr, lo, hi);
  }

  size_t num_attrs() const override { return local_->num_attrs(); }
  size_t num_rows() const override { return local_->num_rows(); }
  bool IsLive(edbms::TupleId tid) const override {
    return local_->IsLive(tid);
  }
  size_t StoredBytes() const override { return local_->StoredBytes(); }

  Status Health() const override { return client_->Health(); }

 private:
  bool DoEval(const edbms::Trapdoor& td, edbms::TupleId tid) override;
  BitVector DoEvalBatch(const edbms::Trapdoor& td,
                        std::span<const edbms::TupleId> tids) override;
  BitVector DoEvalMany(std::span<const edbms::ProbeRequest> reqs) override;

  edbms::Edbms* local_;
  QpfClient* client_;
};

}  // namespace prkb::net

#endif  // PRKB_NET_QPF_CLIENT_H_
