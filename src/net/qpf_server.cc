#include "net/qpf_server.h"

#include <string>
#include <utility>

#include "obs/metrics.h"

namespace prkb::net {
namespace {

/// OK when Θ(td, tid) addresses a cell of `db`'s table. Wire input is
/// untrusted, and the backends index columns by trapdoor attribute and rows
/// by tuple id without bounds checks.
Status CheckCell(const edbms::Edbms& db, const edbms::Trapdoor& td,
                 edbms::TupleId tid) {
  if (td.attr >= db.num_attrs()) {
    return Status::OutOfRange("trapdoor attribute " + std::to_string(td.attr) +
                              " outside the served table");
  }
  if (tid >= db.num_rows()) {
    return Status::OutOfRange("tuple id " + std::to_string(tid) +
                              " outside the served table");
  }
  return Status::Ok();
}

}  // namespace

QpfServer::QpfServer(edbms::Edbms* db, QpfServerOptions opts)
    : db_(db), opts_(opts) {
  if (opts_.workers < 1) opts_.workers = 1;
  if (opts_.max_queue < opts_.workers) opts_.max_queue = opts_.workers;
}

QpfServer::~QpfServer() { Stop(); }

Status QpfServer::ServeTcp(uint16_t port) {
  auto listener = Listener::ListenTcp(port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  Start();
  return Status::Ok();
}

Status QpfServer::ServeUnix(const std::string& path) {
  auto listener = Listener::ListenUnix(path);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  Start();
  return Status::Ok();
}

void QpfServer::Start() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = false;
    started_ = true;
  }
  for (size_t i = 0; i < opts_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
}

void QpfServer::Stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stopping_ = true;
  }
  listener_.Close();
  {
    // Severing the sockets wakes every reader blocked in Recv.
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto& conn : conns_) conn->ch.Shutdown();
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  std::vector<std::unique_ptr<Conn>> conns;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    queue_.clear();
    started_ = false;
  }
}

void QpfServer::AcceptLoop() {
  while (true) {
    auto ch = listener_.Accept();
    if (!ch.ok()) return;  // listener closed: shutting down
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    conns_.push_back(std::make_unique<Conn>());
    Conn* conn = conns_.back().get();
    conn->ch = std::move(ch).value();
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
  }
}

void QpfServer::ReaderLoop(Conn* conn) {
  while (true) {
    Frame frame;
    const Status s = conn->ch.Recv(&frame);
    if (!s.ok()) {
      // EOF / shutdown ends the connection; a malformed header additionally
      // severs it (framing is lost — nothing after a bad header can be
      // trusted). Either way: clean exit, no crash.
      if (s.code() == Status::Code::kCorruption) {
        const Frame err{MsgType::kErrorResp, 0, EncodeErrorResp(s)};
        (void)conn->ch.Send(err);
        conn->ch.Shutdown();
      }
      return;
    }
    std::unique_lock<std::mutex> lock(mu_);
    space_cv_.wait(lock, [this] {
      return stopping_ || queue_.size() < opts_.max_queue;
    });
    if (stopping_) return;
    queue_.push_back(Work{conn, std::move(frame)});
    lock.unlock();
    work_cv_.notify_one();
  }
}

void QpfServer::WorkerLoop() {
  while (true) {
    Work work;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      work = std::move(queue_.front());
      queue_.pop_front();
    }
    space_cv_.notify_one();
    Handle(work.conn, std::move(work.frame));
  }
}

void QpfServer::Handle(Conn* conn, Frame&& req) {
  frames_served_.fetch_add(1, std::memory_order_relaxed);
  switch (req.type) {
    case MsgType::kEvalReq: {
      edbms::Trapdoor td;
      edbms::TupleId tid = 0;
      Status s = DecodeEvalReq(req.payload, &td, &tid);
      if (s.ok()) s = CheckCell(*db_, td, tid);
      if (!s.ok()) {
        Reply(conn, req.corr, MsgType::kErrorResp, EncodeErrorResp(s));
        return;
      }
      BitVector bit(1);
      bit.Assign(0, db_->ServeEval(td, tid));
      Reply(conn, req.corr, MsgType::kResultResp, EncodeResultResp(bit));
      return;
    }
    case MsgType::kEvalBatchReq: {
      edbms::Trapdoor td;
      std::vector<edbms::TupleId> tids;
      Status s = DecodeEvalBatchReq(req.payload, &td, &tids);
      for (size_t i = 0; i < tids.size() && s.ok(); ++i) {
        s = CheckCell(*db_, td, tids[i]);
      }
      if (!s.ok()) {
        Reply(conn, req.corr, MsgType::kErrorResp, EncodeErrorResp(s));
        return;
      }
      const BitVector bits = db_->ServeEvalBatch(td, tids);
      Reply(conn, req.corr, MsgType::kResultResp, EncodeResultResp(bits));
      return;
    }
    case MsgType::kEvalManyReq: {
      ManyReq many;
      Status s = DecodeEvalManyReq(req.payload, &many);
      for (size_t i = 0; i < many.items.size() && s.ok(); ++i) {
        s = CheckCell(*db_, many.tds[many.items[i].td_index],
                      many.items[i].tid);
      }
      if (!s.ok()) {
        Reply(conn, req.corr, MsgType::kErrorResp, EncodeErrorResp(s));
        return;
      }
      std::vector<edbms::ProbeRequest> reqs;
      reqs.reserve(many.items.size());
      for (const auto& item : many.items) {
        reqs.push_back(
            edbms::ProbeRequest{&many.tds[item.td_index], item.tid});
      }
      const BitVector bits = db_->ServeEvalMany(reqs);
      Reply(conn, req.corr, MsgType::kResultResp, EncodeResultResp(bits));
      return;
    }
    case MsgType::kPingReq:
      Reply(conn, req.corr, MsgType::kPongResp, {});
      return;
    case MsgType::kStatsReq: {
      // Counter snapshot of the serving process, for remote observability
      // (prkb_shell's .cache over a live connection). Touch the canonical
      // families first so qpf.*/net.* appear even before their first event.
      (void)edbms::QpfMetrics::Get();
      (void)NetMetrics::Get();
      const obs::MetricsSnapshot snap =
          obs::MetricsRegistry::Global().Snapshot();
      std::vector<StatsEntry> entries;
      entries.reserve(snap.counters.size());
      for (const auto& [name, value] : snap.counters) {
        entries.emplace_back(name, value);
      }
      Reply(conn, req.corr, MsgType::kStatsResp, EncodeStatsResp(entries));
      return;
    }
    default:
      // A response type arriving at the server is a confused client; answer
      // with an error so its completion queue can fail the correlation id.
      NetMetrics::Get().errors->Add(1);
      Reply(conn, req.corr, MsgType::kErrorResp,
            EncodeErrorResp(Status::InvalidArgument(
                "unexpected frame type at server")));
      return;
  }
}

void QpfServer::Reply(Conn* conn, uint64_t corr, MsgType type,
                      std::vector<uint8_t> payload) {
  Frame resp;
  resp.type = type;
  resp.corr = corr;
  resp.payload = std::move(payload);
  if (!conn->ch.Send(resp).ok()) {
    // Peer is gone; its reader thread will notice on the next Recv.
    NetMetrics::Get().errors->Add(1);
  }
}

}  // namespace prkb::net
