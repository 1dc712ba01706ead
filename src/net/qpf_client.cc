#include "net/qpf_client.h"

#include <cstdio>
#include <utility>

#include "obs/metrics.h"

namespace prkb::net {
namespace {

/// Distinct from net.errors: counts calls refused because the client is
/// sticky-broken — each one surfaces to the caller as fail-closed all-false
/// bits (docs/OBSERVABILITY.md).
obs::Counter* FailclosedCounter() {
  static obs::Counter* const c =
      obs::MetricsRegistry::Global().GetCounter("net.client.failclosed");
  return c;
}

}  // namespace

QpfClient::QpfClient(Channel ch) : ch_(std::move(ch)) {
  completion_ = std::thread([this] { CompletionLoop(); });
}

QpfClient::~QpfClient() { Close(); }

Result<std::unique_ptr<QpfClient>> QpfClient::ConnectTcp(
    const std::string& host, uint16_t port) {
  auto ch = Channel::ConnectTcp(host, port);
  if (!ch.ok()) return ch.status();
  return std::unique_ptr<QpfClient>(new QpfClient(std::move(ch).value()));
}

Result<std::unique_ptr<QpfClient>> QpfClient::ConnectUnix(
    const std::string& path) {
  auto ch = Channel::ConnectUnix(path);
  if (!ch.ok()) return ch.status();
  return std::unique_ptr<QpfClient>(new QpfClient(std::move(ch).value()));
}

Result<uint64_t> QpfClient::Submit(MsgType type, std::vector<uint8_t> payload) {
  uint64_t corr = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!broken_.ok()) {
      FailclosedCounter()->Add(1);
      if (!logged_failclosed_.exchange(true, std::memory_order_relaxed)) {
        std::fprintf(stderr,
                     "qpf_client: channel is sticky-broken (%s); this and "
                     "all further calls fail closed with all-false bits\n",
                     broken_.ToString().c_str());
      }
      return broken_;
    }
    corr = next_corr_++;
    pending_.emplace(corr, Slot{});
  }
  NetMetrics::Get().inflight->Add(1);
  Frame req;
  req.type = type;
  req.corr = corr;
  req.payload = std::move(payload);
  const Status s = ch_.Send(req);
  if (!s.ok()) {
    // The channel is gone for everyone, not just this request. Reclaim this
    // slot (its caller sees the error here, never Awaits), then fail every
    // other waiter and go sticky-broken.
    {
      const std::lock_guard<std::mutex> lock(mu_);
      pending_.erase(corr);
    }
    NetMetrics::Get().inflight->Add(-1);
    FailAllPending(s);
    return s;
  }
  return corr;
}

Status QpfClient::Await(uint64_t corr, Frame* resp) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = pending_.find(corr);
  if (it == pending_.end()) {
    return Status::InvalidArgument("unknown correlation id");
  }
  cv_.wait(lock, [&] { return it->second.done; });
  const Status st = it->second.st;
  if (st.ok()) *resp = std::move(it->second.resp);
  pending_.erase(it);
  lock.unlock();
  NetMetrics::Get().inflight->Add(-1);
  return st;
}

Status QpfClient::Call(MsgType type, std::vector<uint8_t> payload,
                       Frame* resp) {
  auto corr = Submit(type, std::move(payload));
  if (!corr.ok()) return corr.status();
  PRKB_RETURN_IF_ERROR(Await(corr.value(), resp));
  if (resp->type == MsgType::kErrorResp) {
    // The transport worked; the server refused. Surface the remote status.
    Status remote;
    PRKB_RETURN_IF_ERROR(DecodeErrorResp(resp->payload, &remote));
    return remote;
  }
  return Status::Ok();
}

Status QpfClient::Ping() {
  Frame resp;
  PRKB_RETURN_IF_ERROR(Call(MsgType::kPingReq, {}, &resp));
  if (resp.type != MsgType::kPongResp) {
    return Status::Internal("unexpected response to ping");
  }
  return Status::Ok();
}

Result<std::vector<StatsEntry>> QpfClient::FetchStats() {
  Frame resp;
  PRKB_RETURN_IF_ERROR(Call(MsgType::kStatsReq, {}, &resp));
  if (resp.type != MsgType::kStatsResp) {
    return Status::Internal("unexpected response to stats request");
  }
  std::vector<StatsEntry> entries;
  PRKB_RETURN_IF_ERROR(DecodeStatsResp(resp.payload, &entries));
  return entries;
}

Status QpfClient::Health() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return broken_;
}

void QpfClient::Close() {
  FailAllPending(Status::IoError("client closed"));
  ch_.Shutdown();
  if (completion_.joinable()) completion_.join();
}

void QpfClient::CompletionLoop() {
  while (true) {
    Frame resp;
    const Status s = ch_.Recv(&resp);
    if (!s.ok()) {
      FailAllPending(s);
      return;
    }
    std::unique_lock<std::mutex> lock(mu_);
    const auto it = pending_.find(resp.corr);
    if (it == pending_.end()) {
      // A response nobody asked for (stale or corrupt correlation id):
      // count it and keep serving the legitimate waiters.
      lock.unlock();
      NetMetrics::Get().errors->Add(1);
      continue;
    }
    it->second.st = Status::Ok();
    it->second.resp = std::move(resp);
    it->second.done = true;
    lock.unlock();
    cv_.notify_all();
  }
}

void QpfClient::FailAllPending(const Status& s) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (broken_.ok()) broken_ = s;
    for (auto& [corr, slot] : pending_) {
      if (!slot.done) {
        slot.st = broken_;
        slot.done = true;
      }
    }
  }
  cv_.notify_all();
}

namespace {

/// All-false bits of the expected width: the safe answer when the transport
/// failed mid-round. The caller sees an empty winner set plus a non-OK
/// Health(), which the executor turns into a clean error.
BitVector FailClosed(size_t n) { return BitVector(n); }

}  // namespace

bool RemoteEdbms::DoEval(const edbms::Trapdoor& td, edbms::TupleId tid) {
  Frame resp;
  if (!client_->Call(MsgType::kEvalReq, EncodeEvalReq(td, tid), &resp).ok()) {
    return false;
  }
  BitVector bits;
  if (!DecodeResultResp(resp.payload, &bits).ok() || bits.size() != 1) {
    return false;
  }
  return bits.Get(0);
}

BitVector RemoteEdbms::DoEvalBatch(const edbms::Trapdoor& td,
                                   std::span<const edbms::TupleId> tids) {
  Frame resp;
  if (!client_->Call(MsgType::kEvalBatchReq, EncodeEvalBatchReq(td, tids),
                     &resp)
           .ok()) {
    return FailClosed(tids.size());
  }
  BitVector bits;
  if (!DecodeResultResp(resp.payload, &bits).ok() ||
      bits.size() != tids.size()) {
    return FailClosed(tids.size());
  }
  return bits;
}

BitVector RemoteEdbms::DoEvalMany(std::span<const edbms::ProbeRequest> reqs) {
  Frame resp;
  if (!client_->Call(MsgType::kEvalManyReq, EncodeEvalManyReq(reqs), &resp)
           .ok()) {
    return FailClosed(reqs.size());
  }
  BitVector bits;
  if (!DecodeResultResp(resp.payload, &bits).ok() ||
      bits.size() != reqs.size()) {
    return FailClosed(reqs.size());
  }
  return bits;
}

}  // namespace prkb::net
