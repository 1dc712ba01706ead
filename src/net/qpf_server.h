#ifndef PRKB_NET_QPF_SERVER_H_
#define PRKB_NET_QPF_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "edbms/edbms.h"
#include "net/channel.h"
#include "net/frame.h"

namespace prkb::net {

struct QpfServerOptions {
  /// Request-processing threads. This is the server-side pipelining depth:
  /// up to `workers` rounds — from one connection or many — evaluate in the
  /// backend concurrently, which is what lets 8 in-flight clients overlap
  /// their trusted-machine latency instead of queueing behind one another.
  size_t workers = 8;
  /// Pending-request cap across all connections; beyond it the reader
  /// threads stall (backpressure) instead of buffering unboundedly.
  size_t max_queue = 1024;
};

/// Hosts an Edbms's Θ behind a socket endpoint — the paper's trusted-machine
/// boundary as an actual service (DESIGN.md §12). One accept thread, one
/// reader thread per connection, a shared worker pool evaluating rounds via
/// the oracle's *uncounted* Serve entries (the remote client's QpfOracle
/// wrappers already count each round exactly once). A request naming an
/// attribute or tuple outside the hosted table is refused with OutOfRange
/// before it reaches the backend, which indexes both unchecked.
///
/// Responses may be sent out of order: each carries the request's
/// correlation id, so a slow m-ary round from one selection never blocks a
/// fast repeat-predicate probe from another — the wire analogue of the
/// probe scheduler's fused rounds.
class QpfServer {
 public:
  explicit QpfServer(edbms::Edbms* db, QpfServerOptions opts = {});
  ~QpfServer();

  QpfServer(const QpfServer&) = delete;
  QpfServer& operator=(const QpfServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral, see port()) and starts serving.
  Status ServeTcp(uint16_t port = 0);
  /// Binds a unix-domain socket at `path` and starts serving.
  Status ServeUnix(const std::string& path);

  uint16_t port() const { return listener_.port(); }

  /// Stops accepting, severs every connection (in-flight requests get their
  /// reply or a dead channel), joins all threads. Idempotent.
  void Stop();

  uint64_t frames_served() const {
    return frames_served_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn {
    Channel ch;
    std::thread reader;
  };
  struct Work {
    Conn* conn;
    Frame frame;
  };

  void Start();
  void AcceptLoop();
  void ReaderLoop(Conn* conn);
  void WorkerLoop();
  void Handle(Conn* conn, Frame&& req);
  void Reply(Conn* conn, uint64_t corr, MsgType type,
             std::vector<uint8_t> payload);

  edbms::Edbms* db_;
  QpfServerOptions opts_;
  Listener listener_;
  std::thread acceptor_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable space_cv_;
  std::deque<Work> queue_;
  std::vector<std::unique_ptr<Conn>> conns_;
  bool stopping_ = false;
  bool started_ = false;
  std::atomic<uint64_t> frames_served_{0};
};

}  // namespace prkb::net

#endif  // PRKB_NET_QPF_SERVER_H_
