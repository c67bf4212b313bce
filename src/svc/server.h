// AF_UNIX transport for the cfsd service core: bind/listen, one thread per
// connection, length-prefixed frames in and out (svc/wire.h).
//
// The server owns no protocol logic -- every complete frame goes through
// Service::handle(), and framing violations (oversized prefix) are answered
// with a structured error frame before the connection is dropped.  Stop is
// signal-friendly: request_stop() only writes one byte to a self-pipe, so a
// SIGTERM handler can call it; run() then leaves its poll loop, wakes every
// connection, and joins the connection threads.
#pragma once

#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "svc/service.h"

namespace cfs::svc {

class Server {
 public:
  /// `svc` must outlive the server.  The socket file is unlinked on both
  /// bind (stale socket from a killed daemon) and destruction.
  Server(Service& svc, std::string socket_path);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen; throws cfs::Error with the OS diagnostic on failure.
  void start();

  /// Accept/dispatch until request_stop(), or until a shutdown request has
  /// drained the service and its reply is written.  Blocks the calling
  /// thread.
  void run();

  /// Async-signal-safe stop trigger (writes one byte to the self-pipe).
  void request_stop();

  const std::string& socket_path() const { return path_; }

 private:
  void serve_connection(int fd);

  Service& svc_;
  std::string path_;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  std::atomic<bool> stopping_{false};

  std::mutex mu_;
  std::set<int> conn_fds_;
  std::vector<std::thread> conns_;
};

}  // namespace cfs::svc
