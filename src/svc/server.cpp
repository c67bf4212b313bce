#include "svc/server.h"

#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace cfs::svc {

namespace {

bool write_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Server::Server(Service& svc, std::string socket_path)
    : svc_(svc), path_(std::move(socket_path)) {}

Server::~Server() {
  request_stop();
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& t : conns_) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (stop_pipe_[0] >= 0) ::close(stop_pipe_[0]);
  if (stop_pipe_[1] >= 0) ::close(stop_pipe_[1]);
  if (!path_.empty()) ::unlink(path_.c_str());
}

void Server::start() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path_.size() >= sizeof addr.sun_path) {
    throw Error("socket path too long: " + path_);
  }
  std::strncpy(addr.sun_path, path_.c_str(), sizeof addr.sun_path - 1);

  if (::pipe(stop_pipe_) != 0) {
    throw Error(std::string("pipe: ") + std::strerror(errno));
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw Error(std::string("socket: ") + std::strerror(errno));
  }
  // A daemon killed with -9 leaves its socket file behind; rebinding over
  // it is the normal restart path.
  ::unlink(path_.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    throw Error("bind " + path_ + ": " + std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) {
    throw Error("listen " + path_ + ": " + std::strerror(errno));
  }
}

void Server::run() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {stop_pipe_[0], POLLIN, 0};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    {
      std::lock_guard<std::mutex> lk(mu_);
      conn_fds_.insert(fd);
      conns_.emplace_back([this, fd] { serve_connection(fd); });
    }
  }
  // Stop: wake blocked connection reads so their threads exit; the
  // destructor joins them.
  std::lock_guard<std::mutex> lk(mu_);
  for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
}

void Server::request_stop() {
  stopping_.store(true, std::memory_order_release);
  if (stop_pipe_[1] >= 0) {
    const char b = 1;
    // Best-effort; the pipe only needs one pending byte.
    [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &b, 1);
  }
}

void Server::serve_connection(int fd) {
  FrameDecoder dec;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // disconnect (or shutdown() during stop)
    try {
      dec.feed(buf, static_cast<std::size_t>(n));
    } catch (const ProtocolError& pe) {
      // Framing is lost; answer once, then drop the connection.  The
      // daemon itself is unharmed -- this is a per-connection failure.
      svc_.note_protocol_error();
      write_all(fd, encode_frame(error_response(pe.code(), pe.what())));
      break;
    }
    std::string payload;
    bool dead = false;
    for (;;) {
      try {
        if (!dec.take(payload)) break;
      } catch (const ProtocolError& pe) {
        svc_.note_protocol_error();
        write_all(fd, encode_frame(error_response(pe.code(), pe.what())));
        dead = true;
        break;
      }
      bool shutdown = false;
      const std::string resp = svc_.handle(payload, &shutdown);
      const bool written = write_all(fd, encode_frame(resp));
      // A shutdown request drains the service synchronously; then stop
      // accepting connections.  Only the connection that served it stops
      // the server, after its reply is written: the stop shuts every
      // connection down, so any earlier stop could cut the reply off.
      if (shutdown) request_stop();
      if (!written) {
        dead = true;
        break;
      }
    }
    if (dead) break;
  }
  ::close(fd);
  std::lock_guard<std::mutex> lk(mu_);
  conn_fds_.erase(fd);
}

}  // namespace cfs::svc
