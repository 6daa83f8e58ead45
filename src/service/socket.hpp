// AF_UNIX transport for the evaluation service.
//
// Framing: every message is a 4-byte little-endian payload length
// followed by that many bytes of JSON (the documents of protocol.hpp).
// UnixSocket/UnixListener are thin RAII wrappers over the POSIX calls;
// SocketFrontEnd glues a listener to an EvaluationServer — one thread
// per connection, each request answered by protocol::handle_request, so
// long-poll verbs (wait, stream-progress) block only their own tenant.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "service/server.hpp"

namespace sce::service {

/// A connected stream socket carrying length-prefixed frames.  Move-only.
class UnixSocket {
 public:
  UnixSocket() = default;
  /// Adopt an already-connected fd.
  explicit UnixSocket(int fd) : fd_(fd) {}
  ~UnixSocket();

  UnixSocket(UnixSocket&& other) noexcept;
  UnixSocket& operator=(UnixSocket&& other) noexcept;
  UnixSocket(const UnixSocket&) = delete;
  UnixSocket& operator=(const UnixSocket&) = delete;

  /// Connect to a listening unix socket; throws IoError on failure.
  static UnixSocket connect_to(const std::string& path);

  /// Write one frame (length prefix + payload); throws IoError.
  void send_frame(const std::string& payload);
  /// Read one frame.  nullopt on clean EOF before any byte; throws
  /// IoError on truncation, oversized frames or transport errors.
  std::optional<std::string> recv_frame();

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

 private:
  int fd_ = -1;
};

/// Bound + listening unix socket.  Unlinks a stale socket file on bind
/// and removes its own on destruction.
class UnixListener {
 public:
  explicit UnixListener(const std::string& path);
  ~UnixListener();

  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  /// Block for the next connection; throws IoError once closed.
  UnixSocket accept();
  /// Make a blocked or later accept() throw, without closing the fd, so
  /// another thread may call it while accept() runs.
  void shutdown();
  /// Close the listening fd (unblocks accept) and unlink the path.  Call
  /// it from the thread that accepts, or once that thread is done.
  void close();

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
};

/// The service's socket front end: accept loop + per-connection request
/// threads.  serve() blocks until a client sends the shutdown verb or
/// stop() is called from another thread; either way it drains connection
/// threads and closes the listener before returning.  While serving,
/// each accept first joins the handlers that have finished, so a
/// long-running server keeps only its live connections' threads.
class SocketFrontEnd {
 public:
  SocketFrontEnd(EvaluationServer& server, const std::string& socket_path);
  ~SocketFrontEnd();

  SocketFrontEnd(const SocketFrontEnd&) = delete;
  SocketFrontEnd& operator=(const SocketFrontEnd&) = delete;

  /// Run the accept loop on the calling thread.
  void serve();
  /// Request serve() to wind down (idempotent, callable from any thread
  /// — including a connection handler, which is how the shutdown verb
  /// works).
  void stop();

  const std::string& socket_path() const { return listener_.path(); }

 private:
  void handle_connection(UnixSocket socket);

  EvaluationServer& server_;
  UnixListener listener_;
  std::mutex mutex_;
  bool stopping_ = false;
  std::vector<std::thread> connections_;
  /// Handlers that have returned but are not joined yet.
  std::vector<std::thread::id> finished_;
  /// Live connection fds, shut down on stop() so handlers blocked in
  /// recv_frame (idle tenants) or long polls wind down promptly.
  std::set<int> live_fds_;
};

/// Client convenience: send one request frame and block for the reply.
std::string request_reply(UnixSocket& socket, const std::string& request);

}  // namespace sce::service
