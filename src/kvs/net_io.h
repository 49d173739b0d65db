// EINTR/EAGAIN-aware socket I/O helpers shared by the server's event loop
// and the blocking client.
//
// Every raw ::send/::recv/::writev/::poll call in src/kvs goes through
// retry_eintr: a signal landing mid-syscall makes the kernel return -1 with
// errno == EINTR, which is NOT an error — the pre-event-loop server treated
// it as one and dropped the connection (and the client misreported it as
// "connection closed"). The helper is templated on the syscall thunk so the
// retry contract is unit-testable without signals (tests/kvs_event_loop_test).
//
// classify_io() folds the errno zoo of a NON-BLOCKING socket operation into
// the three outcomes an event-driven caller actually branches on.
//
// connect() is the one call retry_eintr cannot wrap: see connect_eintr_safe.
#pragma once

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>

#include <cerrno>

namespace camp::kvs::net {

/// Retry `fn` (a callable returning ssize_t and setting errno, like a
/// ::send/::recv/::poll thunk) for as long as it fails with EINTR. Returns
/// the first result that is not an EINTR failure.
template <class Fn>
ssize_t retry_eintr(Fn&& fn) {
  for (;;) {
    const ssize_t n = fn();
    if (n >= 0 || errno != EINTR) return n;
  }
}

/// ::connect that survives signals. An interrupted connect is NOT undone:
/// the kernel keeps establishing the connection, and POSIX specifies that
/// calling connect again fails with EALREADY. So on EINTR (and on
/// EINPROGRESS, for a non-blocking socket) this never reconnects; it waits
/// for the socket to turn writable with poll(POLLOUT), itself retried on
/// EINTR, and reads the connect's outcome from SO_ERROR.
/// Returns 0 once connected, or -1 with errno set to the connect error
/// (e.g. ECONNREFUSED).
inline int connect_eintr_safe(int fd, const sockaddr* addr, socklen_t len) {
  if (::connect(fd, addr, len) == 0) return 0;
  if (errno != EINTR && errno != EINPROGRESS) return -1;
  pollfd pfd{fd, POLLOUT, 0};
  if (retry_eintr([&] {
        return static_cast<ssize_t>(::poll(&pfd, 1, -1));
      }) < 0) {
    return -1;
  }
  int err = 0;
  socklen_t err_len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) < 0) return -1;
  if (err != 0) {
    errno = err;
    return -1;
  }
  return 0;
}

/// Outcome of one non-blocking read/write attempt, post retry_eintr.
enum class IoStatus {
  kProgress,    // n > 0: bytes moved
  kWouldBlock,  // EAGAIN/EWOULDBLOCK: try again when epoll says so
  kClosed,      // orderly EOF (recv returned 0)
  kError,       // anything else: the connection is gone
};

/// Classify the result of a non-blocking recv-style call (0 = EOF).
[[nodiscard]] inline IoStatus classify_recv(ssize_t n) {
  if (n > 0) return IoStatus::kProgress;
  if (n == 0) return IoStatus::kClosed;
  if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kWouldBlock;
  return IoStatus::kError;
}

/// Classify the result of a non-blocking send/writev-style call.
[[nodiscard]] inline IoStatus classify_send(ssize_t n) {
  if (n > 0) return IoStatus::kProgress;
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
    return IoStatus::kWouldBlock;
  }
  return IoStatus::kError;
}

}  // namespace camp::kvs::net
