#include "net/conn.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "obs/metrics.hh"

namespace vsync::net
{

namespace
{

void
setNoDelay(int fd)
{
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/** Milliseconds until @p deadline for poll(): rounded up so a wait
 *  never ends early, capped so the conversion cannot overflow. */
int
pollTimeoutMs(LineConn::Clock::time_point deadline)
{
    if (deadline == LineConn::Clock::time_point::max())
        return -1;
    const auto left = deadline - LineConn::Clock::now();
    const auto ms =
        std::chrono::ceil<std::chrono::milliseconds>(left).count();
    return static_cast<int>(std::clamp<long long>(ms, 0, 60'000));
}

} // namespace

LineConn::LineConn(int socket_fd, std::size_t max_line_bytes)
    : fd(socket_fd), reader(max_line_bytes)
{
    setNoDelay(fd);
}

LineConn::~LineConn()
{
    close();
}

void
LineConn::close()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

bool
LineConn::connect(const std::string &host, std::uint16_t port,
                  std::size_t max_line_bytes)
{
    close();
    reader = LineReader(max_line_bytes);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        errno = EINVAL;
        return false;
    }
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const int err = errno;
        close();
        errno = err;
        return false;
    }
    setNoDelay(fd);
    return true;
}

bool
LineConn::sendLine(std::string_view line)
{
    if (fd < 0)
        return false;
    std::string framed;
    framed.reserve(line.size() + 1);
    framed.append(line);
    framed.push_back('\n');
    const char *data = framed.data();
    std::size_t len = framed.size();
    while (len > 0) {
        const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (bytesOut)
            bytesOut->inc(static_cast<std::uint64_t>(n));
        data += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

LineConn::Read
LineConn::readLine(std::string &line, Clock::time_point deadline,
                   int wake_fd)
{
    // Small, because it lives on every reader thread's stack; the
    // LineReader searches each byte once however small the reads.
    char chunk[4096];
    for (;;) {
        // Buffered lines first: the socket is touched only when the
        // reader holds no complete line.
        switch (reader.next(line)) {
        case LineReader::Next::Line:
            return Read::Line;
        case LineReader::Next::TooLarge:
            return Read::TooLarge;
        case LineReader::Next::NeedMore:
            break;
        }
        if (fd < 0)
            return Read::Closed;

        // A past deadline still polls once, with timeout 0, so a wake
        // wins over Timeout; the socket is not read past the deadline,
        // so a peer trickling bytes cannot extend it.
        const int timeout = pollTimeoutMs(deadline);
        pollfd fds[2] = {{fd, POLLIN, 0}, {wake_fd, POLLIN, 0}};
        const int pr = ::poll(fds, wake_fd >= 0 ? 2 : 1, timeout);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            return Read::Closed;
        }
        if (wake_fd >= 0 && (fds[1].revents & POLLIN))
            return Read::Closed;
        if (timeout == 0)
            return Read::Timeout;
        if (!(fds[0].revents & (POLLIN | POLLHUP | POLLERR)))
            continue; // the poll timed out: the next pass rechecks
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return Read::Closed;
        if (bytesIn)
            bytesIn->inc(static_cast<std::uint64_t>(n));
        reader.feed(chunk, static_cast<std::size_t>(n));
    }
}

} // namespace vsync::net
