/**
 * @file
 * One line-framed TCP connection: the socket code every wire peer
 * shares.
 *
 * The scenario server's per-connection reader and its reply writes,
 * the distributed WorkerPool's worker sessions and the open-loop load
 * generator all speak newline-delimited JSON over TCP, and all of them
 * do it through a LineConn: connect (TCP_NODELAY set), send one framed
 * line (MSG_NOSIGNAL, EINTR retried, a short send completed), and read
 * one line through a capped LineReader, bounded by a deadline and
 * interruptible by a wake fd. One framing seam means one place to
 * fuzz and one place to inject transport faults.
 *
 * Concurrency: one reader thread (readLine) and one writer thread
 * (sendLine) may use a LineConn at the same time -- the server's
 * reader and a dispatch lane (with the lane writes serialised by the
 * caller), or the load generator's receiver and sender. connect(),
 * close() and destruction need exclusive access.
 */

#ifndef VSYNC_NET_CONN_HH
#define VSYNC_NET_CONN_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "net/protocol.hh"

namespace vsync::obs
{
class Counter;
} // namespace vsync::obs

namespace vsync::net
{

/**
 * Response line-length cap of the wire clients (the WorkerPool and
 * the load generator). Responses legitimately dwarf request lines
 * (per-trial sample arrays), so this is bounded paranoia against a
 * corrupt peer, not the 1 MiB request-side defaultMaxLineBytes.
 */
inline constexpr std::size_t maxResponseLineBytes = std::size_t{256}
                                                    << 20;

/** A line-framed TCP connection owning one socket. */
class LineConn
{
  public:
    using Clock = std::chrono::steady_clock;

    /** What readLine() found. */
    enum class Read
    {
        /** A complete line (without its '\n') was produced. */
        Line,
        /** An oversized line was dropped; the stream resynchronises
         *  at its newline, so the next read continues normally. */
        TooLarge,
        /** The deadline passed before a complete line arrived. */
        Timeout,
        /** The peer closed, the socket failed, the wake fd became
         *  readable, or the connection is not open. */
        Closed,
    };

    /** A closed connection; connect() opens it. */
    LineConn() = default;

    /** Adopt an accepted socket @p socket_fd (TCP_NODELAY is set). */
    LineConn(int socket_fd, std::size_t max_line_bytes);

    ~LineConn();

    LineConn(const LineConn &) = delete;
    LineConn &operator=(const LineConn &) = delete;

    /**
     * Close any open socket, then connect to numeric IPv4 @p host :
     * @p port with TCP_NODELAY and a fresh reader capped at
     * @p max_line_bytes. False (errno set) when the address is bad or
     * the connect fails.
     */
    bool connect(const std::string &host, std::uint16_t port,
                 std::size_t max_line_bytes);

    /** Whether a socket is open. */
    bool isOpen() const { return fd >= 0; }

    /** Close the socket (idempotent). Buffered input is dropped. */
    void close();

    /**
     * Count raw socket bytes: every byte received into @p in and
     * every byte sent into @p out (either may be null). Set before
     * the connection is used.
     */
    void
    meter(obs::Counter *in, obs::Counter *out)
    {
        bytesIn = in;
        bytesOut = out;
    }

    /**
     * Send @p line plus '\n'. False when the connection is not open or
     * the peer is gone (no SIGPIPE is raised).
     */
    bool sendLine(std::string_view line);

    /**
     * Read the next line into @p line. Lines already buffered come
     * first; otherwise the socket is polled until @p deadline
     * (Clock::time_point::max() waits indefinitely) or until
     * @p wake_fd (if >= 0) turns readable, which reports Closed.
     */
    Read readLine(std::string &line,
                  Clock::time_point deadline = Clock::time_point::max(),
                  int wake_fd = -1);

  private:
    int fd = -1;
    LineReader reader;
    obs::Counter *bytesIn = nullptr;
    obs::Counter *bytesOut = nullptr;
};

} // namespace vsync::net

#endif // VSYNC_NET_CONN_HH
