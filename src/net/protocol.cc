#include "net/protocol.hh"

#include <charconv>
#include <cmath>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"

namespace vsync::net
{

namespace
{

/**
 * A cursor over one line. The scanner understands exactly the JSON
 * subset the protocol emits: one flat object of string keys mapping
 * to strings, numbers, booleans or arrays of numbers. Strings carry
 * no escape sequences (keys and enum values never need them), which
 * keeps scanning a single pass with zero allocation per token.
 */
struct Cursor
{
    const char *p;
    const char *end;

    void
    ws()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\r'))
            ++p;
    }

    bool
    consume(char c)
    {
        ws();
        if (p < end && *p == c) {
            ++p;
            return true;
        }
        return false;
    }

    bool
    atEnd()
    {
        ws();
        return p == end;
    }

    bool
    string(std::string_view &out, std::string &error)
    {
        if (!consume('"')) {
            error = "expected '\"'";
            return false;
        }
        const char *start = p;
        while (p < end && *p != '"') {
            if (*p == '\\') {
                error = "escape sequences are not part of the protocol";
                return false;
            }
            ++p;
        }
        if (p == end) {
            error = "unterminated string";
            return false;
        }
        out = std::string_view(start, static_cast<std::size_t>(p - start));
        ++p; // closing quote
        return true;
    }

    /** The raw character span of one number literal. */
    bool
    numberToken(std::string_view &out, std::string &error)
    {
        ws();
        const char *start = p;
        while (p < end &&
               (*p == '-' || *p == '+' || *p == '.' || *p == 'e' ||
                *p == 'E' || (*p >= '0' && *p <= '9')))
            ++p;
        if (p == start) {
            error = "expected a number";
            return false;
        }
        out = std::string_view(start, static_cast<std::size_t>(p - start));
        return true;
    }

    bool
    boolean(bool &out, std::string &error)
    {
        ws();
        const std::string_view rest(p, static_cast<std::size_t>(end - p));
        if (rest.substr(0, 4) == "true") {
            out = true;
            p += 4;
            return true;
        }
        if (rest.substr(0, 5) == "false") {
            out = false;
            p += 5;
            return true;
        }
        error = "expected a boolean";
        return false;
    }
};

bool
toDouble(std::string_view token, double &out)
{
    const auto res =
        std::from_chars(token.data(), token.data() + token.size(), out);
    return res.ec == std::errc() &&
           res.ptr == token.data() + token.size();
}

bool
toU64(std::string_view token, std::uint64_t &out)
{
    const auto res =
        std::from_chars(token.data(), token.data() + token.size(), out);
    return res.ec == std::errc() &&
           res.ptr == token.data() + token.size();
}

bool
scanDouble(Cursor &c, double &out, std::string &error)
{
    std::string_view token;
    if (!c.numberToken(token, error))
        return false;
    if (!toDouble(token, out)) {
        error = "malformed number '" + std::string(token) + "'";
        return false;
    }
    return true;
}

bool
scanU64(Cursor &c, std::uint64_t &out, std::string &error)
{
    std::string_view token;
    if (!c.numberToken(token, error))
        return false;
    if (!toU64(token, out)) {
        error = "expected an unsigned integer, got '" +
                std::string(token) + "'";
        return false;
    }
    return true;
}

bool
scanDoubleArray(Cursor &c, std::vector<double> &out, std::string &error)
{
    if (!c.consume('[')) {
        error = "expected '['";
        return false;
    }
    if (c.consume(']'))
        return true;
    for (;;) {
        double v = 0.0;
        if (!scanDouble(c, v, error))
            return false;
        out.push_back(v);
        if (c.consume(','))
            continue;
        if (c.consume(']'))
            return true;
        error = "expected ',' or ']'";
        return false;
    }
}

bool
scanByteArray(Cursor &c, std::vector<std::uint8_t> &out,
              std::string &error)
{
    if (!c.consume('[')) {
        error = "expected '['";
        return false;
    }
    if (c.consume(']'))
        return true;
    for (;;) {
        std::uint64_t v = 0;
        if (!scanU64(c, v, error))
            return false;
        if (v > 1) {
            error = "mask entries must be 0 or 1";
            return false;
        }
        out.push_back(static_cast<std::uint8_t>(v));
        if (c.consume(','))
            continue;
        if (c.consume(']'))
            return true;
        error = "expected ',' or ']'";
        return false;
    }
}

/**
 * Drive the key/value loop of one flat object; @p field is called per
 * key with the cursor positioned at the value and must consume it.
 */
template <typename FieldFn>
bool
scanObject(Cursor &c, std::string &error, const FieldFn &field)
{
    if (!c.consume('{')) {
        error = "expected '{'";
        return false;
    }
    if (!c.consume('}')) {
        for (;;) {
            std::string_view key;
            if (!c.string(key, error))
                return false;
            if (!c.consume(':')) {
                error = "expected ':' after key '" + std::string(key) +
                        "'";
                return false;
            }
            if (!field(key))
                return false;
            if (c.consume(','))
                continue;
            if (c.consume('}'))
                break;
            error = "expected ',' or '}'";
            return false;
        }
    }
    if (!c.atEnd()) {
        error = "trailing bytes after the object";
        return false;
    }
    return true;
}

} // namespace

const char *
queryKindName(QueryKind k)
{
    switch (k) {
    case QueryKind::Skew: return "skew";
    case QueryKind::Resilience: return "resilience";
    case QueryKind::Info: return "info";
    }
    panic("unreachable query kind %d", static_cast<int>(k));
}

const char *
wireSchemeName(WireScheme s)
{
    switch (s) {
    case WireScheme::HTree: return "htree";
    case WireScheme::Spine: return "spine";
    case WireScheme::Trix: return "trix";
    }
    panic("unreachable wire scheme %d", static_cast<int>(s));
}

bool
parseRequest(std::string_view line, WireRequest &out, std::string &error)
{
    out = WireRequest{};
    error.clear();
    bool sawFaultRate = false;
    Cursor c{line.data(), line.data() + line.size()};

    const bool ok = scanObject(c, error, [&](std::string_view key) {
        if (key == "id")
            return scanU64(c, out.id, error);
        if (key == "kind") {
            std::string_view v;
            if (!c.string(v, error))
                return false;
            if (v == "skew")
                out.kind = QueryKind::Skew;
            else if (v == "resilience")
                out.kind = QueryKind::Resilience;
            else if (v == "info")
                out.kind = QueryKind::Info;
            else {
                error = "unknown kind '" + std::string(v) + "'";
                return false;
            }
            return true;
        }
        if (key == "scheme" || key == "dist") {
            std::string_view v;
            if (!c.string(v, error))
                return false;
            if (v == "htree")
                out.scheme = WireScheme::HTree;
            else if (v == "spine")
                out.scheme = WireScheme::Spine;
            else if (v == "trix")
                out.scheme = WireScheme::Trix;
            else {
                error = "unknown scheme '" + std::string(v) + "'";
                return false;
            }
            return true;
        }
        if (key == "rows" || key == "cols") {
            std::uint64_t v = 0;
            if (!scanU64(c, v, error))
                return false;
            if (v < 1 || v > static_cast<std::uint64_t>(maxWireSide)) {
                error = std::string(key) + " outside [1, " +
                        std::to_string(maxWireSide) + "]";
                return false;
            }
            (key == "rows" ? out.rows : out.cols) =
                static_cast<int>(v);
            return true;
        }
        if (key == "fault_rate") {
            sawFaultRate = true;
            if (!scanDouble(c, out.faultRate, error))
                return false;
            if (out.faultRate < 0.0 || out.faultRate > 1.0) {
                error = "fault_rate outside [0, 1]";
                return false;
            }
            return true;
        }
        if (key == "seed")
            return scanU64(c, out.seed, error);
        if (key == "trials") {
            std::uint64_t v = 0;
            if (!scanU64(c, v, error))
                return false;
            if (v < 1 || v > maxWireTrials) {
                error = "trials outside [1, " +
                        std::to_string(maxWireTrials) + "]";
                return false;
            }
            out.trials = v;
            return true;
        }
        if (key == "grain") {
            std::uint64_t v = 0;
            if (!scanU64(c, v, error))
                return false;
            if (v < 1) {
                error = "grain must be >= 1";
                return false;
            }
            out.grain = v;
            return true;
        }
        if (key == "trial_offset") {
            std::uint64_t v = 0;
            if (!scanU64(c, v, error))
                return false;
            // Substream indices are cheap at any magnitude; the bound
            // only keeps offset + trials inside size_t arithmetic.
            if (v > (std::uint64_t{1} << 48)) {
                error = "trial_offset exceeds 2^48";
                return false;
            }
            out.trialOffset = v;
            return true;
        }
        if (key == "m") {
            if (!scanDouble(c, out.delay.m, error))
                return false;
            if (!(out.delay.m > 0.0)) {
                error = "m must be > 0";
                return false;
            }
            return true;
        }
        if (key == "eps") {
            if (!scanDouble(c, out.delay.eps, error))
                return false;
            if (out.delay.eps < 0.0) {
                error = "eps must be >= 0";
                return false;
            }
            return true;
        }
        if (key == "deadline_ms")
            return scanDouble(c, out.deadlineMs, error);
        error = "unknown key '" + std::string(key) + "'";
        return false;
    });
    if (!ok)
        return false;

    // A ping carries no scenario; whatever defaults remain are moot.
    if (out.kind == QueryKind::Info)
        return true;

    if (static_cast<std::size_t>(out.rows) *
            static_cast<std::size_t>(out.cols) >
        maxWireCells) {
        error = "rows*cols exceeds " + std::to_string(maxWireCells) +
                " cells";
        return false;
    }
    if (out.kind == QueryKind::Skew && out.scheme == WireScheme::Trix) {
        error = "trix serves resilience queries only";
        return false;
    }
    if (out.kind == QueryKind::Skew && sawFaultRate) {
        error = "fault_rate is a resilience parameter";
        return false;
    }
    return true;
}

std::string
encodeRequest(const WireRequest &rq)
{
    std::ostringstream os;
    JsonWriter w(os, JsonWriter::Style::Compact);
    w.beginObject()
        .keyValue("id", rq.id)
        .keyValue("kind", queryKindName(rq.kind));
    if (rq.kind == QueryKind::Info) {
        // A ping is just the correlation id and the kind.
        w.endObject();
        return os.str();
    }
    w.keyValue("scheme", wireSchemeName(rq.scheme))
        .keyValue("rows", rq.rows)
        .keyValue("cols", rq.cols);
    if (rq.kind == QueryKind::Resilience)
        w.keyValue("fault_rate", rq.faultRate);
    w.keyValue("seed", rq.seed)
        .keyValue("trials", static_cast<std::uint64_t>(rq.trials))
        .keyValue("grain", static_cast<std::uint64_t>(rq.grain));
    if (rq.trialOffset != 0)
        w.keyValue("trial_offset",
                   static_cast<std::uint64_t>(rq.trialOffset));
    w.keyValue("m", rq.delay.m)
        .keyValue("eps", rq.delay.eps);
    if (rq.deadlineMs < infinity)
        w.keyValue("deadline_ms", rq.deadlineMs);
    w.endObject();
    return os.str();
}

std::string
encodeOutcome(const WireRequest &rq, const serve::RequestOutcome &o,
              double server_ms)
{
    const bool resilience = rq.kind == QueryKind::Resilience;
    const mc::McResult &primary =
        resilience ? o.resilience.maxCommSkew : o.skew;

    std::ostringstream os;
    JsonWriter w(os, JsonWriter::Style::Compact);
    w.beginObject()
        .keyValue("id", rq.id)
        .keyValue("ok", true)
        .keyValue("status", o.status == serve::RequestStatus::Complete
                                ? "complete"
                                : "partial")
        .keyValue("kind", queryKindName(rq.kind))
        .keyValue("trials_done",
                  static_cast<std::uint64_t>(o.trialsDone))
        .keyValue("trials_requested",
                  static_cast<std::uint64_t>(o.trialsRequested));
    if (o.trialsDone > 0) {
        w.keyValue("mean", primary.stat.mean())
            .keyValue("stddev", primary.stat.stddev())
            .keyValue("min", primary.stat.min())
            .keyValue("max", primary.stat.max());
    }
    w.key("samples").beginArray();
    for (const double s : primary.samples)
        w.value(s);
    w.endArray();
    if (resilience) {
        w.key("clocked_samples").beginArray();
        for (const double s : o.resilience.clockedFraction.samples)
            w.value(s);
        w.endArray();
        // Per-trial fault counts ride along so a distributed fold can
        // recombine shards into an exact meanFaults: integer counts
        // sum exactly in doubles, per-shard means do not.
        w.key("fault_samples").beginArray();
        for (const double s : o.faultSamples)
            w.value(s);
        w.endArray();
        w.keyValue("mean_faults", o.resilience.meanFaults);
    }
    if (o.status == serve::RequestStatus::Partial) {
        w.key("trial_done").beginArray();
        for (const std::uint8_t d : o.trialDone)
            w.value(static_cast<std::uint64_t>(d));
        w.endArray();
    }
    w.keyValue("server_ms", server_ms).endObject();
    return os.str();
}

std::string
encodeInfo(std::uint64_t id, const InfoReply &info)
{
    std::ostringstream os;
    JsonWriter w(os, JsonWriter::Style::Compact);
    w.beginObject()
        .keyValue("id", id)
        .keyValue("ok", true)
        .keyValue("kind", "info")
        .keyValue("proto", info.proto)
        .keyValue("threads", info.threads)
        .keyValue("queue_depth", info.queueDepth)
        .keyValue("queue_capacity", info.queueCapacity)
        .keyValue("draining", info.draining)
        .endObject();
    return os.str();
}

std::string
encodeError(std::uint64_t id, std::string_view code,
            std::string_view detail)
{
    std::ostringstream os;
    JsonWriter w(os, JsonWriter::Style::Compact);
    w.beginObject()
        .keyValue("id", id)
        .keyValue("ok", false)
        .keyValue("error", std::string(code));
    if (!detail.empty())
        w.keyValue("detail", std::string(detail));
    w.endObject();
    return os.str();
}

bool
parseResponse(std::string_view line, WireResponse &out,
              std::string &error)
{
    out = WireResponse{};
    error.clear();
    Cursor c{line.data(), line.data() + line.size()};

    return scanObject(c, error, [&](std::string_view key) {
        if (key == "id")
            return scanU64(c, out.id, error);
        if (key == "ok")
            return c.boolean(out.ok, error);
        if (key == "status") {
            std::string_view v;
            if (!c.string(v, error))
                return false;
            if (v != "complete" && v != "partial") {
                error = "unknown status '" + std::string(v) + "'";
                return false;
            }
            out.complete = v == "complete";
            return true;
        }
        if (key == "kind") {
            std::string_view v;
            return c.string(v, error);
        }
        if (key == "error") {
            std::string_view v;
            if (!c.string(v, error))
                return false;
            out.error = std::string(v);
            return true;
        }
        if (key == "detail") {
            std::string_view v;
            if (!c.string(v, error))
                return false;
            out.detail = std::string(v);
            return true;
        }
        if (key == "trials_done")
            return scanU64(c, out.trialsDone, error);
        if (key == "trials_requested")
            return scanU64(c, out.trialsRequested, error);
        if (key == "mean")
            return scanDouble(c, out.mean, error);
        if (key == "stddev")
            return scanDouble(c, out.stddev, error);
        if (key == "min")
            return scanDouble(c, out.minValue, error);
        if (key == "max")
            return scanDouble(c, out.maxValue, error);
        if (key == "mean_faults")
            return scanDouble(c, out.meanFaults, error);
        if (key == "server_ms")
            return scanDouble(c, out.serverMs, error);
        if (key == "samples")
            return scanDoubleArray(c, out.samples, error);
        if (key == "clocked_samples")
            return scanDoubleArray(c, out.clockedSamples, error);
        if (key == "fault_samples")
            return scanDoubleArray(c, out.faultSamples, error);
        if (key == "trial_done")
            return scanByteArray(c, out.trialDone, error);
        if (key == "proto")
            return scanU64(c, out.proto, error);
        if (key == "threads")
            return scanU64(c, out.threads, error);
        if (key == "queue_depth")
            return scanU64(c, out.queueDepth, error);
        if (key == "queue_capacity")
            return scanU64(c, out.queueCapacity, error);
        if (key == "draining")
            return c.boolean(out.draining, error);
        error = "unknown key '" + std::string(key) + "'";
        return false;
    });
}

LineReader::LineReader(std::size_t max_line_bytes) : cap(max_line_bytes)
{
    VSYNC_ASSERT(cap >= 1, "LineReader cap must be >= 1");
}

void
LineReader::feed(const char *data, std::size_t len)
{
    // Lines already handed out leave once per feed, not once per line.
    buffer.erase(0, head);
    head = 0;
    buffer.append(data, len);
}

LineReader::Next
LineReader::next(std::string &line)
{
    for (;;) {
        // [head, head + scanned) is known to hold no '\n': each byte is
        // searched once, however finely the stream arrives.
        const std::size_t nl = buffer.find('\n', head + scanned);
        if (nl == std::string::npos) {
            const std::size_t pending = buffer.size() - head;
            if (discarding || pending > cap) {
                // Inside an oversized line, or a partial line that
                // outgrew the cap with no newline in sight: drop its
                // bytes now instead of buffering without limit, and
                // report exactly once.
                dropped += pending;
                buffer.clear();
                head = scanned = 0;
                if (discarding)
                    return Next::NeedMore;
                ++oversized;
                discarding = true;
                return Next::TooLarge;
            }
            scanned = pending;
            return Next::NeedMore;
        }
        const std::size_t begin = head;
        const std::size_t len = nl - begin;
        head = nl + 1;
        scanned = 0;
        if (discarding) {
            // The newline that ends an oversized line resynchronises
            // the stream; its TooLarge event was already emitted.
            dropped += len + 1;
            discarding = false;
            continue;
        }
        if (len > cap) {
            // A whole oversized line arrived within one feed.
            ++oversized;
            dropped += len + 1;
            return Next::TooLarge;
        }
        line.assign(buffer, begin, len);
        return Next::Line;
    }
}

} // namespace vsync::net
