#include "fault/levelized.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/rng.hh"

namespace vsync::fault
{

namespace
{

/** Where a fault's onset sits in desim's order: applied while arming
 *  when it is due at once, else an event scheduled while arming. */
struct OnsetKey
{
    Time t;
    bool armed;
    std::uint32_t idx;
};

OnsetKey
onsetKey(const Fault &f, std::uint32_t idx)
{
    const bool armed = f.onset <= 0.0;
    return {armed ? 0.0 : f.onset, armed, idx};
}

bool
keyBefore(const OnsetKey &a, const OnsetKey &b)
{
    if (a.t != b.t)
        return a.t < b.t;
    if (a.armed != b.armed)
        return a.armed;
    return a.idx < b.idx;
}

bool
isStageFault(FaultKind kind)
{
    return kind == FaultKind::DeadBuffer || kind == FaultKind::DelayDrift;
}

bool
isNetFault(FaultKind kind)
{
    return kind == FaultKind::StuckAtNet ||
           kind == FaultKind::TransientGlitch;
}

/** One lane row: eight doubles, any alignment. The helpers take and
 *  return rows by reference (a 64-byte vector passed by value changes
 *  the ABI between the target clones). */
using Row = RngLanes8::F64x8;

[[gnu::always_inline]] inline void
loadRow(const double *p, Row &v)
{
    std::memcpy(&v, p, sizeof v);
}

[[gnu::always_inline]] inline void
storeRow(double *p, const Row &v)
{
    std::memcpy(p, &v, sizeof v);
}

/** out = row at @p p + row at @p d, lane by lane. */
[[gnu::always_inline]] inline void
addRows(const double *p, const double *d, Row &out)
{
    Row a, b;
    loadRow(p, a);
    loadRow(d, b);
    out = a + b;
}

} // namespace

bool
LevelizedPulse::before(const Write &a, const Write &b)
{
    if (a.t != b.t)
        return a.t < b.t;
    if (a.phase != b.phase)
        return a.phase < b.phase;
    if (a.phase == Run) {
        if (a.sched != b.sched)
            return a.sched < b.sched;
        if (a.src != b.src)
            return a.src < b.src;
    }
    return a.ord < b.ord;
}

bool
LevelizedPulse::transBefore(const Transition &a, const Transition &b)
{
    if (a.t != b.t)
        return a.t < b.t;
    if (a.phase != b.phase)
        return a.phase < b.phase;
    return a.phase == Run ? a.sched < b.sched : a.ord < b.ord;
}

bool
LevelizedPulse::sameRunSlot(const Write &a, const Write &b)
{
    return a.phase == Run && b.phase == Run && a.t == b.t &&
           a.sched == b.sched;
}

bool
LevelizedPulse::onsetBefore(std::uint32_t idx, const Transition &tr) const
{
    const OnsetKey k = onsetKey(armedPlans[selLane].faults()[idx], idx);
    if (k.t != tr.t)
        return k.t < tr.t;
    const Phase p = k.armed ? Armed : Scheduled;
    if (p != tr.phase)
        return p < tr.phase;
    return idx < tr.ord;
}

std::span<double>
LevelizedPulse::laneDelays(std::size_t stages)
{
    delay.resize(stages * lanes);
    return delay;
}

void
LevelizedPulse::begin(std::span<const FaultPlan> plans, std::size_t nets,
                      std::size_t stages, bool tree)
{
    VSYNC_ASSERT(!plans.empty() && plans.size() <= lanes,
                 "%zu lanes, 1 to %zu allowed", plans.size(), lanes);
    VSYNC_ASSERT(delay.size() == stages * lanes,
                 "laneDelays() holds %zu stages, the pass has %zu",
                 delay.size() / lanes, stages);
    if (netFaultHead.size() < nets * lanes)
        netFaultHead.resize(nets * lanes, -1);
    if (stageFaultHead.size() < stages * lanes)
        stageFaultHead.resize(stages * lanes, -1);
    if (forced.size() < nets)
        forced.resize(nets, 0);
    armedPlans = plans;
    std::size_t total = 0;
    for (std::size_t j = 0; j < plans.size(); ++j) {
        faultBase[j] = total;
        total += plans[j].size();
    }
    nextFault.resize(total);
    unfolded.resize(total);
    for (std::size_t j = 0; j < plans.size(); ++j) {
        const std::vector<Fault> &faults = plans[j].faults();
        const std::size_t base = faultBase[j];
        const auto bit = static_cast<std::uint8_t>(1u << j);
        // Walk backwards and push at the head: every list in plan order.
        for (std::size_t i = faults.size(); i-- > 0;) {
            const Fault &f = faults[i];
            std::int32_t *head = nullptr;
            if (isStageFault(f.kind)) {
                VSYNC_ASSERT(f.site < stages, "stage %zu beyond %zu",
                             f.site, stages);
                head = &stageFaultHead[f.site * lanes + j];
            } else if (isNetFault(f.kind)) {
                VSYNC_ASSERT(f.site < nets, "net %zu beyond %zu", f.site,
                             nets);
                VSYNC_ASSERT(f.kind == FaultKind::StuckAtNet ||
                                 f.magnitude > 0.0,
                             "glitch width %g must be positive",
                             f.magnitude);
                head = &netFaultHead[f.site * lanes + j];
                forced[f.site] |= bit;
            } else {
                continue; // no handshake wires on a clock distribution
            }
            nextFault[base + i] = *head;
            *head = static_cast<std::int32_t>(base + i);
        }
        // Each faulty stage once, from its list head: the faults due at
        // once precede every run-time input transition, so they fold
        // into the lane's delay (stageWrites' `t + d * scale`, with the
        // last such drift's scale); a later onset needs the list code,
        // which reads the unfolded delay kept at the head.
        for (std::size_t i = 0; i < faults.size(); ++i) {
            const std::size_t slot = faults[i].site * lanes + j;
            if (!isStageFault(faults[i].kind) ||
                stageFaultHead[slot] != static_cast<std::int32_t>(base + i))
                continue;
            unfolded[base + i] = delay[slot];
            bool dead = false;
            bool later = false;
            double scale = 1.0;
            for (std::int32_t g = stageFaultHead[slot]; g >= 0;
                 g = nextFault[static_cast<std::size_t>(g)]) {
                const Fault &f = faults[static_cast<std::size_t>(g) - base];
                if (f.onset > 0.0)
                    later = true;
                else if (f.kind == FaultKind::DeadBuffer)
                    dead = true;
                else
                    scale = f.magnitude;
            }
            delay[slot] = dead ? infinity : delay[slot] * scale;
            if (later)
                forced[tree ? faults[i].site + 1 : faults[i].site / 3] |=
                    bit;
        }
    }
    simpleLen = tree ? 2 : 1;
    rise.resize(nets * lanes);
    if (tree)
        fall.resize(nets * lanes);
    nonSimple.resize(nets);
    spanAt.resize(nets);
    spans.clear();
    waves.clear();
    failed = 0;
    scalarCount = 0;
}

void
LevelizedPulse::end(bool tree)
{
    for (std::size_t j = 0; j < armedPlans.size(); ++j) {
        for (const Fault &f : armedPlans[j].faults()) {
            if (isStageFault(f.kind)) {
                stageFaultHead[f.site * lanes + j] = -1;
                forced[tree ? f.site + 1 : f.site / 3] = 0;
            } else if (isNetFault(f.kind)) {
                netFaultHead[f.site * lanes + j] = -1;
                forced[f.site] = 0;
            }
        }
    }
    armedPlans = {};
}

desim::EdgeDelays
LevelizedPulse::stageDelay(std::size_t stage) const
{
    const std::int32_t h = stageHead(stage);
    return desim::EdgeDelays::same(
        h >= 0 ? unfolded[static_cast<std::size_t>(h)]
               : delay[stage * lanes + selLane]);
}

void
LevelizedPulse::stageWrites(const Transition *first, const Transition *last,
                            std::size_t stage, const desim::EdgeDelays &d)
{
    const std::int32_t head = stageHead(stage);
    const std::vector<Fault> &faults = armedPlans[selLane].faults();
    for (const Transition *tr = first; tr != last; ++tr) {
        double scale = 1.0;
        if (head >= 0) {
            // The element's state when this input transition arrives:
            // dead once any dead onset came first; drifted by the
            // latest drift onset that came first.
            bool dead = false;
            bool drifted = false;
            OnsetKey latest{};
            for (std::int32_t g = head; g >= 0; g = nextOf(g)) {
                const auto idx = planIndex(g);
                if (!onsetBefore(idx, *tr))
                    continue;
                const Fault &f = faults[idx];
                if (f.kind == FaultKind::DeadBuffer) {
                    dead = true;
                    break;
                }
                const OnsetKey k = onsetKey(f, idx);
                if (!drifted || keyBefore(latest, k)) {
                    drifted = true;
                    latest = k;
                    scale = f.magnitude;
                }
            }
            if (dead)
                continue;
        }
        // desim::DelayElement::onInput's expression, bit for bit.
        const Time delay = (tr->value ? d.rise : d.fall) * scale;
        Write w{};
        w.t = tr->t + delay;
        w.value = tr->value;
        w.op = Set;
        if (tr->phase == Armed) {
            // The input changed while the plan was armed: the stage's
            // write was scheduled then, at the arming fault's turn.
            w.phase = Scheduled;
            w.ord = tr->ord;
        } else {
            w.phase = Run;
            w.sched = tr->t;
            w.ord = static_cast<std::uint32_t>(tr - first);
        }
        writes.push_back(w);
    }
}

void
LevelizedPulse::shiftInto(const std::vector<Transition> &in,
                          const desim::EdgeDelays &d,
                          std::vector<Transition> &out)
{
    // A healthy stage into a healthy net: every input transition comes
    // out d later as a value change, already in desim's order.
    for (std::size_t j = 0; j < in.size(); ++j) {
        const Transition &tr = in[j];
        Transition o;
        o.t = tr.t + (tr.value ? d.rise : d.fall);
        o.value = tr.value;
        if (tr.phase == Armed) {
            o.sched = 0.0;
            o.ord = tr.ord;
            o.phase = Scheduled;
        } else {
            o.sched = tr.t;
            o.ord = static_cast<std::uint32_t>(j);
            o.phase = Run;
        }
        out.push_back(o);
    }
}

void
LevelizedPulse::netFaultWrites(std::size_t net)
{
    const std::vector<Fault> &faults = armedPlans[selLane].faults();
    for (std::int32_t g = netHead(net); g >= 0; g = nextOf(g)) {
        const auto idx = planIndex(g);
        const Fault &f = faults[idx];
        Write w{};
        w.ord = idx;
        if (f.kind == FaultKind::StuckAtNet) {
            // FaultInjector: due at once -> forceStuck(now) while
            // arming; later -> an event at the onset.
            const bool armed = f.onset <= 0.0;
            w.t = armed ? 0.0 : f.onset;
            w.phase = armed ? Armed : Scheduled;
            w.op = Stuck;
            w.value = f.stuckHigh;
        } else {
            w.t = std::max(f.onset, 0.0);
            w.phase = Scheduled;
            w.op = Glitch;
            w.src = 1 + idx;
            w.width = f.magnitude;
        }
        writes.push_back(w);
    }
}

bool
LevelizedPulse::settle(std::vector<Transition> &out)
{
    if (!std::is_sorted(writes.begin(), writes.end(), before))
        std::sort(writes.begin(), writes.end(), before);
    bool value = false;
    bool stuck = false;
    for (std::size_t i = 0; i < writes.size(); ++i) {
        Write cur = writes[i]; // a glitch may insert into `writes`
        if (cur.phase == Run &&
            (i == 0 || !sameRunSlot(writes[i - 1], cur))) {
            // Run-time writes scheduled at one time: desim's order
            // among them is fixed only within one source.
            bool mixedSource = false;
            bool mixedValue = false;
            for (std::size_t j = i + 1;
                 j < writes.size() && sameRunSlot(writes[j], cur); ++j) {
                mixedSource |= writes[j].src != cur.src;
                mixedValue |= writes[j].value != cur.value;
            }
            if (mixedSource && mixedValue) {
                writes.clear();
                return false;
            }
        }
        if (cur.op == Stuck) {
            stuck = false; // a new stuck-at overrides an earlier one
        } else if (cur.op == Glitch) {
            Write restore{};
            restore.t = cur.t + cur.width;
            restore.sched = cur.t;
            restore.src = cur.src;
            restore.phase = Run;
            restore.op = Set;
            restore.value = value;
            writes.insert(std::upper_bound(writes.begin() +
                                               static_cast<std::ptrdiff_t>(
                                                   i + 1),
                                           writes.end(), restore, before),
                          restore);
            cur.value = !value;
        }
        if (!stuck && cur.value != value) {
            value = cur.value;
            out.push_back({cur.t, cur.sched, cur.ord, cur.phase, value});
        }
        if (cur.op == Stuck)
            stuck = true;
    }
    writes.clear();
    return true;
}

void
LevelizedPulse::loadInput(int k, std::size_t net)
{
    std::vector<Transition> &in = inWave[k];
    in.clear();
    const std::size_t slot = net * lanes + selLane;
    if (nonSimple[net] >> selLane & 1u) {
        const Span &sp = spanOf(net, selLane);
        in.assign(waves.begin() + sp.begin, waves.begin() + sp.end);
        return;
    }
    // A simple waveform: a reader looks only at its times, values and
    // indices, and at whether a transition was written while arming.
    if (rise[slot] < infinity)
        in.push_back({rise[slot], 0.0, 0, Run, true});
    if (simpleLen == 2 && fall[slot] < infinity)
        in.push_back({fall[slot], 0.0, 1, Run, false});
}

void
LevelizedPulse::commit(std::size_t net, std::size_t first, bool ok)
{
    ++scalarCount;
    const auto bit = static_cast<std::uint8_t>(1u << selLane);
    if (!ok) {
        failed |= bit;
        waves.resize(first);
        return;
    }
    const std::size_t slot = net * lanes + selLane;
    const std::size_t len = waves.size() - first;
    rise[slot] = len > 0 ? waves[first].t : infinity;
    if (simpleLen == 2)
        fall[slot] = len > 1 ? waves[first + 1].t : infinity;
    bool simple = len <= simpleLen;
    for (std::size_t k = 0; k < len && simple; ++k)
        simple = waves[first + k].phase >= Source;
    if (simple) {
        waves.resize(first);
        return;
    }
    // Lanes commit in ascending order: a net's spans follow its first.
    if (nonSimple[net] == 0)
        spanAt[net] = static_cast<std::uint32_t>(spans.size());
    nonSimple[net] |= bit;
    spans.push_back({static_cast<std::uint32_t>(first),
                     static_cast<std::uint32_t>(waves.size())});
}

bool
LevelizedPulse::rootNet(std::size_t net)
{
    // The clock source: ClockNet::drive(1.0, 1) rises at 0 and falls at
    // 0.5 on a tree; TrixGrid::pulse() rises at 0 on a grid.
    Write edge{};
    edge.phase = Source;
    edge.op = Set;
    edge.value = true;
    writes.push_back(edge);
    if (simpleLen == 2) {
        edge.t = 0.5;
        edge.ord = 1;
        edge.value = false;
        writes.push_back(edge);
    }
    netFaultWrites(net);
    return settle(waves);
}

bool
LevelizedPulse::treeNet(std::size_t net, std::size_t parent)
{
    loadInput(0, parent);
    const std::vector<Transition> &in = inWave[0];
    const std::size_t stage = net - 1;
    const desim::EdgeDelays d = stageDelay(stage);
    if (stageHead(stage) < 0 && netHead(net) < 0) {
        shiftInto(in, d, waves);
        return true;
    }
    stageWrites(in.data(), in.data() + in.size(), stage, d);
    netFaultWrites(net);
    return settle(waves);
}

template <class Eval>
void
LevelizedPulse::eachLane(std::size_t net, std::uint8_t mask, Eval &&eval)
{
    for (; mask != 0; mask &= static_cast<std::uint8_t>(mask - 1)) {
        selLane = static_cast<std::size_t>(std::countr_zero(mask));
        const std::size_t first = waves.size();
        const bool ok = eval();
        commit(net, first, ok);
    }
}

VSYNC_LANE_CLONES std::uint8_t
LevelizedPulse::treeLanes(const clocktree::BufferedClockTree &btree,
                          std::span<const FaultPlan> plans)
{
    const std::vector<clocktree::BufferedSite> &sites = btree.sites();
    const std::size_t n = sites.size();
    VSYNC_ASSERT(n > 0, "empty buffered tree");
    begin(plans, n, n - 1, true);
    const auto live = static_cast<std::uint8_t>((1u << plans.size()) - 1);
    double *r = rise.data();
    double *f = fall.data();
    const double *d = delay.data();
    // ClockNet::drive(1.0, 1): one rise at 0, one fall at 0.5.
    std::fill_n(r, lanes, 0.0);
    std::fill_n(f, lanes, 0.5);
    nonSimple[0] = 0;
    if (const auto m = static_cast<std::uint8_t>(forced[0] & live))
        eachLane(0, m, [&] { return rootNet(0); });
    for (std::size_t i = 1; i < n; ++i) {
        const std::size_t p = sites[i].parent;
        const double *di = d + (i - 1) * lanes;
        Row out;
        addRows(r + p * lanes, di, out);
        storeRow(r + i * lanes, out);
        addRows(f + p * lanes, di, out);
        storeRow(f + i * lanes, out);
        nonSimple[i] = 0;
        if (const auto m = static_cast<std::uint8_t>(
                (forced[i] | nonSimple[p]) & live & ~failed))
            eachLane(i, m, [&] { return treeNet(i, p); });
    }
    end(true);
    return failed;
}

bool
LevelizedPulse::gridNode(std::size_t node, const std::size_t (&up)[3])
{
    for (int k = 0; k < 3; ++k)
        loadInput(k, up[k]);
    for (int k = 0; k < 3; ++k) {
        const std::size_t link = node * 3 + static_cast<std::size_t>(k);
        const desim::EdgeDelays d = stageDelay(link);
        const std::vector<Transition> &in = inWave[k];
        linkWave[k].clear();
        if (stageHead(link) < 0) {
            shiftInto(in, d, linkWave[k]);
            continue;
        }
        stageWrites(in.data(), in.data() + in.size(), link, d);
        settle(linkWave[k]); // one source: never ambiguous
    }
    const bool healthyNode = netHead(node) < 0;
    // The median vote over the three links' rises, merged in desim's
    // order: fire whenever a second link has delivered a rise not yet
    // consumed.
    std::size_t at[3] = {0, 0, 0};
    int seen[3] = {0, 0, 0};
    int fired = 0;
    for (;;) {
        int next = -1;
        for (int k = 0; k < 3; ++k) {
            while (at[k] < linkWave[k].size() && !linkWave[k][at[k]].value)
                ++at[k];
            if (at[k] < linkWave[k].size() &&
                (next < 0 || transBefore(linkWave[k][at[k]],
                                         linkWave[next][at[next]])))
                next = k;
        }
        if (next < 0)
            break;
        const Transition &rise = linkWave[next][at[next]++];
        ++seen[next];
        int ready = 0;
        for (int j = 0; j < 3; ++j)
            ready += seen[j] > fired;
        if (ready < 2)
            continue;
        ++fired;
        if (healthyNode) {
            // Nothing else writes the node and it only ever rises: its
            // first vote is its one transition.
            waves.push_back({rise.t, rise.sched,
                             rise.phase == Run ? 1u : rise.ord, rise.phase,
                             true});
            return true;
        }
        // The node's write runs inside the link's event.
        Write vote{};
        vote.t = rise.t;
        vote.sched = rise.sched;
        vote.phase = rise.phase;
        vote.ord =
            rise.phase == Run ? static_cast<std::uint32_t>(fired) : rise.ord;
        vote.op = Set;
        vote.value = true;
        writes.push_back(vote);
    }
    if (healthyNode)
        return true;
    netFaultWrites(node);
    return settle(waves);
}

VSYNC_LANE_CLONES std::uint8_t
LevelizedPulse::gridLanes(int rows, int cols,
                          std::span<const FaultPlan> plans)
{
    VSYNC_ASSERT(rows >= 1 && cols >= 1, "bad grid %dx%d", rows, cols);
    const std::size_t nodes =
        static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
    const std::size_t root = nodes;
    begin(plans, nodes + 1, 3 * nodes, false);
    const auto live = static_cast<std::uint8_t>((1u << plans.size()) - 1);
    double *r = rise.data();
    const double *d = delay.data();
    // TrixGrid::pulse(): one rising edge into the root at 0.
    std::fill_n(r + root * lanes, lanes, 0.0);
    nonSimple[root] = 0;
    if (const auto m = static_cast<std::uint8_t>(forced[root] & live))
        eachLane(root, m, [&] { return rootNet(root); });
    for (std::size_t node = 0; node < nodes; ++node) {
        const auto row = static_cast<int>(node / cols);
        const auto col = static_cast<int>(node % cols);
        std::size_t up[3];
        for (int k = 0; k < 3; ++k)
            up[k] = row == 0 ? root
                             : static_cast<std::size_t>(row - 1) * cols +
                                   std::clamp(col - 1 + k, 0, cols - 1);
        // The median vote: the second of the three shifted rises (a
        // missing rise, or one through a dead link, is +inf).
        const double *dn = d + node * 3 * lanes;
        Row a, b, c;
        addRows(r + up[0] * lanes, dn, a);
        addRows(r + up[1] * lanes, dn + lanes, b);
        addRows(r + up[2] * lanes, dn + 2 * lanes, c);
        const Row lo = a < b ? a : b;
        const Row hi = a < b ? b : a;
        const Row mid = hi < c ? hi : c;
        storeRow(r + node * lanes, lo < mid ? mid : lo);
        nonSimple[node] = 0;
        if (const auto m = static_cast<std::uint8_t>(
                (forced[node] | nonSimple[up[0]] | nonSimple[up[1]] |
                 nonSimple[up[2]]) &
                live & ~failed))
            eachLane(node, m, [&] { return gridNode(node, up); });
    }
    end(false);
    return failed;
}

std::vector<Time>
LevelizedPulse::risingArrivals(std::size_t net, std::size_t lane) const
{
    std::vector<Time> out;
    const std::size_t slot = net * lanes + lane;
    if (nonSimple[net] >> lane & 1u) {
        const Span &sp = spanOf(net, lane);
        for (std::uint32_t i = sp.begin; i < sp.end; ++i)
            if (waves[i].value)
                out.push_back(waves[i].t);
    } else if (rise[slot] < infinity) {
        out.push_back(rise[slot]);
    }
    return out;
}

} // namespace vsync::fault
