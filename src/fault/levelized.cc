#include "fault/levelized.hh"

#include <algorithm>

#include "common/logging.hh"

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
    const OnsetKey k = onsetKey(armedPlan->faults()[idx], idx);
    if (k.t != tr.t)
        return k.t < tr.t;
    const Phase p = k.armed ? Armed : Scheduled;
    if (p != tr.phase)
        return p < tr.phase;
    return idx < tr.ord;
}

void
LevelizedPulse::armPlan(const FaultPlan &plan, std::size_t nets,
                        std::size_t stages)
{
    if (netFaultHead.size() < nets)
        netFaultHead.resize(nets, -1);
    if (stageFaultHead.size() < stages)
        stageFaultHead.resize(stages, -1);
    const std::vector<Fault> &faults = plan.faults();
    nextFault.assign(faults.size(), -1);
    // Walk backwards and push at the head: every list in plan order.
    for (std::size_t i = faults.size(); i-- > 0;) {
        const Fault &f = faults[i];
        std::int32_t *head = nullptr;
        switch (f.kind) {
          case FaultKind::DeadBuffer:
          case FaultKind::DelayDrift:
            VSYNC_ASSERT(f.site < stages, "stage %zu beyond %zu", f.site,
                         stages);
            head = &stageFaultHead[f.site];
            break;
          case FaultKind::StuckAtNet:
          case FaultKind::TransientGlitch:
            VSYNC_ASSERT(f.site < nets, "net %zu beyond %zu", f.site,
                         nets);
            VSYNC_ASSERT(f.kind == FaultKind::StuckAtNet ||
                             f.magnitude > 0.0,
                         "glitch width %g must be positive", f.magnitude);
            head = &netFaultHead[f.site];
            break;
          case FaultKind::SeveredHandshakeWire:
            continue; // no handshake wires on a clock distribution
        }
        nextFault[i] = *head;
        *head = static_cast<std::int32_t>(i);
    }
    armedPlan = &plan;
}

void
LevelizedPulse::disarmPlan()
{
    for (const Fault &f : armedPlan->faults()) {
        switch (f.kind) {
          case FaultKind::DeadBuffer:
          case FaultKind::DelayDrift:
            stageFaultHead[f.site] = -1;
            break;
          case FaultKind::StuckAtNet:
          case FaultKind::TransientGlitch:
            netFaultHead[f.site] = -1;
            break;
          case FaultKind::SeveredHandshakeWire:
            break;
        }
    }
    armedPlan = nullptr;
}

void
LevelizedPulse::stageWrites(const Transition *first, const Transition *last,
                            std::size_t stage, const desim::EdgeDelays &d)
{
    const std::int32_t head = stageFaultHead[stage];
    const std::vector<Fault> &faults = armedPlan->faults();
    for (const Transition *tr = first; tr != last; ++tr) {
        double scale = 1.0;
        if (head >= 0) {
            // The element's state when this input transition arrives:
            // dead once any dead onset came first; drifted by the
            // latest drift onset that came first.
            bool dead = false;
            bool drifted = false;
            OnsetKey latest{};
            for (std::int32_t i = head; i >= 0; i = nextFault[i]) {
                const auto idx = static_cast<std::uint32_t>(i);
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

LevelizedPulse::Transition
LevelizedPulse::shifted(const Transition &tr, std::uint32_t index,
                        const desim::EdgeDelays &d)
{
    Transition o;
    o.t = tr.t + (tr.value ? d.rise : d.fall);
    o.value = tr.value;
    if (tr.phase == Armed) {
        o.sched = 0.0;
        o.ord = tr.ord;
        o.phase = Scheduled;
    } else {
        o.sched = tr.t;
        o.ord = index;
        o.phase = Run;
    }
    return o;
}

void
LevelizedPulse::shiftInto(std::uint32_t first, std::uint32_t last,
                          const desim::EdgeDelays &d,
                          std::vector<Transition> &out) const
{
    // A healthy stage into a healthy net: every input transition comes
    // out d later as a value change, already in desim's order -- what
    // stageWrites + settle would produce, without the general case.
    for (std::uint32_t j = first; j < last; ++j)
        out.push_back(shifted(waves[j], j - first, d));
}

void
LevelizedPulse::netFaultWrites(std::size_t net)
{
    const std::vector<Fault> &faults = armedPlan->faults();
    for (std::int32_t i = netFaultHead[net]; i >= 0; i = nextFault[i]) {
        const auto idx = static_cast<std::uint32_t>(i);
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

bool
LevelizedPulse::runTree(const clocktree::BufferedClockTree &btree,
                        const FaultPlan &plan)
{
    const std::vector<clocktree::BufferedSite> &sites = btree.sites();
    const std::size_t n = sites.size();
    VSYNC_ASSERT(n > 0, "empty buffered tree");
    armPlan(plan, n, n - 1);
    waves.clear();
    netBegin.resize(n);
    netEnd.resize(n);
    bool ok = true;
    for (std::size_t i = 0; i < n && ok; ++i) {
        if (i == 0) {
            // ClockNet::drive(1.0, 1): one rise at 0, one fall at 0.5.
            Write edge{};
            edge.phase = Source;
            edge.op = Set;
            edge.value = true;
            writes.push_back(edge);
            edge.t = 0.5;
            edge.ord = 1;
            edge.value = false;
            writes.push_back(edge);
        } else {
            const NodeId p = sites[i].parent;
            if (stageFaultHead[i - 1] < 0 && netFaultHead[i] < 0) {
                netBegin[i] = static_cast<std::uint32_t>(waves.size());
                shiftInto(netBegin[p], netEnd[p], delays[i], waves);
                netEnd[i] = static_cast<std::uint32_t>(waves.size());
                continue;
            }
            stageWrites(waves.data() + netBegin[p],
                        waves.data() + netEnd[p], i - 1, delays[i]);
        }
        netFaultWrites(i);
        netBegin[i] = static_cast<std::uint32_t>(waves.size());
        ok = settle(waves);
        netEnd[i] = static_cast<std::uint32_t>(waves.size());
    }
    disarmPlan();
    return ok;
}

bool
LevelizedPulse::voteHealthyNode(std::size_t node,
                                const std::size_t (&up)[3])
{
    // The links' rises, kept sorted; an equal rise of a later link
    // goes after, as the merge loop breaks ties.
    Transition rise[3];
    int n = 0;
    for (int k = 0; k < 3; ++k) {
        const std::size_t link = node * 3 + static_cast<std::size_t>(k);
        if (stageFaultHead[link] >= 0)
            return false;
        std::uint32_t at = netEnd[up[k]];
        for (std::uint32_t j = netBegin[up[k]]; j < netEnd[up[k]]; ++j) {
            if (!waves[j].value)
                continue;
            if (at != netEnd[up[k]])
                return false; // a second rise: the merge loop's case
            at = j;
        }
        if (at == netEnd[up[k]])
            continue;
        const Transition o =
            shifted(waves[at], at - netBegin[up[k]], delays[link]);
        int pos = n++;
        for (; pos > 0 && transBefore(o, rise[pos - 1]); --pos)
            rise[pos] = rise[pos - 1];
        rise[pos] = o;
    }
    netBegin[node] = static_cast<std::uint32_t>(waves.size());
    if (n >= 2) {
        const Transition &v = rise[1];
        waves.push_back(
            {v.t, v.sched, v.phase == Run ? 1u : v.ord, v.phase, true});
    }
    netEnd[node] = static_cast<std::uint32_t>(waves.size());
    return true;
}

bool
LevelizedPulse::runGrid(int rows, int cols, const FaultPlan &plan)
{
    VSYNC_ASSERT(rows >= 1 && cols >= 1, "bad grid %dx%d", rows, cols);
    const std::size_t nodes =
        static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
    const std::size_t root = nodes;
    armPlan(plan, nodes + 1, 3 * nodes);
    waves.clear();
    netBegin.resize(nodes + 1);
    netEnd.resize(nodes + 1);

    // TrixGrid::pulse(): one rising edge into the root at 0.
    Write edge{};
    edge.phase = Source;
    edge.op = Set;
    edge.value = true;
    writes.push_back(edge);
    netFaultWrites(root);
    netBegin[root] = 0;
    bool ok = settle(waves);
    netEnd[root] = static_cast<std::uint32_t>(waves.size());

    for (std::size_t node = 0; node < nodes && ok; ++node) {
        const int r = static_cast<int>(node / cols);
        const int c = static_cast<int>(node % cols);
        std::size_t up[3];
        for (int k = 0; k < 3; ++k)
            up[k] = r == 0 ? root
                           : static_cast<std::size_t>(r - 1) * cols +
                                 std::clamp(c - 1 + k, 0, cols - 1);
        if (netFaultHead[node] < 0 && voteHealthyNode(node, up))
            continue;
        for (int k = 0; k < 3; ++k) {
            const std::size_t link = node * 3 + k;
            linkWave[k].clear();
            if (stageFaultHead[link] < 0) {
                shiftInto(netBegin[up[k]], netEnd[up[k]], delays[link],
                          linkWave[k]);
                continue;
            }
            stageWrites(waves.data() + netBegin[up[k]],
                        waves.data() + netEnd[up[k]], link, delays[link]);
            settle(linkWave[k]); // one source: never ambiguous
        }
        const bool healthyNode = netFaultHead[node] < 0;
        // The median vote over the three links' rises, merged in
        // desim's order: fire whenever a second link has delivered a
        // rise not yet consumed.
        std::size_t at[3] = {0, 0, 0};
        int seen[3] = {0, 0, 0};
        int fired = 0;
        for (;;) {
            int next = -1;
            for (int k = 0; k < 3; ++k) {
                while (at[k] < linkWave[k].size() &&
                       !linkWave[k][at[k]].value)
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
                // Nothing else writes the node and it only ever rises:
                // its first vote is its one transition.
                netBegin[node] = static_cast<std::uint32_t>(waves.size());
                waves.push_back({rise.t, rise.sched,
                                 rise.phase == Run ? 1u : rise.ord,
                                 rise.phase, true});
                break;
            }
            // The node's write runs inside the link's event.
            Write vote{};
            vote.t = rise.t;
            vote.sched = rise.sched;
            vote.phase = rise.phase;
            vote.ord = rise.phase == Run ? static_cast<std::uint32_t>(fired)
                                         : rise.ord;
            vote.op = Set;
            vote.value = true;
            writes.push_back(vote);
        }
        if (healthyNode) {
            if (fired == 0)
                netBegin[node] = static_cast<std::uint32_t>(waves.size());
            netEnd[node] = static_cast<std::uint32_t>(waves.size());
            continue;
        }
        netFaultWrites(node);
        netBegin[node] = static_cast<std::uint32_t>(waves.size());
        ok = settle(waves);
        netEnd[node] = static_cast<std::uint32_t>(waves.size());
    }
    disarmPlan();
    return ok;
}

std::vector<Time>
LevelizedPulse::risingArrivals(std::size_t net) const
{
    std::vector<Time> out;
    for (std::uint32_t i = netBegin[net]; i < netEnd[net]; ++i)
        if (waves[i].value)
            out.push_back(waves[i].t);
    return out;
}

} // namespace vsync::fault
