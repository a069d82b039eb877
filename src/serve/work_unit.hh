/**
 * @file
 * The sharding and folding seams of the serving layer, exposed.
 *
 * SweepService splits every request's trials into grain-sized
 * WorkUnits, sizes each request's per-trial slots, and after the
 * fan-out folds the samples of the units that ran back into
 * statistics in trial order. All of it is a pure function of the
 * batch, so it lives here as free functions rather than inside the
 * service: the distributed coordinator (src/dist/) shards the *same*
 * units across remote workers, copies the returned samples into the
 * *same* slots and folds them with the *same* fold, which is what
 * makes "a distributed run is bit-identical to a local run" true by
 * construction instead of by test alone. Any component that honours
 * these seams -- identical unit boundaries, identical slots, identical
 * trial-order fold -- produces identical bytes for any shard
 * assignment, arrival order or failure pattern.
 */

#ifndef VSYNC_SERVE_WORK_UNIT_HH
#define VSYNC_SERVE_WORK_UNIT_HH

#include <cstdint>
#include <vector>

#include "serve/sweep_service.hh"

namespace vsync::serve
{

/**
 * One schedulable slice of one request's trials: trials
 * [begin, end) of batch[request]. Trial i of the slice draws from
 * Rng::forTrial(seed, trialOffset + i) exactly as the local fan-out
 * does, so a unit means the same thing on any machine.
 */
struct WorkUnit
{
    std::size_t request = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
};

/**
 * Append the grain-sized units covering [0, trials) of request
 * @p request: [0, grain), [grain, 2*grain), ... with a short tail.
 * @pre grain >= 1.
 */
void appendWorkUnits(std::size_t request, std::size_t trials,
                     std::size_t grain, std::vector<WorkUnit> &out);

/**
 * Size @p o for a request of @p trials trials before any unit runs:
 * trialsRequested is set and the per-trial slots the units write are
 * zero-filled -- o.skew.samples for a skew request; both resilience
 * sample vectors, o.faultSamples and the fault rate for a resilience
 * request.
 */
void allocateOutcome(bool is_skew, std::size_t trials, double fault_rate,
                     RequestOutcome &o);

/**
 * Fold a batch's outcomes once its units ran, the reduction the local
 * service and the distributed coordinator share: trial i of request r
 * counts as done iff a unit of r covering i has unit_done set, and
 * every outcome then goes through foldOutcomeInTrialOrder with
 * is_skew[r]. Returns the trials done over the whole batch.
 */
std::size_t foldDoneUnits(const std::vector<WorkUnit> &units,
                          const std::vector<std::uint8_t> &unit_done,
                          const std::vector<std::uint8_t> &is_skew,
                          std::vector<RequestOutcome> &outcomes);

/**
 * Fold @p o's already-filled per-trial samples into its statistics,
 * exactly as SweepService's reduction phase does:
 *
 *  - every trial done (the mask is all ones): status Complete, the
 *    samples reduce in trial order (mc::reduceInTrialOrder) and, for
 *    resilience requests, meanFaults averages o.faultSamples over all
 *    trials;
 *  - otherwise: status Partial, only trials with trialDone[i] != 0
 *    fold (still in trial order), the mask is recorded in o.trialDone
 *    and meanFaults averages over the done trials.
 *
 * @p trialDone must have one entry per requested trial and the
 * samples of done trials must already sit in their slots (skew:
 * o.skew.samples; resilience: o.resilience.*.samples plus
 * o.faultSamples). Statistics of any prior fold are discarded.
 */
void foldOutcomeInTrialOrder(bool is_skew,
                             const std::vector<std::uint8_t> &trialDone,
                             RequestOutcome &o);

} // namespace vsync::serve

#endif // VSYNC_SERVE_WORK_UNIT_HH
