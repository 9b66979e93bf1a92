/**
 * @file
 * Parallel sweep executor. Cache lookups run first, serially in
 * point-index order; the pending points are then grouped by capture
 * identity (kernel, impl, width, working set), and each group is one
 * work unit run on an in-process work-stealing pool of `jobs` threads
 * (forEachUnit; jobs == 1 runs on the calling thread). The worker
 * running a unit acquires its packed trace (the trace tier when warm,
 * else make -> capture -> finish -> store), replays it through all of
 * the group's core configurations in a single traversal
 * (sim::simulateTraceMany), publishes the results and drops the trace,
 * so at most `jobs` traces are live at once.
 *
 * Captured traces carry canonical addresses (trace/canonical.hh), so a
 * unit's results are a pure function of its points, whatever thread,
 * process or heap history captures them; results land in a pre-sized
 * vector at their point index, so every `--jobs` value and every
 * process produces byte-equal reports. The same determinism (seeded
 * inputs, trace-driven model) is what makes the result cache sound.
 */

#ifndef SWAN_SWEEP_SCHEDULER_HH
#define SWAN_SWEEP_SCHEDULER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/runner.hh"
#include "sweep/cache.hh"
#include "sweep/grid.hh"

namespace swan::sweep
{

/** One finished experiment point. */
struct SweepResult
{
    SweepPoint point;
    core::KernelRun run;
    bool cacheHit = false;  //!< served by the cache, not simulated
};

/** Where a streamed row's result came from (SchedulerConfig::onRow). */
struct RowOrigin
{
    enum class Kind
    {
        Cache,    //!< served by the result cache, not simulated
        Computed, //!< simulated by this sweep
    };

    Kind kind = Kind::Computed;
    size_t done = 0; //!< rows emitted so far, this one included
    size_t total = 0;
};

/** "cache" or "computed", for tickers and logs. */
std::string describe(const RowOrigin &origin);

/**
 * Row-streaming callback: one finished point, in point-index order.
 * See SchedulerConfig::onRow for the invocation contract.
 */
using RowCallback =
    std::function<void(const SweepResult &, const RowOrigin &)>;

/** Scheduler knobs. */
struct SchedulerConfig
{
    /** Worker threads; <= 0 means std::thread::hardware_concurrency.
     *  Results are byte-identical for any value. */
    int jobs = 1;
    /** Optional result cache shared across sweeps / benches. */
    ResultCache *cache = nullptr;
    /** Cache warm-up passes fed to the core model (paper Section 4.3). */
    int warmupPasses = 1;
    /**
     * Stream every finished row, strictly in point-index order, as
     * results land (cache hits first, then each computed point
     * as soon as every lower-indexed point is done). Invoked from
     * worker threads, serialized by the scheduler: implementations
     * need no locking of their own but must not block for long.
     * Null = no streaming (zero overhead).
     */
    RowCallback onRow;
};

/**
 * Run @p fn(u) for every u in [0, @p units) on a work-stealing pool of
 * min(@p jobs, units) threads that lives for this call: units are
 * dealt round-robin to per-worker queues (adjacent groups of one
 * kernel tend to cost the same), workers pop their own front and steal
 * from the back of the fullest other queue. With one worker, @p fn
 * runs serially on the calling thread. @p fn must be thread-safe and
 * must not throw.
 */
void forEachUnit(size_t units, int jobs,
                 const std::function<void(size_t)> &fn);

/**
 * Execute every point. Closes kernel registration (see Registry) before
 * workers may touch the registry concurrently. Within one sweep, points
 * sharing a (kernel, impl, width, working set) capture reuse one trace
 * across core configs, so a Figure-5(b)-style sweep captures each
 * kernel once, not once per config. Throws std::runtime_error if a
 * worker fails.
 *
 * @return one SweepResult per input point, in point-index order.
 */
std::vector<SweepResult> runSweep(const std::vector<SweepPoint> &points,
                                  const SchedulerConfig &cfg = {});

/** expand() + runSweep() in one call; empty + *err on a bad spec. */
std::vector<SweepResult> runSweep(const SweepSpec &spec,
                                  const SchedulerConfig &cfg,
                                  std::string *err);

/**
 * First result matching the given axes; null if absent. Empty @p config
 * / @p working_set match any value (the common single-config case).
 */
const SweepResult *
findResult(const std::vector<SweepResult> &results,
           std::string_view kernel_qualified, core::Impl impl, int vec_bits,
           std::string_view config = {}, std::string_view working_set = {});

} // namespace swan::sweep

#endif // SWAN_SWEEP_SCHEDULER_HH
