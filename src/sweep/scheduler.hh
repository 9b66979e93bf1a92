/**
 * @file
 * Parallel sweep executor. Cache lookups run first, serially in
 * point-index order; the pending points are then grouped by capture
 * identity (kernel, impl, width, working set), and each group is one
 * work unit run on an in-process pool of `jobs` threads (forEachUnit;
 * jobs == 1 runs on the calling thread). The worker running a unit
 * acquires its packed trace (the trace tier when warm, else make ->
 * capture -> finish -> store) and replays it through all of the
 * group's core configurations in a single traversal
 * (sim::resumeReplay). Once no unit is left to take, idle workers take
 * configuration lanes over from running traversals (lane donation,
 * sim::ReplayDonor), so a few large units cannot leave the pool idle
 * at the end of a sweep. The worker that finishes a unit's last lane
 * publishes its results and drops the trace; at most `jobs` traces are
 * live at once.
 *
 * Captured traces carry canonical addresses (trace/canonical.hh), so a
 * unit's results are a pure function of its points, whatever thread,
 * process or heap history captures them, and each model only depends
 * on the instruction stream it sees, whichever worker steps it.
 * Results land in a pre-sized vector at their point index, so every
 * `--jobs` value and every process produces byte-equal reports. The
 * same determinism (seeded inputs, trace-driven model) is what makes
 * the result cache sound.
 */

#ifndef SWAN_SWEEP_SCHEDULER_HH
#define SWAN_SWEEP_SCHEDULER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
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

class UnitPool;

/** One unit of a forEachUnit pool: its index and the pool, through
 *  which the unit may donate work to idle workers. */
using UnitFn = std::function<void(size_t, UnitPool &)>;

/**
 * The worker pool behind forEachUnit. Units are dealt round-robin to
 * per-worker queues (adjacent groups of one kernel tend to cost the
 * same); a worker pops its own front and steals from the back of the
 * fullest other queue. A running task may donate further tasks for
 * idle workers. A worker with nothing to take blocks on a condition
 * variable (it never spins) until a donation arrives or the pool ends.
 * The pool ends when no unit and no donation is queued and no task is
 * running: only a running task can donate, so nothing can arrive after
 * that.
 */
class UnitPool
{
  public:
    /** Whether more workers wait than donations are queued: the one
     *  relaxed load a running task polls before donating. */
    bool
    hungry() const
    {
        return hunger_.load(std::memory_order_relaxed) > 0;
    }

    /** Queue @p task for the next idle worker; it runs exactly once,
     *  before forEachUnit returns. */
    void donate(std::function<void()> task);

  private:
    friend void forEachUnit(size_t units, int jobs, const UnitFn &fn);

    UnitPool(size_t units, size_t workers, const UnitFn &fn);

    /** Worker @p self: run units, then donations, until the pool ends. */
    void work(size_t self);
    /** Pop @p self's front, else steal the fullest queue's back; call
     *  with mu_ held. */
    bool takeUnit(size_t self, size_t *u);
    /** Republish hunger_; call with mu_ held. */
    void updateHunger();

    const UnitFn &fn_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::vector<std::deque<size_t>> queues_;       //!< guarded by mu_
    std::deque<std::function<void()>> donations_;  //!< guarded by mu_
    size_t running_ = 0;                           //!< guarded by mu_
    size_t waiting_ = 0;                           //!< guarded by mu_
    std::atomic<long> hunger_{0}; //!< waiting_ - donations_.size()
    std::exception_ptr error_;    //!< first throw; guarded by mu_
};

/**
 * Run @p fn(u, pool) for every u in [0, @p units) on a pool of
 * min(@p jobs, units) threads that lives for this call, plus every
 * task the units donate (UnitPool::donate). A worker that finds no
 * unit left runs donated tasks, and returns once no unit or donation
 * is queued and none is running. With one worker everything runs
 * serially on the calling thread, in index order, and the pool is
 * never hungry. @p fn must be thread-safe. When @p fn or a donated
 * task throws, the pool still runs every other unit and task, then
 * rethrows the first exception.
 */
void forEachUnit(size_t units, int jobs, const UnitFn &fn);

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
