#include "sweep/scheduler.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "core/registry.hh"
#include "obs/telemetry.hh"
#include "sim/core_model.hh"
#include "trace/packed.hh"
#include "trace/stats.hh"

namespace swan::sweep
{

namespace
{

/**
 * One trace group: every pending point that shares a capture identity
 * (kernel, impl, width, working set). The group is one work unit: the
 * worker that runs it acquires the trace (trace tier, or make ->
 * capture -> finish -> store) and streams it through all of the
 * group's core configurations in a single fused traversal
 * (sim::resumeReplay: one varint decode per instruction, every
 * config's model stepped from the same decoded registers). Idle
 * workers may take lanes of that traversal over (UnitReplay); whoever
 * finishes the last lane publishes the results, and the trace is
 * dropped with the last piece. At most `jobs` traces are live at once.
 *
 * Units are independent: captured traces carry canonical addresses
 * (trace/canonical.hh), a pure function of the kernel's access stream,
 * so a unit's results do not depend on which worker ran it, what ran
 * before it, or the process's heap history.
 */
struct TraceGroup
{
    std::vector<size_t> points;         //!< point indices, ascending
    std::vector<sim::CoreConfig> configs; //!< parallel to points
};

/** Capture identity: which points may share one trace. */
using GroupKey = std::tuple<std::string, int, int, uint64_t>;

GroupKey
groupKeyFor(const SweepPoint &p)
{
    return {p.spec->info.qualifiedName(), int(p.impl), p.vecBits,
            fingerprint(p.options)};
}

/**
 * Capture encoders for the workers of one sweep: a worker takes one
 * for each capture and gives it back, so at most `jobs` exist and each
 * keeps its (mmap-backed) capacity across captures.
 */
class BuilderPool
{
  public:
    std::unique_ptr<trace::PackedTrace::Builder>
    take()
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (idle_.empty())
            return std::make_unique<trace::PackedTrace::Builder>();
        auto b = std::move(idle_.back());
        idle_.pop_back();
        return b;
    }

    void
    give(std::unique_ptr<trace::PackedTrace::Builder> b)
    {
        std::lock_guard<std::mutex> lock(mu_);
        idle_.push_back(std::move(b));
    }

  private:
    std::mutex mu_;
    std::vector<std::unique_ptr<trace::PackedTrace::Builder>> idle_;
};

/**
 * A unit's replay once its traversal may split: the trace and results
 * every piece of it shares. The worker that finishes the last lane
 * publishes. A piece that throws never counts its lanes done, so the
 * unit never publishes partial results.
 */
struct UnitReplay
{
    using Publish = std::function<void(UnitReplay &)>;

    UnitReplay(size_t g, const Publish &p) : group(g), publish(p) {}

    const size_t group;
    const Publish &publish;
    trace::PackedTrace trace;
    trace::MixStats mix;
    std::vector<sim::SimResult> sims; //!< parallel to the group's points
    std::atomic<size_t> lanesLeft{0};
};

bool runLanes(UnitPool &pool, const std::shared_ptr<UnitReplay> &unit,
              sim::ReplayPiece &piece);

/** Hands the lanes a traversal splits off to the pool's idle workers,
 *  each piece as a donated task that may split again. */
class PoolDonor final : public sim::ReplayDonor
{
  public:
    PoolDonor(UnitPool &pool, const std::shared_ptr<UnitReplay> &unit)
        : pool_(pool), unit_(unit)
    {
    }

    bool hungry() const override { return pool_.hungry(); }

    void
    donate(sim::ReplayPiece piece) override
    {
        auto rest = std::make_shared<sim::ReplayPiece>(std::move(piece));
        pool_.donate([&pool = pool_, unit = unit_, rest] {
            bool last = false;
            {
                obs::Span span(obs::Phase::ReplayResume,
                               rest->models.size());
                last = runLanes(pool, unit, *rest);
            }
            if (last)
                unit->publish(*unit);
        });
    }

  private:
    UnitPool &pool_;
    std::shared_ptr<UnitReplay> unit_;
};

/** Step @p piece of @p unit to its end on this worker, donating lanes
 *  while the pool is hungry, and free its models here. True when this
 *  call finished the unit's last lane. */
bool
runLanes(UnitPool &pool, const std::shared_ptr<UnitReplay> &unit,
         sim::ReplayPiece &piece)
{
    PoolDonor donor(pool, unit);
    sim::resumeReplay(unit->trace, piece, &donor, unit->sims.data());
    const size_t n = piece.slots.size();
    piece.models.clear();
    return unit->lanesLeft.fetch_sub(n, std::memory_order_acq_rel) == n;
}

} // namespace

UnitPool::UnitPool(size_t units, size_t workers, const UnitFn &fn)
    : fn_(fn), queues_(std::max<size_t>(workers, 1))
{
    for (size_t u = 0; u < units; ++u)
        queues_[u % queues_.size()].push_back(u);
}

bool
UnitPool::takeUnit(size_t self, size_t *u)
{
    if (!queues_[self].empty()) {
        *u = queues_[self].front();
        queues_[self].pop_front();
        return true;
    }
    std::deque<size_t> *victim = nullptr;
    for (auto &q : queues_)
        if (!q.empty() && (!victim || q.size() > victim->size()))
            victim = &q;
    if (!victim)
        return false;
    *u = victim->back();
    victim->pop_back();
    return true;
}

void
UnitPool::updateHunger()
{
    hunger_.store(long(waiting_) - long(donations_.size()),
                  std::memory_order_relaxed);
}

void
UnitPool::donate(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        donations_.push_back(std::move(task));
        updateHunger();
    }
    cv_.notify_one();
}

void
UnitPool::work(size_t self)
{
    // Run a task (mu_ released); keep the first exception any task
    // throws and carry on with the rest.
    const auto run = [this](const auto &f) {
        try {
            f();
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu_);
            if (!error_)
                error_ = std::current_exception();
        }
    };
    std::unique_lock<std::mutex> lock(mu_);
    size_t u = 0;
    while (true) {
        if (takeUnit(self, &u)) {
            ++running_;
            lock.unlock();
            run([&] { fn_(u, *this); });
            lock.lock();
            --running_;
        } else if (!donations_.empty()) {
            std::function<void()> task = std::move(donations_.front());
            donations_.pop_front();
            ++running_;
            updateHunger();
            lock.unlock();
            run(task);
            task = nullptr; // drop what the task holds before relocking
            lock.lock();
            --running_;
        } else if (running_ == 0) {
            // Nothing queued and nothing running that could donate:
            // the pool is done. Wake the waiters so they leave too.
            cv_.notify_all();
            return;
        } else {
            ++waiting_;
            updateHunger();
            cv_.wait(lock);
            --waiting_;
            updateHunger();
        }
    }
}

void
forEachUnit(size_t units, int jobs, const UnitFn &fn)
{
    const size_t workers =
        std::min<size_t>(size_t(std::max(1, jobs)), units);
    UnitPool pool(units, workers, fn);
    if (workers <= 1) {
        pool.work(0);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(workers);
        try {
            for (size_t t = 0; t < workers; ++t)
                threads.emplace_back([&pool, t] { pool.work(t); });
        } catch (...) {
            for (std::thread &w : threads)
                w.join();
            throw;
        }
        for (std::thread &w : threads)
            w.join();
    }
    if (pool.error_)
        std::rethrow_exception(pool.error_);
}

std::string
describe(const RowOrigin &origin)
{
    switch (origin.kind) {
      case RowOrigin::Kind::Cache:
        return "cache";
      case RowOrigin::Kind::Computed:
        return "computed";
    }
    return "unknown";
}

std::vector<SweepResult>
runSweep(const std::vector<SweepPoint> &points, const SchedulerConfig &cfg)
{
    // Workers read KernelSpec references concurrently; freeze the
    // registry so the backing vector can never reallocate under them.
    core::Registry::instance().closeRegistration();

    std::vector<SweepResult> results(points.size());
    if (points.empty())
        return results;

    // The whole-sweep telemetry envelope (malloc-free guard; a single
    // relaxed load when no collector is active — see obs/telemetry.hh).
    obs::Span sweepSpan(obs::Phase::Sweep, points.size());

    int jobs = cfg.jobs;
    if (jobs <= 0)
        jobs = int(std::thread::hardware_concurrency());
    if (jobs < 1)
        jobs = 1;

    // Result-cache lookups (serial, point-index order).
    std::vector<size_t> pending;
    {
        obs::Span lookupSpan(obs::Phase::CacheLookup, points.size());
        for (size_t i = 0; i < points.size(); ++i) {
            const SweepPoint &p = points[i];
            SweepResult &r = results[i];
            r.point = p;
            if (cfg.cache &&
                cfg.cache->lookup(keyFor(p, cfg.warmupPasses), &r.run)) {
                r.cacheHit = true;
                continue;
            }
            pending.push_back(i);
        }
    }
    if (pending.empty()) {
        // Fully warm sweep: every row is a cache hit, streamed in
        // point order right here.
        if (cfg.onRow) {
            RowOrigin o;
            o.kind = RowOrigin::Kind::Cache;
            o.total = results.size();
            for (size_t i = 0; i < results.size(); ++i) {
                o.done = i + 1;
                cfg.onRow(results[i], o);
            }
        }
        return results;
    }

    // Group the pending points by capture identity, in first-occurrence
    // order (which is point-index order): one work unit per group.
    std::vector<TraceGroup> groups;
    {
        std::map<GroupKey, size_t> groupOf;
        for (size_t idx : pending) {
            const SweepPoint &p = points[idx];
            auto [it, inserted] =
                groupOf.emplace(groupKeyFor(p), groups.size());
            if (inserted)
                groups.emplace_back();
            TraceGroup &g = groups[it->second];
            g.points.push_back(idx);
            g.configs.push_back(p.config);
        }
    }
    jobs = int(std::min<size_t>(size_t(jobs), groups.size()));

    // Row streaming (cfg.onRow): completion states per point, emitted
    // strictly in point-index order behind an advancing frontier.
    // Workers mark points done as units land. Encoding: 0 pending,
    // 1 cache hit, 2 computed. Empty = no streaming.
    std::mutex rowMu;
    std::vector<uint8_t> rowState;
    size_t rowNext = 0;
    // Emit every ready row at the frontier; call with rowMu held.
    const auto rowFlush = [&]() {
        while (rowNext < rowState.size() && rowState[rowNext]) {
            RowOrigin o;
            o.total = rowState.size();
            o.done = rowNext + 1;
            o.kind = rowState[rowNext] == 1 ? RowOrigin::Kind::Cache
                                            : RowOrigin::Kind::Computed;
            cfg.onRow(results[rowNext], o);
            ++rowNext;
        }
    };
    const auto rowComplete = [&](size_t idx) {
        if (rowState.empty())
            return;
        std::lock_guard<std::mutex> lock(rowMu);
        rowState[idx] = 2;
        rowFlush();
    };
    if (cfg.onRow) {
        rowState.assign(points.size(), 0);
        for (size_t i = 0; i < points.size(); ++i)
            if (results[i].cacheHit)
                rowState[i] = 1;
        std::lock_guard<std::mutex> lock(rowMu);
        rowFlush();
    }

    // Acquire one group's packed trace on the executing worker: the
    // trace tier when warm, else make -> capture -> finish -> store.
    BuilderPool builders;
    const auto acquireTrace = [&](const SweepPoint &p,
                                  trace::MixStats *mix) {
        const TraceKey tkey = traceKeyFor(p);
        {
            // Packed-trace tier probe (and, on a hit, the disk read);
            // arg = bytes served.
            obs::Span probe(obs::Phase::CacheLookup);
            trace::PackedTrace t;
            if (cfg.cache && cfg.cache->lookupTrace(tkey, &t, mix)) {
                probe.addArg(t.byteSize());
                return t;
            }
        }
        std::unique_ptr<core::Workload> w;
        {
            obs::Span make(obs::Phase::WorkloadMake);
            w = p.spec->make(p.options);
        }
        auto builder = builders.take();
        {
            obs::Span capture(obs::Phase::Capture);
            core::Runner::captureTo(*w, p.impl, p.vecBits, builder.get());
            capture.addArg(builder->size());
        }
        w.reset();
        trace::PackedTrace t;
        {
            obs::Span pack(obs::Phase::Pack);
            t = builder->finish(mix);
            pack.addArg(t.byteSize());
        }
        builders.give(std::move(builder));
        if (cfg.cache) {
            obs::Span store(obs::Phase::TraceStore, t.byteSize());
            cfg.cache->storeTrace(tkey, t, *mix);
        }
        return t;
    };

    // Publish a unit: results land by point index power-complete (the
    // power model is fused into the replay's finish path — see
    // sim::CoreModel::finish).
    const UnitReplay::Publish publish = [&](UnitReplay &u) {
        const TraceGroup &g = groups[u.group];
        {
            obs::Span span(obs::Phase::Publish, g.points.size());
            for (size_t j = 0; j < g.points.size(); ++j) {
                const size_t idx = g.points[j];
                const SweepPoint &p = points[idx];
                SweepResult &r = results[idx];
                r.run = core::KernelRun{};
                r.run.mix = u.mix;
                r.run.sim = std::move(u.sims[j]);
                if (cfg.cache)
                    cfg.cache->store(keyFor(p, cfg.warmupPasses), r.run);
            }
        }
        for (size_t idx : g.points)
            rowComplete(idx);
    };

    // One work unit: acquire the group's trace, replay it through all
    // of its configurations in a single pass (lanes of which idle
    // workers may take over), and publish once every lane is done.
    const auto executeGroup = [&](size_t gi, UnitPool &pool) {
        const TraceGroup &g = groups[gi];
        const auto unit = std::make_shared<UnitReplay>(gi, publish);
        unit->trace = acquireTrace(points[g.points.front()], &unit->mix);
        unit->sims.resize(g.points.size());
        // Partition the group's points by fault scenario: a fused
        // traversal perturbs every model it steps, so points with
        // different faults (or none) replay in separate traversals
        // over the SAME shared trace — capture identity is
        // fault-blind (faults perturb replay, never capture).
        // Partition order is first-occurrence point order, so
        // results stay a pure function of the grid. Faulted
        // traversals never split: their observer sees every model
        // at each boundary.
        bool anyFault = false;
        for (size_t j : g.points)
            anyFault = anyFault || points[j].faultId != 0;
        if (!anyFault) {
            unit->lanesLeft = g.configs.size();
            bool last = false;
            {
                obs::Span span(obs::Phase::Replay,
                               uint64_t(unit->trace.size()) *
                                   g.configs.size() *
                                   uint64_t(cfg.warmupPasses + 1));
                sim::ReplayPiece piece = sim::startReplay(
                    unit->trace, g.configs, cfg.warmupPasses);
                last = runLanes(pool, unit, piece);
            }
            if (last)
                publish(*unit);
            return;
        }
        std::vector<char> simDone(g.points.size(), 0);
        for (size_t j = 0; j < g.points.size(); ++j) {
            if (simDone[j])
                continue;
            const sim::FaultSpec &fault = points[g.points[j]].fault();
            const uint64_t fp = fault.fingerprint();
            std::vector<size_t> part;
            std::vector<sim::CoreConfig> partCfgs;
            for (size_t k = j; k < g.points.size(); ++k) {
                if (simDone[k] ||
                    points[g.points[k]].fault().fingerprint() != fp)
                    continue;
                simDone[k] = 1;
                part.push_back(k);
                partCfgs.push_back(g.configs[k]);
            }
            auto partSims = sim::simulateTraceMany(
                unit->trace, partCfgs, fault, cfg.warmupPasses);
            for (size_t k = 0; k < part.size(); ++k)
                unit->sims[part[k]] = std::move(partSims[k]);
        }
        publish(*unit);
    };

    // Stamp the run's shape on the active telemetry instance.
    if (obs::Telemetry *t = obs::Telemetry::active()) {
        obs::RunMeta m;
        m.points = points.size();
        m.units = groups.size();
        m.jobs = jobs;
        t->setMeta(m);
    }

    try {
        forEachUnit(groups.size(), jobs, executeGroup);
    } catch (const std::exception &e) {
        throw std::runtime_error(std::string("sweep worker failed: ") +
                                 e.what());
    }
    return results;
}

std::vector<SweepResult>
runSweep(const SweepSpec &spec, const SchedulerConfig &cfg, std::string *err)
{
    std::vector<SweepPoint> points;
    {
        obs::Span span(obs::Phase::GridExpand);
        points = expand(spec, err);
        span.addArg(points.size());
    }
    if (points.empty())
        return {};
    SchedulerConfig c = cfg;
    c.warmupPasses = spec.warmupPasses;
    return runSweep(points, c);
}

const SweepResult *
findResult(const std::vector<SweepResult> &results,
           std::string_view kernel_qualified, core::Impl impl, int vec_bits,
           std::string_view config, std::string_view working_set)
{
    for (const auto &r : results) {
        if (r.point.spec->info.qualifiedName() != kernel_qualified)
            continue;
        if (r.point.impl != impl || r.point.vecBits != vec_bits)
            continue;
        if (!config.empty() && r.point.configName != config)
            continue;
        if (!working_set.empty() && r.point.workingSetName != working_set)
            continue;
        return &r;
    }
    return nullptr;
}

} // namespace swan::sweep
