#include "sweep/scheduler.hh"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "core/registry.hh"
#include "obs/telemetry.hh"
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
 * capture -> finish -> store), streams it through all of the group's
 * core configurations in a single fused traversal
 * (sim::simulateTraceMany -> sim::replay: one varint decode per
 * instruction, every config's model stepped from the same decoded
 * registers), publishes the results and drops the trace. At most
 * `jobs` traces are live at once.
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

/** One worker's mutex-guarded queue of unit indices. */
struct WorkQueue
{
    std::mutex mu;
    std::deque<size_t> units; //!< guarded by mu

    bool
    popFront(size_t *out)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (units.empty())
            return false;
        *out = units.front();
        units.pop_front();
        return true;
    }

    bool
    stealBack(size_t *out)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (units.empty())
            return false;
        *out = units.back();
        units.pop_back();
        return true;
    }

    size_t
    size()
    {
        std::lock_guard<std::mutex> lock(mu);
        return units.size();
    }
};

/** Run every unit of @p queues, starting from queue @p self and then
 *  stealing from the back of the fullest other queue. */
void
drain(const std::function<void(size_t)> &fn,
      std::vector<WorkQueue> &queues, size_t self)
{
    size_t u = 0;
    while (true) {
        if (queues[self].popFront(&u)) {
            fn(u);
            continue;
        }
        size_t victim = queues.size();
        size_t most = 0;
        for (size_t v = 0; v < queues.size(); ++v) {
            if (v == self)
                continue;
            const size_t n = queues[v].size();
            if (n > most) {
                most = n;
                victim = v;
            }
        }
        // No queue had work at scan time: nobody pushes mid-run, so
        // emptiness is stable once observed.
        if (victim == queues.size())
            return;
        // Lost the steal race: rescan, another victim may still hold
        // work.
        if (queues[victim].stealBack(&u))
            fn(u);
    }
}

} // namespace

void
forEachUnit(size_t units, int jobs, const std::function<void(size_t)> &fn)
{
    const size_t workers =
        std::min<size_t>(size_t(std::max(1, jobs)), units);
    if (workers <= 1) {
        for (size_t u = 0; u < units; ++u)
            fn(u);
        return;
    }
    // Deal units round-robin so initial shares interleave the grid
    // (adjacent groups of one kernel tend to cost the same).
    std::vector<WorkQueue> queues(workers);
    for (size_t u = 0; u < units; ++u)
        queues[u % workers].units.push_back(u);

    std::vector<std::thread> threads;
    threads.reserve(workers);
    try {
        for (size_t t = 0; t < workers; ++t)
            threads.emplace_back([&fn, &queues, t] { drain(fn, queues, t); });
    } catch (...) {
        for (std::thread &w : threads)
            w.join();
        throw;
    }
    for (std::thread &w : threads)
        w.join();
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

    std::mutex errMu;
    std::string firstError;
    const auto recordError = [&](const char *what) {
        std::lock_guard<std::mutex> lock(errMu);
        if (firstError.empty())
            firstError = what;
    };

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

    // One work unit: acquire the group's trace, replay it through all
    // of its configurations in a single pass, and publish; results
    // land by point index power-complete (the power model is fused
    // into the replay's finish path — see sim::CoreModel::finish).
    // The trace is dropped when the unit ends.
    const auto executeGroup = [&](size_t gi) {
        try {
            const TraceGroup &g = groups[gi];
            trace::MixStats mix;
            const trace::PackedTrace t =
                acquireTrace(points[g.points.front()], &mix);
            // Partition the group's points by fault scenario: a fused
            // traversal perturbs every model it steps, so points with
            // different faults (or none) replay in separate traversals
            // over the SAME shared trace — capture identity is
            // fault-blind (faults perturb replay, never capture).
            // Partition order is first-occurrence point order, so
            // results stay a pure function of the grid.
            std::vector<sim::SimResult> sims;
            bool anyFault = false;
            for (size_t j : g.points)
                anyFault = anyFault || points[j].faultId != 0;
            if (!anyFault) {
                sims = sim::simulateTraceMany(t, g.configs,
                                              cfg.warmupPasses);
            } else {
                sims.resize(g.points.size());
                std::vector<char> simDone(g.points.size(), 0);
                for (size_t j = 0; j < g.points.size(); ++j) {
                    if (simDone[j])
                        continue;
                    const sim::FaultSpec &fault =
                        points[g.points[j]].fault();
                    const uint64_t fp = fault.fingerprint();
                    std::vector<size_t> part;
                    std::vector<sim::CoreConfig> partCfgs;
                    for (size_t k = j; k < g.points.size(); ++k) {
                        if (simDone[k] ||
                            points[g.points[k]].fault().fingerprint() !=
                                fp)
                            continue;
                        simDone[k] = 1;
                        part.push_back(k);
                        partCfgs.push_back(g.configs[k]);
                    }
                    auto partSims = sim::simulateTraceMany(
                        t, partCfgs, fault, cfg.warmupPasses);
                    for (size_t k = 0; k < part.size(); ++k)
                        sims[part[k]] = std::move(partSims[k]);
                }
            }
            {
                obs::Span publish(obs::Phase::Publish, g.points.size());
                for (size_t j = 0; j < g.points.size(); ++j) {
                    const size_t idx = g.points[j];
                    const SweepPoint &p = points[idx];
                    SweepResult &r = results[idx];
                    r.run = core::KernelRun{};
                    r.run.mix = mix;
                    r.run.sim = std::move(sims[j]);
                    if (cfg.cache)
                        cfg.cache->store(keyFor(p, cfg.warmupPasses),
                                         r.run);
                }
            }
            for (size_t idx : g.points)
                rowComplete(idx);
        } catch (const std::exception &e) {
            recordError(e.what());
        }
    };

    // Stamp the run's shape on the active telemetry instance.
    if (obs::Telemetry *t = obs::Telemetry::active()) {
        obs::RunMeta m;
        m.points = points.size();
        m.units = groups.size();
        m.jobs = jobs;
        t->setMeta(m);
    }

    forEachUnit(groups.size(), jobs, executeGroup);
    if (!firstError.empty())
        throw std::runtime_error("sweep worker failed: " + firstError);
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
