/**
 * @file
 * ThreadedBackend: the sweep engine's default in-process executor, a
 * work-stealing pool of `jobs` threads that lives for one run().
 */

#include "sweep/backend.hh"

#include <algorithm>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

namespace swan::sweep
{

namespace
{

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
drain(const BackendJob &job, std::vector<WorkQueue> &queues, size_t self)
{
    size_t u = 0;
    while (true) {
        if (queues[self].popFront(&u)) {
            job.execute(job.arg, u);
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
            job.execute(job.arg, u);
    }
}

} // namespace

void
ThreadedBackend::run(const BackendJob &job)
{
    if (job.units == 0)
        return;
    // The scheduler resolves the job count; re-clamp to the unit count
    // here because sub-jobs (sharded recovery) can be narrower.
    const size_t jobs =
        std::min<size_t>(size_t(std::max(1, job.jobs)), job.units);
    // Deal units round-robin so initial shares interleave the grid
    // (adjacent groups of one kernel tend to cost the same).
    std::vector<WorkQueue> queues(jobs);
    for (size_t u = 0; u < job.units; ++u)
        queues[u % jobs].units.push_back(u);

    std::vector<std::thread> workers;
    workers.reserve(jobs);
    try {
        for (size_t t = 0; t < jobs; ++t)
            workers.emplace_back(
                [&job, &queues, t] { drain(job, queues, t); });
    } catch (...) {
        for (std::thread &w : workers)
            w.join();
        throw;
    }
    for (std::thread &w : workers)
        w.join();
}

} // namespace swan::sweep
