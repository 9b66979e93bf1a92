/**
 * @file
 * Tests of the sweep engine's in-process work-stealing pool
 * (sweep::forEachUnit) and of what rides on it: every unit runs exactly
 * once at any job count, and emitter output is byte-identical across
 * jobs.
 *
 * Like test_sweep_scheduler.cc's jobs matrix, the compared sweeps
 * replay traces pinned on disk (primed once with a different
 * warm-up-pass count so the result cache never hits and every run
 * actually schedules and simulates): with the instruction streams
 * fixed, any cross-jobs difference can only come from the execution
 * layer itself. Fresh-capture identity across jobs and processes is
 * additionally enforced end-to-end by the CI smokes.
 */

#include <atomic>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "sweep/cache.hh"
#include "sweep/emit.hh"
#include "sweep/scheduler.hh"

using namespace swan;

namespace
{

/** A small but multi-kernel, multi-config grid: 6 trace groups. */
sweep::SweepSpec
smallGrid()
{
    sweep::SweepSpec spec;
    spec.kernels.names = {"ZL/adler32", "ZL/crc32", "OR/memcpy"};
    spec.impls = {core::Impl::Scalar, core::Impl::Neon};
    spec.configs = {"prime", "silver"};
    spec.workingSets = {"tiny"};
    return spec;
}

std::string
render(const std::vector<sweep::SweepResult> &results)
{
    std::ostringstream os;
    sweep::emitResults(os, results, sweep::Format::JsonLines);
    return os.str();
}

/** Scratch cache directory, primed so every run replays the same
 *  stored traces and simulates every point. */
class PoolFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        std::string err;
        points_ = sweep::expand(smallGrid(), &err);
        ASSERT_FALSE(points_.empty()) << err;
        dir_ = std::filesystem::temp_directory_path() /
               ("swan_pool_" + std::to_string(::getpid()));
        std::filesystem::remove_all(dir_);
        sweep::ResultCache prime(dir_.string());
        sweep::SchedulerConfig sc;
        sc.cache = &prime;
        sc.warmupPasses = 2; // prime traces, never the default results
        sweep::runSweep(points_, sc);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    /** Drop stored results (keep the traces) so the next run
     *  simulates instead of replaying the result cache. */
    void
    dropResults()
    {
        for (const auto &e : std::filesystem::directory_iterator(dir_))
            if (e.path().extension() == ".swr")
                std::filesystem::remove(e.path());
    }

    std::string
    runWith(int jobs)
    {
        dropResults();
        sweep::ResultCache cache(dir_.string());
        sweep::SchedulerConfig sc;
        sc.jobs = jobs;
        sc.cache = &cache;
        const auto out = render(sweep::runSweep(points_, sc));
        EXPECT_EQ(cache.stats().traceHits, 6u) << "jobs=" << jobs;
        EXPECT_EQ(cache.stats().stores, points_.size()) << "jobs=" << jobs;
        return out;
    }

    std::vector<sweep::SweepPoint> points_;
    std::filesystem::path dir_;
};

} // namespace

TEST(SweepPool, EveryUnitRunsExactlyOnce)
{
    for (int jobs : {0, 1, 2, 3, 8, 64}) {
        for (size_t units : {size_t(0), size_t(1), size_t(7), size_t(100)}) {
            std::vector<std::atomic<int>> runs(units);
            sweep::forEachUnit(units, jobs,
                               [&](size_t u) { runs[u].fetch_add(1); });
            for (size_t u = 0; u < units; ++u)
                EXPECT_EQ(runs[u].load(), 1)
                    << "jobs=" << jobs << " units=" << units << " u=" << u;
        }
    }
}

TEST(SweepPool, OneJobRunsOnTheCallingThread)
{
    const auto caller = std::this_thread::get_id();
    std::vector<size_t> order;
    sweep::forEachUnit(5, 1, [&](size_t u) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(u);
    });
    EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST_F(PoolFixture, MatrixProducesByteIdenticalOutput)
{
    const std::string reference = runWith(1);
    ASSERT_FALSE(reference.empty());
    for (int jobs : {2, 4, 8})
        EXPECT_EQ(reference, runWith(jobs)) << "jobs=" << jobs;
}
