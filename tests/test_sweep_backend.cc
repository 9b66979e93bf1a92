/**
 * @file
 * Tests of the sweep engine's in-process worker pool
 * (sweep::forEachUnit) and of what rides on it: every unit and every
 * donated task runs exactly once at any job count and the pool ends,
 * emitter output is byte-identical across jobs, and a unit whose
 * donated replay lanes fail ends the sweep with its error.
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
#include <chrono>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>
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
            sweep::forEachUnit(units, jobs, [&](size_t u, sweep::UnitPool &) {
                runs[u].fetch_add(1);
            });
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
    sweep::forEachUnit(5, 1, [&](size_t u, sweep::UnitPool &pool) {
        EXPECT_FALSE(pool.hungry());
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

TEST(SweepPool, EveryDonatedTaskRunsExactlyOnceAndThePoolEnds)
{
    // Each unit donates three tasks, and each of those donates two
    // more: the pool must run all nine per unit once, wherever they
    // land, and return only after the last one.
    constexpr size_t kTasks = 9;
    for (int jobs : {1, 2, 3, 8}) {
        for (size_t units : {size_t(1), size_t(7), size_t(40)}) {
            std::vector<std::atomic<int>> runs(units * kTasks);
            sweep::forEachUnit(units, jobs, [&](size_t u,
                                                sweep::UnitPool &pool) {
                for (size_t a = 0; a < 3; ++a)
                    pool.donate([&runs, &pool, u, a] {
                        runs[u * kTasks + a].fetch_add(1);
                        for (size_t b = 0; b < 2; ++b)
                            pool.donate([&runs, u, a, b] {
                                runs[u * kTasks + 3 + a * 2 + b].fetch_add(1);
                            });
                    });
            });
            for (size_t i = 0; i < runs.size(); ++i)
                EXPECT_EQ(runs[i].load(), 1)
                    << "jobs=" << jobs << " units=" << units << " task=" << i;
        }
    }
}

TEST(SweepPool, AThrowingTaskFailsThePoolAfterTheRest)
{
    for (int jobs : {1, 3}) {
        std::atomic<int> runs{0};
        EXPECT_THROW(
            sweep::forEachUnit(6, jobs,
                               [&](size_t u, sweep::UnitPool &pool) {
                                   runs.fetch_add(1);
                                   if (u == 2)
                                       pool.donate([] {
                                           throw std::runtime_error("x");
                                       });
                               }),
            std::runtime_error)
            << "jobs=" << jobs;
        EXPECT_EQ(runs.load(), 6) << "jobs=" << jobs;
    }
}

TEST(SweepPool, AWaitingWorkerMakesThePoolHungry)
{
    // Two units on two workers: unit 1 ends at once, so its worker
    // waits, and unit 0 sees the pool hungry and donates to it.
    std::atomic<bool> sawHunger{false};
    std::atomic<int> donatedRuns{0};
    sweep::forEachUnit(2, 2, [&](size_t u, sweep::UnitPool &pool) {
        if (u != 0)
            return;
        for (int i = 0; i < 30000 && !pool.hungry(); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        sawHunger = pool.hungry();
        pool.donate([&] { donatedRuns.fetch_add(1); });
    });
    EXPECT_TRUE(sawHunger.load());
    EXPECT_EQ(donatedRuns.load(), 1);
}

TEST(SweepDonation, MalformedTraceWithDonatedLanesFailsTheSweep)
{
    // Two groups of three configurations on two workers. crc32's trace
    // is the longer one, so its traversal is still running when
    // adler32's worker runs out of units and waits, and lanes of it
    // are donated. Its stored trace claims one record fewer than its
    // streams hold: every traversal of it, and every donated piece,
    // replays a whole pass and then rejects the stream. The sweep must
    // end with that error instead of waiting for results that never
    // come.
    sweep::SweepSpec spec;
    spec.kernels.names = {"ZL/crc32", "ZL/adler32"};
    spec.impls = {core::Impl::Scalar};
    spec.configs = {"prime", "silver", "gold"};
    spec.workingSets = {"default"};
    std::string err;
    const auto points = sweep::expand(spec, &err);
    ASSERT_EQ(points.size(), 6u) << err;
    ASSERT_EQ(points.front().spec->info.qualifiedName(), "ZL/crc32");

    const auto dir = std::filesystem::temp_directory_path() /
                     ("swan_donate_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    sweep::ResultCache cache(dir.string());
    sweep::SchedulerConfig sc;
    sc.cache = &cache;
    sweep::runSweep(points, sc); // stores both traces

    const sweep::TraceKey key = sweep::traceKeyFor(points.front());
    trace::PackedTrace good;
    trace::MixStats mix;
    ASSERT_TRUE(cache.lookupTrace(key, &good, &mix));
    auto header = good.payloadHeader();
    uint64_t count = 0;
    std::memcpy(&count, header.data(), sizeof count);
    ASSERT_EQ(count, good.size());
    --count;
    std::memcpy(header.data(), &count, sizeof count);
    const std::string body(
        reinterpret_cast<const char *>(good.payloadBody()), good.byteSize());
    std::istringstream in(body);
    trace::PackedTrace bad;
    ASSERT_TRUE(trace::PackedTrace::readPayload(header.data(), in,
                                                body.size(), &bad));

    // A fresh cache on the same directory: the results stored above
    // are dropped, so the sweep replays both traces.
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().extension() == ".swr")
            std::filesystem::remove(e.path());
    sweep::ResultCache damaged(dir.string());
    damaged.storeTrace(key, bad, mix);
    sc.cache = &damaged;
    sc.jobs = 4;
    try {
        sweep::runSweep(points, sc);
        ADD_FAILURE() << "the malformed trace was replayed without error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("malformed"), std::string::npos)
            << e.what();
    }
    std::filesystem::remove_all(dir);
}
