/**
 * @file
 * Tests of the two-tier cache (sweep/cache.hh): deterministic capped
 * pruning — stable even for entries written in the same second, since
 * mtimes never enter the decision (first-lookup order itself is
 * covered in test_api_session.cc) — and the determinism matrix: one grid replayed across
 * jobs, cold and warm, must emit byte-identical results and leave an
 * identical cache directory.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "sweep/cache.hh"
#include "sweep/emit.hh"
#include "sweep/scheduler.hh"

using namespace swan;

namespace
{

std::string
tempDir(const char *tag)
{
    const auto d = std::filesystem::temp_directory_path() /
                   (std::string("swan_cache_tiers_") + tag + "_" +
                    std::to_string(::getpid()));
    std::filesystem::remove_all(d);
    return d.string();
}

sweep::SweepSpec
adlerSpec()
{
    sweep::SweepSpec spec;
    spec.kernels.names = {"ZL/adler32"};
    spec.workingSets = {"tiny"};
    return spec;
}

core::KernelRun
runWithCycles(uint64_t cycles)
{
    core::KernelRun r;
    r.sim.cycles = cycles;
    r.sim.instrs = 100;
    return r;
}

sweep::CacheKey
keyNamed(const std::string &kernel)
{
    sweep::CacheKey k;
    k.kernel = kernel;
    k.configFp = 0x1234;
    k.optionsFp = 0x5678;
    return k;
}

} // namespace

TEST(CacheTiers, SameSecondEntriesEvictInStableOrder)
{
    namespace fs = std::filesystem;

    // Two entries written within one mtime granule (enforced with an
    // explicit identical timestamp) plus a cap that forces one out:
    // the victim must be the same on every run of the same sequence —
    // the old mtime-LRU tie was filesystem roulette here.
    const auto runOnce = [](const std::string &dir, uint64_t cap) {
        sweep::ResultCache cache(dir, cap);
        cache.store(keyNamed("K/tie-a"), runWithCycles(1));
        cache.store(keyNamed("K/tie-b"), runWithCycles(2));
        const auto stamp = fs::last_write_time(
            fs::path(dir) / (keyNamed("K/tie-a").hex() + ".swr"));
        fs::last_write_time(
            fs::path(dir) / (keyNamed("K/tie-b").hex() + ".swr"), stamp);
        core::KernelRun got;
        EXPECT_FALSE(cache.lookup(keyNamed("K/tie-c"), &got));
        cache.store(keyNamed("K/tie-c"), runWithCycles(3));
        EXPECT_EQ(cache.stats().evictions, 1u);
        std::vector<std::string> left;
        for (const auto &e : fs::directory_iterator(dir))
            if (e.path().extension() == ".swr")
                left.push_back(e.path().filename().string());
        std::sort(left.begin(), left.end());
        return left;
    };

    uint64_t entryBytes = 0;
    const auto probeDir = tempDir("tie_probe");
    {
        sweep::ResultCache probe(probeDir);
        probe.store(keyNamed("K/probe"), runWithCycles(1));
        entryBytes = probe.diskBytes();
        ASSERT_GT(entryBytes, 0u);
    }
    fs::remove_all(probeDir);
    const uint64_t cap = 2 * entryBytes + entryBytes / 2;

    const auto dirA = tempDir("tie_a");
    const auto dirB = tempDir("tie_b");
    const auto first = runOnce(dirA, cap);
    const auto second = runOnce(dirB, cap);
    ASSERT_EQ(first.size(), 2u);
    EXPECT_EQ(first, second);
    // Neither tied entry has lookup history, so the name tiebreak
    // picks the victim; K/tie-c was looked up and must survive.
    EXPECT_NE(std::find(first.begin(), first.end(),
                        keyNamed("K/tie-c").hex() + ".swr"),
              first.end());
    fs::remove_all(dirA);
    fs::remove_all(dirB);
}

TEST(CacheTiers, DeterminismMatrixEmitsIdenticalBytesAndPlacement)
{
    namespace fs = std::filesystem;
    std::string err;
    sweep::SweepSpec spec = adlerSpec();
    spec.impls = {core::Impl::Scalar, core::Impl::Neon};
    spec.configs = {"prime", "silver"};
    auto points = sweep::expand(spec, &err);
    ASSERT_EQ(points.size(), 4u) << err;

    const auto sweepOnce = [&](const std::string &dir, int jobs,
                               uint64_t *misses) {
        sweep::ResultCache cache(dir);
        sweep::SchedulerConfig sc;
        sc.cache = &cache;
        sc.jobs = jobs;
        std::ostringstream os;
        sweep::emitResults(os, sweep::runSweep(points, sc),
                           sweep::Format::JsonLines);
        *misses = cache.stats().misses;
        return os.str();
    };
    const auto listing = [](const std::string &dir) {
        std::vector<std::string> names;
        for (const auto &e : fs::directory_iterator(dir))
            names.push_back(e.path().filename().string());
        std::sort(names.begin(), names.end());
        return names;
    };

    std::string coldRef;
    std::vector<std::string> listingRef;
    for (int jobs : {1, 2, 8}) {
        const auto dir =
            tempDir(("mx_j" + std::to_string(jobs)).c_str());
        uint64_t coldMisses = 0, warmMisses = ~0ull;
        const std::string cold = sweepOnce(dir, jobs, &coldMisses);
        // Fresh cache on the same directory: the warm run must be
        // served entirely from disk.
        const std::string warm = sweepOnce(dir, jobs, &warmMisses);
        EXPECT_EQ(coldMisses, points.size()) << "jobs " << jobs;
        EXPECT_EQ(warmMisses, 0u) << "jobs " << jobs;
        EXPECT_EQ(cold, warm) << "jobs " << jobs;
        const auto names = listing(dir);
        if (coldRef.empty()) {
            coldRef = cold;
            listingRef = names;
        } else {
            EXPECT_EQ(cold, coldRef) << "jobs " << jobs;
            EXPECT_EQ(names, listingRef) << "jobs " << jobs;
        }
        fs::remove_all(dir);
    }
    ASSERT_FALSE(coldRef.empty());
    // 4 results + 2 captured traces (Scalar and Neon share per-impl
    // traces across the two core configs).
    ASSERT_EQ(listingRef.size(), 6u);
    EXPECT_EQ(std::count_if(listingRef.begin(), listingRef.end(),
                            [](const std::string &n) {
                                return n.size() > 5 &&
                                       n.substr(n.size() - 5) == ".swtp";
                            }),
              2);
}
