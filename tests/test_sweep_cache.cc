/**
 * @file
 * Tests of the sweep result cache (sweep/cache.hh): fingerprint and key
 * stability, hit/miss accounting, the on-disk tier's round-trip
 * fidelity (cold and warm lookups must be byte-identical through the
 * emitters) and its corruption handling.
 */

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include <gtest/gtest.h>

#include "core/registry.hh"
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
                   (std::string("swan_sweep_cache_") + tag + "_" +
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

} // namespace

TEST(SweepCache, FingerprintSeparatesConfigs)
{
    const auto prime = sweep::fingerprint(sim::primeConfig());
    EXPECT_EQ(prime, sweep::fingerprint(sim::primeConfig()));
    EXPECT_NE(prime, sweep::fingerprint(sim::goldConfig()));
    EXPECT_NE(prime, sweep::fingerprint(sim::silverConfig()));
    EXPECT_NE(sweep::fingerprint(sim::widerVectorConfig(256)),
              sweep::fingerprint(sim::widerVectorConfig(512)));

    auto tweaked = sim::primeConfig();
    tweaked.mshrs += 1;
    EXPECT_NE(prime, sweep::fingerprint(tweaked));
}

TEST(SweepCache, FingerprintSeparatesOptions)
{
    core::Options a, b;
    EXPECT_EQ(sweep::fingerprint(a), sweep::fingerprint(b));
    b.bufferBytes += 1;
    EXPECT_NE(sweep::fingerprint(a), sweep::fingerprint(b));
    b = a;
    b.seed ^= 1;
    EXPECT_NE(sweep::fingerprint(a), sweep::fingerprint(b));
}

TEST(SweepCache, KeyIdentityAndStability)
{
    std::string err;
    auto points = sweep::expand(adlerSpec(), &err);
    ASSERT_EQ(points.size(), 1u) << err;
    const auto k1 = sweep::keyFor(points[0], 1);
    const auto k2 = sweep::keyFor(points[0], 1);
    EXPECT_TRUE(k1 == k2);
    EXPECT_EQ(k1.hash(), k2.hash());
    EXPECT_EQ(k1.hex().size(), 16u);

    const auto k3 = sweep::keyFor(points[0], 2);
    EXPECT_FALSE(k1 == k3);
    EXPECT_NE(k1.hash(), k3.hash());
}

TEST(SweepCache, MemoryTierHitMissCounters)
{
    sweep::ResultCache cache;
    std::string err;
    auto points = sweep::expand(adlerSpec(), &err);
    ASSERT_EQ(points.size(), 1u) << err;

    sweep::SchedulerConfig sc;
    sc.cache = &cache;
    auto cold = sweep::runSweep(points, sc);
    ASSERT_EQ(cold.size(), 1u);
    EXPECT_FALSE(cold[0].cacheHit);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().stores, 1u);

    auto warm = sweep::runSweep(points, sc);
    ASSERT_EQ(warm.size(), 1u);
    EXPECT_TRUE(warm[0].cacheHit);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);

    EXPECT_EQ(cold[0].run.sim.cycles, warm[0].run.sim.cycles);
    EXPECT_EQ(cold[0].run.mix.total(), warm[0].run.mix.total());
}

TEST(SweepCache, DiskTierColdAndWarmRunsAreByteIdentical)
{
    const auto dir = tempDir("roundtrip");
    std::string err;
    sweep::SweepSpec spec = adlerSpec();
    spec.impls = {core::Impl::Scalar, core::Impl::Neon};
    spec.configs = {"prime", "silver"};
    auto points = sweep::expand(spec, &err);
    ASSERT_EQ(points.size(), 4u) << err;

    std::ostringstream cold, warm;
    {
        sweep::ResultCache cache(dir);
        sweep::SchedulerConfig sc;
        sc.cache = &cache;
        auto results = sweep::runSweep(points, sc);
        sweep::emitResults(cold, results, sweep::Format::JsonLines);
        EXPECT_EQ(cache.stats().misses, 4u);
    }
    {
        // Fresh in-process cache: every lookup must come off disk, and
        // nothing may re-simulate.
        sweep::ResultCache cache(dir);
        sweep::SchedulerConfig sc;
        sc.cache = &cache;
        auto results = sweep::runSweep(points, sc);
        sweep::emitResults(warm, results, sweep::Format::JsonLines);
        EXPECT_EQ(cache.stats().diskHits, 4u);
        EXPECT_EQ(cache.stats().misses, 0u);
        for (const auto &r : results)
            EXPECT_TRUE(r.cacheHit);
    }
    EXPECT_EQ(cold.str(), warm.str());
    std::filesystem::remove_all(dir);
}

TEST(SweepCache, CorruptDiskEntryDegradesToMiss)
{
    const auto dir = tempDir("corrupt");
    std::string err;
    auto points = sweep::expand(adlerSpec(), &err);
    ASSERT_EQ(points.size(), 1u) << err;
    const auto key = sweep::keyFor(points[0], 1);

    {
        sweep::ResultCache cache(dir);
        sweep::SchedulerConfig sc;
        sc.cache = &cache;
        sweep::runSweep(points, sc);
    }
    // Truncate the entry: the mix line disappears.
    const auto path = std::filesystem::path(dir) / (key.hex() + ".swr");
    ASSERT_TRUE(std::filesystem::exists(path));
    {
        std::ofstream os(path, std::ios::trunc);
        os << "swan-sweep-result v1\nkernel ZL/adler32\n";
    }
    sweep::ResultCache cache(dir);
    core::KernelRun run;
    EXPECT_FALSE(cache.lookup(key, &run));
    EXPECT_EQ(cache.stats().misses, 1u);
    // Truncation is structural damage: the entry is quarantined, not
    // left in place to fail validation on every future lookup.
    EXPECT_EQ(cache.stats().corruptEntriesQuarantined, 1u);
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(std::filesystem::exists(path.string() + ".quarantined"));
    std::filesystem::remove_all(dir);
}

TEST(SweepCache, FlippedResultEntryIsQuarantinedAndRecomputedIdentically)
{
    const auto dir = tempDir("bitflip");
    std::string err;
    auto points = sweep::expand(adlerSpec(), &err);
    ASSERT_EQ(points.size(), 1u) << err;
    const auto key = sweep::keyFor(points[0], 1);

    std::ostringstream cold;
    {
        sweep::ResultCache cache(dir);
        sweep::SchedulerConfig sc;
        sc.cache = &cache;
        sweep::emitResults(cold, sweep::runSweep(points, sc),
                           sweep::Format::JsonLines);
    }
    // Flip one body byte (a bad sector, not a truncation): the entry
    // still parses line-by-line but its checksum no longer matches.
    const auto path = std::filesystem::path(dir) / (key.hex() + ".swr");
    ASSERT_TRUE(std::filesystem::exists(path));
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekg(0, std::ios::end);
        const auto size = f.tellg();
        f.seekp(std::streamoff(size) - 2);
        char c = 0;
        f.seekg(std::streamoff(size) - 2);
        f.get(c);
        f.seekp(std::streamoff(size) - 2);
        f.put(c == '1' ? '2' : '1');
    }

    std::ostringstream recompute;
    {
        sweep::ResultCache cache(dir);
        sweep::SchedulerConfig sc;
        sc.cache = &cache;
        sweep::emitResults(recompute, sweep::runSweep(points, sc),
                           sweep::Format::JsonLines);
        EXPECT_EQ(cache.stats().misses, 1u);
        EXPECT_EQ(cache.stats().diskHits, 0u);
        EXPECT_EQ(cache.stats().corruptEntriesQuarantined, 1u);
        EXPECT_EQ(cache.stats().stores, 1u);
    }
    EXPECT_TRUE(std::filesystem::exists(path.string() + ".quarantined"));
    // The quarantined bytes must never be served again; the recompute
    // replays the pinned trace, so its report is byte-identical.
    EXPECT_EQ(cold.str(), recompute.str());
    std::filesystem::remove_all(dir);
}

namespace
{

std::string
readBytes(const std::filesystem::path &p)
{
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

void
writeBytes(const std::filesystem::path &p, const std::string &bytes)
{
    std::ofstream os(p, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), std::streamsize(bytes.size()));
}

/** Where each region of a v3 `.swtp` entry starts (docs/cache.md):
 *  magic 4 | version 4 | tier checksum 8 | kernel length 4 | kernel |
 *  impl 4 | vecBits 4 | optionsFp 8 | counter count 4 | counters |
 *  payload header | payload body. */
struct TraceEntryLayout
{
    size_t version = 4;
    size_t keyEcho = 0;
    size_t mixCounters = 0;
    size_t payloadHeader = 0;
    size_t body = 0;
};

TraceEntryLayout
layoutOf(const std::string &bytes)
{
    TraceEntryLayout l;
    uint32_t kernelLen = 0;
    uint32_t mixLen = 0;
    std::memcpy(&kernelLen, bytes.data() + 16, sizeof kernelLen);
    l.keyEcho = 20;
    const size_t mixLenAt = l.keyEcho + kernelLen + 16;
    std::memcpy(&mixLen, bytes.data() + mixLenAt, sizeof mixLen);
    l.mixCounters = mixLenAt + 4;
    l.payloadHeader = l.mixCounters + size_t(mixLen) * 8;
    l.body = l.payloadHeader + trace::PackedTrace::kPayloadHeaderBytes;
    return l;
}

/** Run @p points through a fresh cache on @p dir; JSON-lines rows. */
std::string
sweepRows(const std::string &dir,
          const std::vector<sweep::SweepPoint> &points,
          sweep::CacheStats *stats)
{
    sweep::ResultCache cache(dir);
    sweep::SchedulerConfig sc;
    sc.cache = &cache;
    std::ostringstream os;
    sweep::emitResults(os, sweep::runSweep(points, sc),
                       sweep::Format::JsonLines);
    *stats = cache.stats();
    return os.str();
}

void
removeResults(const std::string &dir)
{
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().extension() == ".swr")
            std::filesystem::remove(e.path());
}

} // namespace

TEST(SweepCache, CorruptTraceEntryIsQuarantinedAndRecaptured)
{
    const auto dir = tempDir("badtrace");
    std::string err;
    auto points = sweep::expand(adlerSpec(), &err);
    ASSERT_EQ(points.size(), 1u) << err;

    sweep::CacheStats stats;
    const std::string cold = sweepRows(dir, points, &stats);
    EXPECT_EQ(stats.traceStores, 1u);
    const auto tpath = std::filesystem::path(dir) /
                       (sweep::traceKeyFor(points[0]).hex() + ".swtp");
    const auto qpath = tpath.string() + ".quarantined";
    ASSERT_TRUE(std::filesystem::exists(tpath));
    const std::string good = readBytes(tpath);
    const TraceEntryLayout l = layoutOf(good);
    ASSERT_LT(l.body, good.size());

    // One damage site per region of the layout, each covered by one of
    // the two checksums or by the length check.
    const auto flip = [&](size_t at) {
        std::string b = good;
        b[at] = char(b[at] ^ 0x40);
        return b;
    };
    const std::pair<const char *, std::string> damaged[] = {
        {"key echo", flip(l.keyEcho)},
        {"mix counter", flip(l.mixCounters)},
        {"payload header", flip(l.payloadHeader)},
        {"first body byte", flip(l.body)},
        {"last body byte", flip(good.size() - 1)},
        {"truncated by 1", good.substr(0, good.size() - 1)},
        {"1 byte appended", good + '\0'},
    };
    for (const auto &[site, bytes] : damaged) {
        SCOPED_TRACE(site);
        // Damage the packed trace and drop the stored result so the
        // next run must reach for the trace tier.
        writeBytes(tpath, bytes);
        std::filesystem::remove(qpath);
        removeResults(dir);

        // The damaged trace degrades to a capture (not an abort), is
        // quarantined, and a fresh, identical trace takes its place.
        EXPECT_EQ(sweepRows(dir, points, &stats), cold);
        EXPECT_EQ(stats.traceHits, 0u);
        EXPECT_EQ(stats.traceMisses, 1u);
        EXPECT_EQ(stats.traceStores, 1u);
        EXPECT_EQ(stats.corruptEntriesQuarantined, 1u);
        EXPECT_TRUE(std::filesystem::exists(qpath));
        EXPECT_EQ(readBytes(tpath), good);

        // The re-stored result serves a warm run byte-for-byte.
        EXPECT_EQ(sweepRows(dir, points, &stats), cold);
        EXPECT_EQ(stats.diskHits, 1u);
        EXPECT_EQ(stats.corruptEntriesQuarantined, 0u);
    }
    std::filesystem::remove_all(dir);
}

TEST(SweepCache, StaleVersionTraceEntryIsAMissAndOverwritten)
{
    const auto dir = tempDir("staletrace");
    std::string err;
    auto points = sweep::expand(adlerSpec(), &err);
    ASSERT_EQ(points.size(), 1u) << err;

    sweep::CacheStats stats;
    sweepRows(dir, points, &stats);
    const auto tkey = sweep::traceKeyFor(points[0]);
    const auto tpath = std::filesystem::path(dir) / (tkey.hex() + ".swtp");
    const std::string good = readBytes(tpath);

    // An entry stamped with an older format version is stale, not
    // damaged: a plain miss that stays in place, uncounted.
    std::string stale = good;
    const uint32_t v2 = 2;
    std::memcpy(stale.data() + layoutOf(good).version, &v2, sizeof v2);
    writeBytes(tpath, stale);
    {
        sweep::ResultCache cache(dir);
        trace::PackedTrace t;
        trace::MixStats mix;
        EXPECT_FALSE(cache.lookupTrace(tkey, &t, &mix));
        EXPECT_EQ(cache.stats().traceMisses, 1u);
        EXPECT_EQ(cache.stats().corruptEntriesQuarantined, 0u);
    }
    EXPECT_EQ(readBytes(tpath), stale);

    // The next sweep that needs the trace captures it and overwrites
    // the stale entry; nothing is renamed aside.
    removeResults(dir);
    sweepRows(dir, points, &stats);
    EXPECT_EQ(stats.traceMisses, 1u);
    EXPECT_EQ(stats.traceStores, 1u);
    EXPECT_EQ(stats.corruptEntriesQuarantined, 0u);
    EXPECT_FALSE(std::filesystem::exists(tpath.string() + ".quarantined"));
    EXPECT_EQ(readBytes(tpath), good);
    std::filesystem::remove_all(dir);
}

TEST(SweepCache, WrongKeyedEntryIsIgnored)
{
    const auto dir = tempDir("mismatch");
    std::string err;
    auto points = sweep::expand(adlerSpec(), &err);
    ASSERT_EQ(points.size(), 1u) << err;

    {
        sweep::ResultCache cache(dir);
        sweep::SchedulerConfig sc;
        sc.cache = &cache;
        sweep::runSweep(points, sc);
    }
    // Same file, different key (as after a hash collision or a stale
    // rename): the full-key check must reject it.
    const auto key = sweep::keyFor(points[0], 1);
    auto other = key;
    other.vecBits = 256;
    const auto from = std::filesystem::path(dir) / (key.hex() + ".swr");
    const auto to = std::filesystem::path(dir) / (other.hex() + ".swr");
    std::filesystem::copy_file(from, to);

    sweep::ResultCache cache(dir);
    core::KernelRun run;
    EXPECT_FALSE(cache.lookup(other, &run));
    EXPECT_TRUE(cache.lookup(key, &run));
    // Foreign-but-well-formed bytes are not corruption: the entry
    // stays in place and nothing is quarantined.
    EXPECT_EQ(cache.stats().corruptEntriesQuarantined, 0u);
    EXPECT_TRUE(std::filesystem::exists(to));
    std::filesystem::remove_all(dir);
}
