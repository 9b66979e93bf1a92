/**
 * @file
 * Properties of the canonical trace address space (trace/canonical.hh):
 * a kernel's packed trace is byte-identical whatever the heap history,
 * the capturing thread and the workload's earlier runs; no capture
 * records a heap address outside a registered buffer; and translation
 * keeps every multi-address span's length.
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.hh"
#include "core/runner.hh"
#include "sweep/grid.hh"
#include "trace/canonical.hh"
#include "trace/packed.hh"
#include "trace/recorder.hh"
#include "workloads/ext/ext.hh"

using namespace swan;

namespace
{

const core::Impl kImpls[] = {core::Impl::Scalar, core::Impl::Auto,
                             core::Impl::Neon};

core::Options
tinyOptions()
{
    core::Options o;
    EXPECT_TRUE(sweep::workingSetForName("tiny", &o));
    return o;
}

void
runImpl(core::Workload &w, core::Impl impl)
{
    if (impl == core::Impl::Scalar)
        w.runScalar();
    else if (impl == core::Impl::Auto)
        w.runAuto();
    else
        w.runNeon(128);
}

std::string
capturePayload(core::Workload &w, core::Impl impl)
{
    trace::PackedTrace::Builder builder;
    core::Runner::captureTo(w, impl, 128, &builder);
    const auto t = builder.finish();
    const auto header = t.payloadHeader();
    std::string out(reinterpret_cast<const char *>(header.data()),
                    header.size());
    out.append(reinterpret_cast<const char *>(t.payloadBody()),
               t.byteSize());
    return out;
}

/** Allocations of assorted sizes, some freed, some kept alive. */
std::vector<std::unique_ptr<char[]>>
perturbHeap()
{
    std::vector<std::unique_ptr<char[]>> kept;
    for (size_t i = 0; i < 64; ++i) {
        const size_t n = 24 + (i * 7919) % 300000;
        auto p = std::make_unique<char[]>(n);
        std::memset(p.get(), int(i), n);
        if (i % 3 == 0)
            kept.push_back(std::move(p));
    }
    return kept;
}

/** One line of /proc/self/maps. */
struct Mapping
{
    uint64_t lo = 0, hi = 0;
    bool fileBacked = false;
    bool stack = false;
};

std::vector<Mapping>
readMaps()
{
    std::vector<Mapping> maps;
    std::FILE *f = std::fopen("/proc/self/maps", "r");
    if (!f)
        return maps;
    char line[4096];
    while (std::fgets(line, sizeof line, f)) {
        Mapping m;
        unsigned long long lo = 0, hi = 0, inode = 0;
        char path[4096] = "";
        if (std::sscanf(line, "%llx-%llx %*s %*s %*s %llu %4095s", &lo, &hi,
                        &inode, path) < 3)
            continue;
        m.lo = lo;
        m.hi = hi;
        m.fileBacked = inode != 0;
        m.stack = std::strcmp(path, "[stack]") == 0;
        maps.push_back(m);
    }
    std::fclose(f);
    return maps;
}

/**
 * True when @p addr is stack or part of a loaded image: a file-backed
 * mapping, or the anonymous .bss mapping directly after one.
 */
bool
stackOrImage(const std::vector<Mapping> &maps, uint64_t addr)
{
    for (size_t i = 0; i < maps.size(); ++i) {
        const Mapping &m = maps[i];
        if (addr < m.lo || addr >= m.hi)
            continue;
        if (m.stack || m.fileBacked)
            return true;
        return i > 0 && maps[i - 1].fileBacked && maps[i - 1].hi == m.lo;
    }
    return false;
}

/** Collects, at record time, every host address outside a registered
 *  buffer (a freed temporary is no longer registered afterwards). */
class UnregisteredSink : public trace::Sink
{
  public:
    void
    onInstr(const trace::Instr &i) override
    {
        ++records;
        for (uint64_t a : {i.addr, i.addr2}) {
            uint64_t lo = 0, len = 0, id = 0;
            if (a && !trace::findCaptureBlock(a, &lo, &len, &id))
                unregistered.push_back(a);
        }
    }

    size_t records = 0;
    std::vector<uint64_t> unregistered;
};

/** Capture @p impl raw and canonical; @return the multi-address
 *  records, after checking each kept its addr2 - addr. */
size_t
checkSpans(core::Workload &w, core::Impl impl)
{
    std::vector<trace::Instr> host;
    {
        trace::Recorder rec(&host);
        trace::ScopedRecorder scoped(&rec);
        runImpl(w, impl);
    }
    const auto canon = core::Runner::capture(w, impl, 128);
    EXPECT_EQ(host.size(), canon.size());
    size_t spans = 0;
    for (size_t i = 0; i < host.size() && i < canon.size(); ++i) {
        EXPECT_EQ(host[i].addr != 0, canon[i].addr != 0) << i;
        if (!host[i].addr2)
            continue;
        ++spans;
        EXPECT_EQ(host[i].addr2 - host[i].addr,
                  canon[i].addr2 - canon[i].addr)
            << "record " << i;
    }
    return spans;
}

} // namespace

TEST(CanonicalLayout, PackedBytesIgnoreHeapThreadAndEarlierRuns)
{
    const core::Options tiny = tinyOptions();
    size_t checked = 0;
    for (const auto &spec : core::Registry::instance().kernels()) {
        if (spec.info.excluded)
            continue;
        for (const core::Impl impl : kImpls) {
            SCOPED_TRACE(spec.info.qualifiedName() + " " +
                         std::string(core::name(impl)));
            std::string fresh;
            {
                auto w = spec.make(tiny);
                fresh = capturePayload(*w, impl);
            }
            ASSERT_FALSE(fresh.empty());

            // Junk heap history; made here, captured on another thread.
            std::string threaded;
            {
                const auto junk = perturbHeap();
                auto w = spec.make(tiny);
                std::thread t([&] { threaded = capturePayload(*w, impl); });
                t.join();
            }
            EXPECT_TRUE(threaded == fresh) << "captured on a std::thread "
                                              "after heap perturbation";

            // A workload that already ran (and captured) the others.
            std::string reused;
            {
                auto w = spec.make(tiny);
                for (const core::Impl other : kImpls)
                    if (other != impl)
                        capturePayload(*w, other);
                reused = capturePayload(*w, impl);
            }
            EXPECT_TRUE(reused == fresh) << "workload reused";
            ++checked;
        }
    }
    EXPECT_EQ(checked, 59u * 3u);
}

TEST(CanonicalLayout, NoHeapAddressOutsideRegisteredBuffers)
{
    const core::Options tiny = tinyOptions();
    for (const auto &spec : core::Registry::instance().kernels()) {
        if (spec.info.excluded)
            continue;
        auto w = spec.make(tiny);
        for (const core::Impl impl : kImpls) {
            SCOPED_TRACE(spec.info.qualifiedName() + " " +
                         std::string(core::name(impl)));
            // A raw recorder sees host addresses.
            UnregisteredSink sink;
            {
                trace::Recorder rec(&sink);
                trace::ScopedRecorder scoped(&rec);
                runImpl(*w, impl);
            }
            ASSERT_GT(sink.records, 0u);
            const auto maps = readMaps();
            ASSERT_FALSE(maps.empty());
            size_t heap = 0;
            uint64_t first = 0;
            for (uint64_t a : sink.unregistered)
                if (!stackOrImage(maps, a) && heap++ == 0)
                    first = a;
            EXPECT_EQ(heap, 0u) << "e.g. 0x" << std::hex << first;
        }
    }
}

TEST(CanonicalLayout, MultiAddressSpansKeepTheirLength)
{
    const core::Options tiny = tinyOptions();
    for (const auto &spec : core::Registry::instance().kernels())
        for (const core::Impl impl : kImpls) {
            SCOPED_TRACE(spec.info.qualifiedName() + " " +
                         std::string(core::name(impl)));
            auto w = spec.make(tiny);
            checkSpans(*w, impl);
        }
    // The gather and arbitrary-stride study kernels.
    namespace ext = workloads::ext;
    size_t gathers = 0, strided = 0;
    gathers += checkSpans(
        *ext::makeLutTransform(tiny, ext::LutImpl::Gather), core::Impl::Neon);
    gathers += checkSpans(*ext::makeDesGather(tiny, ext::LutImpl::Gather),
                          core::Impl::Neon);
    strided += checkSpans(
        *ext::makeDeinterleave8(tiny, ext::StrideImpl::StridedLoad),
        core::Impl::Neon);
    strided += checkSpans(
        *ext::makeChannelExtract(tiny, ext::StrideImpl::StridedLoad),
        core::Impl::Neon);
    EXPECT_GT(gathers, 0u);
    EXPECT_GT(strided, 0u);
}

TEST(CanonicalLayout, BuffersGetAlignedBasesInFirstTouchOrder)
{
    using Buf = std::vector<uint8_t, trace::CaptureAlloc<uint8_t>>;
    Buf a(100), b(10);
    char local = 0;
    static const uint8_t table[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    trace::AddressMap m;
    m.reset(&local);
    // b is touched first, so it takes the first base.
    const uint64_t b0 = m.translate(reinterpret_cast<uint64_t>(&b[3]));
    const uint64_t a0 = m.translate(reinterpret_cast<uint64_t>(&a[0]));
    EXPECT_EQ(b0, trace::AddressMap::kBufferBase + 3);
    EXPECT_EQ(a0, trace::AddressMap::kBufferBase + 64);
    EXPECT_EQ(m.translate(reinterpret_cast<uint64_t>(&a[99])), a0 + 99);
    // Stack: offset from the anchor.
    EXPECT_EQ(m.translate(reinterpret_cast<uint64_t>(&local)),
              trace::AddressMap::kStackTop);
    // Static: the first renumbered page, in-page offset kept.
    const uint64_t t = reinterpret_cast<uint64_t>(&table[5]);
    EXPECT_EQ(m.translate(t), trace::AddressMap::kPageBase + (t & 4095));
    // A fresh capture starts a fresh layout.
    m.reset(&local);
    EXPECT_EQ(m.translate(reinterpret_cast<uint64_t>(&a[0])),
              trace::AddressMap::kBufferBase);
}
