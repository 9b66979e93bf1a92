/**
 * @file
 * Tests of the packed trace encoding (trace/packed.hh): lossless
 * pack/unpack round-trips on randomized traces (including the
 * multi-address Gather/Scatter/LdS records), iterator and block-cursor
 * equivalence, payload (disk-tier) round-trips and corruption
 * handling, compression on a real captured trace, the streaming
 * Builder's byte identity with pack() and with an independent
 * reference encoder (every headline kernel x impl, memo collisions,
 * Builder reuse), and the simulateTraceMany single-pass multi-config
 * replay producing results bit-identical to N separate simulateTrace
 * passes.
 */

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <random>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/registry.hh"
#include "core/runner.hh"
#include "sim/core_model.hh"
#include "sweep/grid.hh"
#include "trace/checksum.hh"
#include "trace/packed.hh"
#include "trace/recorder.hh"
#include "trace/stats.hh"

using namespace swan;
using trace::Instr;
using trace::PackedTrace;

namespace
{

bool
sameInstr(const Instr &a, const Instr &b)
{
    return a.id == b.id && a.dep0 == b.dep0 && a.dep1 == b.dep1 &&
           a.dep2 == b.dep2 && a.addr == b.addr && a.addr2 == b.addr2 &&
           a.size == b.size && a.elemStride == b.elemStride &&
           a.cls == b.cls && a.fu == b.fu && a.latency == b.latency &&
           a.vecBytes == b.vecBytes && a.lanes == b.lanes &&
           a.activeLanes == b.activeLanes && a.stride == b.stride;
}

void
expectSameTrace(const std::vector<Instr> &a, const std::vector<Instr> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(sameInstr(a[i], b[i])) << "record " << i;
}

/**
 * A randomized but recorder-shaped trace: sequential 1-based ids,
 * producer deps behind the consumer, multi-address records for the
 * Gather/Scatter/LdS/StS stride kinds.
 */
std::vector<Instr>
randomTrace(size_t n, uint32_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<Instr> out;
    out.reserve(n);
    uint64_t addr = 0x7f0000001000ull + (seed % 7) * 4096;
    for (size_t i = 0; i < n; ++i) {
        Instr ins;
        ins.id = i + 1;
        const auto dep = [&]() -> uint64_t {
            if (i == 0 || rng() % 3 == 0)
                return 0;
            return 1 + rng() % i;
        };
        ins.dep0 = dep();
        ins.dep1 = dep();
        ins.dep2 = dep();
        ins.cls = trace::InstrClass(
            rng() % uint64_t(trace::InstrClass::NumClasses));
        ins.fu = trace::Fu(rng() % uint64_t(trace::Fu::NumFus));
        ins.latency = uint8_t(1 + rng() % 20);
        if (ins.isVector()) {
            ins.vecBytes = uint8_t(16 << (rng() % 3));
            ins.lanes = uint8_t(1 + rng() % 16);
            ins.activeLanes = uint8_t(1 + rng() % ins.lanes);
        }
        if (ins.isMem()) {
            // Mostly local strides, occasionally a far jump.
            addr += rng() % 16 == 0 ? (rng() % (1 << 20)) : (rng() % 256);
            ins.addr = addr;
            ins.size = uint32_t(1 << (rng() % 7));
            if (rng() % 4 == 0) {
                static const trace::StrideKind kinds[] = {
                    trace::StrideKind::Gather, trace::StrideKind::Scatter,
                    trace::StrideKind::LdS, trace::StrideKind::StS};
                ins.stride = kinds[rng() % 4];
                ins.activeLanes = uint8_t(1 + rng() % 8);
                ins.lanes = std::max(ins.lanes, ins.activeLanes);
                if (ins.stride == trace::StrideKind::LdS ||
                    ins.stride == trace::StrideKind::StS)
                    ins.elemStride = int32_t(rng() % 4096) - 2048;
                ins.addr2 = ins.addr + rng() % (1 << 16);
            }
        }
        out.push_back(ins);
    }
    return out;
}

std::vector<sim::CoreConfig>
threeCores()
{
    return {sim::primeConfig(), sim::goldConfig(), sim::silverConfig()};
}

void
expectSameResult(const sim::SimResult &a, const sim::SimResult &b)
{
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.instrs, b.instrs);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.timeSec, b.timeSec);
    EXPECT_EQ(a.l1Mpki, b.l1Mpki);
    EXPECT_EQ(a.l2Mpki, b.l2Mpki);
    EXPECT_EQ(a.llcMpki, b.llcMpki);
    EXPECT_EQ(a.l1HitRate, b.l1HitRate);
    EXPECT_EQ(a.feStallPct, b.feStallPct);
    EXPECT_EQ(a.beStallPct, b.beStallPct);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
    EXPECT_EQ(a.dramAccessPerKCycle, b.dramAccessPerKCycle);
    EXPECT_EQ(a.byClass, b.byClass);
    EXPECT_EQ(a.vecBytes, b.vecBytes);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.llcAccesses, b.llcAccesses);
}

/** The disk payload: header + descs | main | multi, every byte. */
std::string
payloadOf(const PackedTrace &t)
{
    const auto header = t.payloadHeader();
    std::string out(reinterpret_cast<const char *>(header.data()),
                    header.size());
    out.append(reinterpret_cast<const char *>(t.payloadBody()),
               t.byteSize());
    return out;
}

/** Read a whole payload blob (header + body) back through a stream,
 *  as the trace tier reads a file. */
bool
readBlob(const std::string &blob, PackedTrace *out)
{
    if (blob.size() < PackedTrace::kPayloadHeaderBytes)
        return false;
    std::istringstream in(blob.substr(PackedTrace::kPayloadHeaderBytes));
    return PackedTrace::readPayload(
        reinterpret_cast<const uint8_t *>(blob.data()), in,
        blob.size() - PackedTrace::kPayloadHeaderBytes, out);
}

/**
 * An independent reference encoder of the wire format (the original
 * whole-buffer pack algorithm: field-wise 16-byte descriptors indexed
 * in first-occurrence order, then varint records into growable
 * strings). @return the body bytes descs | main | multi.
 */
std::string
referenceBody(const std::vector<Instr> &instrs)
{
    const auto putVarint = [](std::string &out, uint64_t v) {
        while (v >= 0x80) {
            out.push_back(char(uint8_t(v) | 0x80));
            v >>= 7;
        }
        out.push_back(char(uint8_t(v)));
    };
    const auto zigzag = [](int64_t v) {
        return (uint64_t(v) << 1) ^ uint64_t(v >> 63);
    };
    std::map<std::array<uint8_t, 16>, uint64_t> index;
    std::string descs, main, multi;
    uint64_t prevId = 0, prevAddr = 0;
    for (const Instr &i : instrs) {
        std::array<uint8_t, 16> d{};
        std::memcpy(&d[0], &i.size, 4);
        std::memcpy(&d[4], &i.elemStride, 4);
        d[8] = uint8_t(i.cls);
        d[9] = uint8_t(i.fu);
        d[10] = i.latency;
        d[11] = i.vecBytes;
        d[12] = i.lanes;
        d[13] = i.activeLanes;
        d[14] = uint8_t(i.stride);
        auto [it, fresh] = index.emplace(d, index.size());
        if (fresh)
            descs.append(reinterpret_cast<const char *>(d.data()), 16);
        uint64_t flags = 0;
        flags |= i.addr != 0 ? 1 : 0;
        flags |= i.addr2 != 0 ? 2 : 0;
        flags |= i.id != prevId + 1 ? 4 : 0;
        flags |= i.dep0 != 0 ? 8 : 0;
        flags |= i.dep1 != 0 ? 16 : 0;
        flags |= i.dep2 != 0 ? 32 : 0;
        putVarint(main, it->second << 6 | flags);
        if (flags & 4)
            putVarint(main, zigzag(int64_t(i.id) - int64_t(prevId + 1)));
        prevId = i.id;
        if (flags & 8)
            putVarint(main, zigzag(int64_t(i.id) - int64_t(i.dep0)));
        if (flags & 16)
            putVarint(main, zigzag(int64_t(i.id) - int64_t(i.dep1)));
        if (flags & 32)
            putVarint(main, zigzag(int64_t(i.id) - int64_t(i.dep2)));
        if (flags & 1) {
            putVarint(main, zigzag(int64_t(i.addr - prevAddr)));
            prevAddr = i.addr;
        }
        if (flags & 2)
            putVarint(multi, zigzag(int64_t(i.addr2 - i.addr)));
    }
    return descs + main + multi;
}

/** The trace's payload carries exactly the reference encoder's body. */
void
expectReferenceEncoding(const PackedTrace &t,
                        const std::vector<Instr> &instrs)
{
    const std::string body = referenceBody(instrs);
    const std::string payload = payloadOf(t);
    ASSERT_EQ(t.byteSize(), body.size());
    ASSERT_GE(payload.size(), body.size());
    EXPECT_TRUE(payload.compare(payload.size() - body.size(), body.size(),
                                body) == 0);
    EXPECT_EQ(t.size(), instrs.size());
}

/** Feeds one capture to a Builder and an AoS vector at once. */
class TeeSink : public trace::Sink
{
  public:
    TeeSink(PackedTrace::Builder *b, std::vector<Instr> *v) : b_(b), v_(v)
    {
    }
    void
    onInstr(const Instr &instr) override
    {
        b_->add(instr);
        v_->push_back(instr);
    }

  private:
    PackedTrace::Builder *b_;
    std::vector<Instr> *v_;
};

} // namespace

TEST(PackedTraceBuilder, MatchesPackAndTheReferenceEncoder)
{
    for (const auto &[n, seed] : {std::pair<size_t, uint32_t>{0, 1},
                                  {1, 2},
                                  {3000, 3},
                                  {20000, 4}}) {
        const auto instrs = randomTrace(n, seed);
        PackedTrace::Builder b;
        for (const Instr &i : instrs)
            b.add(i);
        EXPECT_EQ(b.size(), n);
        const PackedTrace built = b.finish();
        EXPECT_EQ(b.size(), 0u) << "finish() resets the Builder";
        EXPECT_EQ(payloadOf(built), payloadOf(PackedTrace::pack(instrs)));
        expectReferenceEncoding(built, instrs);
        expectSameTrace(instrs, built.unpack());
    }
}

TEST(PackedTraceBuilder, StreamedCaptureIsByteIdenticalForEveryHeadlineKernel)
{
    // One capture per (kernel, impl) feeds both encoders through a tee:
    // separate runs record different heap addresses, so only the same
    // run's AoS trace is a valid reference.
    core::Options tiny;
    ASSERT_TRUE(sweep::workingSetForName("tiny", &tiny));
    PackedTrace::Builder builder; // reused, as the sweep scheduler does
    size_t checked = 0;
    for (const auto &spec : core::Registry::instance().kernels()) {
        if (spec.info.excluded)
            continue;
        auto w = spec.make(tiny);
        for (const auto impl :
             {core::Impl::Scalar, core::Impl::Auto, core::Impl::Neon}) {
            SCOPED_TRACE(spec.info.qualifiedName() + " " +
                         std::string(core::name(impl)));
            std::vector<Instr> aos;
            builder.reset();
            TeeSink tee(&builder, &aos);
            {
                trace::Recorder rec(&tee);
                trace::ScopedRecorder scoped(&rec);
                if (impl == core::Impl::Scalar)
                    w->runScalar();
                else if (impl == core::Impl::Auto)
                    w->runAuto();
                else
                    w->runNeon(128);
            }
            ASSERT_FALSE(aos.empty());
            trace::MixStats streamed, buffered;
            const PackedTrace built = builder.finish(&streamed);
            buffered.addTrace(aos);
            EXPECT_EQ(payloadOf(built), payloadOf(PackedTrace::pack(aos)));
            expectReferenceEncoding(built, aos);
            EXPECT_EQ(streamed.counters(), buffered.counters());
            ++checked;
        }
    }
    EXPECT_EQ(checked, 59u * 3u);
}

TEST(PackedTraceBuilder, RunnerCaptureToMatchesCapture)
{
    const auto *spec = core::Registry::instance().find("ZL/adler32");
    ASSERT_NE(spec, nullptr);
    auto w = spec->make(core::Options());
    PackedTrace::Builder builder;
    core::Runner::captureTo(*w, core::Impl::Neon, 128, &builder);
    trace::MixStats mix;
    const PackedTrace built = builder.finish(&mix);
    // A second capture of the same workload: ids and shapes repeat,
    // and so does the instruction mix.
    const auto instrs = core::Runner::capture(*w, core::Impl::Neon, 128);
    trace::MixStats ref;
    ref.addTrace(instrs);
    EXPECT_EQ(built.size(), instrs.size());
    EXPECT_EQ(mix.counters(), ref.counters());
}

TEST(PackedTraceBuilder, MemoCollisionsKeepDistinctFirstOccurrenceIndices)
{
    // Descriptors that share one memo slot, differing once only in the
    // access size (the descriptor's low word) and once only in the
    // vector geometry (its high word).
    for (const bool varyGeometry : {false, true}) {
        SCOPED_TRACE(varyGeometry ? "geometry" : "size");
        std::mt19937 rng(7);
        std::vector<Instr> shapes;
        uint32_t slot = 0;
        for (int tries = 0; shapes.size() < 4 && tries < 10000000; ++tries) {
            Instr s;
            s.cls = trace::InstrClass::VInt;
            s.fu = trace::Fu::VUnit;
            s.vecBytes = 16;
            s.latency = 3;
            s.lanes = 4;
            s.activeLanes = 4;
            s.size = 16;
            if (varyGeometry) {
                s.latency = uint8_t(rng());
                s.lanes = uint8_t(rng());
                s.activeLanes = uint8_t(rng());
            } else {
                s.size = rng() % 65536;
            }
            if (shapes.empty())
                slot = PackedTrace::Builder::memoSlot(s);
            else if (PackedTrace::Builder::memoSlot(s) != slot)
                continue;
            bool dup = false;
            for (const Instr &o : shapes)
                dup = dup || (o.size == s.size && o.latency == s.latency &&
                              o.lanes == s.lanes &&
                              o.activeLanes == s.activeLanes);
            if (!dup)
                shapes.push_back(s);
        }
        ASSERT_EQ(shapes.size(), 4u);

        // Interleave them so adds keep evicting the slot's occupant.
        const int order[] = {2, 0, 2, 1, 0, 3, 3, 1, 2, 0};
        std::vector<Instr> instrs;
        for (int k : order) {
            Instr i = shapes[size_t(k)];
            i.id = instrs.size() + 1;
            i.dep0 = instrs.empty() ? 0 : i.id - 1;
            instrs.push_back(i);
        }
        PackedTrace::Builder b;
        for (const Instr &i : instrs)
            b.add(i);
        const PackedTrace t = b.finish();
        ASSERT_EQ(t.descCount(), 4u);
        const int firstSeen[] = {2, 0, 1, 3};
        for (uint32_t d = 0; d < 4; ++d) {
            Instr got;
            t.expandDesc(d, &got);
            const Instr &want = shapes[size_t(firstSeen[d])];
            EXPECT_EQ(got.size, want.size) << d;
            EXPECT_EQ(got.latency, want.latency) << d;
            EXPECT_EQ(got.lanes, want.lanes) << d;
            EXPECT_EQ(got.activeLanes, want.activeLanes) << d;
        }
        expectSameTrace(instrs, t.unpack());
        expectReferenceEncoding(t, instrs);
    }
}

TEST(PackedTraceBuilder, ReuseAcrossLargeThenSmallMatchesFreshBuilders)
{
    const auto large = randomTrace(60000, 41);
    const auto small = randomTrace(300, 42);
    PackedTrace::Builder reused;
    trace::MixStats reusedMix[2];
    std::string reusedBytes[2];
    for (int k = 0; k < 2; ++k) {
        for (const Instr &i : k == 0 ? large : small)
            reused.add(i);
        reusedBytes[k] = payloadOf(reused.finish(&reusedMix[k]));
    }
    for (int k = 0; k < 2; ++k) {
        PackedTrace::Builder fresh;
        trace::MixStats mix;
        for (const Instr &i : k == 0 ? large : small)
            fresh.add(i);
        EXPECT_EQ(payloadOf(fresh.finish(&mix)), reusedBytes[k]) << k;
        EXPECT_EQ(mix.counters(), reusedMix[k].counters()) << k;
    }

    // reset() mid-trace drops the partial trace too.
    for (size_t i = 0; i < 100; ++i)
        reused.add(large[i]);
    reused.reset();
    for (const Instr &i : small)
        reused.add(i);
    EXPECT_EQ(payloadOf(reused.finish()), reusedBytes[1]);
}

TEST(PackedTrace, RoundTripsRandomizedTraces)
{
    for (uint32_t seed : {1u, 2u, 3u, 42u, 1234u}) {
        const auto instrs = randomTrace(5000, seed);
        const auto packed = PackedTrace::pack(instrs);
        ASSERT_EQ(packed.size(), instrs.size());
        expectSameTrace(instrs, packed.unpack());
    }
}

TEST(PackedTrace, RoundTripsEmptyAndTiny)
{
    const PackedTrace empty = PackedTrace::pack({});
    EXPECT_EQ(empty.size(), 0u);
    EXPECT_TRUE(empty.empty());
    EXPECT_TRUE(empty.unpack().empty());
    EXPECT_EQ(empty.begin(), empty.end());

    const auto one = randomTrace(1, 7);
    expectSameTrace(one, PackedTrace::pack(one).unpack());
}

TEST(PackedTrace, IteratorMatchesUnpack)
{
    const auto instrs = randomTrace(2000, 9);
    const auto packed = PackedTrace::pack(instrs);
    size_t i = 0;
    for (const Instr &ins : packed) {
        ASSERT_LT(i, instrs.size());
        EXPECT_TRUE(sameInstr(instrs[i], ins)) << "record " << i;
        ++i;
    }
    EXPECT_EQ(i, instrs.size());
}

TEST(PackedTrace, CursorBlocksConcatenateToTheTrace)
{
    const auto instrs = randomTrace(3000, 11);
    const auto packed = PackedTrace::pack(instrs);
    PackedTrace::Cursor cur(packed);
    Instr block[PackedTrace::kBlockInstrs];
    std::vector<Instr> seen;
    size_t n;
    while ((n = cur.next(block, PackedTrace::kBlockInstrs)) != 0) {
        // Full blocks except possibly the last.
        if (seen.size() + n < instrs.size())
            EXPECT_EQ(n, PackedTrace::kBlockInstrs);
        seen.insert(seen.end(), block, block + n);
    }
    expectSameTrace(instrs, seen);

    cur.reset();
    EXPECT_EQ(cur.next(block, 1), 1u);
    EXPECT_TRUE(sameInstr(instrs[0], block[0]));
}

TEST(PackedTrace, ScratchReuseProducesIdenticalEncodings)
{
    PackedTrace::Scratch scratch;
    const auto a = randomTrace(1500, 21);
    const auto b = randomTrace(800, 22);
    const auto pa1 = PackedTrace::pack(a, &scratch);
    const auto pb = PackedTrace::pack(b, &scratch);
    const auto pa2 = PackedTrace::pack(a, &scratch);
    expectSameTrace(a, pa1.unpack());
    expectSameTrace(b, pb.unpack());
    EXPECT_EQ(pa1.byteSize(), pa2.byteSize());
    expectSameTrace(pa1.unpack(), pa2.unpack());
}

TEST(PackedTrace, CompressesARealKernelTrace)
{
    const auto *spec = core::Registry::instance().find("ZL/adler32");
    ASSERT_NE(spec, nullptr);
    auto w = spec->make(core::Options());
    const auto instrs = core::Runner::capture(*w, core::Impl::Neon, 128);
    ASSERT_FALSE(instrs.empty());

    const auto packed = PackedTrace::pack(instrs);
    const size_t aos = PackedTrace::aosBytes(instrs.size());
    // The acceptance bar is 2x; a real trace packs far tighter.
    EXPECT_LT(packed.byteSize() * 2, aos)
        << packed.byteSize() << " packed vs " << aos << " AoS bytes";
    expectSameTrace(instrs, packed.unpack());
}

TEST(PackedTrace, PayloadRoundTripsAndRejectsCorruption)
{
    const auto instrs = randomTrace(1200, 33);
    const auto packed = PackedTrace::pack(instrs);
    const std::string blob = payloadOf(packed);
    const size_t bodyLen = packed.byteSize();

    // The body streams straight into the trace buffer.
    PackedTrace back;
    ASSERT_TRUE(readBlob(blob, &back));
    expectSameTrace(instrs, back.unpack());

    // The header must announce exactly the bytes that follow it, the
    // stream must hold them, and a damaged body fails its checksum.
    PackedTrace junk;
    const auto *header = reinterpret_cast<const uint8_t *>(blob.data());
    std::istringstream shortBy1(blob.substr(PackedTrace::kPayloadHeaderBytes));
    EXPECT_FALSE(
        PackedTrace::readPayload(header, shortBy1, bodyLen - 1, &junk));
    std::istringstream overBy1(blob.substr(PackedTrace::kPayloadHeaderBytes));
    EXPECT_FALSE(
        PackedTrace::readPayload(header, overBy1, bodyLen + 1, &junk));
    std::istringstream dry(
        blob.substr(PackedTrace::kPayloadHeaderBytes, bodyLen - 1));
    EXPECT_FALSE(PackedTrace::readPayload(header, dry, bodyLen, &junk));
    for (const size_t at :
         {PackedTrace::kPayloadHeaderBytes, blob.size() / 2,
          blob.size() - 1}) {
        std::string flipped = blob;
        flipped[at] = char(flipped[at] ^ 0x40);
        EXPECT_FALSE(readBlob(flipped, &junk)) << "byte " << at;
    }
    EXPECT_TRUE(junk.empty());
}

TEST(PayloadChecksum, KnownAnswers)
{
    // Stored traces carry this checksum, so any change to it is a
    // format change. The first three are the published XXH64 (seed 0)
    // answers; the rest cover every tail path around the 8- and
    // 32-byte strides, on a fixed byte pattern.
    EXPECT_EQ(trace::checksum64("", 0), 0xef46db3751d8e999ull);
    EXPECT_EQ(trace::checksum64("a", 1), 0xd24ec4f1a98c6e5bull);
    EXPECT_EQ(trace::checksum64("abc", 3), 0x44bc2cf5ad770999ull);

    std::vector<uint8_t> bytes(4103);
    for (size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = uint8_t(i * 131 + 7);
    const std::pair<size_t, uint64_t> known[] = {
        {0, 0xef46db3751d8e999ull},    {1, 0xa96c7f0ce858bbb7ull},
        {7, 0x2744460dd675d2c0ull},    {8, 0x994b676b71ce94ddull},
        {31, 0x6711d55e306b5d8full},   {32, 0x07f7b8e3bc5d6e25ull},
        {33, 0x09f85eeb4e1cbe9full},   {4103, 0x8536c5215941513eull},
    };
    for (const auto &[len, want] : known)
        EXPECT_EQ(trace::checksum64(bytes.data(), len), want) << "len " << len;
}

namespace
{

// Mirror of the payload header, so tests can craft checksum-valid
// payloads whose *streams* are truncated or corrupt — the class of
// damage the body checksum cannot catch and the Cursor's checked
// decode must.
struct RawHeader
{
    uint64_t count;
    uint64_t mainLen;
    uint64_t multiLen;
    uint32_t descCount;
    uint32_t descSize;
    uint64_t checksum;
};
static_assert(sizeof(RawHeader) == PackedTrace::kPayloadHeaderBytes);

/** Reassemble a payload blob from (possibly doctored) parts, with a
 *  freshly valid checksum. */
std::string
craftPayload(RawHeader h, const std::string &body)
{
    h.checksum = trace::checksum64(body.data(), body.size());
    std::string out(reinterpret_cast<const char *>(&h), sizeof h);
    out += body;
    return out;
}

} // namespace

TEST(PackedTraceChecked, CleanDecodeReportsOk)
{
    const auto instrs = randomTrace(2000, 51);
    const auto packed = PackedTrace::pack(instrs);
    PackedTrace::Cursor cur(packed);
    PackedTrace::Decoded d;
    size_t n = 0;
    while (cur.next(d))
        ++n;
    EXPECT_EQ(n, instrs.size());
    EXPECT_TRUE(cur.ok());

    // The block form tracks the same checked state.
    PackedTrace::Cursor blocks(packed);
    Instr buf[PackedTrace::kBlockInstrs];
    while (blocks.next(buf, PackedTrace::kBlockInstrs) != 0) {
    }
    EXPECT_TRUE(blocks.ok());
}

TEST(PackedTraceChecked, RejectsTruncatedMainStream)
{
    const auto instrs = randomTrace(1500, 53);
    const auto packed = PackedTrace::pack(instrs);
    const std::string blob = payloadOf(packed);
    ASSERT_GT(blob.size(), sizeof(RawHeader));

    RawHeader h;
    std::memcpy(&h, blob.data(), sizeof h);
    const std::string body = blob.substr(sizeof h);
    const size_t descBytes = size_t(h.descCount) * h.descSize;

    // Chop K bytes off the end of the main stream, keep the header
    // consistent and the checksum valid: readPayload cannot tell, so
    // the Cursor must stop cleanly (never reading out of bounds) and
    // flag the malformation instead of fabricating a full trace.
    for (size_t k = 1; k <= std::min<uint64_t>(24, h.mainLen); ++k) {
        RawHeader th = h;
        th.mainLen = h.mainLen - k;
        std::string tbody = body.substr(0, descBytes + size_t(th.mainLen));
        tbody += body.substr(descBytes + size_t(h.mainLen));
        const std::string crafted = craftPayload(th, tbody);

        PackedTrace t;
        if (!readBlob(crafted, &t))
            continue; // structural reject is fine too
        PackedTrace::Cursor cur(t);
        PackedTrace::Decoded d;
        size_t n = 0;
        while (cur.next(d))
            ++n;
        EXPECT_FALSE(cur.ok()) << "k=" << k;
        EXPECT_LE(n, instrs.size());
    }
}

TEST(PackedTraceChecked, FusedReplayThrowsOnTruncatedTrace)
{
    const auto instrs = randomTrace(1200, 55);
    const auto packed = PackedTrace::pack(instrs);
    const std::string blob = payloadOf(packed);
    RawHeader h;
    std::memcpy(&h, blob.data(), sizeof h);
    const std::string body = blob.substr(sizeof h);
    const size_t descBytes = size_t(h.descCount) * h.descSize;

    RawHeader th = h;
    th.mainLen = h.mainLen / 2;
    std::string tbody = body.substr(0, descBytes + size_t(th.mainLen));
    tbody += body.substr(descBytes + size_t(h.mainLen));
    const std::string crafted = craftPayload(th, tbody);
    PackedTrace t;
    ASSERT_TRUE(readBlob(crafted, &t));
    EXPECT_THROW(sim::simulateTraceMany(t, {sim::primeConfig()}, 0),
                 std::runtime_error);
}

TEST(PackedTraceChecked, RejectsTruncatedMultiStream)
{
    // Force multi-address records so the side stream is non-empty.
    auto instrs = randomTrace(800, 57);
    size_t multi = 0;
    for (auto &i : instrs)
        multi += i.addr2 != 0;
    ASSERT_GT(multi, 0u);

    const auto packed = PackedTrace::pack(instrs);
    const std::string blob = payloadOf(packed);
    RawHeader h;
    std::memcpy(&h, blob.data(), sizeof h);
    ASSERT_GT(h.multiLen, 0u);
    const std::string body = blob.substr(sizeof h);

    RawHeader th = h;
    th.multiLen = 0;
    const std::string crafted = craftPayload(
        th, body.substr(0, body.size() - size_t(h.multiLen)));
    PackedTrace t;
    if (readBlob(crafted, &t)) {
        PackedTrace::Cursor cur(t);
        PackedTrace::Decoded d;
        while (cur.next(d)) {
        }
        EXPECT_FALSE(cur.ok());
    }
}

TEST(PackedTraceChecked, RejectsLyingInstructionCount)
{
    const auto instrs = randomTrace(600, 59);
    const auto packed = PackedTrace::pack(instrs);
    const std::string blob = payloadOf(packed);
    RawHeader h;
    std::memcpy(&h, blob.data(), sizeof h);
    const std::string body = blob.substr(sizeof h);

    for (int64_t delta : {int64_t(-1), int64_t(1), int64_t(100)}) {
        RawHeader th = h;
        th.count = uint64_t(int64_t(h.count) + delta);
        const std::string crafted = craftPayload(th, body);
        PackedTrace t;
        ASSERT_TRUE(readBlob(crafted, &t));
        PackedTrace::Cursor cur(t);
        PackedTrace::Decoded d;
        while (cur.next(d)) {
        }
        // Count understates -> trailing stream bytes; overstates ->
        // stream runs dry early. Both are malformations.
        EXPECT_FALSE(cur.ok()) << "delta=" << delta;
    }
}

TEST(PackedTraceChecked, FuzzedStreamBytesNeverCrashTheDecoder)
{
    const auto instrs = randomTrace(1000, 61);
    const auto packed = PackedTrace::pack(instrs);
    const std::string blob = payloadOf(packed);
    RawHeader h;
    std::memcpy(&h, blob.data(), sizeof h);
    const size_t descBytes = size_t(h.descCount) * h.descSize;
    const std::string body = blob.substr(sizeof h);

    std::mt19937_64 rng(63);
    for (int round = 0; round < 64; ++round) {
        std::string fuzzed = body;
        // Corrupt 1-4 bytes inside the varint streams (checksum is
        // recomputed, so only the Cursor's own checking stands between
        // the damage and the consumer).
        const int flips = 1 + int(rng() % 4);
        for (int f = 0; f < flips; ++f) {
            const size_t at =
                descBytes + size_t(rng() % (fuzzed.size() - descBytes));
            fuzzed[at] = char(uint8_t(fuzzed[at]) ^ uint8_t(1 + rng() % 255));
        }
        const std::string crafted = craftPayload(h, fuzzed);
        PackedTrace t;
        if (!readBlob(crafted, &t))
            continue;
        // Decoding must terminate without reading out of bounds and
        // never fabricate more records than advertised; a stream the
        // cursor calls ok must have decoded exactly `count`.
        PackedTrace::Cursor cur(t);
        PackedTrace::Decoded d;
        size_t n = 0;
        while (cur.next(d)) {
            ASSERT_LT(d.desc, t.descCount());
            ++n;
        }
        EXPECT_LE(n, size_t(h.count));
        if (cur.ok()) {
            EXPECT_EQ(n, size_t(h.count));
        }
    }
}

namespace
{

constexpr PackedTrace::DecodeImpl kAllImpls[] = {
    PackedTrace::DecodeImpl::Auto,
    PackedTrace::DecodeImpl::Scalar,
    PackedTrace::DecodeImpl::Swar,
    PackedTrace::DecodeImpl::Native,
};

const char *
implName(PackedTrace::DecodeImpl impl)
{
    switch (impl) {
      case PackedTrace::DecodeImpl::Auto: return "auto";
      case PackedTrace::DecodeImpl::Scalar: return "scalar";
      case PackedTrace::DecodeImpl::Swar: return "swar";
      case PackedTrace::DecodeImpl::Native: return "native";
    }
    return "?";
}

/** Drain @p t through nextBatch(impl) in @p batchSize chunks. */
std::vector<PackedTrace::Decoded>
decodeAll(const PackedTrace &t, PackedTrace::DecodeImpl impl,
          size_t batchSize, bool *ok)
{
    PackedTrace::Cursor cur(t);
    std::vector<PackedTrace::Decoded> out;
    std::vector<PackedTrace::Decoded> buf(batchSize);
    size_t k;
    while ((k = cur.nextBatch(buf.data(), batchSize, impl)) != 0)
        out.insert(out.end(), buf.begin(), buf.begin() + k);
    *ok = cur.ok();
    return out;
}

void
expectSameDecoded(const std::vector<PackedTrace::Decoded> &ref,
                  const std::vector<PackedTrace::Decoded> &got,
                  PackedTrace::DecodeImpl impl, size_t batchSize)
{
    ASSERT_EQ(ref.size(), got.size())
        << implName(impl) << " bs=" << batchSize;
    for (size_t i = 0; i < ref.size(); ++i) {
        const auto &a = ref[i];
        const auto &b = got[i];
        ASSERT_TRUE(a.id == b.id && a.dep0 == b.dep0 && a.dep1 == b.dep1 &&
                    a.dep2 == b.dep2 && a.addr == b.addr &&
                    a.addr2 == b.addr2 && a.desc == b.desc)
            << implName(impl) << " bs=" << batchSize << " record " << i;
    }
}

} // namespace

TEST(PackedTraceBatch, EveryImplMatchesTheCheckedCursor)
{
    for (uint32_t seed : {1u, 42u, 77u}) {
        for (size_t n : {size_t(0), size_t(1), size_t(257), size_t(6000)}) {
            const auto instrs = randomTrace(n, seed);
            const auto packed = PackedTrace::pack(instrs);

            std::vector<PackedTrace::Decoded> ref;
            {
                PackedTrace::Cursor cur(packed);
                PackedTrace::Decoded d;
                while (cur.next(d))
                    ref.push_back(d);
                ASSERT_TRUE(cur.ok());
                ASSERT_EQ(ref.size(), n);
            }

            for (const auto impl : kAllImpls)
                for (size_t bs : {size_t(1), size_t(13), size_t(128),
                                  size_t(100000)}) {
                    bool ok = false;
                    const auto got = decodeAll(packed, impl, bs, &ok);
                    EXPECT_TRUE(ok)
                        << implName(impl) << " bs=" << bs << " n=" << n;
                    expectSameDecoded(ref, got, impl, bs);
                }
        }
    }
}

TEST(PackedTraceBatch, EveryImplMatchesOnARealKernelTrace)
{
    const auto *spec = core::Registry::instance().find("ZL/adler32");
    ASSERT_NE(spec, nullptr);
    auto w = spec->make(core::Options());
    const auto instrs = core::Runner::capture(*w, core::Impl::Neon, 128);
    ASSERT_FALSE(instrs.empty());
    const auto packed = PackedTrace::pack(instrs);

    std::vector<PackedTrace::Decoded> ref;
    PackedTrace::Cursor cur(packed);
    PackedTrace::Decoded d;
    while (cur.next(d))
        ref.push_back(d);
    ASSERT_TRUE(cur.ok());

    for (const auto impl : kAllImpls) {
        bool ok = false;
        const auto got = decodeAll(packed, impl, 128, &ok);
        EXPECT_TRUE(ok) << implName(impl);
        expectSameDecoded(ref, got, impl, 128);
    }
}

TEST(PackedTraceBatch, DamagedStreamsGetTheSameVerdictFromEveryImpl)
{
    // Truncations and random bit flips through the batch kernels: every
    // implementation must terminate in bounds and agree with the
    // checked per-record cursor on the decoded prefix AND the ok()
    // verdict — the vector kernels may not turn malformed input into
    // records (or silence) the scalar decoder would not.
    const auto instrs = randomTrace(900, 71);
    const auto packed = PackedTrace::pack(instrs);
    const std::string blob = payloadOf(packed);
    RawHeader h;
    std::memcpy(&h, blob.data(), sizeof h);
    const size_t descBytes = size_t(h.descCount) * h.descSize;
    const std::string body = blob.substr(sizeof h);

    std::vector<std::string> crafted;
    for (size_t k = 1; k <= std::min<uint64_t>(16, h.mainLen); ++k) {
        RawHeader th = h;
        th.mainLen = h.mainLen - k;
        std::string tbody = body.substr(0, descBytes + size_t(th.mainLen));
        tbody += body.substr(descBytes + size_t(h.mainLen));
        crafted.push_back(craftPayload(th, tbody));
    }
    std::mt19937_64 rng(73);
    for (int round = 0; round < 48; ++round) {
        std::string fuzzed = body;
        const int flips = 1 + int(rng() % 4);
        for (int f = 0; f < flips; ++f) {
            const size_t at =
                descBytes + size_t(rng() % (fuzzed.size() - descBytes));
            fuzzed[at] =
                char(uint8_t(fuzzed[at]) ^ uint8_t(1 + rng() % 255));
        }
        crafted.push_back(craftPayload(h, fuzzed));
    }

    for (size_t c = 0; c < crafted.size(); ++c) {
        PackedTrace t;
        if (!readBlob(crafted[c], &t))
            continue; // structural reject: nothing reaches the decoders

        bool refOk = false;
        std::vector<PackedTrace::Decoded> ref;
        {
            PackedTrace::Cursor r(t);
            PackedTrace::Decoded d;
            while (r.next(d)) {
                ASSERT_LT(d.desc, t.descCount());
                ref.push_back(d);
            }
            refOk = r.ok();
        }

        for (const auto impl : kAllImpls)
            for (size_t bs : {size_t(7), size_t(128)}) {
                bool ok = false;
                const auto got = decodeAll(t, impl, bs, &ok);
                EXPECT_EQ(refOk, ok)
                    << implName(impl) << " bs=" << bs << " case " << c;
                expectSameDecoded(ref, got, impl, bs);
            }
    }
}

TEST(PackedReplay, PackedSimulationMatchesAoS)
{
    const auto instrs = randomTrace(4000, 17);
    const auto packed = PackedTrace::pack(instrs);
    for (const auto &cfg : threeCores()) {
        const auto aos = sim::simulateTrace(instrs, cfg, 1);
        const auto pkd = sim::simulateTrace(packed, cfg, 1);
        expectSameResult(aos, pkd);
    }
}

TEST(PackedReplay, SimulateTraceManyMatchesSeparatePasses)
{
    const auto instrs = randomTrace(4000, 19);
    const auto packed = PackedTrace::pack(instrs);
    const auto cfgs = threeCores();

    for (int warmup : {0, 1, 2}) {
        const auto many = sim::simulateTraceMany(packed, cfgs, warmup);
        ASSERT_EQ(many.size(), cfgs.size());
        for (size_t i = 0; i < cfgs.size(); ++i) {
            const auto one = sim::simulateTrace(instrs, cfgs[i], warmup);
            expectSameResult(one, many[i]);
        }
    }
}

TEST(PackedReplay, AoSManyOverloadMatchesToo)
{
    const auto instrs = randomTrace(2500, 23);
    const auto cfgs = threeCores();
    const auto many = sim::simulateTraceMany(instrs, cfgs, 1);
    ASSERT_EQ(many.size(), cfgs.size());
    for (size_t i = 0; i < cfgs.size(); ++i)
        expectSameResult(sim::simulateTrace(instrs, cfgs[i], 1), many[i]);
}

TEST(PackedReplay, OnBlockEqualsPerInstrSinkDelivery)
{
    const auto instrs = randomTrace(3000, 29);
    const auto cfg = sim::primeConfig();

    sim::CoreModel viaSink(cfg);
    trace::Sink *sink = &viaSink;
    for (const auto &i : instrs)
        sink->onInstr(i);
    viaSink.beginMeasurement();
    for (const auto &i : instrs)
        sink->onInstr(i);

    sim::CoreModel viaBlocks(cfg);
    viaBlocks.onBlock(instrs.data(), instrs.size());
    viaBlocks.beginMeasurement();
    viaBlocks.onBlock(instrs.data(), instrs.size());

    expectSameResult(viaSink.finish(), viaBlocks.finish());
}
