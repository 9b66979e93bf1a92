#include "trace/packed.hh"

#include <algorithm>
#include <cstring>
#include <istream>

#include "trace/checksum.hh"
#include "trace/recorder.hh"
#include "trace/stats.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define SWAN_PACKED_HAVE_MMAP 1
#endif

namespace swan::trace
{

// --- Buf ---------------------------------------------------------------

PackedTrace::Buf::Buf(size_t n) : n_(n)
{
    if (n == 0)
        return;
#ifdef SWAN_PACKED_HAVE_MMAP
    void *p = ::mmap(nullptr, n, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p != MAP_FAILED) {
        p_ = static_cast<uint8_t *>(p);
        mapped_ = true;
        return;
    }
#endif
    p_ = new uint8_t[n](); // zero-initialized like the mapping
}

void
PackedTrace::Buf::release()
{
    if (!p_)
        return;
#ifdef SWAN_PACKED_HAVE_MMAP
    if (mapped_) {
        ::munmap(p_, n_);
        p_ = nullptr;
        n_ = 0;
        return;
    }
#endif
    delete[] p_;
    p_ = nullptr;
    n_ = 0;
}

void
PackedTrace::Buf::grow(size_t used, size_t need)
{
    if (need <= n_)
        return;
    size_t cap = std::max<size_t>(n_, 64 * 1024);
    while (cap < need)
        cap *= 2;
    Buf b(cap);
    if (used)
        std::memcpy(b.p_, p_, used);
    *this = std::move(b);
}

// --- Builder ---------------------------------------------------------

PackedTrace::Builder::Builder()
    : memo_(sizeof(MemoSlot) << kMemoBits) // zero = every slot empty
{
    rehash(256);
}

uint32_t
PackedTrace::Builder::memoSlot(const Instr &shape)
{
    uint64_t lo, hi;
    shapeWords(shape, &lo, &hi);
    return uint32_t(memoHash(lo, hi));
}

namespace
{

/** Exact-table slot hash: all 128 descriptor bits, well mixed. */
inline uint64_t
tableHash(uint64_t lo, uint64_t hi)
{
    uint64_t h = lo ^ (hi * 0x9e3779b97f4a7c15ull);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return h;
}

inline uint64_t
tableHash(const void *desc)
{
    uint64_t w[2];
    std::memcpy(w, desc, sizeof w);
    return tableHash(w[0], w[1]);
}

} // namespace

uint32_t
PackedTrace::Builder::findOrInsert(uint64_t lo, uint64_t hi)
{
    const uint64_t w[2] = {lo, hi}; // Desc's byte layout
    const size_t mask = tableSlots_ - 1;
    size_t s = size_t(tableHash(lo, hi)) & mask;
    while (const uint32_t e = table()[s]) {
        if (std::memcmp(&descs()[e - 1], w, sizeof w) == 0)
            return e - 1;
        s = (s + 1) & mask;
    }
    const uint32_t idx = descCount_++;
    descs_.grow(size_t(idx) * sizeof(Desc), size_t(idx + 1) * sizeof(Desc));
    counts_.grow(size_t(idx) * sizeof(uint64_t),
                 size_t(idx + 1) * sizeof(uint64_t));
    std::memcpy(static_cast<void *>(&descs()[idx]), w, sizeof w);
    counts()[idx] = 0;
    table()[s] = idx + 1;
    if (size_t(descCount_) * 2 > tableSlots_)
        rehash(tableSlots_ * 2);
    return idx;
}

void
PackedTrace::Builder::rehash(size_t slots)
{
    table_ = Buf(slots * sizeof(uint32_t)); // zero = every slot empty
    tableSlots_ = slots;
    const size_t mask = slots - 1;
    for (uint32_t i = 0; i < descCount_; ++i) {
        size_t s = size_t(tableHash(&descs()[i])) & mask;
        while (table()[s])
            s = (s + 1) & mask;
        table()[s] = i + 1;
    }
}

void
PackedTrace::Builder::reset()
{
    if (descCount_) {
        std::memset(table_.data(), 0, table_.size());
        std::memset(memo_.data(), 0, memo_.size());
    }
    mainLen_ = 0;
    multiLen_ = 0;
    descCount_ = 0;
    count_ = 0;
    prevId_ = 0;
    prevAddr_ = 0;
}

PackedTrace
PackedTrace::Builder::finish(MixStats *mix)
{
    const size_t descBytes = size_t(descCount_) * sizeof(Desc);
    PackedTrace t;
    t.buf_ = Buf(descBytes + mainLen_ + multiLen_);
    uint8_t *p = t.buf_.data();
    if (descBytes)
        std::memcpy(p, descs_.data(), descBytes);
    if (mainLen_)
        std::memcpy(p + descBytes, main_.data(), mainLen_);
    if (multiLen_)
        std::memcpy(p + descBytes + mainLen_, multi_.data(), multiLen_);
    t.count_ = count_;
    t.mainLen_ = mainLen_;
    t.multiLen_ = multiLen_;
    t.descCount_ = descCount_;
    if (mix) {
        // Every MixStats counter reads shape fields only, so the mix
        // of the trace is the sum over descriptors of count x shape.
        Instr shape;
        for (uint32_t i = 0; i < descCount_; ++i) {
            expand(descs()[i], &shape);
            mix->add(shape, counts()[i]);
        }
    }
    reset();
    return t;
}

// --- pack --------------------------------------------------------------

PackedTrace
PackedTrace::pack(const std::vector<Instr> &instrs)
{
    Scratch scratch;
    return pack(instrs, &scratch);
}

PackedTrace
PackedTrace::pack(const std::vector<Instr> &instrs, Scratch *scratch)
{
    Builder &b = scratch->builder;
    b.reset();
    for (const Instr &i : instrs)
        b.add(i);
    return b.finish();
}

// --- decode ------------------------------------------------------------

PackedTrace::Cursor::Cursor(const PackedTrace &trace) : trace_(&trace)
{
    reset();
}

void
PackedTrace::Cursor::reset()
{
    if (!trace_)
        return;
    p_ = trace_->mainStream();
    end_ = p_ + trace_->mainLen_;
    mp_ = trace_->multiStream();
    mend_ = mp_ + trace_->multiLen_;
    prevId_ = 0;
    prevAddr_ = 0;
    left_ = trace_->count_;
    bad_ = false;
}

void
PackedTrace::expandDesc(uint32_t idx, Instr *out) const
{
    expand(descs()[idx], out);
}

void
PackedTrace::expand(const Desc &d, Instr *out)
{
    *out = Instr{};
    out->size = d.size;
    out->elemStride = d.elemStride;
    out->cls = InstrClass(d.cls);
    out->fu = Fu(d.fu);
    out->latency = d.latency;
    out->vecBytes = d.vecBytes;
    out->lanes = d.lanes;
    out->activeLanes = d.activeLanes;
    out->stride = StrideKind(d.stride);
}

size_t
PackedTrace::Cursor::next(Instr *out, size_t max)
{
    size_t n = 0;
    const Desc *descs = trace_ ? trace_->descs() : nullptr;
    Decoded d;
    while (n < max && next(d)) {
        const Desc &dd = descs[d.desc];
        Instr &o = out[n++];
        o.id = d.id;
        o.dep0 = d.dep0;
        o.dep1 = d.dep1;
        o.dep2 = d.dep2;
        o.addr = d.addr;
        o.addr2 = d.addr2;
        o.size = dd.size;
        o.elemStride = dd.elemStride;
        o.cls = InstrClass(dd.cls);
        o.fu = Fu(dd.fu);
        o.latency = dd.latency;
        o.vecBytes = dd.vecBytes;
        o.lanes = dd.lanes;
        o.activeLanes = dd.activeLanes;
        o.stride = StrideKind(dd.stride);
    }
    return n;
}

std::vector<Instr>
PackedTrace::unpack() const
{
    std::vector<Instr> out(size());
    Cursor cur(*this);
    const size_t n = cur.next(out.data(), out.size());
    out.resize(n);
    return out;
}

void
PackedTrace::deliver(Sink &sink) const
{
    Instr block[kBlockInstrs];
    Cursor cur(*this);
    size_t n;
    while ((n = cur.next(block, kBlockInstrs)) != 0)
        sink.onBlock(block, n);
}

// --- payload (the on-disk sweep trace tier) ----------------------------

namespace
{

/** Payload header: everything needed to rebuild the PackedTrace. */
struct PayloadHeader
{
    uint64_t count;
    uint64_t mainLen;
    uint64_t multiLen;
    uint32_t descCount;
    uint32_t descSize; //!< sizeof(Desc) at write time (layout guard)
    uint64_t checksum; //!< checksum64 over the body bytes
};
static_assert(sizeof(PayloadHeader) == PackedTrace::kPayloadHeaderBytes);

PayloadHeader
headerAt(const uint8_t *p)
{
    PayloadHeader h;
    std::memcpy(&h, p, sizeof h);
    return h;
}

} // namespace

std::array<uint8_t, PackedTrace::kPayloadHeaderBytes>
PackedTrace::payloadHeader() const
{
    PayloadHeader h{};
    h.count = count_;
    h.mainLen = mainLen_;
    h.multiLen = multiLen_;
    h.descCount = descCount_;
    h.descSize = sizeof(Desc);
    h.checksum = checksum64(buf_.data(), buf_.size());
    std::array<uint8_t, kPayloadHeaderBytes> out;
    std::memcpy(out.data(), &h, sizeof h);
    return out;
}

bool
PackedTrace::readPayload(const uint8_t *header, std::istream &in,
                         size_t body_len, PackedTrace *out)
{
    const PayloadHeader h = headerAt(header);
    if (h.descSize != sizeof(Desc))
        return false;
    const uint64_t descBytes = uint64_t(h.descCount) * sizeof(Desc);
    if (h.mainLen > body_len || h.multiLen > body_len ||
        descBytes > body_len ||
        body_len != descBytes + h.mainLen + h.multiLen)
        return false;
    PackedTrace t;
    t.buf_ = Buf(body_len);
    if (body_len && !in.read(reinterpret_cast<char *>(t.buf_.data()),
                             std::streamsize(body_len)))
        return false;
    if (checksum64(t.buf_.data(), t.buf_.size()) != h.checksum)
        return false;
    t.count_ = h.count;
    t.mainLen_ = h.mainLen;
    t.multiLen_ = h.multiLen;
    t.descCount_ = h.descCount;
    for (uint32_t i = 0; i < t.descCount_; ++i) {
        const Desc &d = t.descs()[i];
        if (d.cls >= uint8_t(InstrClass::NumClasses) ||
            d.fu >= uint8_t(Fu::NumFus) ||
            d.stride >= uint8_t(StrideKind::NumKinds))
            return false;
    }
    *out = std::move(t);
    return true;
}

} // namespace swan::trace
