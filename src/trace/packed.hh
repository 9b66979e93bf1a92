/**
 * @file
 * Compact in-memory trace encoding. The sweep methodology is "capture
 * one dynamic trace, replay it against many core configurations", so
 * buffered traces dominate the process's peak memory and replay
 * throughput dominates every figure's wall clock. PackedTrace encodes
 * the 64-byte AoS trace::Instr stream into a byte stream of typically
 * 2-4 bytes per instruction:
 *
 *  - the per-instruction *shape* (class, functional unit, latency,
 *    vector geometry, stride kind, access size, element stride) is
 *    deduplicated into a small side table of descriptors — a dynamic
 *    trace has few distinct op sites — so each record starts with a
 *    one-byte tag of descriptor index plus field-presence flags;
 *  - fields at their common value cost nothing: a sequential id
 *    (the recorder's 1,2,3,... numbering) and each absent dependence
 *    contribute zero bytes;
 *  - present dependences are stored as varint producer *distances*
 *    (id - dep), which are small for the register-renamed windows the
 *    simulator models;
 *  - memory addresses are delta-encoded against the previous accessed
 *    address; the rare second address of multi-address records
 *    (Gather/Scatter/LdS/StS) lives in a side stream.
 *
 * The encoding is lossless: unpack()/iteration reconstructs the exact
 * Instr sequence, so replaying a packed trace is byte-identical to
 * replaying the AoS buffer it came from.
 *
 * Encoding is incremental: PackedTrace::Builder appends one Instr at a
 * time, and a Recorder in builder mode streams a capture straight into
 * it — no AoS buffer, no separate pack pass. pack() is a loop over the
 * same Builder, so both paths produce identical bytes.
 *
 * Storage lives in anonymous mmap regions, not the C++ heap.
 */

#ifndef SWAN_TRACE_PACKED_HH
#define SWAN_TRACE_PACKED_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "swan/internal/contracts.hh"
#include "trace/instr.hh"

namespace swan::trace
{

class MixStats;
class Sink;

/**
 * Stream-format primitives shared by the inline encoder
 * (PackedTrace::Builder::add, called per recorded instruction), the
 * block decoder (packed.cc) and the inline single-record Cursor path
 * that the fused replay engine (sim/core_model.cc) compiles into its
 * step loop. Header-inline so every consumer sees one definition of
 * the stream format.
 */
namespace packed_detail
{

inline int64_t
unzigzag(uint64_t v)
{
    return int64_t(v >> 1) ^ -int64_t(v & 1);
}

// --- per-record tag layout --------------------------------------------
// tag = descIndex << 6 | presence flags. A field whose flag is clear
// contributes zero stream bytes and zero decode work: the common
// sequential id costs nothing, and each absent dependence costs
// nothing — a typical scalar ALU record is tag + one dep distance,
// two bytes total.
constexpr uint64_t kHasAddr = 1;
constexpr uint64_t kHasMulti = 2;
constexpr uint64_t kHasIdJump = 4;  //!< id != prevId + 1
constexpr uint64_t kHasDep0 = 8;
constexpr uint64_t kHasDep1 = 16;
constexpr uint64_t kHasDep2 = 32;
constexpr int kTagFlagBits = 6;

/** Longest possible main-stream record: 6 varints of up to 10 bytes. */
constexpr ptrdiff_t kMaxRecordBytes = 60;

/** Longest possible varint (one multi-stream record). */
constexpr ptrdiff_t kMaxVarintBytes = 10;

inline uint64_t
zigzag(int64_t v)
{
    return (uint64_t(v) << 1) ^ uint64_t(v >> 63);
}

/** Unchecked varint write; the caller guarantees kMaxVarintBytes of
 *  headroom at @p p. @return the byte after the varint. */
inline uint8_t *
putVarint(uint8_t *p, uint64_t v)
{
    while (v >= 0x80) {
        *p++ = uint8_t(v) | 0x80;
        v >>= 7;
    }
    *p++ = uint8_t(v);
    return p;
}

/** Strip each byte's continuation bit and fold the 7-bit groups of a
 *  masked little-endian word into one integer (up to 56 bits). */
inline uint64_t
fold7(uint64_t w)
{
    uint64_t x = (w & 0x007f007f007f007full) |
                 ((w & 0x7f007f007f007f00ull) >> 1);
    x = (x & 0x00003fff00003fffull) | ((x & 0x3fff00003fff0000ull) >> 2);
    return (x & 0x000000000fffffffull) | ((x & 0x0fffffff00000000ull) >> 4);
}

/**
 * Unchecked word-at-a-time varint read. One 8-byte load covers every
 * varint the encoder emits for the values seen in practice: the length
 * comes from the first clear continuation bit (ctz on the inverted msb
 * mask), and the payload bits fold together without a per-byte loop —
 * no data-dependent branches for anything up to 8 encoded bytes.
 * Only used when the caller has already established that a maximal
 * record cannot run past the end of the stream.
 */
inline uint64_t
rdFast(const uint8_t *&p)
{
    uint64_t w;
    std::memcpy(&w, p, 8);
    if (__builtin_expect(!(w & 0x80), 1)) {
        ++p;
        return w & 0x7f;
    }
    const uint64_t stops = ~w & 0x8080808080808080ull;
    if (__builtin_expect(stops != 0, 1)) {
        // Bytes 0..len-1 belong to this varint (2 <= len <= 8).
        const int len = (__builtin_ctzll(stops) >> 3) + 1;
        p += len;
        return fold7(w & (~0ull >> (64 - 8 * len)));
    }
    // 9- or 10-byte varint: all eight loaded bytes are continuation
    // bytes; fold their 56 payload bits and finish byte-wise.
    p += 8;
    uint64_t v = fold7(w & 0x7f7f7f7f7f7f7f7full);
    int shift = 56;
    while (true) {
        const uint64_t b = *p++;
        v |= (b & 0x7f) << shift;
        if (!(b & 0x80))
            return v;
        shift += 7;
        if (shift >= 64)
            return v;
    }
}

/**
 * Checked byte-wise varint read: never reads at or past @p end, and
 * sets @p *bad (leaves it untouched otherwise) when the varint is
 * truncated by the stream end or over-long (> 10 encoded bytes —
 * something the encoder never emits).
 */
inline uint64_t
getVarint(const uint8_t *&p, const uint8_t *end, bool *bad)
{
    uint64_t v = 0;
    int shift = 0;
    while (p < end) {
        const uint8_t b = *p++;
        if (shift < 64)
            v |= uint64_t(b & 0x7f) << shift;
        if (!(b & 0x80))
            return v;
        shift += 7;
        if (shift >= 70) {
            *bad = true;
            return v;
        }
    }
    *bad = true;
    return v;
}

} // namespace packed_detail

/** Losslessly packed dynamic instruction trace. */
class PackedTrace
{
  private:
    /** Deduplicated per-instruction shape (the descriptor side table). */
    struct Desc
    {
        uint32_t size = 0;
        int32_t elemStride = 0;
        uint8_t cls = 0;
        uint8_t fu = 0;
        uint8_t latency = 0;
        uint8_t vecBytes = 0;
        uint8_t lanes = 0;
        uint8_t activeLanes = 0;
        uint8_t stride = 0;
        uint8_t pad = 0; //!< keeps the struct memcmp/memcpy-clean
    };
    static_assert(sizeof(Desc) == 16, "descriptor layout is part of the "
                                      "payload format");

    /** Anonymous-mmap byte buffer (new[] fallback off POSIX). */
    class Buf
    {
      public:
        Buf() = default;
        explicit Buf(size_t n);
        ~Buf() { release(); }

        Buf(const Buf &) = delete;
        Buf &operator=(const Buf &) = delete;
        Buf(Buf &&o) noexcept { *this = std::move(o); }
        Buf &
        operator=(Buf &&o) noexcept
        {
            release();
            p_ = o.p_;
            n_ = o.n_;
            mapped_ = o.mapped_;
            o.p_ = nullptr;
            o.n_ = 0;
            return *this;
        }

        uint8_t *data() { return p_; }
        const uint8_t *data() const { return p_; }
        size_t size() const { return n_; }

        /** Grow to at least @p need bytes by doubling, keeping the
         *  first @p used bytes. */
        void grow(size_t used, size_t need);

        void release();

      private:
        uint8_t *p_ = nullptr;
        size_t n_ = 0;
        bool mapped_ = false;
    };

  public:
    /** Instrs decoded per block by deliver() (16 KiB of Instr: the
     *  block buffer stays cache-resident while every core model of a
     *  multi-config replay consumes it). */
    static constexpr size_t kBlockInstrs = 256;

    PackedTrace() = default;

    /**
     * Incremental encoder. add() appends one instruction to the
     * encoding described above; finish() emits the exact-size trace
     * plus its MixStats. A Recorder in builder mode (and through it
     * core::Runner::captureTo) calls add() for every emitted
     * instruction, so a capture never materializes the 64 B/instr AoS
     * buffer and never makes a separate mix or pack pass.
     *
     * Descriptor lookup is a 4096-slot direct-mapped memo in front of
     * an exact open-addressing table. The exact table assigns indices
     * in first-occurrence order; a memo slot only caches a (desc,
     * index) pair the exact table produced, so a collision costs a
     * table probe and can never alias two descriptors.
     *
     * Every buffer (streams, descriptor table, index, per-descriptor
     * counters, memo) is anonymous mmap that grows by doubling:
     * building a trace makes no heap allocations, and finish()/reset()
     * keep the capacity for the next trace.
     */
    class Builder
    {
      public:
        Builder();

        Builder(const Builder &) = delete;
        Builder &operator=(const Builder &) = delete;

        /** Append one instruction (its id is encoded as given). */
        void add(const Instr &instr);

        /** Instructions added since the last finish() or reset(). */
        size_t size() const { return size_t(count_); }

        /**
         * The trace built so far, laid out descs | main | multi in one
         * exact-size buffer. When @p mix is non-null the trace's
         * instruction mix is added to it, computed from the
         * per-descriptor counts in O(descriptors). The Builder is
         * reset() for the next trace.
         */
        PackedTrace finish(MixStats *mix = nullptr);

        /** Drop the trace in progress; capacity is kept. */
        void reset();

        /** The memo slot a shape maps to (only the Instr's shape fields
         *  are read). Exposed so tests can force memo collisions. */
        static uint32_t memoSlot(const Instr &shape);

      private:
        static constexpr int kMemoBits = 12;

        /** A cached descriptor: its two 8-byte words and index + 1
         *  (0 marks an empty slot). */
        struct MemoSlot
        {
            uint64_t lo;
            uint64_t hi;
            uint64_t idx1;
        };

        /** A shape's descriptor as two words (Desc's byte layout). */
        static void shapeWords(const Instr &i, uint64_t *lo, uint64_t *hi);
        static uint64_t memoHash(uint64_t lo, uint64_t hi);
        uint32_t descIndex(uint64_t lo, uint64_t hi);
        /** Exact-table find-or-insert (the memo's miss path). */
        uint32_t findOrInsert(uint64_t lo, uint64_t hi);
        void rehash(size_t slots);

        Desc *descs() { return reinterpret_cast<Desc *>(descs_.data()); }
        uint64_t *counts()
        {
            return reinterpret_cast<uint64_t *>(counts_.data());
        }
        uint32_t *table()
        {
            return reinterpret_cast<uint32_t *>(table_.data());
        }
        MemoSlot *memo()
        {
            return reinterpret_cast<MemoSlot *>(memo_.data());
        }

        Buf main_;
        Buf multi_;
        Buf descs_;  //!< Desc[descCount_]
        Buf counts_; //!< uint64_t[descCount_], records per descriptor
        Buf table_;  //!< uint32_t[tableSlots_]: index + 1, 0 = empty
        Buf memo_;   //!< MemoSlot[1 << kMemoBits]
        size_t mainLen_ = 0;
        size_t multiLen_ = 0;
        size_t tableSlots_ = 0;
        uint32_t descCount_ = 0;
        uint64_t count_ = 0;
        uint64_t prevId_ = 0;
        uint64_t prevAddr_ = 0;
    };

    /**
     * Reusable pack() working memory: a Builder whose capacity persists
     * across pack() calls, for callers that pack many buffered traces
     * back to back.
     */
    struct Scratch
    {
        Builder builder;
    };

    /** Encode a buffered (Recorder) trace: Builder::add per record. */
    static PackedTrace pack(const std::vector<Instr> &instrs);

    /** pack() borrowing @p scratch's Builder instead of a fresh one. */
    static PackedTrace pack(const std::vector<Instr> &instrs,
                            Scratch *scratch);

    /** Number of instructions. */
    size_t size() const { return size_t(count_); }
    bool empty() const { return count_ == 0; }

    /** Bytes held by the encoding (the memo-budget unit). */
    size_t byteSize() const { return buf_.size(); }

    /** What the same trace costs as an AoS Instr buffer. */
    static size_t aosBytes(size_t n) { return n * sizeof(Instr); }

    /** Decode the full trace back into an AoS buffer. */
    std::vector<Instr> unpack() const;

    /** Stream the trace into @p sink in kBlockInstrs-sized blocks. */
    void deliver(Sink &sink) const;

    /**
     * One decoded record's identity fields. The shape fields live in
     * the descriptor side table (see descCount()/expandDesc()); the
     * fused replay engine keeps a per-descriptor prototype instead of
     * re-expanding them per instruction.
     */
    struct Decoded
    {
        uint64_t id;
        uint64_t dep0, dep1, dep2;
        uint64_t addr;
        uint64_t addr2;
        uint32_t desc;      //!< descriptor index, < descCount()
    };
    // The fused driver's L1-resident decode buffer holds 128 of these
    // and the batch kernels' store layout assumes this footprint.
    static_assert(sizeof(Decoded) == 56,
                  "Decoded grew: the fused replay's decode buffers are "
                  "sized for 56-byte records");

    /**
     * Which batch-decode kernel family Cursor::nextBatch runs. Every
     * implementation is bit-identical in output and cursor state
     * transitions (including ok() checked-decode semantics); the
     * choice is pure throughput. Auto defers to the process-wide
     * runtime ISA dispatch (swan/internal/simd_dispatch.hh).
     */
    enum class DecodeImpl : uint8_t
    {
        Auto,   //!< runtime-dispatched best available
        Scalar, //!< guaranteed fallback: a loop over next(Decoded&)
        Swar,   //!< portable 64-bit SWAR batch kernel
        Native, //!< AVX2+BMI2 / NEON; degrades to Swar if unavailable
    };

    /** Incremental block decoder (checked: see ok()). */
    class Cursor
    {
      public:
        Cursor() = default; //!< empty cursor; next() returns 0
        explicit Cursor(const PackedTrace &trace);

        /**
         * Decode up to @p max instructions into @p out.
         * @return the number decoded; 0 at end of trace.
         */
        size_t next(Instr *out, size_t max);

        /**
         * Decode exactly one record into registers (no Instr
         * materialization) — the scalar endpoint every batch kernel
         * falls back to.
         * @return false at end of trace, or when the stream is
         * malformed (check ok() to tell the two apart).
         */
        bool next(Decoded &out);

        /**
         * Decode up to @p max records into @p out with the
         * runtime-dispatched batch kernel — the fused replay engine's
         * entry point. Cursor state (position, delta bases, ok())
         * advances exactly as @p max calls of next(Decoded&) would;
         * the batch kernels only amortize bounds checks and keep the
         * decode recurrence in registers across the whole batch.
         * @return the number decoded; 0 at end of trace or on a
         * malformed stream (check ok() to tell the two apart).
         */
        size_t nextBatch(Decoded *out, size_t max);

        /** nextBatch() forcing a specific kernel family (tests and
         *  benches; Native degrades to Swar when the hardware lacks
         *  it). */
        size_t nextBatch(Decoded *out, size_t max, DecodeImpl impl);

        /** Rewind to the first instruction. */
        void reset();

        /** Records still to decode. */
        uint64_t remaining() const { return left_; }

        /**
         * Checked decode: false once this cursor has observed a
         * malformed stream — a record truncated by the varint stream
         * end, a descriptor index out of range, an exhausted
         * multi-address side stream, or (once the advertised
         * instruction count has been decoded) trailing stream bytes.
         * Decoding never reads outside the encoded buffer either way;
         * ok() upgrades "stop early on garbage" to "reject".
         */
        bool ok() const;

      private:
        /** Shared body of the SWAR and pext batch kernels: the Fold
         *  policy abstracts multi-byte varint bit extraction (fold7
         *  vs BMI2 pext). Defined in trace/packed_batch_impl.hh and
         *  instantiated per kernel translation unit (the AVX2 one is
         *  compiled with its own ISA flags). */
        template <class Fold> size_t nextBatchImpl(Decoded *out, size_t max);
        /** The guaranteed-available fallback: a next(Decoded&) loop. */
        size_t nextBatchScalar(Decoded *out, size_t max);
        /** Portable 64-bit SWAR batch kernel (packed_batch.cc). */
        size_t nextBatchSwar(Decoded *out, size_t max);
        /** Best native kernel this build carries: AVX2+BMI2 pext on
         *  x86-64 (packed_batch_avx2.cc), NEON on AArch64, else an
         *  alias of the SWAR kernel. Call only via nextBatch — the
         *  x86 variant requires runtime AVX2/BMI2 support. */
        size_t nextBatchNative(Decoded *out, size_t max);

        const PackedTrace *trace_ = nullptr;
        const uint8_t *p_ = nullptr;        //!< main stream position
        const uint8_t *end_ = nullptr;
        const uint8_t *mp_ = nullptr;       //!< multi-address stream
        const uint8_t *mend_ = nullptr;
        uint64_t prevId_ = 0;
        uint64_t prevAddr_ = 0;
        uint64_t left_ = 0;                 //!< records still to decode
        bool bad_ = false;                  //!< malformation observed
    };

    /** Input iterator reconstructing Instr views one at a time. */
    class Iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = Instr;
        using difference_type = std::ptrdiff_t;
        using pointer = const Instr *;
        using reference = const Instr &;

        Iterator() = default; // end sentinel

        explicit Iterator(const PackedTrace &trace) : cur_(trace)
        {
            ++*this;
        }

        reference operator*() const { return instr_; }
        pointer operator->() const { return &instr_; }

        Iterator &
        operator++()
        {
            done_ = cur_.next(&instr_, 1) == 0;
            return *this;
        }

        bool operator==(const Iterator &o) const { return done_ == o.done_; }
        bool operator!=(const Iterator &o) const { return !(*this == o); }

      private:
        Cursor cur_;
        Instr instr_;
        bool done_ = true;
    };

    Iterator begin() const { return empty() ? Iterator() : Iterator(*this); }
    Iterator end() const { return Iterator(); }

    /**
     * The payload is the on-disk form of a trace (the sweep trace
     * tier): a fixed header, then the body — this trace's own buffer
     * (descs | main | multi, byteSize() bytes), written without a
     * copy. Same-host format. The header's checksum (checksum64,
     * trace/checksum.hh) covers the body only; its length and count
     * fields are bounds-checked on read, so a container that stores
     * the header must checksum it itself, as the trace tier does.
     */
    static constexpr size_t kPayloadHeaderBytes = 40;

    /** This trace's payload header (hashes the body once). */
    std::array<uint8_t, kPayloadHeaderBytes> payloadHeader() const;

    /** The payload body: byteSize() bytes. */
    const uint8_t *payloadBody() const { return buf_.data(); }

    /**
     * Read the @p body_len -byte body that follows @p header from
     * @p in straight into a fresh trace buffer, then verify it: the
     * body against the header's checksum, every descriptor's enums (so
     * decoding never has to). @return false (and leaves @p out
     * untouched) if the header does not announce exactly @p body_len
     * bytes, the read fails, or the body does not verify.
     */
    static bool readPayload(const uint8_t *header, std::istream &in,
                            size_t body_len, PackedTrace *out);

    /** Number of deduplicated shape descriptors. */
    uint32_t descCount() const { return descCount_; }

    /**
     * Expand descriptor @p idx into @p out's shape fields (class, FU,
     * latency, vector geometry, stride kind, access size); the
     * identity fields (id, deps, addresses) are zeroed. Used by the
     * fused replay engine to precompute one step prototype per
     * descriptor. Precondition: idx < descCount().
     */
    void expandDesc(uint32_t idx, Instr *out) const;

  private:
    friend class Cursor;

    /** Expand a descriptor into @p out's shape fields. */
    static void expand(const Desc &d, Instr *out);

    const Desc *descs() const
    {
        return reinterpret_cast<const Desc *>(buf_.data());
    }
    const uint8_t *mainStream() const
    {
        return buf_.data() + size_t(descCount_) * sizeof(Desc);
    }
    const uint8_t *multiStream() const
    {
        return mainStream() + mainLen_;
    }

    Buf buf_;
    uint64_t count_ = 0;
    uint64_t mainLen_ = 0;
    uint64_t multiLen_ = 0;
    uint32_t descCount_ = 0;
};

inline bool
PackedTrace::Cursor::ok() const
{
    if (bad_)
        return false;
    // Fully consumed: the streams must land exactly on their ends
    // (trailing bytes mean the advertised count lied).
    if (trace_ && left_ == 0)
        return p_ == end_ && mp_ == mend_;
    return true;
}

/**
 * Single-record decode, inline so the fused replay loop pays no call
 * (and no Instr staging store) per instruction. The structure mirrors
 * the block decoder's three tiers: a branch-free extraction when the
 * next 8 bytes are all single-byte varints (the overwhelmingly common
 * case — a record is typically 2-4 bytes), an unchecked word-at-a-time
 * read when a maximal record cannot overrun the stream, and a fully
 * checked byte-wise tail.
 */
inline bool
PackedTrace::Cursor::next(Decoded &out)
{
    using namespace packed_detail;
    if (left_ == 0)
        return false;
    const uint8_t *p = p_;
    const uint32_t descCount = trace_->descCount_;
    uint64_t tag, id, dep0 = 0, dep1 = 0, dep2 = 0, addr = 0, addr2 = 0;
    if (__builtin_expect(end_ - p >= 8, 1)) {
        uint64_t w;
        std::memcpy(&w, p, 8);
        if (__builtin_expect(!(w & 0x8080808080808080ull), 1)) {
            tag = w & 0xff;
            if (__builtin_expect(!(tag & kHasMulti), 1)) {
                // Flag-indexed shifts: absent fields cost a mask, not
                // a mispredicted branch.
                const uint64_t fIdJ = (tag >> 2) & 1;
                const uint64_t fD0 = (tag >> 3) & 1;
                const uint64_t fD1 = (tag >> 4) & 1;
                const uint64_t fD2 = (tag >> 5) & 1;
                const uint64_t fA = tag & 1;
                const uint64_t pIdJ = 1;
                const uint64_t pD0 = pIdJ + fIdJ;
                const uint64_t pD1 = pD0 + fD0;
                const uint64_t pD2 = pD1 + fD1;
                const uint64_t pA = pD2 + fD2;
                p_ = p + (pA + fA);
                id = uint64_t(
                    int64_t(prevId_ + 1) +
                    (unzigzag((w >> (8 * pIdJ)) & 0xff) & -int64_t(fIdJ)));
                dep0 = uint64_t(int64_t(id) -
                                unzigzag((w >> (8 * pD0)) & 0xff)) &
                       -uint64_t(fD0);
                dep1 = uint64_t(int64_t(id) -
                                unzigzag((w >> (8 * pD1)) & 0xff)) &
                       -uint64_t(fD1);
                dep2 = uint64_t(int64_t(id) -
                                unzigzag((w >> (8 * pD2)) & 0xff)) &
                       -uint64_t(fD2);
                prevAddr_ += uint64_t(unzigzag((w >> (8 * pA)) & 0xff) &
                                      -int64_t(fA));
                addr = prevAddr_ & -uint64_t(fA);
                prevId_ = id;
                const uint64_t idx = tag >> kTagFlagBits;
                if (__builtin_expect(idx >= descCount, 0)) {
                    bad_ = true;
                    left_ = 0;
                    return false;
                }
                --left_;
                out.id = id;
                out.dep0 = dep0;
                out.dep1 = dep1;
                out.dep2 = dep2;
                out.addr = addr;
                out.addr2 = 0;
                out.desc = uint32_t(idx);
                return true;
            }
        }
    }
    if (__builtin_expect(end_ - p >= kMaxRecordBytes, 1)) {
        // A maximal record fits: skip per-byte checks. The rare
        // multi-address side read stays checked below (the side
        // stream may be empty).
        tag = rdFast(p);
        id = prevId_ + 1;
        if (tag & kHasIdJump)
            id = uint64_t(int64_t(id) + unzigzag(rdFast(p)));
        if (tag & kHasDep0)
            dep0 = uint64_t(int64_t(id) - unzigzag(rdFast(p)));
        if (tag & kHasDep1)
            dep1 = uint64_t(int64_t(id) - unzigzag(rdFast(p)));
        if (tag & kHasDep2)
            dep2 = uint64_t(int64_t(id) - unzigzag(rdFast(p)));
        if (tag & kHasAddr) {
            prevAddr_ += uint64_t(unzigzag(rdFast(p)));
            addr = prevAddr_;
        }
    } else {
        bool bad = false;
        tag = getVarint(p, end_, &bad);
        id = prevId_ + 1;
        if (tag & kHasIdJump)
            id = uint64_t(int64_t(id) + unzigzag(getVarint(p, end_, &bad)));
        if (tag & kHasDep0)
            dep0 = uint64_t(int64_t(id) - unzigzag(getVarint(p, end_, &bad)));
        if (tag & kHasDep1)
            dep1 = uint64_t(int64_t(id) - unzigzag(getVarint(p, end_, &bad)));
        if (tag & kHasDep2)
            dep2 = uint64_t(int64_t(id) - unzigzag(getVarint(p, end_, &bad)));
        if (tag & kHasAddr) {
            prevAddr_ += uint64_t(unzigzag(getVarint(p, end_, &bad)));
            addr = prevAddr_;
        }
        if (bad) {
            bad_ = true;
            left_ = 0;
            return false;
        }
    }
    if (tag & kHasMulti) {
        bool bad = false;
        const uint64_t multiTok = getVarint(mp_, mend_, &bad);
        if (bad) {
            bad_ = true;
            left_ = 0;
            return false;
        }
        addr2 = uint64_t(int64_t(addr) + unzigzag(multiTok));
    }
    prevId_ = id;
    const uint64_t idx = tag >> kTagFlagBits;
    if (__builtin_expect(idx >= descCount, 0)) {
        bad_ = true;
        left_ = 0;
        return false;
    }
    p_ = p;
    --left_;
    out.id = id;
    out.dep0 = dep0;
    out.dep1 = dep1;
    out.dep2 = dep2;
    out.addr = addr;
    out.addr2 = addr2;
    out.desc = uint32_t(idx);
    return true;
}

inline void
PackedTrace::Builder::shapeWords(const Instr &i, uint64_t *lo, uint64_t *hi)
{
    // Instr's shape fields (size .. stride) sit in its last 16 bytes
    // with Desc's exact layout, so a descriptor is two 8-byte loads
    // with the padding byte cleared — no field-wise assembly, which
    // would store bytes and reload words (a store-forwarding stall on
    // every instruction).
    static_assert(sizeof(Instr) == offsetof(Instr, size) + sizeof(Desc));
    static_assert(offsetof(Instr, elemStride) - offsetof(Instr, size) ==
                  offsetof(Desc, elemStride));
    static_assert(offsetof(Instr, cls) - offsetof(Instr, size) ==
                  offsetof(Desc, cls));
    static_assert(offsetof(Instr, fu) - offsetof(Instr, size) ==
                  offsetof(Desc, fu));
    static_assert(offsetof(Instr, latency) - offsetof(Instr, size) ==
                  offsetof(Desc, latency));
    static_assert(offsetof(Instr, vecBytes) - offsetof(Instr, size) ==
                  offsetof(Desc, vecBytes));
    static_assert(offsetof(Instr, lanes) - offsetof(Instr, size) ==
                  offsetof(Desc, lanes));
    static_assert(offsetof(Instr, activeLanes) - offsetof(Instr, size) ==
                  offsetof(Desc, activeLanes));
    static_assert(offsetof(Instr, stride) - offsetof(Instr, size) ==
                  offsetof(Desc, stride));
    static_assert(offsetof(Desc, pad) == 15);
    const auto *shape = reinterpret_cast<const unsigned char *>(&i) +
                        offsetof(Instr, size);
    std::memcpy(lo, shape, 8);
    std::memcpy(hi, shape + 8, 8);
    // Desc::pad is byte 7 of the high word.
    *hi &= std::endian::native == std::endian::little
               ? 0x00ffffffffffffffull
               : 0xffffffffffffff00ull;
}

inline uint64_t
PackedTrace::Builder::memoHash(uint64_t lo, uint64_t hi)
{
    return ((lo * 0x9e3779b97f4a7c15ull) ^ hi) * 0xc2b2ae3d27d4eb4full >>
           (64 - kMemoBits);
}

inline uint32_t
PackedTrace::Builder::descIndex(uint64_t lo, uint64_t hi)
{
    MemoSlot &m = memo()[memoHash(lo, hi)];
    if (__builtin_expect(m.idx1 != 0 && m.lo == lo && m.hi == hi, 1))
        return uint32_t(m.idx1 - 1);
    const uint32_t idx = findOrInsert(lo, hi);
    m = MemoSlot{lo, hi, uint64_t(idx) + 1};
    return idx;
}

/**
 * Encode one record straight into the main stream through a raw byte
 * cursor: one headroom check per record (a maximal record is
 * kMaxRecordBytes), then unchecked varint writes. Every input and
 * cursor field is read into a local first: the byte stores may alias
 * anything, and reloading state after each one would serialize the
 * record on the store buffer.
 */
inline void
PackedTrace::Builder::add(const Instr &i)
{
    using namespace packed_detail;
    uint64_t lo, hi;
    shapeWords(i, &lo, &hi);
    const uint64_t id = i.id;
    const uint64_t dep0 = i.dep0;
    const uint64_t dep1 = i.dep1;
    const uint64_t dep2 = i.dep2;
    const uint64_t addr = i.addr;
    const uint64_t addr2 = i.addr2;
    const uint64_t prevId = prevId_;
    const uint64_t prevAddr = prevAddr_;

    const uint32_t idx = descIndex(lo, hi);
    ++counts()[idx];
    if (__builtin_expect(main_.size() - mainLen_ < size_t(kMaxRecordBytes),
                         0))
        main_.grow(mainLen_, mainLen_ + size_t(kMaxRecordBytes));
    uint8_t *const base = main_.data();
    uint8_t *p = base + mainLen_;

    uint64_t flags = 0;
    if (addr != 0)
        flags |= kHasAddr;
    if (addr2 != 0)
        flags |= kHasMulti;
    if (id != prevId + 1)
        flags |= kHasIdJump;
    if (dep0 != 0)
        flags |= kHasDep0;
    if (dep1 != 0)
        flags |= kHasDep1;
    if (dep2 != 0)
        flags |= kHasDep2;
    p = putVarint(p, (uint64_t(idx) << kTagFlagBits) | flags);
    if (flags & kHasIdJump)
        p = putVarint(p, zigzag(int64_t(id) - int64_t(prevId + 1)));
    if (flags & kHasDep0)
        p = putVarint(p, zigzag(int64_t(id) - int64_t(dep0)));
    if (flags & kHasDep1)
        p = putVarint(p, zigzag(int64_t(id) - int64_t(dep1)));
    if (flags & kHasDep2)
        p = putVarint(p, zigzag(int64_t(id) - int64_t(dep2)));
    if (flags & kHasAddr)
        p = putVarint(p, zigzag(int64_t(addr - prevAddr)));
    mainLen_ = size_t(p - base);
    prevId_ = id;
    prevAddr_ = addr != 0 ? addr : prevAddr;
    ++count_;

    if (flags & kHasMulti) {
        if (multi_.size() - multiLen_ < size_t(kMaxVarintBytes))
            multi_.grow(multiLen_, multiLen_ + size_t(kMaxVarintBytes));
        multiLen_ = size_t(putVarint(multi_.data() + multiLen_,
                                     zigzag(int64_t(addr2 - addr))) -
                           multi_.data());
    }
}

} // namespace swan::trace

#endif // SWAN_TRACE_PACKED_HH
