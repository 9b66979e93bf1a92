/**
 * @file
 * Canonical trace addresses. A kernel capture records the addresses its
 * memory instructions touch, and the cache models replaying the trace
 * are address-sensitive. Real addresses depend on the host (heap
 * history, ASLR, which thread allocated), so the recorder translates
 * every address once, at record time, into a canonical layout that is
 * a pure function of the kernel's own access stream:
 *
 *  - Registered buffers (workload storage allocated through
 *    CaptureAlloc, and the Workload objects themselves) are placed in
 *    first-touch order, each at the next 64-byte-aligned base of the
 *    buffer region. A buffer is translated as a whole, so offsets (and
 *    strided or gather spans) inside it are preserved exactly.
 *  - Stack addresses become offsets from an anchor the capture takes
 *    in its own frame.
 *  - Anything else (static tables) gets first-touch page renumbering
 *    that keeps the offset within the page.
 *
 * See docs/trace.md, "Canonical addresses".
 */

#ifndef SWAN_TRACE_CANONICAL_HH
#define SWAN_TRACE_CANONICAL_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <unordered_map>

namespace swan::trace
{

/**
 * Allocate @p bytes (aligned to @p align) and record the block in the
 * process-wide capture-buffer registry. Thread-safe.
 */
void *allocCaptureBlock(size_t bytes, size_t align);

/** Release a block from allocCaptureBlock (same size and alignment). */
void freeCaptureBlock(void *p, size_t bytes, size_t align) noexcept;

/**
 * Registry lookup: the live block containing @p addr. @return false
 * when no registered block contains it; else fills its host start,
 * length and a process-unique id (never reused).
 */
bool findCaptureBlock(uint64_t addr, uint64_t *lo, uint64_t *len,
                      uint64_t *id);

/** Standard allocator whose blocks are registered capture buffers. */
template <typename T>
struct CaptureAlloc
{
    using value_type = T;

    CaptureAlloc() = default;
    template <typename U>
    CaptureAlloc(const CaptureAlloc<U> &) noexcept
    {
    }

    T *
    allocate(size_t n)
    {
        if (n > std::numeric_limits<size_t>::max() / sizeof(T))
            throw std::bad_array_new_length();
        return static_cast<T *>(allocCaptureBlock(n * sizeof(T), alignof(T)));
    }

    void
    deallocate(T *p, size_t n) noexcept
    {
        freeCaptureBlock(p, n * sizeof(T), alignof(T));
    }

    template <typename U>
    bool
    operator==(const CaptureAlloc<U> &) const noexcept
    {
        return true;
    }
};

/**
 * One capture's host-to-canonical address translation. Owned by a
 * Recorder (one per capturing thread); reset() at the start of every
 * capture, so the layout never depends on earlier captures.
 */
class AddressMap
{
  public:
    /** Registered buffers, bump-allocated upward from here. */
    static constexpr uint64_t kBufferBase = 0x100000000000ull;
    /** Renumbered pages of unregistered memory. */
    static constexpr uint64_t kPageBase = 0x200000000000ull;
    /** The stack anchor's canonical address; frames lie below it. */
    static constexpr uint64_t kStackTop = 0x300000000000ull;
    /** Buffer base alignment: one cache line. Page alignment would put
     *  every buffer at page offset 0 and alias them in the caches. */
    static constexpr uint64_t kBufferAlign = 64;
    /** How far below the anchor an address still counts as stack. */
    static constexpr uint64_t kStackWindow = 1ull << 20;
    static constexpr uint64_t kPageBytes = 4096;

    /** Start a capture; @p stack_anchor lies in the capturing frame. */
    void reset(const void *stack_anchor);

    /** Canonical address of host address @p addr. */
    uint64_t
    translate(uint64_t addr)
    {
        if (addr - ways_[mru_].lo < ways_[mru_].len)
            return addr + ways_[mru_].delta;
        for (size_t i = 0; i < kWays; ++i)
            if (addr - ways_[i].lo < ways_[i].len) {
                mru_ = i;
                return addr + ways_[i].delta;
            }
        return miss(addr);
    }

    /** Drop the translation cache (a block may have been freed). */
    void
    invalidate()
    {
        for (Way &w : ways_)
            w = Way{};
    }

  private:
    /** A host range [lo, lo + len) that translates by adding delta. */
    struct Way
    {
        uint64_t lo = 0;
        uint64_t len = 0;
        uint64_t delta = 0;
    };
    static constexpr size_t kWays = 8;

    uint64_t miss(uint64_t addr);

    Way ways_[kWays];
    size_t mru_ = 0;
    size_t victim_ = 0;
    uint64_t anchor_ = 0;
    uint64_t nextBuffer_ = kBufferBase;
    uint64_t nextPage_ = kPageBase;
    std::unordered_map<uint64_t, uint64_t> buffers_; //!< block id -> base
    std::unordered_map<uint64_t, uint64_t> pages_;   //!< host -> canonical
};

} // namespace swan::trace

#endif // SWAN_TRACE_CANONICAL_HH
