/**
 * @file
 * Allocator for the core models' large state arrays (cache lines, the
 * ready ring, issue slots). Freed blocks of 64 KiB or more go
 * to a small per-thread free list and serve the next allocation of the
 * same size. A sweep worker builds fresh core models for every unit it
 * replays, between captures and trace-tier traffic on the same thread;
 * without reuse the allocator hands the multi-megabyte arrays back to
 * the kernel and every unit faults them in again.
 */

#ifndef SWAN_SIM_REUSE_ALLOC_HH
#define SWAN_SIM_REUSE_ALLOC_HH

#include <cstddef>
#include <limits>
#include <new>

namespace swan::sim
{

/** operator new, or a same-size block this thread freed before. */
void *reuseAllocate(size_t bytes);

/** Keep @p p for reuse on this thread, or operator delete it. */
void reuseDeallocate(void *p, size_t bytes) noexcept;

template <typename T>
struct ReuseAlloc
{
    using value_type = T;

    ReuseAlloc() = default;
    template <typename U>
    ReuseAlloc(const ReuseAlloc<U> &) noexcept
    {
    }

    T *
    allocate(size_t n)
    {
        if (n > std::numeric_limits<size_t>::max() / sizeof(T))
            throw std::bad_array_new_length();
        return static_cast<T *>(reuseAllocate(n * sizeof(T)));
    }

    void
    deallocate(T *p, size_t n) noexcept
    {
        reuseDeallocate(p, n * sizeof(T));
    }

    template <typename U>
    bool
    operator==(const ReuseAlloc<U> &) const noexcept
    {
        return true;
    }
};

} // namespace swan::sim

#endif // SWAN_SIM_REUSE_ALLOC_HH
