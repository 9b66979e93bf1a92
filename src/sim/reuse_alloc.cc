#include "sim/reuse_alloc.hh"

#include <vector>

namespace swan::sim
{

namespace
{

constexpr size_t kMinReuseBytes = size_t(64) << 10;
constexpr size_t kMaxSpareBlocks = 32;

struct Block
{
    void *p;
    size_t bytes;
};

/** This thread's spare blocks, oldest first; freed at thread exit. */
struct SpareBlocks
{
    std::vector<Block> blocks;

    ~SpareBlocks()
    {
        for (const Block &b : blocks)
            ::operator delete(b.p, b.bytes);
    }
};

SpareBlocks &
spare()
{
    static thread_local SpareBlocks s;
    return s;
}

} // namespace

void *
reuseAllocate(size_t bytes)
{
    if (bytes >= kMinReuseBytes) {
        auto &blocks = spare().blocks;
        for (size_t i = blocks.size(); i-- > 0;)
            if (blocks[i].bytes == bytes) {
                void *p = blocks[i].p;
                blocks.erase(blocks.begin() + std::ptrdiff_t(i));
                return p;
            }
    }
    return ::operator new(bytes);
}

void
reuseDeallocate(void *p, size_t bytes) noexcept
{
    if (!p)
        return;
    if (bytes < kMinReuseBytes) {
        ::operator delete(p, bytes);
        return;
    }
    auto &blocks = spare().blocks;
    if (blocks.size() == kMaxSpareBlocks) {
        ::operator delete(blocks.front().p, blocks.front().bytes);
        blocks.erase(blocks.begin());
    }
    blocks.push_back({p, bytes});
}

} // namespace swan::sim
