#include "trace/canonical.hh"

#include <algorithm>
#include <map>
#include <mutex>
#include <shared_mutex>

#include "trace/recorder.hh"

namespace swan::trace
{

namespace
{

struct Block
{
    uint64_t len;
    uint64_t id;
};

/** Every live capture buffer, keyed by host start address. */
struct Registry
{
    std::shared_mutex mu;
    std::map<uint64_t, Block> blocks; //!< guarded by mu
    uint64_t nextId = 1;              //!< guarded by mu
};

Registry &
registry()
{
    // Never destroyed: buffers with static storage duration may be
    // freed after this function's statics would have been.
    static Registry *r = new Registry;
    return *r;
}

size_t
blockAlign(size_t align)
{
    return std::max(align, size_t(__STDCPP_DEFAULT_NEW_ALIGNMENT__));
}

} // namespace

void *
allocCaptureBlock(size_t bytes, size_t align)
{
    void *p = ::operator new(bytes, std::align_val_t(blockAlign(align)));
    Registry &r = registry();
    std::unique_lock<std::shared_mutex> lock(r.mu);
    r.blocks[reinterpret_cast<uint64_t>(p)] = Block{bytes, r.nextId++};
    return p;
}

void
freeCaptureBlock(void *p, size_t bytes, size_t align) noexcept
{
    if (!p)
        return;
    {
        Registry &r = registry();
        std::unique_lock<std::shared_mutex> lock(r.mu);
        r.blocks.erase(reinterpret_cast<uint64_t>(p));
    }
    // A later block may reuse this range; a capture running on this
    // thread must not keep translating it as the freed block.
    if (Recorder *rec = currentRecorder())
        rec->invalidateTranslations();
    ::operator delete(p, bytes, std::align_val_t(blockAlign(align)));
}

bool
findCaptureBlock(uint64_t addr, uint64_t *lo, uint64_t *len, uint64_t *id)
{
    Registry &r = registry();
    std::shared_lock<std::shared_mutex> lock(r.mu);
    auto it = r.blocks.upper_bound(addr);
    if (it == r.blocks.begin())
        return false;
    --it;
    if (addr - it->first >= it->second.len)
        return false;
    *lo = it->first;
    *len = it->second.len;
    *id = it->second.id;
    return true;
}

void
AddressMap::reset(const void *stack_anchor)
{
    invalidate();
    mru_ = 0;
    victim_ = 0;
    anchor_ = reinterpret_cast<uint64_t>(stack_anchor);
    nextBuffer_ = kBufferBase;
    nextPage_ = kPageBase;
    buffers_.clear();
    pages_.clear();
}

uint64_t
AddressMap::miss(uint64_t addr)
{
    Way w;
    uint64_t lo = 0, len = 0, id = 0;
    const uint64_t page = addr & ~(kPageBytes - 1);
    if (findCaptureBlock(addr, &lo, &len, &id)) {
        auto [it, fresh] = buffers_.try_emplace(id, nextBuffer_);
        if (fresh)
            nextBuffer_ = (nextBuffer_ + len + kBufferAlign - 1) &
                          ~(kBufferAlign - 1);
        w = {lo, len, it->second - lo};
    } else if (addr <= anchor_ ? anchor_ - addr < kStackWindow
                               : addr - anchor_ < kPageBytes) {
        w = {page, kPageBytes, kStackTop - anchor_};
    } else {
        auto [it, fresh] = pages_.try_emplace(page, nextPage_);
        if (fresh)
            nextPage_ += kPageBytes;
        w = {page, kPageBytes, it->second - page};
    }
    ways_[victim_] = w;
    mru_ = victim_;
    victim_ = (victim_ + 1) % kWays;
    return addr + w.delta;
}

} // namespace swan::trace
