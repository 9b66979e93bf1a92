/**
 * @file
 * Sweep result cache — two tiers. An experiment point is keyed by
 * (kernel qualified name, implementation, vector width, core-config
 * fingerprint, working-set fingerprint, warm-up passes), and a finished
 * KernelRun is served to any later point with the same key without
 * re-simulation:
 *
 *   memory  in-process result map (this ResultCache's lifetime)
 *   disk    one `.swr` result / `.swtp` packed-trace file per key in
 *           the local cache directory (SWAN_SWEEP_CACHE_DIR), shared
 *           by every process pointed at it
 *
 * Under a size cap the disk tier evicts in (first-lookup order, file
 * name) order: entries this process looked up earliest go first, and
 * entries it never looked up (sequence 0) go before any of them, in
 * name order. A pure function of the lookup sequence and the directory
 * listing — never file mtimes — so a given directory state and lookup
 * sequence always prunes the same way on every platform. See
 * docs/cache.md.
 *
 * Precision of the contract: capture and simulation are deterministic
 * given the key alone — traces carry canonical addresses
 * (trace/canonical.hh), so a point's result does not depend on the
 * process, the thread or what ran before it. Byte-identity therefore
 * holds across --jobs values, across processes, and between cold,
 * partially warm and fully warm runs.
 */

#ifndef SWAN_SWEEP_CACHE_HH
#define SWAN_SWEEP_CACHE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/runner.hh"
#include "sweep/grid.hh"
#include "trace/packed.hh"
#include "trace/stats.hh"

namespace swan::sweep
{

/** Order-sensitive FNV-1a fingerprint of every timing-relevant field. */
uint64_t fingerprint(const sim::CoreConfig &cfg);
uint64_t fingerprint(const core::Options &opts);

/** FNV-1a seed shared by every 64-bit hash in the sweep engine. */
constexpr uint64_t kFnv64Seed = 1469598103934665603ull;

/**
 * Parse a non-negative decimal byte count (SWAN_SWEEP_CACHE_MAX_BYTES
 * and its CLI flag share this one parser so format rules cannot
 * drift). Rejects negatives — strtoull alone would wrap "-1"
 * to 2^64-1. @return false on null/empty/unparsable input, leaving
 * @p out untouched.
 */
bool parseByteCount(const char *s, uint64_t *out);

/** Identity of one experiment point's result. */
struct CacheKey
{
    std::string kernel;     //!< qualified name, e.g. "ZL/adler32"
    core::Impl impl = core::Impl::Neon;
    int vecBits = 128;
    uint64_t configFp = 0;
    uint64_t optionsFp = 0;
    int warmupPasses = 1;
    /**
     * 32-bit fold of sim::FaultSpec::fingerprint() (keyFor keeps it
     * nonzero for any enabled scenario); 0 = clean. Nonzero values
     * join the hash, so faulted and clean points can never collide in
     * either tier, while clean keys (and their on-disk file stems and
     * bodies) are unchanged from pre-fault builds.
     */
    uint32_t faultFp = 0;

    bool operator==(const CacheKey &o) const
    {
        return kernel == o.kernel && impl == o.impl &&
               vecBits == o.vecBits && configFp == o.configFp &&
               optionsFp == o.optionsFp &&
               warmupPasses == o.warmupPasses && faultFp == o.faultFp;
    }

    uint64_t hash() const;
    /** 16-hex-digit form of hash(); the on-disk file stem. */
    std::string hex() const;
};

CacheKey keyFor(const SweepPoint &point, int warmup_passes);

/**
 * Identity of one captured trace: the capture-relevant subset of
 * CacheKey (no core config, no warm-up count — a trace is replayed
 * against any number of configurations).
 */
struct TraceKey
{
    std::string kernel;     //!< qualified name, e.g. "ZL/adler32"
    core::Impl impl = core::Impl::Neon;
    int vecBits = 128;
    uint64_t optionsFp = 0;

    bool operator==(const TraceKey &o) const
    {
        return kernel == o.kernel && impl == o.impl &&
               vecBits == o.vecBits && optionsFp == o.optionsFp;
    }

    uint64_t hash() const;
    /** 16-hex-digit form of hash(); the on-disk file stem. */
    std::string hex() const;
};

TraceKey traceKeyFor(const SweepPoint &point);

/** Aggregate counters for one cache over its lifetime. */
struct CacheStats
{
    uint64_t hits = 0;       //!< served from the in-process map
    uint64_t diskHits = 0;   //!< served from the disk tier
    uint64_t misses = 0;     //!< absent everywhere; caller simulates
    uint64_t stores = 0;     //!< results inserted

    // Packed-trace tier.
    uint64_t traceHits = 0;   //!< capture skipped, trace read off disk
    uint64_t traceMisses = 0; //!< caller captures (and stores)
    uint64_t traceStores = 0; //!< packed traces written

    /** Disk entries pruned by the size cap (.swr + .swtp). */
    uint64_t evictions = 0;

    /** Structurally corrupt on-disk entries (bad magic, truncation,
     *  checksum mismatch) renamed to `<name>.quarantined` and served
     *  as misses. A wrong-but-well-formed entry (key echo mismatch
     *  under a hash collision) stays a plain miss — quarantine is for
     *  damaged bytes, not foreign entries. */
    uint64_t corruptEntriesQuarantined = 0;

    uint64_t total() const { return hits + diskHits + misses; }
};

/**
 * The two-tier result cache (see the file comment). Disk entries are
 * validated against the full key (not just its hash) and ignored on
 * any mismatch or parse error, so a stale or corrupt cache directory
 * degrades to a miss, never to a wrong result. Structurally damaged
 * entries (truncation, checksum mismatch, bad magic) are additionally
 * renamed to `<name>.quarantined` — counted in
 * CacheStats::corruptEntriesQuarantined — so a bad sector cannot cost
 * a validation pass on every future lookup of that key.
 */
class ResultCache
{
  public:
    /**
     * @param disk_dir       Disk tier directory; empty = memory only.
     * @param max_disk_bytes Size cap for the disk tier: after every
     *        store, entries (result .swr and packed-trace .swtp files)
     *        are removed in (first-lookup order, file name) order
     *        until the tier fits — never by mtime. 0 = unbounded.
     */
    explicit ResultCache(std::string disk_dir = {},
                         uint64_t max_disk_bytes = 0);

    /** SWAN_SWEEP_CACHE_DIR, or empty when unset. */
    static std::string envDiskDir();

    /** SWAN_SWEEP_CACHE_MAX_BYTES, or 0 when unset/unparsable. */
    static uint64_t envMaxDiskBytes();

    /** Memory-only unless SWAN_SWEEP_CACHE_DIR names a directory;
     *  capped when SWAN_SWEEP_CACHE_MAX_BYTES is set. */
    static ResultCache fromEnv()
    {
        return ResultCache(envDiskDir(), envMaxDiskBytes());
    }

    bool lookup(const CacheKey &key, core::KernelRun *out);
    void store(const CacheKey &key, const core::KernelRun &run);

    /**
     * Packed-trace tier: serve a previously captured trace from the
     * local `.swtp` file so warm reruns skip capture too (checksummed
     * and key-verified; any mismatch degrades to a miss). The entry
     * carries the trace's MixStats counter snapshot so a warm hit does
     * not have to decode the whole trace just to recount it.
     */
    bool lookupTrace(const TraceKey &key, trace::PackedTrace *out,
                     trace::MixStats *mix);
    void storeTrace(const TraceKey &key, const trace::PackedTrace &t,
                    const trace::MixStats &mix);

    const std::string &diskDir() const { return diskDir_; }
    uint64_t maxDiskBytes() const { return maxDiskBytes_; }

    /** Bytes currently held by the on-disk tier (.swr + .swtp). */
    uint64_t diskBytes() const;

    CacheStats stats() const;
    void resetStats();

  private:
    struct KeyHash
    {
        size_t operator()(const CacheKey &k) const { return k.hash(); }
    };

    /** Disk-tier lookup outcome: Corrupt means the entry's bytes are
     *  damaged (not merely foreign) — the caller quarantines it. */
    enum class DiskLoad
    {
        Miss,
        Hit,
        Corrupt,
    };

    /** Record @p key_hash's first-lookup sequence number (the eviction
     *  order) on first sight. Only a capped cache keeps the table.
     *  Called with mu_ held. */
    void noteLookupLocked(uint64_t key_hash);

    DiskLoad loadDisk(const CacheKey &key, core::KernelRun *out);
    /** @return bytes written (0 on failure), for the pruner's total. */
    uint64_t storeDisk(const CacheKey &key, const core::KernelRun &run);

    DiskLoad loadTrace(const TraceKey &key, trace::PackedTrace *out,
                       trace::MixStats *mix);

    /** Rename a damaged entry to `<path>.quarantined` so it is never
     *  re-served (still budget-counted and prunable); counts it only
     *  when this process won the rename race. Called with mu_ held. */
    void quarantineEntry(const std::string &path);

    /**
     * Enforce maxDiskBytes_ by deleting entries in (first-lookup
     * order, name) order; no-op uncapped. Keeps a running byte total
     * so the common under-cap store costs one counter update, not a
     * directory walk; the walk (and the resync with entries other
     * processes wrote) happens only when the running total crosses
     * the cap.
     */
    void pruneDisk(uint64_t stored_bytes);

    std::string diskDir_;
    uint64_t maxDiskBytes_ = 0;
    mutable std::mutex mu_;
    uint64_t diskTotal_ = 0;      //!< running on-disk byte estimate
    bool diskTotalKnown_ = false; //!< diskTotal_ seeded by a full scan
    std::unordered_map<CacheKey, core::KernelRun, KeyHash> map_;
    /** Key hash -> first-lookup sequence (1-based); capped caches only. */
    std::unordered_map<uint64_t, uint64_t> firstLookup_;
    CacheStats stats_;
};

} // namespace swan::sweep

#endif // SWAN_SWEEP_CACHE_HH
