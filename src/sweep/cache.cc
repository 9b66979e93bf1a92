#include "sweep/cache.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

#include "obs/telemetry.hh"
#include "trace/checksum.hh"

namespace swan::sweep
{

namespace
{

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

struct Fnv
{
    uint64_t h = kFnvOffset;

    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= kFnvPrime;
        }
    }
    void u64(uint64_t v) { bytes(&v, sizeof v); }
    void i32(int32_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }
    void b(bool v) { u64(v ? 1 : 0); }
    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
};

void
hashCache(Fnv &f, const sim::CacheConfig &c)
{
    f.i32(c.sizeBytes);
    f.i32(c.ways);
    f.i32(c.lineBytes);
    f.i32(c.latency);
    f.b(c.nextLinePrefetch);
}

/** v1 on-disk entry format version. */
constexpr const char *kMagic = "swan-sweep-result v1";

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Doubles round-trip bit-exactly as hexfloat. */
std::string
f64str(double v)
{
    std::ostringstream os;
    os << std::hexfloat << v;
    return os.str();
}

/**
 * Parse the leading 16-hex-digit stem of a cache entry file name back
 * into its key hash, the join between on-disk entries and the
 * first-lookup table. False for foreign names (which then carry
 * sequence 0 and age out first).
 */
bool
parseStemHash(const std::string &name, uint64_t *out)
{
    if (name.size() < 16)
        return false;
    uint64_t h = 0;
    for (int i = 0; i < 16; ++i) {
        const char c = name[i];
        uint64_t d = 0;
        if (c >= '0' && c <= '9')
            d = uint64_t(c - '0');
        else if (c >= 'a' && c <= 'f')
            d = uint64_t(c - 'a') + 10;
        else
            return false;
        h = (h << 4) | d;
    }
    *out = h;
    return true;
}

/**
 * Open a cache entry for reading and measure it through the open
 * stream, not the path: a store renaming a new entry into place
 * between the two cannot pair one file's size with another's bytes
 * (which would fail the checksum and quarantine a valid entry).
 * False when the file is absent or cannot be measured.
 */
bool
openSized(const std::filesystem::path &path, std::ifstream &in,
          uint64_t *size)
{
    in.open(path, std::ios::binary);
    if (!in)
        return false;
    in.seekg(0, std::ios::end);
    const std::streamoff end = in.tellg();
    in.seekg(0, std::ios::beg);
    if (end < 0 || !in)
        return false;
    *size = uint64_t(end);
    return true;
}

} // namespace

uint64_t
fingerprint(const sim::CoreConfig &cfg)
{
    Fnv f;
    f.str(cfg.name);
    f.f64(cfg.freqGHz);
    f.b(cfg.outOfOrder);
    f.i32(cfg.robSize);
    f.i32(cfg.decodeWidth);
    f.i32(cfg.issueWidth);
    f.i32(cfg.commitWidth);
    f.i32(cfg.vecBits);
    for (int n : cfg.fuCount)
        f.i32(n);
    f.i32(cfg.mshrs);
    hashCache(f, cfg.l1d);
    hashCache(f, cfg.l2);
    hashCache(f, cfg.llc);
    f.f64(cfg.dramLatencyNs);
    f.f64(cfg.dramGBs);
    f.f64(cfg.l2ServiceCycles);
    f.f64(cfg.llcServiceCycles);
    f.f64(cfg.branchMispredictRate);
    f.i32(cfg.branchPenalty);
    f.i32(cfg.lsuCrackPerCycle);
    return f.h;
}

uint64_t
fingerprint(const core::Options &opts)
{
    Fnv f;
    f.i32(opts.imageWidth);
    f.i32(opts.imageHeight);
    f.i32(opts.audioSamples);
    f.i32(opts.audioFrame);
    f.i32(opts.bufferBytes);
    f.i32(opts.gemmM);
    f.i32(opts.gemmN);
    f.i32(opts.gemmK);
    f.f64(opts.spmmSparsity);
    f.i32(opts.videoBlocks);
    f.u64(opts.seed);
    return f.h;
}

uint64_t
CacheKey::hash() const
{
    Fnv f;
    f.str(kernel);
    f.i32(int(impl));
    f.i32(vecBits);
    f.u64(configFp);
    f.u64(optionsFp);
    f.i32(warmupPasses);
    // Clean points (faultFp == 0) hash exactly as they did before the
    // fault axis existed, so pre-fault disk tiers keep their hits;
    // faulted points get a disjoint hash (and file stem).
    if (faultFp)
        f.u64(faultFp);
    return f.h;
}

std::string
CacheKey::hex() const
{
    return hex64(hash());
}

CacheKey
keyFor(const SweepPoint &point, int warmup_passes)
{
    CacheKey k;
    k.kernel = point.spec->info.qualifiedName();
    k.impl = point.impl;
    k.vecBits = point.vecBits;
    k.configFp = fingerprint(point.config);
    k.optionsFp = fingerprint(point.options);
    k.warmupPasses = warmup_passes;
    // XOR-fold the 64-bit fingerprint; pin nonzero so an enabled
    // scenario can never alias the clean key even if the fold lands
    // on zero.
    const uint64_t fp = point.fault().fingerprint();
    k.faultFp = uint32_t(fp) ^ uint32_t(fp >> 32);
    if (fp != 0 && k.faultFp == 0)
        k.faultFp = 1;
    return k;
}

uint64_t
TraceKey::hash() const
{
    Fnv f;
    f.str("trace"); // never collides with a CacheKey file stem
    f.str(kernel);
    f.i32(int(impl));
    f.i32(vecBits);
    f.u64(optionsFp);
    return f.h;
}

std::string
TraceKey::hex() const
{
    return hex64(hash());
}

TraceKey
traceKeyFor(const SweepPoint &point)
{
    // No fault field: faults perturb replay, never capture, so faulted
    // and clean points share one captured trace.
    TraceKey k;
    k.kernel = point.spec->info.qualifiedName();
    k.impl = point.impl;
    k.vecBits = point.vecBits;
    k.optionsFp = fingerprint(point.options);
    return k;
}

ResultCache::ResultCache(std::string disk_dir, uint64_t max_disk_bytes)
    : diskDir_(std::move(disk_dir)), maxDiskBytes_(max_disk_bytes)
{
    if (!diskDir_.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(diskDir_, ec);
        if (ec)
            diskDir_.clear(); // unusable directory: memory-only
    }
}

std::string
ResultCache::envDiskDir()
{
    const char *v = std::getenv("SWAN_SWEEP_CACHE_DIR");
    return v ? std::string(v) : std::string();
}

bool
parseByteCount(const char *s, uint64_t *out)
{
    if (!s || !*s || *s == '-')
        return false;
    char *end = nullptr;
    const unsigned long long n = std::strtoull(s, &end, 10);
    if (!end || *end != '\0')
        return false;
    *out = uint64_t(n);
    return true;
}

uint64_t
ResultCache::envMaxDiskBytes()
{
    uint64_t n = 0;
    parseByteCount(std::getenv("SWAN_SWEEP_CACHE_MAX_BYTES"), &n);
    return n;
}

void
ResultCache::noteLookupLocked(uint64_t key_hash)
{
    // Only the capped pruner reads the order.
    if (maxDiskBytes_)
        firstLookup_.emplace(key_hash, firstLookup_.size() + 1);
}

bool
ResultCache::lookup(const CacheKey &key, core::KernelRun *out)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        noteLookupLocked(key.hash());
        auto it = map_.find(key);
        if (it != map_.end()) {
            *out = it->second;
            ++stats_.hits;
            return true;
        }
    }
    if (!diskDir_.empty()) {
        switch (loadDisk(key, out)) {
        case DiskLoad::Hit: {
            std::lock_guard<std::mutex> lock(mu_);
            map_.emplace(key, *out);
            ++stats_.diskHits;
            return true;
        }
        case DiskLoad::Corrupt: {
            std::lock_guard<std::mutex> lock(mu_);
            quarantineEntry((std::filesystem::path(diskDir_) /
                             (key.hex() + ".swr"))
                                .string());
            break;
        }
        case DiskLoad::Miss:
            break;
        }
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    return false;
}

void
ResultCache::store(const CacheKey &key, const core::KernelRun &run)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        map_.insert_or_assign(key, run);
        ++stats_.stores;
    }
    if (!diskDir_.empty())
        pruneDisk(storeDisk(key, run));
}

void
ResultCache::quarantineEntry(const std::string &path)
{
    // Rename, never delete: the damaged bytes stay on disk for
    // post-mortem, out of the lookup namespace. The rename is the
    // cross-process race arbiter — every process that trips over the
    // same bad entry tries it, exactly one succeeds and counts it.
    std::error_code ec;
    std::filesystem::rename(path, path + ".quarantined", ec);
    if (!ec)
        ++stats_.corruptEntriesQuarantined;
}

CacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
ResultCache::resetStats()
{
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = CacheStats{};
}

namespace
{

/** v3 on-disk packed-trace entry: a small prefix — magic, version,
 *  tier checksum, key echo, mix counters, payload header — then the
 *  payload body, the trace's own buffer. Every byte is checksummed
 *  exactly once: the tier checksum covers everything after itself in
 *  the prefix (so a flipped counter byte quarantines the entry instead
 *  of skewing a warm run's instruction mix), and the payload header's
 *  own checksum covers the body. An entry of an older version is a
 *  miss, overwritten by the next store. */
constexpr char kTraceMagic[4] = {'S', 'W', 'T', 'P'};
constexpr uint32_t kTraceTierVersion = 3;

/** Bytes before the region the tier checksum covers: magic, version
 *  and the checksum itself. */
constexpr size_t kTraceSumEnd = 4 + sizeof(uint32_t) + sizeof(uint64_t);

template <typename T>
void
appendRaw(std::string *out, T v)
{
    out->append(reinterpret_cast<const char *>(&v), sizeof v);
}

/** Copy a T out of @p buf at @p *at and advance past it; the caller
 *  has sized @p buf. */
template <typename T>
void
readRaw(const std::string &buf, size_t *at, T *v)
{
    std::memcpy(v, buf.data() + *at, sizeof(T));
    *at += sizeof(T);
}

/** Write one packed-trace entry to `<dir>/<stem>.swtp` (write-then-
 *  rename): the prefix built in memory, then the trace's buffer
 *  straight from the trace. @return bytes written, 0 on failure. */
uint64_t
writeTraceEntry(const std::string &dir_s, const TraceKey &key,
                const trace::PackedTrace &t, const trace::MixStats &mix)
{
    const auto counters = mix.counters();
    std::string prefix;
    prefix.append(kTraceMagic, 4);
    appendRaw(&prefix, kTraceTierVersion);
    appendRaw(&prefix, uint64_t(0)); // tier checksum, patched below
    appendRaw(&prefix, uint32_t(key.kernel.size()));
    prefix.append(key.kernel);
    appendRaw(&prefix, int32_t(key.impl));
    appendRaw(&prefix, int32_t(key.vecBits));
    appendRaw(&prefix, key.optionsFp);
    appendRaw(&prefix, uint32_t(counters.size()));
    for (uint64_t v : counters)
        appendRaw(&prefix, v);
    const auto header = t.payloadHeader();
    prefix.append(reinterpret_cast<const char *>(header.data()),
                  header.size());
    const uint64_t sum = trace::checksum64(prefix.data() + kTraceSumEnd,
                                           prefix.size() - kTraceSumEnd);
    std::memcpy(prefix.data() + kTraceSumEnd - sizeof sum, &sum,
                sizeof sum);

    const auto dir = std::filesystem::path(dir_s);
    const auto path = dir / (key.hex() + ".swtp");
    // Write-then-rename so concurrent readers never see a torn entry.
    const auto tmp = dir / (key.hex() + ".swtp.tmp");
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return 0;
        os.write(prefix.data(), std::streamsize(prefix.size()));
        os.write(reinterpret_cast<const char *>(t.payloadBody()),
                 std::streamsize(t.byteSize()));
        if (!os)
            return 0;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return 0;
    }
    return prefix.size() + t.byteSize();
}

} // namespace

bool
ResultCache::lookupTrace(const TraceKey &key, trace::PackedTrace *out,
                         trace::MixStats *mix)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        noteLookupLocked(key.hash());
    }
    if (!diskDir_.empty()) {
        switch (loadTrace(key, out, mix)) {
        case DiskLoad::Hit: {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.traceHits;
            return true;
        }
        case DiskLoad::Corrupt: {
            std::lock_guard<std::mutex> lock(mu_);
            quarantineEntry((std::filesystem::path(diskDir_) /
                             (key.hex() + ".swtp"))
                                .string());
            break;
        }
        case DiskLoad::Miss:
            break;
        }
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.traceMisses;
    return false;
}

ResultCache::DiskLoad
ResultCache::loadTrace(const TraceKey &key, trace::PackedTrace *out,
                       trace::MixStats *mix)
{
    const auto path =
        std::filesystem::path(diskDir_) / (key.hex() + ".swtp");
    std::ifstream in;
    uint64_t size = 0;
    if (!openSized(path, in, &size))
        return DiskLoad::Miss;

    // Sized reads bounded by the file size. Running past the end is
    // truncation (corrupt); a failed read of bytes that are there is
    // an I/O error, and such bytes cannot be judged (miss).
    uint64_t left = size;
    bool unreadable = false;
    const auto take = [&](void *dst, size_t n) {
        if (left < n)
            return false;
        if (!in.read(static_cast<char *>(dst), std::streamsize(n))) {
            unreadable = true;
            return false;
        }
        left -= n;
        return true;
    };
    const auto damaged = [&] {
        return unreadable ? DiskLoad::Miss : DiskLoad::Corrupt;
    };

    char magic[4];
    uint32_t version = 0;
    if (!take(magic, 4) || std::memcmp(magic, kTraceMagic, 4) != 0 ||
        !take(&version, sizeof version))
        return damaged();
    // An older format is stale, not damaged: a miss, overwritten by
    // the next store. An unknown version is corruption.
    if (version != kTraceTierVersion)
        return version != 0 && version < kTraceTierVersion ? DiskLoad::Miss
                                                            : damaged();
    uint64_t want = 0;
    if (!take(&want, sizeof want))
        return damaged();

    // The checksummed prefix, grown field by field: its two length
    // fields are read (bounds-checked) before the checksum, nothing
    // else is.
    std::string prefix;
    const auto extend = [&](size_t n) {
        const size_t from = prefix.size();
        if (left < n)
            return false;
        prefix.resize(from + n);
        return take(prefix.data() + from, n);
    };
    uint32_t kernelLen = 0;
    uint32_t mixLen = 0;
    size_t at = 0;
    if (!extend(sizeof kernelLen))
        return damaged();
    readRaw(prefix, &at, &kernelLen);
    // The key echo's tail (impl, vecBits, optionsFp), then mixLen.
    if (!extend(size_t(kernelLen) + 2 * sizeof(int32_t) + sizeof(uint64_t) +
                sizeof mixLen))
        return damaged();
    at = prefix.size() - sizeof mixLen;
    readRaw(prefix, &at, &mixLen);
    if (!extend(size_t(mixLen) * sizeof(uint64_t) +
                trace::PackedTrace::kPayloadHeaderBytes))
        return damaged();
    if (trace::checksum64(prefix.data(), prefix.size()) != want)
        return DiskLoad::Corrupt;

    // Key echo: a hash collision or stale rename must read as a miss.
    at = sizeof kernelLen;
    TraceKey seen;
    seen.kernel.assign(prefix.data() + at, kernelLen);
    at += kernelLen;
    int32_t impl = -1;
    readRaw(prefix, &at, &impl);
    readRaw(prefix, &at, &seen.vecBits);
    readRaw(prefix, &at, &seen.optionsFp);
    seen.impl = core::Impl(impl);
    if (!(seen == key))
        return DiskLoad::Miss;
    // Mix counter snapshot, so a warm hit skips a full trace decode.
    at += sizeof(uint32_t);
    std::vector<uint64_t> counters(mixLen);
    for (auto &v : counters)
        readRaw(prefix, &at, &v);
    trace::MixStats seenMix;
    if (!trace::MixStats::fromCounters(counters, &seenMix))
        return DiskLoad::Corrupt;
    // The body goes straight into the trace's buffer; the payload
    // header's checksum verifies it there.
    const auto *header =
        reinterpret_cast<const uint8_t *>(prefix.data() + at);
    if (!trace::PackedTrace::readPayload(header, in, left, out))
        return in ? DiskLoad::Corrupt : DiskLoad::Miss;
    *mix = seenMix;
    return DiskLoad::Hit;
}

void
ResultCache::storeTrace(const TraceKey &key, const trace::PackedTrace &t,
                        const trace::MixStats &mix)
{
    if (diskDir_.empty())
        return;
    const uint64_t wrote = writeTraceEntry(diskDir_, key, t, mix);
    if (!wrote)
        return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.traceStores;
    }
    pruneDisk(wrote);
}

namespace
{

/** True for the pruner's unit of accounting: .swr results, .swtp
 *  packed traces, and .quarantined corpses (never served, but they
 *  hold disk and age out under the same cap). Temporaries
 *  (.tmp) and foreign files are ignored. */
bool
isCacheEntry(const std::filesystem::path &p)
{
    const auto ext = p.extension();
    return ext == ".swr" || ext == ".swtp" || ext == ".quarantined";
}

} // namespace

uint64_t
ResultCache::diskBytes() const
{
    if (diskDir_.empty())
        return 0;
    uint64_t total = 0;
    std::error_code ec;
    for (std::filesystem::directory_iterator
             it(diskDir_, ec),
         end;
         !ec && it != end; it.increment(ec)) {
        if (!isCacheEntry(it->path()))
            continue;
        std::error_code fec;
        const auto size = std::filesystem::file_size(it->path(), fec);
        if (!fec)
            total += size;
    }
    return total;
}

void
ResultCache::pruneDisk(uint64_t stored_bytes)
{
    if (diskDir_.empty() || maxDiskBytes_ == 0)
        return;

    // Fast path: bump the running total and skip the directory walk
    // while it stays under the cap. Entries written by other processes
    // are only picked up at the next full scan, so a shared capped
    // directory can transiently overshoot by what the neighbors wrote
    // since this process last scanned.
    uint64_t baseline = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (diskTotalKnown_) {
            diskTotal_ += stored_bytes;
            if (diskTotal_ <= maxDiskBytes_)
                return;
        }
        baseline = diskTotal_;
    }

    struct Entry
    {
        uint64_t seq = 0;
        uint64_t size = 0;
        std::string name;
    };
    std::vector<Entry> entries;
    uint64_t total = 0;
    std::error_code ec;
    for (std::filesystem::directory_iterator
             it(diskDir_, ec),
         end;
         !ec && it != end; it.increment(ec)) {
        const auto &p = it->path();
        if (!isCacheEntry(p))
            continue;
        std::error_code fec;
        Entry e;
        e.size = std::filesystem::file_size(p, fec);
        if (fec)
            continue;
        e.name = p.filename().string();
        total += e.size;
        entries.push_back(std::move(e));
    }
    {
        // Join each entry to its first-lookup record via the
        // file-name stem. Entries this process never looked up (and
        // foreign stems) stay 0: they age out first, in name order.
        std::lock_guard<std::mutex> lock(mu_);
        for (Entry &e : entries) {
            uint64_t stem = 0;
            if (parseStemHash(e.name, &stem)) {
                const auto it = firstLookup_.find(stem);
                if (it != firstLookup_.end())
                    e.seq = it->second;
            }
        }
    }
    // Resync the estimate. Stores racing with the scan bumped
    // diskTotal_ past `baseline`; re-apply that delta on top of the
    // scanned total (their files may also have been seen by the scan,
    // so this can double-count — a deliberate over-estimate: the worst
    // case is one extra scan, never a missed cap violation).
    const auto resync = [&](uint64_t scanned) {
        std::lock_guard<std::mutex> lock(mu_);
        diskTotal_ = scanned + (diskTotal_ - baseline);
        diskTotalKnown_ = true;
    };
    if (total <= maxDiskBytes_) {
        resync(total);
        return;
    }

    // (first-lookup order, name): a pure function of the lookup
    // sequence and the listing — never file mtimes, whose coarse,
    // filesystem-dependent clocks would make two runs of the same
    // command prune different entries (and whose reads the nondet
    // lint rejects in this file).
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.seq != b.seq)
                      return a.seq < b.seq;
                  return a.name < b.name;
              });

    const auto dir = std::filesystem::path(diskDir_);
    uint64_t evicted = 0;
    obs::Span span(obs::Phase::Demote);
    for (const auto &e : entries) {
        if (total <= maxDiskBytes_)
            break;
        std::error_code rec;
        // A concurrent process may have removed it already; only count
        // (and discount) files this call actually deleted.
        if (std::filesystem::remove(dir / e.name, rec) && !rec) {
            total -= e.size;
            ++evicted;
            span.addArg(e.size);
        }
    }
    span.close();
    resync(total);
    std::lock_guard<std::mutex> lock(mu_);
    stats_.evictions += evicted;
}

ResultCache::DiskLoad
ResultCache::loadDisk(const CacheKey &key, core::KernelRun *out)
{
    const auto path =
        std::filesystem::path(diskDir_) / (key.hex() + ".swr");
    std::string buf;
    {
        std::ifstream raw;
        uint64_t size = 0;
        if (!openSized(path, raw, &size))
            return DiskLoad::Miss; // absent: the ordinary cold-cache case
        buf.resize(size_t(size));
        if (!raw.read(buf.data(), std::streamsize(size)))
            return DiskLoad::Miss; // unreadable: cannot judge the bytes
    }

    size_t bodyStart = buf.find('\n');
    if (bodyStart == std::string::npos ||
        buf.compare(0, bodyStart, kMagic) != 0)
        return DiskLoad::Corrupt;
    ++bodyStart;
    // Self-checksum line (entries written since the quarantine tier;
    // older entries simply lack it and skip verification): FNV-1a over
    // every byte after this line, so any flipped bit or truncation in
    // the body is detected before a field of it is trusted.
    constexpr std::string_view kChecksumTag = "checksum ";
    if (buf.compare(bodyStart, kChecksumTag.size(), kChecksumTag) == 0) {
        const size_t eol = buf.find('\n', bodyStart);
        if (eol == std::string::npos)
            return DiskLoad::Corrupt;
        const std::string cs = buf.substr(
            bodyStart + kChecksumTag.size(),
            eol - bodyStart - kChecksumTag.size());
        char *endp = nullptr;
        const uint64_t want = std::strtoull(cs.c_str(), &endp, 16);
        if (endp == cs.c_str() || *endp != '\0')
            return DiskLoad::Corrupt;
        bodyStart = eol + 1;
        Fnv f;
        f.bytes(buf.data() + bodyStart, buf.size() - bodyStart);
        if (f.h != want)
            return DiskLoad::Corrupt;
    }

    std::istringstream in(buf.substr(bodyStart));
    std::string line;
    core::KernelRun run;
    CacheKey seen;
    std::vector<uint64_t> mixFlat;
    bool haveMix = false;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string tag;
        if (!(ls >> tag))
            continue;
        auto &s = run.sim;
        const auto rd = [&ls](auto &field) { ls >> field; };
        // istream extraction does not accept hexfloat; go via strtod.
        const auto rdf = [&ls](double &field) {
            std::string tok;
            if (ls >> tok)
                field = std::strtod(tok.c_str(), nullptr);
        };
        if (tag == "kernel")
            rd(seen.kernel);
        else if (tag == "impl") {
            int v = -1;
            ls >> v;
            seen.impl = core::Impl(v);
        } else if (tag == "vec_bits")
            rd(seen.vecBits);
        else if (tag == "config_fp")
            ls >> std::hex >> seen.configFp >> std::dec;
        else if (tag == "options_fp")
            ls >> std::hex >> seen.optionsFp >> std::dec;
        else if (tag == "warmup")
            rd(seen.warmupPasses);
        else if (tag == "fault_fp")
            ls >> std::hex >> seen.faultFp >> std::dec;
        else if (tag == "sim.config")
            rd(s.config);
        else if (tag == "sim.instrs")
            rd(s.instrs);
        else if (tag == "sim.cycles")
            rd(s.cycles);
        else if (tag == "sim.ipc")
            rdf(s.ipc);
        else if (tag == "sim.time_sec")
            rdf(s.timeSec);
        else if (tag == "sim.l1_mpki")
            rdf(s.l1Mpki);
        else if (tag == "sim.l2_mpki")
            rdf(s.l2Mpki);
        else if (tag == "sim.llc_mpki")
            rdf(s.llcMpki);
        else if (tag == "sim.l1_hit_rate")
            rdf(s.l1HitRate);
        else if (tag == "sim.fe_stall_pct")
            rdf(s.feStallPct);
        else if (tag == "sim.be_stall_pct")
            rdf(s.beStallPct);
        else if (tag == "sim.dram_reads")
            rd(s.dramReads);
        else if (tag == "sim.dram_writes")
            rd(s.dramWrites);
        else if (tag == "sim.dram_per_kcycle")
            rdf(s.dramAccessPerKCycle);
        else if (tag == "sim.by_class") {
            for (auto &v : s.byClass)
                ls >> v;
        } else if (tag == "sim.vec_bytes")
            rd(s.vecBytes);
        else if (tag == "sim.l1_accesses")
            rd(s.l1Accesses);
        else if (tag == "sim.l2_accesses")
            rd(s.l2Accesses);
        else if (tag == "sim.llc_accesses")
            rd(s.llcAccesses);
        else if (tag == "sim.energy_j")
            rdf(s.energyJ);
        else if (tag == "sim.power_w")
            rdf(s.powerW);
        else if (tag == "mix") {
            uint64_t v;
            while (ls >> v)
                mixFlat.push_back(v);
            haveMix = true;
        }
    }
    // Structural damage first (a checksum-less legacy entry truncated
    // mid-body lands here), then the key echo: a hash collision or
    // stale rename is a foreign-but-intact entry — a plain miss.
    if (!haveMix || !trace::MixStats::fromCounters(mixFlat, &run.mix))
        return DiskLoad::Corrupt;
    if (!(seen == key))
        return DiskLoad::Miss;
    *out = run;
    return DiskLoad::Hit;
}

uint64_t
ResultCache::storeDisk(const CacheKey &key, const core::KernelRun &run)
{
    const auto dir = std::filesystem::path(diskDir_);
    const auto path = dir / (key.hex() + ".swr");
    // Write-then-rename so concurrent readers never see a torn entry.
    const auto tmp = dir / (key.hex() + ".tmp");
    // The body is built in memory first so the header can carry its
    // FNV-1a self-checksum (what loadDisk verifies before trusting a
    // single field).
    std::ostringstream os;
    {
        const auto &s = run.sim;
        os << "kernel " << key.kernel << "\n"
           << "impl " << int(key.impl) << "\n"
           << "vec_bits " << key.vecBits << "\n"
           << "config_fp " << hex64(key.configFp) << "\n"
           << "options_fp " << hex64(key.optionsFp) << "\n"
           << "warmup " << key.warmupPasses << "\n";
        // Written only for faulted keys: clean .swr bodies stay
        // byte-identical to pre-fault builds (the reader treats a
        // missing tag as faultFp 0).
        if (key.faultFp)
            os << "fault_fp " << hex64(uint64_t(key.faultFp)) << "\n";
        os << "sim.config " << s.config << "\n"
           << "sim.instrs " << s.instrs << "\n"
           << "sim.cycles " << s.cycles << "\n"
           << "sim.ipc " << f64str(s.ipc) << "\n"
           << "sim.time_sec " << f64str(s.timeSec) << "\n"
           << "sim.l1_mpki " << f64str(s.l1Mpki) << "\n"
           << "sim.l2_mpki " << f64str(s.l2Mpki) << "\n"
           << "sim.llc_mpki " << f64str(s.llcMpki) << "\n"
           << "sim.l1_hit_rate " << f64str(s.l1HitRate) << "\n"
           << "sim.fe_stall_pct " << f64str(s.feStallPct) << "\n"
           << "sim.be_stall_pct " << f64str(s.beStallPct) << "\n"
           << "sim.dram_reads " << s.dramReads << "\n"
           << "sim.dram_writes " << s.dramWrites << "\n"
           << "sim.dram_per_kcycle " << f64str(s.dramAccessPerKCycle)
           << "\n";
        os << "sim.by_class";
        for (auto v : s.byClass)
            os << " " << v;
        os << "\n"
           << "sim.vec_bytes " << s.vecBytes << "\n"
           << "sim.l1_accesses " << s.l1Accesses << "\n"
           << "sim.l2_accesses " << s.l2Accesses << "\n"
           << "sim.llc_accesses " << s.llcAccesses << "\n"
           << "sim.energy_j " << f64str(s.energyJ) << "\n"
           << "sim.power_w " << f64str(s.powerW) << "\n";
        os << "mix";
        for (auto v : run.mix.counters())
            os << " " << v;
        os << "\n";
    }
    const std::string body = os.str();
    Fnv sum;
    sum.bytes(body.data(), body.size());
    {
        std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
        if (!f)
            return 0;
        f << kMagic << "\n"
          << "checksum " << hex64(sum.h) << "\n";
        f.write(body.data(), std::streamsize(body.size()));
        if (!f)
            return 0;
    }
    std::error_code ec;
    const auto size = std::filesystem::file_size(tmp, ec);
    const uint64_t written = ec ? 0 : uint64_t(size);
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return 0;
    }
    return written;
}

} // namespace swan::sweep
