/**
 * @file
 * swanbench: the end-to-end and per-layer benchmark of swan, written
 * against the public include/swan/ surface only.
 *
 *   swanbench --workload W --seed N --seconds S --trace 0|1 --work-dir D
 *   swanbench --selfcheck --work-dir D
 *
 * Workloads (all grids cover the 59 headline kernels):
 *
 *   cold_fig02    {Scalar, Auto, Neon} x prime, `default` working set,
 *                 every sweep against a fresh empty on-disk cache dir
 *   fanout_sweep  {Scalar, Neon} x nine core configs, `scalability`
 *                 working set, memory-only cache (no disk I/O)
 *   warm_rerun    {Scalar, Auto, Neon} x {silver, gold, prime}, `tiny`
 *                 working set; set-up populates a cache dir, then every
 *                 sweep is a fully warm rerun through a fresh Session
 *
 * One sweep is sweep::expand -> sweep::runSweep(points,
 * session.schedulerConfig()) -> Results::emit (JSON lines), the engine
 * path Experiment::run() takes. Load is closed-loop: one caller, each
 * sweep waits for the previous one, jobs = the host's CPU count.
 * Session options are built explicitly and every SWAN_* variable is
 * scrubbed from the environment first, so nothing ambient can change
 * the workload; telemetry (swan::obs) stays off.
 *
 * --trace 0 prints the end-to-end metrics (medians over the sweeps of
 * the run). --trace 1 replays the same pipeline serially, calling each
 * layer's public functions itself and timing every call as a span; it
 * prints the per-layer metrics and writes the spans to
 * <work-dir>/spans-<workload>.jsonl.
 *
 * The last stdout line is one JSON object: correct, attempted, failed
 * and metrics. Lines before it carry the fingerprint of the machine and
 * build, and the correctness digest (emitted-row hash and the sum of
 * simulated cycles), which repeat exactly across runs of one command.
 */

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "swan/internal/simd_dispatch.hh"
#include "swan/swan.hh"

extern char **environ;

namespace
{

using namespace swan;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

constexpr uint32_t kDefaultSeed = 0x5eed5a17u;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** User + system CPU seconds of the whole process (all threads). */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval &t) {
        return double(t.tv_sec) + double(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/** Reset the process's peak-RSS mark to its current RSS (Linux
 *  clear_refs "5"); false where the kernel does not support it. */
bool
resetPeakRss()
{
    const int fd = ::open("/proc/self/clear_refs", O_WRONLY);
    if (fd < 0)
        return false;
    const bool ok = ::write(fd, "5", 1) == 1;
    ::close(fd);
    return ok;
}

/** Peak RSS in MB since the last resetPeakRss() (VmHWM), else the
 *  process-lifetime maximum. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

double
dirMb(const fs::path &dir)
{
    std::error_code ec;
    uint64_t bytes = 0;
    if (!fs::exists(dir, ec))
        return 0.0;
    for (const auto &e : fs::recursive_directory_iterator(dir, ec))
        if (e.is_regular_file(ec))
            bytes += e.file_size(ec);
    return double(bytes) / (1024.0 * 1024.0);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (p in (0, 1]). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(std::ceil(p * double(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/** FNV-1a over every byte written: a discarding stream that keeps
 *  only a digest and a length of what was emitted. */
class DigestBuf : public std::streambuf
{
  public:
    uint64_t hash = sweep::kFnv64Seed;
    uint64_t bytes = 0;

  protected:
    int_type
    overflow(int_type c) override
    {
        if (c != traits_type::eof())
            add(char(c));
        return traits_type::not_eof(c);
    }
    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        for (std::streamsize i = 0; i < n; ++i)
            add(s[i]);
        return n;
    }

  private:
    void
    add(char c)
    {
        hash = (hash ^ uint8_t(c)) * 1099511628211ull;
        ++bytes;
    }
};

/** Digest of a result stream's JSON-lines emission. */
struct RowDigest
{
    uint64_t hash = 0;
    uint64_t bytes = 0;
    uint64_t cycles = 0;  //!< sum of simulated cycles over all points
    uint64_t instrs = 0;  //!< sum of dynamic instructions (address-free)
    size_t failed = 0;    //!< points with 0 cycles or 0 instructions

    bool
    operator==(const RowDigest &o) const
    {
        return hash == o.hash && bytes == o.bytes && cycles == o.cycles;
    }
};

RowDigest
emitDigest(const Results &results)
{
    DigestBuf buf;
    std::ostream os(&buf);
    results.emit(os, sweep::Format::JsonLines);
    os.flush();
    RowDigest d;
    d.hash = buf.hash;
    d.bytes = buf.bytes;
    for (const auto &r : results) {
        d.cycles += r.run.sim.cycles;
        d.instrs += r.run.mix.total();
        if (r.run.sim.cycles == 0 || r.run.mix.total() == 0)
            ++d.failed;
    }
    return d;
}

std::string
hex64(uint64_t v)
{
    char s[17];
    std::snprintf(s, sizeof s, "%016llx", (unsigned long long)v);
    return s;
}

/** JSON string literal (the fingerprint's free-text fields). */
std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (uint8_t(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
num(double v)
{
    std::ostringstream os;
    os << std::setprecision(10) << v;
    return os.str();
}

// --- workloads -------------------------------------------------------

enum class CacheMode
{
    FreshDir, //!< a new empty on-disk tier for every sweep
    Memory,   //!< memory-only cache
    WarmDir,  //!< the tier populated at set-up, through a fresh Session
};

struct WorkloadDef
{
    sweep::SweepSpec spec;
    CacheMode cache = CacheMode::Memory;
};

bool
workloadFor(const std::string &name, WorkloadDef *out)
{
    using core::Impl;
    WorkloadDef w;
    if (name == "cold_fig02") {
        w.spec.impls = {Impl::Scalar, Impl::Auto, Impl::Neon};
        w.spec.configs = {"prime"};
        w.spec.workingSets = {"default"};
        w.cache = CacheMode::FreshDir;
    } else if (name == "fanout_sweep") {
        w.spec.impls = {Impl::Scalar, Impl::Neon};
        w.spec.configs = {"silver", "gold",  "prime", "4W-2V", "4W-4V",
                          "4W-6V",  "6W-6V", "4W-8V", "8W-8V"};
        w.spec.workingSets = {"scalability"};
        w.cache = CacheMode::Memory;
    } else if (name == "warm_rerun") {
        w.spec.impls = {Impl::Scalar, Impl::Auto, Impl::Neon};
        w.spec.configs = {"silver", "gold", "prime"};
        w.spec.workingSets = {"tiny"};
        w.cache = CacheMode::WarmDir;
    } else {
        return false;
    }
    *out = std::move(w);
    return true;
}

/** The grid with the benchmark seed written into every point. */
std::vector<sweep::SweepPoint>
expandSeeded(const sweep::SweepSpec &spec, uint32_t seed)
{
    std::string err;
    auto points = sweep::expand(spec, &err);
    if (points.empty())
        throw std::runtime_error("expand: " + err);
    for (auto &p : points)
        p.options.seed = seed;
    return points;
}

SessionOptions
sessionOptions(int jobs, const std::string &cache_dir)
{
    SessionOptions so;
    so.jobs = jobs;
    so.warmupPasses = 1;
    so.cacheDir = cache_dir;
    return so;
}

/** One measured sweep. */
struct SweepSample
{
    double wall = 0;
    double firstRow = 0;
    double cpu = 0;
    double peakRssMb = 0;
    double cacheDiskMb = 0;
    size_t failed = 0;
    RowDigest digest;
    sweep::CacheStats cache;
    std::vector<uint64_t> cycles; //!< per point
};

/** Session -> runSweep -> Results::emit, timed end to end. */
SweepSample
runOneSweep(const std::vector<sweep::SweepPoint> &points,
            const SessionOptions &so)
{
    SweepSample s;
    resetPeakRss();
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    Session session(so);
    sweep::SchedulerConfig sc = session.schedulerConfig();
    Clock::time_point call;
    double firstRow = -1;
    sc.onRow = [&](const sweep::SweepResult &, const sweep::RowOrigin &) {
        if (firstRow < 0)
            firstRow = since(call);
    };
    call = Clock::now();
    try {
        auto rows = sweep::runSweep(points, sc);
        Results results(std::move(rows), session.cache().stats());
        s.digest = emitDigest(results);
        s.failed = s.digest.failed;
        s.cache = results.cacheStats();
        for (const auto &r : results)
            s.cycles.push_back(r.run.sim.cycles);
    } catch (const std::exception &e) {
        std::cerr << "swanbench: sweep threw: " << e.what() << "\n";
        s.failed = points.size();
    }
    s.wall = since(t0);
    s.cpu = cpuSeconds() - cpu0;
    s.peakRssMb = peakRssMb();
    s.firstRow = firstRow < 0 ? s.wall : firstRow;
    if (!so.cacheDir.empty())
        s.cacheDiskMb = dirMb(so.cacheDir);
    return s;
}

/** Workload::verify() for every headline kernel, Scalar vs Neon. */
bool
verifyKernels(const core::Options &opts, size_t *checked)
{
    bool ok = true;
    *checked = 0;
    for (const auto &k : core::Registry::instance().kernels()) {
        if (k.info.excluded)
            continue;
        auto w = k.make(opts);
        w->runScalar();
        w->runNeon(128);
        if (!w->verify()) {
            std::cerr << "swanbench: verify failed: "
                      << k.info.qualifiedName() << "\n";
            ok = false;
        }
        ++*checked;
    }
    return ok;
}

// --- the traced pipeline ---------------------------------------------

/** One timed call: name, start/end relative to the run, parent span. */
struct Span
{
    const char *name;
    double start;
    double end;
    int parent;
    uint64_t arg;
};

class Tracer
{
  public:
    explicit Tracer(Clock::time_point t0) : t0_(t0) { spans_.reserve(1 << 16); }

    int
    open(const char *name, int parent)
    {
        spans_.push_back({name, since(t0_), -1, parent, 0});
        return int(spans_.size() - 1);
    }
    double
    close(int id, uint64_t arg = 0)
    {
        Span &s = spans_[size_t(id)];
        s.end = since(t0_);
        s.arg = arg;
        return s.end - s.start;
    }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    Clock::time_point t0_;
    std::vector<Span> spans_;
};

/** Per-layer totals of one traced pass. */
struct LayerSample
{
    std::map<std::string, double> m;
    std::vector<uint64_t> cycles;
    RowDigest digest;
    double wall = 0;
};

/**
 * The scheduler's pipeline, serially and in its order, each public
 * call timed: result lookups; per capture group lookupTrace -> make ->
 * captureInto -> addTrace -> pack -> storeTrace; per group
 * simulateTraceMany and a store per point; then the emit.
 */
LayerSample
tracedPass(const std::vector<sweep::SweepPoint> &points,
           const SessionOptions &so, Tracer *tr)
{
    LayerSample L;
    auto &m = L.m;
    const int warmup = so.warmupPasses;
    const int root = tr->open("api.sweep", -1);

    int sp = tr->open("api.session", root);
    Session session(so);
    m["api.session_s"] += tr->close(sp);
    sweep::ResultCache &cache = session.cache();
    core::Registry::instance().closeRegistration();

    std::vector<sweep::SweepResult> results(points.size());
    std::vector<size_t> pending;
    for (size_t i = 0; i < points.size(); ++i) {
        results[i].point = points[i];
        sp = tr->open("sweep.lookup", root);
        const bool hit = cache.lookup(sweep::keyFor(points[i], warmup),
                                      &results[i].run);
        m["sweep.lookup_s"] += tr->close(sp, hit);
        results[i].cacheHit = hit;
        if (!hit)
            pending.push_back(i);
    }
    m["sweep.hit_ratio"] =
        double(points.size() - pending.size()) / double(points.size());

    struct Group
    {
        std::vector<size_t> points;
        std::vector<sim::CoreConfig> configs;
        trace::PackedTrace trace;
        trace::MixStats mix;
    };
    std::vector<Group> groups;
    std::map<std::tuple<std::string, int, int, uint64_t>, size_t> groupOf;
    for (size_t idx : pending) {
        const auto &p = points[idx];
        auto [it, inserted] = groupOf.emplace(
            std::make_tuple(p.spec->info.qualifiedName(), int(p.impl),
                            int(p.vecBits), sweep::fingerprint(p.options)),
            groups.size());
        if (inserted)
            groups.emplace_back();
        groups[it->second].points.push_back(idx);
        groups[it->second].configs.push_back(p.config);
    }

    std::vector<trace::Instr> buf;
    trace::PackedTrace::Scratch scratch;
    uint64_t captured = 0, packedBytes = 0, packedInstrs = 0;
    for (auto &g : groups) {
        const auto &p = points[g.points.front()];
        const auto tkey = sweep::traceKeyFor(p);
        sp = tr->open("sweep.trace_load", root);
        const bool hit = cache.lookupTrace(tkey, &g.trace, &g.mix);
        m["sweep.trace_load_s"] += tr->close(sp, hit);
        if (hit)
            continue;
        sp = tr->open("workloads.make", root);
        auto w = p.spec->make(p.options);
        m["workloads.make_s"] += tr->close(sp);
        sp = tr->open("core.capture", root);
        core::Runner::captureInto(*w, p.impl, p.vecBits, &buf);
        m["core.capture_s"] += tr->close(sp, buf.size());
        captured += buf.size();
        sp = tr->open("trace.mix", root);
        g.mix.addTrace(buf);
        m["trace.mix_s"] += tr->close(sp);
        sp = tr->open("trace.pack", root);
        g.trace = trace::PackedTrace::pack(buf, &scratch);
        m["trace.pack_s"] += tr->close(sp, g.trace.byteSize());
        packedBytes += g.trace.byteSize();
        packedInstrs += g.trace.size();
        sp = tr->open("sweep.trace_store", root);
        cache.storeTrace(tkey, g.trace, g.mix);
        m["sweep.trace_store_s"] += tr->close(sp);
    }
    buf = {};

    uint64_t replayed = 0;
    double maxGroup = 0;
    for (auto &g : groups) {
        sp = tr->open("sim.replay", root);
        auto sims = sim::simulateTraceMany(g.trace, g.configs, warmup);
        const double dt = tr->close(sp, g.trace.size() * g.configs.size());
        m["sim.replay_s"] += dt;
        maxGroup = std::max(maxGroup, dt);
        replayed += uint64_t(g.trace.size()) * g.configs.size() *
                    uint64_t(warmup + 1);
        for (size_t j = 0; j < g.points.size(); ++j) {
            const size_t idx = g.points[j];
            auto &r = results[idx];
            r.run = core::KernelRun{};
            r.run.mix = g.mix;
            r.run.sim = std::move(sims[j]);
            sp = tr->open("sweep.store", root);
            cache.store(sweep::keyFor(points[idx], warmup), r.run);
            m["sweep.store_s"] += tr->close(sp);
        }
    }

    sp = tr->open("sweep.emit", root);
    Results view(std::move(results), cache.stats());
    L.digest = emitDigest(view);
    m["sweep.emit_s"] += tr->close(sp, L.digest.bytes);
    L.wall = tr->close(root, points.size());

    for (const auto &r : view)
        L.cycles.push_back(r.run.sim.cycles);
    m["sweep.quarantined"] = double(view.cacheStats().corruptEntriesQuarantined);
    m["sweep.cache_disk_mb"] = so.cacheDir.empty() ? 0.0 : dirMb(so.cacheDir);

    // A standalone decode pass over the same traces (untimed by the
    // pass wall: it is a microbenchmark of the replay's decode half).
    uint64_t decoded = 0;
    const auto d0 = Clock::now();
    std::vector<trace::PackedTrace::Decoded> batch(256);
    for (const auto &g : groups) {
        trace::PackedTrace::Cursor c(g.trace);
        while (size_t n = c.nextBatch(batch.data(), batch.size()))
            decoded += n;
    }
    const double decodeS = since(d0);

    const auto rate = [](double n, double s) {
        return s > 0 ? n / s / 1e6 : 0.0;
    };
    m["core.capture_minstr_per_s"] = rate(double(captured), m["core.capture_s"]);
    m["trace.pack_bytes_per_instr"] =
        packedInstrs ? double(packedBytes) / double(packedInstrs) : 0.0;
    m["sim.replay_minstr_per_s"] = rate(double(replayed), m["sim.replay_s"]);
    m["sim.replay_max_group_s"] = maxGroup;
    m["trace.decode_minstr_per_s"] = rate(double(decoded), decodeS);
    return L;
}

// --- run modes ---------------------------------------------------------

struct Args
{
    std::string workload;
    uint32_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    bool selfcheck = false;
    bool setup = false;
    int rep = 0;
    fs::path workDir;
    std::string gitSha = "unknown";
    std::string sourceDigest = "unknown";
    std::vector<std::string> scrubbed; //!< SWAN_* variables removed
};

int
hostJobs()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n ? int(n) : 1;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

void
printFingerprint(std::ostream &os, const Args &a, int jobs)
{
    const auto &d = detail::simdDispatch();
    os << "{\"fingerprint\": {\"cpu\": " << quote(cpuModel())
       << ", \"nproc\": " << hostJobs() << ", \"jobs\": " << jobs
       << ", \"isa\": " << quote(d.isa)
       << ", \"decode_kernel\": " << quote(d.decodeKernel)
       << ", \"step_kernel\": " << quote(d.stepKernel)
       << ", \"simd_forced\": " << (d.forced ? "true" : "false")
       << ", \"build_type\": " << quote(SWANBENCH_BUILD_TYPE)
       << ", \"compiler\": " << quote(__VERSION__)
       << ", \"swan_version\": " << quote(SWAN_VERSION_STRING)
       << ", \"git_sha\": " << quote(a.gitSha)
       << ", \"source_digest\": " << quote(a.sourceDigest)
       << ", \"scrubbed_env\": [";
    for (size_t i = 0; i < a.scrubbed.size(); ++i)
        os << (i ? ", " : "") << quote(a.scrubbed[i]);
    os << "], \"workload\": " << quote(a.workload)
       << ", \"seed\": " << a.seed << "}}\n";
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(bool correct, size_t attempted, size_t failed,
            const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        os << (i ? ", " : "") << quote(metrics[i].name) << ": {\"value\": "
           << num(metrics[i].value) << ", \"unit\": "
           << quote(metrics[i].unit) << "}";
    os << "}}";
    std::cout << os.str() << std::endl;
}

/** The correctness line: the first sweep's emitted-row digest, its
 *  cycle and instruction sums, and how many kernels verified. */
void
printCheck(const RowDigest &d, size_t points, size_t verified)
{
    std::cout << "{\"check\": {\"rows_digest\": \"" << hex64(d.hash)
              << "\", \"rows_bytes\": " << d.bytes
              << ", \"cycles_sum\": " << d.cycles
              << ", \"instrs_sum\": " << d.instrs
              << ", \"points\": " << points
              << ", \"verified_kernels\": " << verified << "}}\n";
}

/** Prepared state of one workload: its points, and the populated
 *  cache dir (with the populating run's digest) for warm_rerun. */
struct Prepared
{
    std::vector<sweep::SweepPoint> points;
    fs::path warmDir;
    RowDigest populate;
    size_t populateFailed = 0;
};

fs::path
warmDirFor(const Args &a, int rep)
{
    return a.workDir / ("warm-" + std::to_string(rep));
}

/**
 * One set-up, in a process of its own, timed from spawn to exit:
 * start-up (static kernel registration, ISA dispatch), the seeded
 * grid's expansion, a Session and, for warm_rerun, one cold sweep that
 * populates a fresh cache dir. Start-up is where work hoisted out of a
 * sweep would hide, so it belongs to the figure; the separate process
 * keeps set-up's heap out of the measured phase's peak RSS.
 */
double
setUpOnce(const Args &a, int rep)
{
    const std::string seed = std::to_string(a.seed);
    const std::string dir = a.workDir.string();
    const std::string r = std::to_string(rep);
    const char *argv[] = {"swanbench", "--setup",   "--workload",
                          a.workload.c_str(),       "--seed",
                          seed.c_str(),             "--work-dir",
                          dir.c_str(),              "--rep",
                          r.c_str(),                nullptr};
    const auto t0 = Clock::now();
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr,
                    const_cast<char *const *>(argv), environ) != 0)
        throw std::runtime_error("cannot spawn the set-up process");
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    const double dt = since(t0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("set-up process failed");
    return dt;
}

/** The set-up process's whole job (see setUpOnce). warm_rerun's
 *  populating digest goes to <warm dir>.digest for the parent. */
int
setupMain(const Args &a)
{
    WorkloadDef w;
    if (!workloadFor(a.workload, &w))
        return 2;
    const auto points = expandSeeded(w.spec, a.seed);
    if (w.cache != CacheMode::WarmDir) {
        Session session(sessionOptions(hostJobs(), {}));
        return 0;
    }
    const fs::path dir = warmDirFor(a, a.rep);
    fs::remove_all(dir);
    fs::create_directories(dir);
    // Serial: a populating sweep on the pool would make set-up time hostage
    // to how the host schedules four threads for one second.
    const auto s = runOneSweep(points, sessionOptions(1, dir.string()));
    std::ofstream(dir.string() + ".digest")
        << s.digest.hash << " " << s.digest.bytes << " " << s.digest.cycles
        << " " << s.failed << "\n";
    return 0;
}

/** Set-up, @p reps times (each a fresh process; see setUpOnce): the
 *  seconds each took, and the state of the last one. */
Prepared
setUp(const WorkloadDef &w, const Args &a, int reps,
      std::vector<double> *seconds)
{
    for (int rep = 0; rep < reps; ++rep) {
        if (rep > 0 && w.cache == CacheMode::WarmDir)
            fs::remove_all(warmDirFor(a, rep - 1));
        seconds->push_back(setUpOnce(a, rep));
    }
    Prepared p;
    p.points = expandSeeded(w.spec, a.seed);
    if (w.cache == CacheMode::WarmDir) {
        p.warmDir = warmDirFor(a, reps - 1);
        std::ifstream in(p.warmDir.string() + ".digest");
        if (!(in >> p.populate.hash >> p.populate.bytes >>
              p.populate.cycles >> p.populateFailed))
            throw std::runtime_error("set-up left no populating digest");
    }
    return p;
}

/** The cache dir for measured sweep @p i (fresh and empty for
 *  cold_fig02), or empty for a memory-only cache. */
std::string
sweepCacheDir(const WorkloadDef &w, const Prepared &p, const Args &a,
              size_t i)
{
    switch (w.cache) {
    case CacheMode::FreshDir: {
        const fs::path dir = a.workDir / ("cold-" + std::to_string(i));
        fs::remove_all(dir);
        fs::create_directories(dir);
        return dir.string();
    }
    case CacheMode::WarmDir:
        return p.warmDir.string();
    case CacheMode::Memory:
        break;
    }
    return {};
}

void
dropCacheDir(const WorkloadDef &w, const std::string &dir)
{
    if (w.cache == CacheMode::FreshDir && !dir.empty())
        fs::remove_all(dir);
}

/** Remove the cache directories an earlier run left in @p work (span
 *  files stay). */
void
clearCacheDirs(const fs::path &work)
{
    fs::create_directories(work);
    for (const auto &e : fs::directory_iterator(work))
        if (e.is_directory())
            fs::remove_all(e.path());
}

/** Deadline guard: never start a step that would end past this many
 *  seconds of run time (the whole run must end well within 180 s). */
constexpr double kRunBudget = 150.0;

int
runWorkload(const Args &a)
{
    WorkloadDef w;
    if (!workloadFor(a.workload, &w)) {
        std::cerr << "swanbench: unknown workload '" << a.workload << "'\n";
        return 2;
    }
    const int jobs = hostJobs();
    const auto runStart = Clock::now();
    printFingerprint(std::cout, a, jobs);
    clearCacheDirs(a.workDir);

    // Set-up, several times; the last preparation is the one used. A
    // set-up without a populating sweep takes milliseconds, so it is
    // also repeated after every measured sweep: samples spread over the
    // whole run, not one burst that a momentary host stall can skew.
    std::vector<double> setupS;
    const bool quickSetup = w.cache != CacheMode::WarmDir;
    const Prepared prep = setUp(w, a, quickSetup ? 5 : 3, &setupS);
    bool correct = prep.populateFailed == 0;
    // Workload::verify() for every headline kernel: outside every timed
    // region, after the measured phase (its heap stays out of it too).
    size_t verified = 0;
    const auto verify = [&] {
        correct = verifyKernels(prep.points.front().options, &verified) &&
                  correct;
    };

    size_t attempted = 0, failed = 0;
    RowDigest first;

    if (!a.trace) {
        std::vector<double> wall, firstRow, cpu, rss, disk;
        uint64_t quarantined = 0;
        bool allHits = true, rowsStable = true;
        const auto t0 = Clock::now();
        while (wall.empty() || since(t0) < a.seconds) {
            if (!wall.empty() && since(runStart) + wall.back() > kRunBudget)
                break;
            const std::string dir = sweepCacheDir(w, prep, a, wall.size());
            const auto s = runOneSweep(prep.points, sessionOptions(jobs, dir));
            dropCacheDir(w, dir);
            for (int rep = 0; quickSetup && rep < 5; ++rep)
                setupS.push_back(setUpOnce(a, rep));
            wall.push_back(s.wall);
            firstRow.push_back(s.firstRow);
            cpu.push_back(s.cpu);
            rss.push_back(s.peakRssMb);
            disk.push_back(s.cacheDiskMb);
            quarantined += s.cache.corruptEntriesQuarantined;
            allHits = allHits && s.cache.misses == 0;
            attempted += prep.points.size();
            failed += s.failed;
            if (wall.size() == 1)
                first = s.digest;
            else if (!(s.digest == first))
                rowsStable = false;
        }
        verify();
        // Every warm sweep must emit exactly the populating run's rows.
        if (w.cache == CacheMode::WarmDir &&
            (!rowsStable || !allHits || !(first == prep.populate)))
            correct = false;
        printCheck(first, prep.points.size(), verified);
        std::cout << "{\"report\": {\"sweeps\": " << wall.size()
                  << ", \"rows_repeat\": " << (rowsStable ? "true" : "false")
                  << ", \"sweep_q1_s\": " << num(percentile(wall, 0.25))
                  << ", \"sweep_q3_s\": " << num(percentile(wall, 0.75))
                  << ", \"setup_reps\": " << setupS.size()
                  << ", \"failed_frac\": "
                  << num(attempted ? double(failed) / double(attempted) : 1.0)
                  << ", \"cache_disk_mb\": " << num(median(disk))
                  << ", \"quarantined\": " << quarantined << "}}\n";
        printResult(correct && failed == 0, std::max<size_t>(attempted, 1),
                    failed,
                    {{"setup_s", median(setupS), "s"},
                     {"sweep_s", median(wall), "s"},
                     {"sweep_p90_s", percentile(wall, 0.9), "s"},
                     {"first_row_s", median(firstRow), "s"},
                     {"peak_rss_mb", median(rss), "MB"},
                     {"cpu_s", median(cpu), "s"}});
        return 0;
    }

    // Traced: alternate a traced serial pass with an untraced jobs=1
    // sweep of the same grid from the same starting state.
    std::vector<LayerSample> traced;
    std::vector<double> untracedWall;
    std::vector<Span> firstSpans;
    size_t mismatch = 0;
    const auto t0 = Clock::now();
    while (traced.empty() || since(t0) < a.seconds) {
        if (!traced.empty() &&
            since(runStart) + traced.back().wall + untracedWall.back() >
                kRunBudget)
            break;
        std::string dir = sweepCacheDir(w, prep, a, 2 * traced.size());
        Tracer tr(Clock::now());
        traced.push_back(tracedPass(prep.points, sessionOptions(1, dir), &tr));
        dropCacheDir(w, dir);
        if (firstSpans.empty())
            firstSpans = tr.spans();
        dir = sweepCacheDir(w, prep, a, 2 * traced.size() + 1);
        const auto u = runOneSweep(prep.points, sessionOptions(1, dir));
        dropCacheDir(w, dir);
        untracedWall.push_back(u.wall);
        const auto &L = traced.back();
        attempted += prep.points.size();
        failed += std::max(L.digest.failed, u.failed);
        if (traced.size() == 1) {
            first = L.digest;
            for (size_t i = 0; i < L.cycles.size() && i < u.cycles.size(); ++i)
                mismatch += L.cycles[i] != u.cycles[i];
        }
    }

    verify();
    if (w.cache == CacheMode::WarmDir && !(first == prep.populate))
        correct = false;
    const fs::path spansPath = a.workDir / ("spans-" + a.workload + ".jsonl");
    {
        std::ofstream out(spansPath);
        printFingerprint(out, a, 1);
        for (const auto &s : firstSpans)
            out << "{\"name\": \"" << s.name << "\", \"start_s\": "
                << num(s.start) << ", \"end_s\": " << num(s.end)
                << ", \"parent\": " << s.parent << ", \"arg\": " << s.arg
                << "}\n";
    }

    static const std::vector<std::pair<const char *, const char *>> kLayers = {
        {"workloads.make_s", "s"},
        {"core.capture_s", "s"},
        {"core.capture_minstr_per_s", "Minstr/s"},
        {"trace.mix_s", "s"},
        {"trace.pack_s", "s"},
        {"trace.pack_bytes_per_instr", "B/instr"},
        {"trace.decode_minstr_per_s", "Minstr/s"},
        {"sim.replay_s", "s"},
        {"sim.replay_minstr_per_s", "Minstr/s"},
        {"sim.replay_max_group_s", "s"},
        {"sweep.lookup_s", "s"},
        {"sweep.hit_ratio", "ratio"},
        {"sweep.trace_load_s", "s"},
        {"sweep.trace_store_s", "s"},
        {"sweep.store_s", "s"},
        {"sweep.emit_s", "s"},
        {"sweep.quarantined", "count"},
        {"sweep.cache_disk_mb", "MB"},
        {"api.session_s", "s"},
    };
    std::vector<Metric> metrics;
    for (const auto &[name, unit] : kLayers) {
        std::vector<double> v;
        for (const auto &L : traced) {
            const auto it = L.m.find(name);
            v.push_back(it == L.m.end() ? 0.0 : it->second);
        }
        metrics.push_back({name, median(v), unit});
    }
    std::vector<double> tracedWall;
    for (const auto &L : traced)
        tracedWall.push_back(L.wall);
    metrics.push_back({"trace.overhead_frac",
                       median(tracedWall) / median(untracedWall) - 1.0,
                       "ratio"});
    metrics.push_back({"sim.cycle_mismatch_points", double(mismatch), "count"});
    printCheck(first, prep.points.size(), verified);
    std::cout << "{\"report\": {\"traced_passes\": " << traced.size()
              << ", \"spans\": " << firstSpans.size() << ", \"spans_file\": "
              << quote(spansPath.string()) << "}}\n";
    printResult(correct && failed == 0, std::max<size_t>(attempted, 1),
                failed, metrics);
    return 0;
}

// --- self-check ------------------------------------------------------

/**
 * A tiny-grid smoke run through both modes' code paths (every named
 * metric must come out), then a deliberately corrupted cache entry,
 * which must surface as a quarantine, not vanish.
 */
int
selfCheck(const Args &a)
{
    clearCacheDirs(a.workDir);
    sweep::SweepSpec spec;
    spec.kernels.names = {"ZL/adler32", "LJ/rgb_to_ycbcr"};
    spec.impls = {core::Impl::Scalar, core::Impl::Neon};
    spec.configs = {"prime", "gold"};
    spec.workingSets = {"tiny"};
    const auto points = expandSeeded(spec, a.seed);
    bool ok = true;
    const auto expect = [&](bool cond, const std::string &what) {
        std::cout << (cond ? "ok   " : "FAIL ") << what << "\n";
        ok = ok && cond;
    };

    const fs::path dir = a.workDir / "selfcheck";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const auto cold = runOneSweep(points, sessionOptions(2, dir.string()));
    expect(cold.failed == 0,
           "cold sweep: every point has cycles and instructions");
    expect(cold.wall > 0 && cold.firstRow > 0 && cold.cpu > 0 &&
               cold.peakRssMb > 0 && cold.cacheDiskMb > 0,
           "cold sweep: every end-to-end metric is measured");
    const auto warm = runOneSweep(points, sessionOptions(2, dir.string()));
    expect(warm.digest == cold.digest && warm.cache.misses == 0,
           "warm sweep: rows byte-identical to the cold run, all hits");

    const fs::path tdir = a.workDir / "selfcheck-traced";
    fs::remove_all(tdir);
    fs::create_directories(tdir);
    Tracer tr(Clock::now());
    const auto L = tracedPass(points, sessionOptions(1, tdir.string()), &tr);
    for (const char *name :
         {"workloads.make_s", "core.capture_s", "core.capture_minstr_per_s",
          "trace.mix_s", "trace.pack_s", "trace.pack_bytes_per_instr",
          "trace.decode_minstr_per_s", "sim.replay_s",
          "sim.replay_minstr_per_s", "sim.replay_max_group_s",
          "sweep.lookup_s", "sweep.trace_store_s", "sweep.store_s",
          "sweep.emit_s", "sweep.cache_disk_mb", "api.session_s"}) {
        const auto it = L.m.find(name);
        expect(it != L.m.end() && it->second > 0,
               std::string("traced pass measures ") + name);
    }
    expect(L.digest.failed == 0 && !tr.spans().empty(),
           "traced pass: every point simulated, spans recorded");

    // Corrupt one result entry in the middle of its bytes.
    fs::path victim;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().extension() == ".swr") {
            victim = e.path();
            break;
        }
    expect(!victim.empty(), "cold sweep left result entries on disk");
    if (!victim.empty()) {
        std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(0, std::ios::end);
        const auto size = std::streamoff(f.tellg());
        for (std::streamoff off = size / 3; off < size; off += 7) {
            f.seekp(off);
            f.put(char(0x5a));
        }
    }
    const auto bad = runOneSweep(points, sessionOptions(2, dir.string()));
    expect(bad.cache.corruptEntriesQuarantined >= 1,
           "corrupted entry shows up in sweep.quarantined (" +
               std::to_string(bad.cache.corruptEntriesQuarantined) + ")");
    expect(bad.failed == 0 && bad.digest == cold.digest,
           "corrupted entry recomputed, rows unchanged");
    std::cout << (ok ? "selfcheck: passed" : "selfcheck: FAILED") << "\n";
    return ok ? 0 : 1;
}

bool
parseArgs(int argc, char **argv, Args *a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--selfcheck" || k == "--setup") {
            (k == "--setup" ? a->setup : a->selfcheck) = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        if (k == "--workload")
            a->workload = v;
        else if (k == "--seed")
            a->seed = uint32_t(std::stoull(v, nullptr, 0));
        else if (k == "--seconds")
            a->seconds = std::stod(v);
        else if (k == "--trace")
            a->trace = v != "0";
        else if (k == "--rep")
            a->rep = std::stoi(v);
        else if (k == "--work-dir")
            a->workDir = v;
        else if (k == "--git-sha")
            a->gitSha = v;
        else if (k == "--source-digest")
            a->sourceDigest = v;
        else
            return false;
    }
    return !a->workDir.empty() && (a->selfcheck || !a->workload.empty());
}

/** Drop every SWAN_* variable, returning their names for the
 *  fingerprint: the workload is the command line's alone. Session
 *  options are explicit, and the library's remaining environment reads
 *  (working-set sizes, SIMD level, memo budget) see nothing. */
std::vector<std::string>
scrubEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "SWAN_", 5) == 0)
            names.emplace_back(*e, std::strcspn(*e, "="));
    for (const auto &n : names)
        ::unsetenv(n.c_str());
    return names;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    a.scrubbed = scrubEnvironment();
    try {
        if (!parseArgs(argc, argv, &a)) {
            std::cerr << "usage: swanbench --workload W --seed N --seconds S "
                         "--trace 0|1 --work-dir D | --selfcheck --work-dir D\n";
            return 2;
        }
        if (a.setup)
            return setupMain(a);
        return a.selfcheck ? selfCheck(a) : runWorkload(a);
    } catch (const std::exception &e) {
        std::cerr << "swanbench: " << e.what() << "\n";
        return 1;
    }
}
