/**
 * @file
 * The measurement harness: captures a kernel implementation's dynamic
 * instruction trace, replays it through a core timing model (with cache
 * warm-up, as the paper does), and applies the power model. This is the
 * software analogue of the paper's measurement flow (Section 4.3):
 * cross-compile -> run pinned to a core -> Simpleperf PMU counters ->
 * battery power rails.
 */

#ifndef SWAN_CORE_RUNNER_HH
#define SWAN_CORE_RUNNER_HH

#include <string_view>
#include <vector>

#include "core/kernel.hh"
#include "core/registry.hh"
#include "sim/core_model.hh"
#include "sim/power.hh"
#include "trace/packed.hh"
#include "trace/recorder.hh"
#include "trace/stats.hh"

namespace swan::core
{

/** Which implementation of a kernel to run (Figure 2's bars). */
enum class Impl
{
    Scalar,
    Auto,
    Neon,
};

std::string_view name(Impl impl);

/** One implementation's measured results. */
struct KernelRun
{
    sim::SimResult sim;
    trace::MixStats mix;
};

/** Scalar/Auto/Neon comparison of one kernel on one core config. */
struct Comparison
{
    KernelInfo info;
    KernelRun scalar;
    KernelRun autovec;
    KernelRun neon;
    bool verified = false;

    double
    neonSpeedup() const
    {
        return double(scalar.sim.cycles) / double(neon.sim.cycles);
    }
    double
    autoSpeedup() const
    {
        return double(scalar.sim.cycles) / double(autovec.sim.cycles);
    }
    double
    neonEnergyImprovement() const
    {
        return scalar.sim.energyJ / neon.sim.energyJ;
    }
    double
    autoEnergyImprovement() const
    {
        return scalar.sim.energyJ / autovec.sim.energyJ;
    }
    double
    instrReduction() const
    {
        return double(scalar.mix.total()) / double(neon.mix.total());
    }
};

/** Trace-capture + simulation harness. */
class Runner
{
  public:
    explicit Runner(Options opts = Options::fromEnv()) : opts_(opts) {}

    const Options &options() const { return opts_; }

    /** Execute one implementation under a buffering recorder. */
    static std::vector<trace::Instr> capture(Workload &w, Impl impl,
                                             int vec_bits = 128);

    /** capture() into a caller-owned buffer (cleared first, capacity
     *  kept). */
    static void captureInto(Workload &w, Impl impl, int vec_bits,
                            std::vector<trace::Instr> *out);

    /**
     * Execute one implementation with every instruction encoded
     * straight into @p builder (reset first; the caller finishes it).
     * No AoS buffer exists at any point, and builder.finish(&mix)
     * yields the packed trace and its MixStats — the same bytes and
     * counters as pack() and MixStats::addTrace of capture(). Callers
     * that capture many traces back to back (the sweep scheduler)
     * reuse one Builder, whose storage is mmap-backed.
     */
    static void captureTo(Workload &w, Impl impl, int vec_bits,
                          trace::PackedTrace::Builder *builder);

    /** Capture + simulate + power for one implementation. */
    KernelRun run(Workload &w, Impl impl, const sim::CoreConfig &cfg,
                  int vec_bits = 128, int warmup_passes = 1) const;

    /**
     * Capture once, replay against many core configurations in a
     * single pass on the fused engine (sim::replay): capture encodes
     * straight into a packed trace (captureTo), and each packed
     * instruction is decoded once — straight into registers — with
     * every configuration's core model stepped from the same decoded
     * fields. Result i is bit-identical to run() with cfgs[i].
     */
    std::vector<KernelRun> runMany(Workload &w, Impl impl,
                                   const std::vector<sim::CoreConfig> &cfgs,
                                   int vec_bits = 128,
                                   int warmup_passes = 1) const;

    /** Run Scalar, Auto and Neon and verify outputs. */
    Comparison compare(const KernelSpec &spec,
                       const sim::CoreConfig &cfg) const;

    /** Scalar-vs-Neon only (skips the Auto pass; faster sweeps). */
    Comparison compareScalarNeon(const KernelSpec &spec,
                                 const sim::CoreConfig &cfg,
                                 int vec_bits = 128) const;

  private:
    /** Run @p impl of @p w under @p rec. */
    static void execute(Workload &w, Impl impl, int vec_bits,
                        trace::Recorder *rec);

    Options opts_;
};

} // namespace swan::core

#endif // SWAN_CORE_RUNNER_HH
