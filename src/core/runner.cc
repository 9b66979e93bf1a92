#include "core/runner.hh"

namespace swan::core
{

std::string_view
name(Impl impl)
{
    switch (impl) {
      case Impl::Scalar: return "Scalar";
      case Impl::Auto: return "Auto";
      case Impl::Neon: return "Neon";
      default: return "?";
    }
}

std::vector<trace::Instr>
Runner::capture(Workload &w, Impl impl, int vec_bits)
{
    std::vector<trace::Instr> out;
    captureInto(w, impl, vec_bits, &out);
    return out;
}

void
Runner::execute(Workload &w, Impl impl, int vec_bits, trace::Recorder *rec)
{
    // Kernel stack frames lie below this one, at offsets from the
    // anchor that do not depend on where the thread's stack is.
    const char anchor = 0;
    rec->canonicalize(&anchor);
    trace::ScopedRecorder scoped(rec);
    switch (impl) {
      case Impl::Scalar:
        w.runScalar();
        break;
      case Impl::Auto:
        w.runAuto();
        break;
      case Impl::Neon:
        w.runNeon(vec_bits);
        break;
    }
}

void
Runner::captureInto(Workload &w, Impl impl, int vec_bits,
                    std::vector<trace::Instr> *out)
{
    trace::Recorder rec(out);
    execute(w, impl, vec_bits, &rec);
}

void
Runner::captureTo(Workload &w, Impl impl, int vec_bits,
                  trace::PackedTrace::Builder *builder)
{
    builder->reset();
    trace::Recorder rec(builder);
    execute(w, impl, vec_bits, &rec);
}

KernelRun
Runner::run(Workload &w, Impl impl, const sim::CoreConfig &cfg,
            int vec_bits, int warmup_passes) const
{
    return runMany(w, impl, {cfg}, vec_bits, warmup_passes).front();
}

std::vector<KernelRun>
Runner::runMany(Workload &w, Impl impl,
                const std::vector<sim::CoreConfig> &cfgs, int vec_bits,
                int warmup_passes) const
{
    trace::MixStats mix;
    trace::PackedTrace packed;
    {
        trace::PackedTrace::Builder builder;
        captureTo(w, impl, vec_bits, &builder);
        packed = builder.finish(&mix);
    }
    // Results come out of the replay engine power-complete (the power
    // model is fused into CoreModel::finish).
    auto sims = sim::simulateTraceMany(packed, cfgs, warmup_passes);
    std::vector<KernelRun> out(cfgs.size());
    for (size_t i = 0; i < cfgs.size(); ++i) {
        out[i].mix = mix;
        out[i].sim = std::move(sims[i]);
    }
    return out;
}

Comparison
Runner::compare(const KernelSpec &spec, const sim::CoreConfig &cfg) const
{
    Comparison c;
    c.info = spec.info;
    auto w = spec.make(opts_);
    c.scalar = run(*w, Impl::Scalar, cfg);
    c.autovec = run(*w, Impl::Auto, cfg);
    c.neon = run(*w, Impl::Neon, cfg);
    c.verified = w->verify();
    return c;
}

Comparison
Runner::compareScalarNeon(const KernelSpec &spec,
                          const sim::CoreConfig &cfg, int vec_bits) const
{
    Comparison c;
    c.info = spec.info;
    auto w = spec.make(opts_);
    c.scalar = run(*w, Impl::Scalar, cfg);
    c.neon = run(*w, Impl::Neon, cfg, vec_bits);
    c.autovec = c.scalar;
    c.verified = w->verify();
    return c;
}

} // namespace swan::core
