/**
 * @file
 * Trace recorder: collects the dynamic instruction stream of one kernel
 * invocation, either encoding it straight into a packed trace, buffering
 * it as AoS records, or streaming it into a sink (e.g. directly into a
 * timing simulator).
 */

#ifndef SWAN_TRACE_RECORDER_HH
#define SWAN_TRACE_RECORDER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/canonical.hh"
#include "trace/instr.hh"
#include "trace/packed.hh"

namespace swan::trace
{

/** Consumer interface for streaming traces. */
class Sink
{
  public:
    virtual ~Sink() = default;
    /** Called once per recorded instruction, in program order. */
    virtual void onInstr(const Instr &instr) = 0;

    /**
     * Block delivery: @p n consecutive instructions in program order,
     * equivalent to n onInstr calls. Producers that buffer (PackedTrace
     * replay, simulateTrace) prefer this entry point — one virtual call
     * per block instead of per instruction, with the block staying
     * cache-resident. The default simply loops onto onInstr, so every
     * existing sink keeps working; hot sinks (sim::CoreModel) override
     * it. Blocks must never split the program order: the concatenation
     * of all blocks is the trace.
     */
    virtual void
    onBlock(const Instr *instrs, size_t n)
    {
        for (size_t i = 0; i < n; ++i)
            onInstr(instrs[i]);
    }
};

/**
 * Records the dynamic instruction stream of a kernel invocation.
 *
 * A Recorder runs in one of three modes:
 *  - builder: each record is encoded into a PackedTrace::Builder as it
 *    is emitted (the runner and the sweep scheduler: capture once,
 *    replay the packed trace against many core configurations);
 *  - buffered: the full AoS trace is kept in memory, in the
 *    Recorder's own vector or a caller-owned one;
 *  - streaming: each record goes to a Sink without buffering.
 *
 * In every mode, once canonicalize() has been called, memory records
 * carry canonical addresses (trace/canonical.hh) instead of host ones.
 */
class Recorder
{
  public:
    /** Buffered recorder. */
    Recorder() : keep_(true), ext_(nullptr) {}

    /** Buffered recorder writing into the caller's vector (cleared
     *  first, capacity kept). */
    explicit Recorder(std::vector<Instr> *buf) : keep_(true), ext_(buf)
    {
        ext_->clear();
    }

    /** Streaming recorder; @p sink receives every instruction. */
    explicit Recorder(Sink *sink) : keep_(false), sink_(sink) {}

    /** Encoding recorder: every instruction is appended to
     *  @p builder (which the caller resets and finishes). */
    explicit Recorder(PackedTrace::Builder *builder)
        : keep_(false), builder_(builder)
    {
    }

    /**
     * Record canonical addresses from now on, in a fresh layout.
     * @p stack_anchor is an address in the capturing frame; the
     * kernel's stack frames lie below it. core::Runner calls this for
     * every kernel capture.
     */
    void
    canonicalize(const void *stack_anchor)
    {
        canonical_ = true;
        addrs_.reset(stack_anchor);
    }

    /** A capture buffer was freed on this thread (trace/canonical.cc). */
    void
    invalidateTranslations()
    {
        addrs_.invalidate();
    }

    /**
     * Append an instruction. Assigns the id (program order, 1-based).
     * A multi-address record's addr2 keeps its distance from addr.
     * @return the id, to be stored as provenance in produced values.
     */
    uint64_t
    emit(Instr instr)
    {
        instr.id = ++lastId_;
        if (canonical_ && instr.addr) {
            const uint64_t a = addrs_.translate(instr.addr);
            if (instr.addr2)
                instr.addr2 = a + (instr.addr2 - instr.addr);
            instr.addr = a;
        }
        if (builder_)
            builder_->add(instr);
        else if (keep_)
            (ext_ ? *ext_ : buf_).push_back(instr);
        else if (sink_)
            sink_->onInstr(instr);
        return lastId_;
    }

    uint64_t count() const { return lastId_; }
    const std::vector<Instr> &instrs() const
    {
        return ext_ ? *ext_ : buf_;
    }

    /** Move the buffered trace out (recorder becomes empty). */
    std::vector<Instr>
    take()
    {
        std::vector<Instr> out = std::move(ext_ ? *ext_ : buf_);
        (ext_ ? *ext_ : buf_).clear();
        lastId_ = 0;
        return out;
    }
    void
    clear()
    {
        (ext_ ? *ext_ : buf_).clear();
        lastId_ = 0;
    }

  private:
    bool keep_;
    bool canonical_ = false;
    PackedTrace::Builder *builder_ = nullptr;
    Sink *sink_ = nullptr;
    std::vector<Instr> *ext_ = nullptr;
    uint64_t lastId_ = 0;
    std::vector<Instr> buf_;
    AddressMap addrs_;
};

/**
 * The thread-local recorder the instrumentation writes to. Null means
 * tracing is disabled and instrumented code runs at full host speed (used
 * for warm-up and output-verification runs).
 */
Recorder *&currentRecorder();

/** RAII installation of a recorder for the current thread. */
class ScopedRecorder
{
  public:
    explicit ScopedRecorder(Recorder *rec)
        : saved_(currentRecorder())
    {
        currentRecorder() = rec;
    }
    ~ScopedRecorder() { currentRecorder() = saved_; }

    ScopedRecorder(const ScopedRecorder &) = delete;
    ScopedRecorder &operator=(const ScopedRecorder &) = delete;

  private:
    Recorder *saved_;
};

} // namespace swan::trace

#endif // SWAN_TRACE_RECORDER_HH
