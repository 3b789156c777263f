//===- vm/VirtualMachine.h - The simulated JVM -------------------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The virtual machine substrate: a resumable explicit-frame interpreter
/// with green threads, a cycle clock, yieldpoint-based timer sampling,
/// lazy baseline compilation, and inline-plan-aware call dispatch
/// (guarded inlining with dynamic fallback). See DESIGN.md for how this
/// substitutes for Jikes RVM.
///
/// Frames are *source-level*: an inlined callee gets its own Frame marked
/// Inlined=true, executing under the caller's physical code variant. The
/// frame stack therefore directly provides the recovered source-level view
/// of optimized stack frames that Section 3.3 requires; a "naive" walker
/// that sees only physical frames is available for the ablation study.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_VM_VIRTUALMACHINE_H
#define AOCI_VM_VIRTUALMACHINE_H

#include "bytecode/MethodImage.h"
#include "support/Rng.h"
#include "bytecode/Program.h"
#include "vm/CodeManager.h"
#include "vm/CostModel.h"
#include "vm/Heap.h"
#include "vm/Overhead.h"
#include "vm/SampleSink.h"
#include "vm/Value.h"

#include <memory>
#include <vector>

namespace aoci {

class TraceSink;
class OsrDriver;

/// Host-side interpreter state for one source method that belongs to this
/// VM: the inline caches its calls fill. Everything a call reads of the
/// program (body, locals, argument slots, cycle-charge tables) is in the
/// program's MethodImage, shared by every VM on it. This is a pure cache:
/// it exists to make the host interpreter fast and must never change what
/// the simulated clock or counters record (see DESIGN.md, "Host fast path
/// vs. simulated clock").
struct MethodHotData {
  /// Monomorphic inline cache, indexed by invoke-site PC: the last
  /// receiver class seen at the site and the resolveVirtual() target it
  /// memoizes. Resolution is a pure function of (receiver class, override
  /// root), so the cache can never change a dispatch outcome — only skip
  /// the hierarchy walk. Allocated on the first virtual/interface call.
  struct IcEntry {
    ClassId Receiver = InvalidClassId;
    MethodId Target = InvalidMethodId;
  };
  std::unique_ptr<IcEntry[]> InlineCaches;
};

/// One source-level activation record. Locals and operand stack live in
/// the owning thread's value slab (ThreadState::Slab): locals occupy
/// [LocalsBase, StackBase) and the operand stack grows from StackBase up
/// to the thread's SlabTop while this frame is on top, so frame push/pop
/// is a pointer bump instead of two heap allocations.
struct Frame {
  /// The source method this frame executes.
  MethodId Method = InvalidMethodId;
  /// Program counter within the source method's body. While a callee is
  /// active, the caller's PC stays at the invoke instruction, so a stack
  /// walk reads call sites directly from caller PCs.
  uint32_t PC = 0;
  /// The physical code variant executing this frame. Inlined frames share
  /// the enclosing physical frame's variant.
  const CodeVariant *Variant = nullptr;
  /// Active inline decisions for call sites in this body; null when the
  /// body runs without an inline plan (baseline code, or nothing inlined).
  const InlineNode *PlanNode = nullptr;
  /// Dispatch state cached at frame entry so the hot loop never re-derives
  /// it per instruction: the method's body and the per-PC cycle-charge
  /// table for this frame's (variant level, inlined) pair.
  const Instruction *Body = nullptr;
  const uint32_t *Cost = nullptr;
  /// Arena offsets into ThreadState::Slab (see struct comment).
  uint32_t LocalsBase = 0;
  uint32_t StackBase = 0;
  /// True when this source frame was inlined into the frame below it.
  bool Inlined = false;
  /// True when this frame was transferred onto a replacement variant by
  /// an on-stack replacement; handleReturn then notifies the OSR driver
  /// so it can account the time spent in the new code.
  bool OsrEntered = false;
  /// OSR bookkeeping, valid while OsrEntered: the clock at transfer and
  /// the optimization level the frame was running before it.
  uint64_t OsrEnterCycle = 0;
  OptLevel OsrFromLevel = OptLevel::Baseline;
};

/// One green thread.
struct ThreadState {
  unsigned Id = 0;
  std::vector<Frame> Frames;
  /// The thread's value slab: every frame's locals and operand stack, laid
  /// out contiguously in call order. Grows geometrically when a frame entry
  /// needs more room and never shrinks during a run, so returned frames'
  /// storage is reused by the next call without touching the allocator.
  std::vector<Value> Slab;
  /// One past the top frame's operand-stack top (the slab's live extent).
  uint32_t SlabTop = 0;
  bool Finished = false;
  /// Entry method's return value when it returns one.
  Value Result;

  /// Operand-stack depth of the top frame (test/diagnostic helper).
  uint32_t stackDepth() const {
    return Frames.empty() ? 0 : SlabTop - Frames.back().StackBase;
  }
};

/// Execution counters exposed for tests and experiments.
struct ExecutionCounters {
  uint64_t InstructionsExecuted = 0;
  uint64_t CallsExecuted = 0;     ///< Physical (non-inlined) calls.
  uint64_t InlinedCallsEntered = 0;
  uint64_t GuardTestsExecuted = 0;
  uint64_t GuardFallbacks = 0;    ///< Call sites where every guard failed.
  uint64_t Allocations = 0;
  uint64_t SamplesTaken = 0;
  uint64_t PrologueSamples = 0;
};

/// The virtual machine. Privately implements the code manager's eviction
/// delegate: the bounded code cache asks the VM whether a variant is safe
/// to reclaim (routing live activations through the OSR driver's deopt),
/// and the VM audits its frames after every install and eviction. Calls
/// dispatch through the code manager's current variant, so no VM-side
/// cache can go stale when code is replaced.
class VirtualMachine : private CodeEvictionDelegate {
public:
  /// \p P must outlive the VM and must verify cleanly (asserted in debug
  /// builds).
  explicit VirtualMachine(const Program &P, CostModel Model = CostModel());

  /// Installs the adaptive system's sample receiver (may be null to run
  /// without any profiling).
  void setSampleSink(SampleSink *Sink) { this->Sink = Sink; }

  /// Attaches the observability event sink (null detaches). Captures the
  /// program's method names into the sink and forwards it to the code
  /// manager. Emission charges zero simulated cycles — see
  /// OBSERVABILITY.md's overhead guarantees.
  void setTraceSink(TraceSink *T);
  TraceSink *traceSink() const { return Trace; }

  /// Attaches the OSR/deoptimization driver (null detaches — the
  /// default, under which no activation is ever transferred and the
  /// interpreter behaves exactly as without the subsystem).
  void setOsrDriver(OsrDriver *D) { Osr = D; }
  OsrDriver *osrDriver() const { return Osr; }

  /// Creates a green thread that will execute static no-arg method
  /// \p Entry. Returns the thread id.
  unsigned addThread(MethodId Entry);

  /// Runs all threads round-robin until each finishes or the clock passes
  /// \p CycleLimit.
  void run(uint64_t CycleLimit = UINT64_MAX);

  /// Executes at most \p MaxInstructions on thread \p T (for tests).
  void step(ThreadState &T, uint64_t MaxInstructions);

  //===--------------------------------------------------------------------===//
  // Clock and accounting.
  //===--------------------------------------------------------------------===//

  uint64_t cycles() const { return Clock; }

  /// Charges \p Cycles of adaptive-system work: advances the clock and the
  /// per-component meter. Used by listeners, organizers, the controller
  /// and the compilation thread.
  void chargeAos(AosComponent C, uint64_t Cycles) {
    Clock += Cycles;
    Meter.charge(C, Cycles);
  }

  /// Charges \p Cycles of runtime-system work performed on the
  /// application thread outside the bytecode cost tables — OSR and
  /// deoptimization transitions and code-cache reclaim. Advances the
  /// clock: the mutator waits, but nothing lands on the AOS component
  /// meters.
  void chargeMutator(uint64_t Cycles) { Clock += Cycles; }

  const OverheadMeter &overheadMeter() const { return Meter; }
  const ExecutionCounters &counters() const { return Counters; }

  //===--------------------------------------------------------------------===//
  // Component access.
  //===--------------------------------------------------------------------===//

  const Program &program() const { return P; }
  const ClassHierarchy &hierarchy() const { return Image.hierarchy(); }
  const CostModel &costModel() const { return Model; }
  Heap &heap() { return TheHeap; }
  CodeManager &codeManager() { return Code; }
  const CodeManager &codeManager() const { return Code; }
  const std::vector<std::unique_ptr<ThreadState>> &threads() const {
    return Threads;
  }

  /// Ensures \p M has at least baseline code, charging the baseline
  /// compiler's cycles on first touch (Jikes compiles lazily at first
  /// invocation). Returns the current variant.
  const CodeVariant *ensureCompiled(MethodId M);

  /// Ensures \p M has a *baseline* variant, (re-)compiling one if the
  /// cache evicted it — even while an optimized variant is still
  /// current. Deoptimization needs this: a frame can only be unwound
  /// onto baseline code, and with a bounded cache the baseline may be
  /// long gone by the time its method's optimized code is the victim.
  const CodeVariant *ensureBaseline(MethodId M);

  /// The per-PC cycle-charge table of \p M under (\p L, \p Inlined), from
  /// the program's image (see CostKey), built on first use. Frame entry
  /// reads it, and so does the OSR frame mapper, which must retarget a
  /// frame's cached Cost pointer when it swaps the variant; the table
  /// contents are a pure function of the inputs, so handing them out
  /// cannot perturb execution.
  const uint32_t *frameCostTable(MethodId M, OptLevel L, bool Inlined);

  /// Cross-checks the VM-level cache/dispatch invariants (see
  /// support/Audit.h): no live frame executes evicted code, and every
  /// frame's cached body pointer is its method's body. Throws
  /// audit::AuditError on violation; no-op unless auditing is enabled.
  /// The code manager calls this after installs and evictions (through
  /// the delegate); the OSR manager after transfers.
  void auditState(const char *Where) const;

private:
  //===--------------------------------------------------------------------===//
  // CodeEvictionDelegate (the bounded code cache's engine hooks).
  //===--------------------------------------------------------------------===//

  uint64_t evictionClock() const override { return Clock; }
  /// Reclaim work stalls the application thread (chargeMutator).
  void chargeEviction(uint64_t Cycles) override { chargeMutator(Cycles); }
  bool prepareEviction(const CodeVariant &V) override;
  void onCodeChanged(const char *Where) override { auditState(Where); }
  /// The interpreter's inner loop: executes thread \p T until it finishes,
  /// the clock reaches \p StopClock, or \p MaxInstr instructions have run.
  /// Hot frame state (PC, operand-stack top, body/cost/slab pointers) is
  /// cached in locals and written back at frame transitions and sample
  /// points, so straight-line bytecode never round-trips through memory.
  void interpret(ThreadState &T, uint64_t StopClock, uint64_t MaxInstr);
  void handleCall(ThreadState &T, const Instruction &I);
  void handleReturn(ThreadState &T, bool HasValue);
  void enterPhysicalFrame(ThreadState &T, MethodId Callee,
                          const CodeVariant *Variant);
  void enterInlinedFrame(ThreadState &T, const InlineCase &Case);
  /// Pushes a frame for \p Callee whose numArgSlots() arguments are the
  /// top of the current operand stack (they become the callee's first
  /// locals in place — no copy). Enforces Model.MaxFrameDepth.
  void pushFrame(ThreadState &T, MethodId Callee, const CodeVariant *Variant,
                 const InlineNode *Plan, bool Inlined);
  [[noreturn]] void throwRecursionLimit(const ThreadState &T,
                                        MethodId Callee) const;
  void charge(uint64_t Cycles) {
    Clock += Cycles;
  }
  void maybeDeliverSample(ThreadState &T, bool AtPrologue);
  /// Backedge OSR hook: when a driver is attached and the top frame's
  /// variant has been superseded, hands the thread to the driver.
  /// Returns true when the driver remapped the frame stack. Out of line
  /// on purpose — the interpreter's hot path only pays the Osr null
  /// test and the staleness compare.
  bool maybeOsrAtBackedge(ThreadState &T);

  const Program &P;
  const MethodImage &Image;
  CostModel Model;
  /// The image's cost tables under this VM's model, by level * 2 + inlined.
  const CostTables *Costs[NumOptLevels * 2];
  Heap TheHeap;
  CodeManager Code;
  OverheadMeter Meter;
  ExecutionCounters Counters;
  SampleSink *Sink = nullptr;
  TraceSink *Trace = nullptr;
  OsrDriver *Osr = nullptr;
  std::vector<std::unique_ptr<ThreadState>> Threads;
  /// Per-method host-side caches, indexed by MethodId.
  std::vector<MethodHotData> HotData;
  uint64_t Clock = 0;
  uint64_t NextSampleAt;
  /// Deterministic jitter for the sampling period. A perfectly periodic
  /// timer aliases against fixed-cost loops (every sample lands at the
  /// same loop phase, systematically hiding some call sites); real timer
  /// interrupts are uncorrelated with loop phase, which is also why the
  /// paper calls its sampling non-deterministic. Jitter restores the
  /// uncorrelated behaviour while keeping runs bit-reproducible.
  Rng SampleJitter;
  uint64_t jitteredPeriod() {
    const uint64_t Period = Model.SamplePeriodCycles;
    return Period / 2 + SampleJitter.nextBelow(Period);
  }
};

/// Walks \p T's stack and returns the source-level frames from innermost
/// to outermost — the Section 3.3 "recovered" view. This is simply the
/// frame stack reversed, since frames are already source-level.
std::vector<const Frame *> sourceStack(const ThreadState &T);

/// The naive walk of Section 3.3: only physical frames are visible, so
/// traces skip inlined methods. Kept for the ablation experiment.
std::vector<const Frame *> physicalStack(const ThreadState &T);

} // namespace aoci

#endif // AOCI_VM_VIRTUALMACHINE_H
