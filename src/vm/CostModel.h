//===- vm/CostModel.h - The cycle-accounting model ---------------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every cycle the simulated machine charges is defined here. The model
/// is the substitution for the paper's Pentium-3 testbed (see DESIGN.md):
/// wall-clock time, compile time, code space, and AOS overhead all derive
/// from these constants, so the relative effects the paper measures are
/// functions of inlining decisions rather than of a host machine.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_VM_COSTMODEL_H
#define AOCI_VM_COSTMODEL_H

#include <cstdint>

namespace aoci {

/// Optimization level of a compiled-code variant. Jikes RVM's adaptive
/// configuration uses a quick non-optimizing baseline compiler plus
/// optimizing recompilation; we model one baseline and two opt levels.
enum class OptLevel : uint8_t { Baseline = 0, Opt1 = 1, Opt2 = 2 };

constexpr unsigned NumOptLevels = 3;

inline const char *optLevelName(OptLevel L) {
  switch (L) {
  case OptLevel::Baseline:
    return "base";
  case OptLevel::Opt1:
    return "opt1";
  case OptLevel::Opt2:
    return "opt2";
  }
  return "<invalid>";
}

/// Bounded-code-cache knob. CapacityBytes == 0 (the default) disables
/// eviction entirely: CodeManager then behaves exactly like the unbounded
/// registry and every pre-cache golden reproduces byte-for-byte.
struct CodeCacheConfig {
  uint64_t CapacityBytes = 0;

  bool enabled() const { return CapacityBytes != 0; }
};

/// All tunable cycle/byte constants of the simulation.
struct CostModel {
  //===--------------------------------------------------------------------===//
  // Execution costs (cycles).
  //===--------------------------------------------------------------------===//

  /// Cycles per machine-size unit of an executed instruction, by level.
  /// Baseline code is unoptimized; Opt1/Opt2 model Jikes' O1/O2.
  uint64_t CyclesPerUnit[NumOptLevels] = {10, 6, 4};

  /// Instructions executed inside an inlined body additionally enjoy a
  /// scope benefit (cross-call optimization the paper's Section 1 calls
  /// "indirect costs of missed optimization opportunities"). Cost is
  /// multiplied by ScopeBonusNum/ScopeBonusDen.
  uint64_t ScopeBonusNum = 19;
  uint64_t ScopeBonusDen = 20;

  /// Fixed linkage cost of a non-inlined call (argument shuffling, frame
  /// setup, return). Eliminated entirely by inlining.
  uint64_t CallOverhead = 40;

  /// Additional dispatch cost of a virtual call (vtable load + indirect
  /// branch) and an interface call (itable search).
  uint64_t VirtualDispatch = 14;
  uint64_t InterfaceDispatch = 26;

  /// Cost of testing one inline guard (class-equality check).
  uint64_t GuardTest = 4;

  /// Cost of entering/leaving an inlined body (register pressure, spill).
  uint64_t InlineEntry = 1;

  /// Epilogue cost of returning from a physical frame.
  uint64_t ReturnOverhead = 10;

  /// Cost of one on-stack replacement: extracting the frame state at a
  /// loop backedge, mapping it onto the replacement variant, and jumping
  /// into the new code (Section "On-stack replacement" in DESIGN.md).
  /// Charged on the application thread: OSR is runtime work the mutator
  /// waits for, not AOS overhead.
  uint64_t OsrTransitionCycles = 600;

  /// Per-materialized-frame cost of a deoptimization: each source frame
  /// of the stale inlined group is extracted and re-established as a
  /// physical baseline frame.
  uint64_t DeoptFrameCycles = 200;

  /// Cost of reclaiming one evicted variant from the bounded code cache:
  /// unlinking it from dispatch structures and returning its bytes to the
  /// allocator. Charged on the application thread (the mutator waits for
  /// the cache). An eviction that must deoptimize live activations
  /// additionally pays DeoptFrameCycles per remapped frame.
  uint64_t EvictReclaimCycles = 250;

  /// Allocation: fixed cost plus a per-slot zeroing cost.
  uint64_t AllocBase = 30;
  uint64_t AllocPerSlot = 2;

  //===--------------------------------------------------------------------===//
  // Compilation costs and code-space accounting.
  //===--------------------------------------------------------------------===//

  /// Compile cycles per machine-size unit of generated code (including
  /// inlined bodies), by level. The ~1:13:30 ratio mirrors Jikes'
  /// published baseline-vs-opt compile-rate gap.
  uint64_t CompileCyclesPerUnit[NumOptLevels] = {30, 400, 900};

  /// Fixed per-compilation overhead (plan setup, IR construction).
  uint64_t CompileBaseCost[NumOptLevels] = {500, 8000, 15000};

  /// Generated machine-code bytes per machine-size unit, by level.
  /// Optimized code is denser per unit, but inlining multiplies units.
  uint64_t BytesPerUnit[NumOptLevels] = {14, 10, 10};

  /// Extra machine-size units a guarded inline adds per guard (the test
  /// itself plus the retained fallback call sequence).
  uint64_t GuardSizeUnits = 6;

  /// Cost of installing a shared-code-cache hit instead of compiling
  /// (serve mode, src/share/): linking a variant another session already
  /// published into this session's code cache. Charged in place of
  /// compileCycles() — far below CompileBaseCost, so a hit is a real
  /// compile-cycle saving while still not being free.
  uint64_t ShareLinkBaseCost = 1200;
  uint64_t ShareLinkCyclesPerUnit = 12;

  /// Bounded code cache (off by default — see CodeCacheConfig). Bounding
  /// models the code-space pressure the paper's Figure 5 is about:
  /// evicted methods fall back to baseline (or recompile on re-entry),
  /// trading mutator cycles for resident bytes.
  CodeCacheConfig CodeCache;

  //===--------------------------------------------------------------------===//
  // Sampling and AOS bookkeeping costs.
  //===--------------------------------------------------------------------===//

  /// Cycles between timer interrupts. With the nominal "20 MHz" clock this
  /// corresponds to the paper's ~100 samples/second.
  uint64_t SamplePeriodCycles = 200000;

  /// Seed of the deterministic timer jitter. Varying it reproduces the
  /// run-to-run variance of real timer sampling (the reason the paper
  /// reports the best of 20 runs) while keeping each run reproducible.
  uint64_t SampleJitterSeed = 0x5A3B1E;

  /// Cost charged to the listeners for taking one method sample.
  uint64_t MethodSampleCost = 40;

  /// Cost charged to the listeners for recording one context-insensitive
  /// edge sample (single stack inspection).
  uint64_t EdgeSampleCost = 60;

  /// Per-source-frame cost of the trace listener's stack walk, on top of
  /// EdgeSampleCost. Context sensitivity pays this extra.
  uint64_t TraceFrameCost = 18;

  //===--------------------------------------------------------------------===//
  // Scheduling.
  //===--------------------------------------------------------------------===//

  /// Green-thread round-robin quantum.
  uint64_t ThreadQuantumCycles = 50000;

  /// Hard cap on a thread's frame-stack depth. Exceeding it raises a
  /// std::runtime_error with a diagnostic — in release builds too, where
  /// runaway recursion would otherwise silently exhaust host memory.
  uint32_t MaxFrameDepth = 4096;

  //===--------------------------------------------------------------------===//
  // Helpers.
  //===--------------------------------------------------------------------===//

  uint64_t cyclesPerUnit(OptLevel L) const {
    return CyclesPerUnit[static_cast<unsigned>(L)];
  }

  uint64_t compileCycles(OptLevel L, uint64_t MachineUnits) const {
    unsigned I = static_cast<unsigned>(L);
    return CompileBaseCost[I] + CompileCyclesPerUnit[I] * MachineUnits;
  }

  uint64_t codeBytes(OptLevel L, uint64_t MachineUnits) const {
    return BytesPerUnit[static_cast<unsigned>(L)] * MachineUnits;
  }

  /// Cycles a session pays to install a shared-cache hit (in place of
  /// compileCycles; see ShareLinkBaseCost).
  uint64_t shareLinkCycles(uint64_t MachineUnits) const {
    return ShareLinkBaseCost + ShareLinkCyclesPerUnit * MachineUnits;
  }

  /// Expected steady-state speed ratio of level \p To over level \p From,
  /// used by the controller's analytic recompilation model.
  double speedRatio(OptLevel From, OptLevel To) const {
    return static_cast<double>(cyclesPerUnit(From)) /
           static_cast<double>(cyclesPerUnit(To));
  }
};

} // namespace aoci

#endif // AOCI_VM_COSTMODEL_H
