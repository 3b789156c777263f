//===- vm/OsrDriver.h - On-stack-replacement hook interface ------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interpreter's hook into the OSR/deoptimization subsystem. Like
/// SampleSink, this is an abstract interface declared in the vm layer so
/// the interpreter stays independent of the concrete policy machinery;
/// the implementation (OsrManager, frame mapping, the cost/benefit gate)
/// lives in src/osr/. A VM without a driver attached pays exactly one
/// null-pointer test per taken backward branch whose frame is stale —
/// and stale frames cannot exist without an adaptive system installing
/// replacement variants, so the OSR-off fast path is byte-identical to
/// the pre-OSR interpreter.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_VM_OSRDRIVER_H
#define AOCI_VM_OSRDRIVER_H

namespace aoci {

class VirtualMachine;
struct ThreadState;
struct Frame;
struct CodeVariant;

/// Receives interpreter notifications at the two points where activation
/// transfer is possible: a loop-backedge yieldpoint whose top frame
/// executes a superseded variant, and the return of a frame that was
/// OSR-entered (for exit accounting).
class OsrDriver {
public:
  virtual ~OsrDriver() = default;

  /// The top frame of \p T reached a taken backward branch while its
  /// variant is no longer the method's current code. The interpreter has
  /// already spilled the frame's PC and the thread's SlabTop, so the
  /// driver may remap the frame (or its whole inline group) in place.
  /// Returns true when it mutated the frame stack — the interpreter then
  /// re-derives its cached dispatch state before executing on.
  virtual bool onStaleBackedge(VirtualMachine &VM, ThreadState &T) = 0;

  /// Frame \p Done (which had been OSR-entered; Frame::OsrEntered) just
  /// returned. \p Done is already popped off \p T. Pure accounting: the
  /// driver must not touch the frame stack or the clock here.
  virtual void onOsrFrameReturn(VirtualMachine &VM, ThreadState &T,
                                const Frame &Done) = 0;

  /// The bounded code cache wants to evict \p V, but some thread has a
  /// live activation executing it. This deoptimizes every such
  /// activation to baseline frames (reusing the deopt frame mapping); the
  /// VM then checks that no frame is left on \p V, and pins the variant
  /// if one is — the cache then picks a different victim. Only optimized
  /// variants are offered: baseline code with live activations is always
  /// pinned.
  virtual void onEvictVariant(VirtualMachine &VM, const CodeVariant &V) = 0;
};

} // namespace aoci

#endif // AOCI_VM_OSRDRIVER_H
