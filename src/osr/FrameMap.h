//===- osr/FrameMap.h - Deterministic frame-state mapping --------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The frame-state mapping underneath OSR and deoptimization. Because
/// frames are already source-level (an inlined callee owns its own Frame,
/// locals and operand stack in the thread's value slab), transferring an
/// activation between code variants is the *identity* on all interpreter
/// state — method, PC, locals, stack, slab offsets — and only retargets
/// the dispatch fields (Variant, PlanNode, per-PC cost table, Inlined
/// bit). That identity is what makes OSR deterministic here: the mapped
/// frame resumes at the same source PC with bit-identical values, and
/// only the cycle charges of subsequent instructions change.
///
/// snapshotFrame()/snapshotMatchesFrame() reify that contract so tests
/// can assert the round trip property directly.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_OSR_FRAMEMAP_H
#define AOCI_OSR_FRAMEMAP_H

#include "vm/VirtualMachine.h"

#include <cstddef>
#include <vector>

namespace aoci {

/// The complete source-level state of one activation: everything an OSR
/// or deopt transition must preserve.
struct FrameSnapshot {
  MethodId Method = InvalidMethodId;
  uint32_t PC = 0;
  std::vector<Value> Locals;
  std::vector<Value> Stack;
};

/// Captures the source-level state of frame \p Index of \p T. The frame's
/// operand stack extends to the next frame's locals (arguments become the
/// callee's first locals in place) or, for the top frame, to SlabTop.
FrameSnapshot snapshotFrame(const ThreadState &T, size_t Index);

/// True when frame \p Index of \p T carries exactly the state in \p S
/// (method, PC, locals and stack values). The round-trip assertion.
bool snapshotMatchesFrame(const FrameSnapshot &S, const ThreadState &T,
                          size_t Index);

/// Index of the physical root of the inline group containing frame
/// \p Index: walks down while frames are marked Inlined. For a physical
/// frame this is the identity.
size_t physicalRootIndex(const ThreadState &T, size_t Index);

/// Retargets frame \p Index of \p T onto \p To: swaps Variant, the active
/// inline plan, the Inlined bit, and the cached per-PC cost table (via
/// VirtualMachine::frameCostTable). Everything else — PC, slab offsets,
/// locals, operand stack — is deliberately untouched; see the file
/// comment. \p To must be a variant of the frame's own source method.
void retargetFrame(VirtualMachine &VM, ThreadState &T, size_t Index,
                   const CodeVariant *To, const InlineNode *Plan,
                   bool Inlined);

} // namespace aoci

#endif // AOCI_OSR_FRAMEMAP_H
