//===- osr/FrameMap.cpp - Deterministic frame-state mapping ----------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "osr/FrameMap.h"

#include <cassert>

using namespace aoci;

/// One past the end of frame \p Index's operand stack in the slab.
static uint32_t stackLimit(const ThreadState &T, size_t Index) {
  return Index + 1 == T.Frames.size() ? T.SlabTop
                                      : T.Frames[Index + 1].LocalsBase;
}

FrameSnapshot aoci::snapshotFrame(const ThreadState &T, size_t Index) {
  assert(Index < T.Frames.size() && "no such frame");
  const Frame &F = T.Frames[Index];
  FrameSnapshot S;
  S.Method = F.Method;
  S.PC = F.PC;
  S.Locals.assign(T.Slab.begin() + F.LocalsBase, T.Slab.begin() + F.StackBase);
  S.Stack.assign(T.Slab.begin() + F.StackBase,
                 T.Slab.begin() + stackLimit(T, Index));
  return S;
}

bool aoci::snapshotMatchesFrame(const FrameSnapshot &S, const ThreadState &T,
                                size_t Index) {
  if (Index >= T.Frames.size())
    return false;
  const Frame &F = T.Frames[Index];
  if (F.Method != S.Method || F.PC != S.PC)
    return false;
  if (F.StackBase - F.LocalsBase != S.Locals.size() ||
      stackLimit(T, Index) - F.StackBase != S.Stack.size())
    return false;
  for (size_t I = 0; I != S.Locals.size(); ++I)
    if (!T.Slab[F.LocalsBase + I].equals(S.Locals[I]))
      return false;
  for (size_t I = 0; I != S.Stack.size(); ++I)
    if (!T.Slab[F.StackBase + I].equals(S.Stack[I]))
      return false;
  return true;
}

size_t aoci::physicalRootIndex(const ThreadState &T, size_t Index) {
  assert(Index < T.Frames.size() && "no such frame");
  while (T.Frames[Index].Inlined) {
    assert(Index > 0 && "inlined frame with no physical root");
    --Index;
  }
  return Index;
}

void aoci::retargetFrame(VirtualMachine &VM, ThreadState &T, size_t Index,
                         const CodeVariant *To, const InlineNode *Plan,
                         bool Inlined) {
  assert(Index < T.Frames.size() && "no such frame");
  assert(To != nullptr && "cannot retarget onto no code");
  Frame &F = T.Frames[Index];
  assert((Inlined || To->M == F.Method) &&
         "a physical frame must run a variant of its own method");
  F.Variant = To;
  F.PlanNode = Plan;
  F.Inlined = Inlined;
  // The cost table is keyed by (level, inlined); the body pointer is a
  // pure function of the method and stays valid.
  F.Cost = VM.frameCostTable(F.Method, To->Level, Inlined);
  // A transfer is an invocation as far as the bounded code cache's
  // recency order is concerned (simulated-clock state only).
  To->LastUsedCycle = VM.cycles();
}
