//===- core/AosDatabase.cpp - The AOS decision repository -----------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "core/AosDatabase.h"

#include <cassert>

using namespace aoci;

void AosDatabase::recordRefusal(MethodId Compiled, const Trace &Edge) {
  assert(Edge.depth() == 1 && "refusals are recorded per call edge");
  RefusalKey Key{Compiled, Edge.innermost(), Edge.Callee};
  if (Refusals.insert(Key).second)
    ++NumRefusals;
}

bool AosDatabase::isRefused(MethodId Compiled, const Trace &Edge) const {
  assert(Edge.depth() >= 1 && "edge needs a context pair");
  RefusalKey Key{Compiled, Edge.innermost(), Edge.Callee};
  return Refusals.count(Key) != 0;
}
