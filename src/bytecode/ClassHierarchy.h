//===- bytecode/ClassHierarchy.h - Subtyping and dispatch -------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Precomputed subtype tests and virtual/interface dispatch tables for a
/// Program, plus the class-hierarchy-analysis queries the inlining oracle
/// uses to decide whether a virtual call can be statically bound (with or
/// without a guard) — the combination of class analysis, CHA and
/// pre-existence referenced in Section 3.1.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_BYTECODE_CLASSHIERARCHY_H
#define AOCI_BYTECODE_CLASSHIERARCHY_H

#include "bytecode/Program.h"

#include <span>
#include <vector>

namespace aoci {

/// Immutable dispatch/subtyping oracle derived from a Program. Every table
/// is computed up front, so queries only read and any number of threads
/// may share one hierarchy.
class ClassHierarchy {
public:
  /// Builds all tables; O(classes * methods) but done once per program.
  explicit ClassHierarchy(const Program &P);

  /// Returns true when \p Sub is \p Super or a (transitive) subclass /
  /// implementor of it.
  bool isSubtypeOf(ClassId Sub, ClassId Super) const;

  /// Resolves a virtual or interface call: the implementation invoked when
  /// a method whose override root is \p Root is called on a receiver of
  /// class \p Receiver. Returns InvalidMethodId when the receiver does not
  /// understand the message (a verifier-rejected situation at runtime).
  MethodId resolveVirtual(ClassId Receiver, MethodId Root) const;

  /// All distinct concrete implementations that a call through override
  /// root \p Root could reach, considering every instantiable class in the
  /// program. One element means the call is monomorphic by CHA.
  std::span<const MethodId> implementations(MethodId Root) const;

  /// True when CHA proves the call has exactly one possible target.
  bool isMonomorphicByCHA(MethodId Root) const {
    return implementations(Root).size() == 1;
  }

  /// True when a statically bound inline of \p Impl needs no guard: the
  /// implementation is final, its class has no instantiable subclasses
  /// that could re-dispatch, and the call is monomorphic by CHA. This
  /// stands in for the pre-existence argument of Detlefs & Agesen: in a
  /// dynamically-loading VM even CHA-monomorphic sites need guards unless
  /// finality (or pre-existence) protects them.
  bool canBindWithoutGuard(MethodId Root, MethodId Impl) const;

  /// All instantiable classes \p C with resolveVirtual(C, Root) == Impl.
  std::vector<ClassId> receiversFor(MethodId Root, MethodId Impl) const;

private:
  /// One dispatch-table entry: a call through Key reaches Impl.
  struct Slot {
    MethodId Key;
    MethodId Impl;
  };

  const Program &P;
  unsigned NumClasses;
  /// Row-major NumClasses x NumClasses subtype matrix.
  std::vector<bool> Subtype;
  /// Every class's dispatch table, sorted by key: class C's is
  /// Slots[SlotBegin[C], SlotBegin[C + 1]).
  std::vector<uint32_t> SlotBegin;
  std::vector<Slot> Slots;
  /// implementations() of every method id: method M's are
  /// ImplIds[ImplBegin[M], ImplBegin[M + 1]).
  std::vector<uint32_t> ImplBegin;
  std::vector<MethodId> ImplIds;

  bool subtypeBit(ClassId Sub, ClassId Super) const {
    return Subtype[static_cast<size_t>(Sub) * NumClasses + Super];
  }
};

} // namespace aoci

#endif // AOCI_BYTECODE_CLASSHIERARCHY_H
