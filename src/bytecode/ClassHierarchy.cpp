//===- bytecode/ClassHierarchy.cpp - Subtyping and dispatch --------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "bytecode/ClassHierarchy.h"

#include <algorithm>
#include <cassert>

using namespace aoci;

ClassHierarchy::ClassHierarchy(const Program &Prog)
    : P(Prog), NumClasses(Prog.numClasses()) {
  Subtype.assign(static_cast<size_t>(NumClasses) * NumClasses, false);
  SlotBegin.reserve(NumClasses + 1);
  SlotBegin.push_back(0);

  // Classes must be registered supertype-first; the builder guarantees it.
  std::vector<Slot> Table;
  for (ClassId C = 0; C != NumClasses; ++C) {
    const Klass &K = P.klass(C);
    assert((K.Super == InvalidClassId || K.Super < C) &&
           "superclass registered after subclass");

    // Subtype row: self, plus everything the super and interfaces reach.
    auto setRow = [&](ClassId Ancestor) {
      for (ClassId S = 0; S != NumClasses; ++S)
        if (subtypeBit(Ancestor, S))
          Subtype[static_cast<size_t>(C) * NumClasses + S] = true;
    };
    Subtype[static_cast<size_t>(C) * NumClasses + C] = true;
    if (K.Super != InvalidClassId)
      setRow(K.Super);
    for (ClassId I : K.Interfaces) {
      assert(I < C && "interface registered after implementor");
      setRow(I);
    }

    // Dispatch table: inherit the super's, then apply local declarations.
    Table.clear();
    if (K.Super != InvalidClassId)
      Table.assign(Slots.begin() + SlotBegin[K.Super],
                   Slots.begin() + SlotBegin[K.Super + 1]);
    for (MethodId MId : K.Methods) {
      const Method &M = P.method(MId);
      if (M.Kind != MethodKind::Virtual && M.Kind != MethodKind::Interface)
        continue;
      if (M.IsAbstract)
        continue;
      Table.push_back({M.OverrideRoot, MId});
      // A concrete method also answers for itself when somebody dispatches
      // on the method directly rather than its root.
      Table.push_back({MId, MId});
    }
    // The sort keeps a key's entries in the order applied, and the last
    // one applied wins: a local declaration overrides the super's.
    std::stable_sort(Table.begin(), Table.end(),
                     [](Slot A, Slot B) { return A.Key < B.Key; });
    for (const Slot &S : Table) {
      if (Slots.size() != SlotBegin.back() && Slots.back().Key == S.Key)
        Slots.back() = S;
      else
        Slots.push_back(S);
    }
    SlotBegin.push_back(static_cast<uint32_t>(Slots.size()));
  }

  // Each key's distinct implementations over the instantiable classes, in
  // class order: their slots, grouped by key (the stable sort keeps class
  // order), then each key's run without repeats.
  std::vector<Slot> Reach;
  for (ClassId C = 0; C != NumClasses; ++C)
    if (P.klass(C).isInstantiable())
      Reach.insert(Reach.end(), Slots.begin() + SlotBegin[C],
                   Slots.begin() + SlotBegin[C + 1]);
  std::stable_sort(Reach.begin(), Reach.end(),
                   [](Slot A, Slot B) { return A.Key < B.Key; });
  ImplBegin.reserve(Prog.numMethods() + 1);
  size_t R = 0;
  for (MethodId M = 0; M != Prog.numMethods(); ++M) {
    ImplBegin.push_back(static_cast<uint32_t>(ImplIds.size()));
    for (; R != Reach.size() && Reach[R].Key == M; ++R)
      if (std::find(ImplIds.begin() + ImplBegin[M], ImplIds.end(),
                    Reach[R].Impl) == ImplIds.end())
        ImplIds.push_back(Reach[R].Impl);
  }
  ImplBegin.push_back(static_cast<uint32_t>(ImplIds.size()));
  ImplIds.shrink_to_fit();
}

bool ClassHierarchy::isSubtypeOf(ClassId Sub, ClassId Super) const {
  assert(Sub < NumClasses && Super < NumClasses && "class id out of range");
  return subtypeBit(Sub, Super);
}

MethodId ClassHierarchy::resolveVirtual(ClassId Receiver,
                                        MethodId Root) const {
  assert(Receiver < NumClasses && "class id out of range");
  const Slot *First = Slots.data() + SlotBegin[Receiver];
  const Slot *Last = Slots.data() + SlotBegin[Receiver + 1];
  const Slot *It =
      std::lower_bound(First, Last, Root,
                       [](const Slot &S, MethodId Key) { return S.Key < Key; });
  return It != Last && It->Key == Root ? It->Impl : InvalidMethodId;
}

std::span<const MethodId>
ClassHierarchy::implementations(MethodId Root) const {
  if (Root + size_t{1} >= ImplBegin.size())
    return {};
  return {ImplIds.data() + ImplBegin[Root],
          ImplIds.data() + ImplBegin[Root + 1]};
}

bool ClassHierarchy::canBindWithoutGuard(MethodId Root, MethodId Impl) const {
  if (!isMonomorphicByCHA(Root))
    return false;
  const Method &M = P.method(Impl);
  // Finality is our stand-in for pre-existence: it is the only property
  // that survives future class loading in an open-world VM.
  return M.IsFinal;
}

std::vector<ClassId> ClassHierarchy::receiversFor(MethodId Root,
                                                  MethodId Impl) const {
  std::vector<ClassId> Receivers;
  for (ClassId C = 0; C != NumClasses; ++C) {
    if (!P.klass(C).isInstantiable())
      continue;
    if (resolveVirtual(C, Root) == Impl)
      Receivers.push_back(C);
  }
  return Receivers;
}
