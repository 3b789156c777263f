//===- workload/scenario/ScenarioWorkload.cpp - Spec -> Workload ------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "workload/scenario/ScenarioWorkload.h"

#include "bytecode/ProgramBuilder.h"
#include "support/StringUtils.h"
#include "workload/WorkloadCommon.h"

#include <algorithm>
#include <cmath>

using namespace aoci;

namespace {

/// Everything the per-phase emitters need: the shared receiver hierarchy,
/// the churn rotation, and the allocation target.
struct ScenarioContext {
  explicit ScenarioContext(ProgramBuilder &B) : B(B) {}

  ProgramBuilder &B;
  /// Abstract dispatch root ScnOp.apply(x).
  MethodId Apply = InvalidMethodId;
  /// Concrete receiver classes ScnOp0..ScnOp{M-1}.
  std::vector<ClassId> OpClasses;
  /// Allocation-burst target (instantiated and immediately dropped).
  ClassId Buf = InvalidClassId;
  /// Churn dispatcher ScnChurn.step(sel, x), InvalidMethodId when the
  /// scenario never churns.
  MethodId ChurnStep = InvalidMethodId;
};

/// Emits the megamorphic virtual dispatch shared by every shape's sink:
/// `ops[(i + Bias) % Mega].apply(i)`, leaving the result on the stack.
/// Callers are static (arr, i) methods, so locals 0/1 are the receiver
/// array and the iteration counter; slot 2 is scratch.
void emitDispatch(CodeEmitter &E, const ScenarioContext &Cx, unsigned Mega,
                  unsigned Bias) {
  E.load(0); // receiver array
  E.load(1);
  if (Bias != 0)
    E.iconst(Bias).iadd();
  E.iconst(Mega).irem();
  E.arrayLoad().store(2);
  E.load(2).load(1).invokeVirtual(Cx.Apply);
}

/// Builds the receiver hierarchy: abstract ScnOp with virtual apply(x),
/// plus \p Mega concrete subclasses whose overrides each call their own
/// parameterless static helper (a distinct inlinable callee per class, so
/// context-sensitive policies see different call chains per receiver).
void buildReceivers(ScenarioContext &Cx, unsigned Mega) {
  ProgramBuilder &B = Cx.B;
  const ClassId Op = B.addAbstractClass("ScnOp");
  Cx.Apply = B.declareAbstractMethod(Op, "apply", MethodKind::Virtual,
                                     /*NumParams=*/1, /*ReturnsValue=*/true);
  for (unsigned K = 0; K != Mega; ++K) {
    const ClassId C = B.addClass("ScnOp" + std::to_string(K), Op);
    const MethodId Lift = B.declareMethod(C, "lift", MethodKind::Static,
                                          /*NumParams=*/0,
                                          /*ReturnsValue=*/true);
    {
      CodeEmitter E = B.code(Lift);
      E.work(2 + K).iconst(K + 1).vreturn();
      E.finish();
    }
    const MethodId ApplyK = B.addOverride(C, Cx.Apply);
    {
      // locals: 0 = this, 1 = x.
      CodeEmitter E = B.code(ApplyK);
      E.work(4 + 3 * static_cast<int64_t>(K));
      E.invokeStatic(Lift).load(1).iadd().vreturn();
      E.finish();
    }
    Cx.OpClasses.push_back(C);
  }
}

/// Builds the churn rotation: \p Churn distinct straight-line statics
/// c0..c{Churn-1} of deliberately varied size plus the step(sel, x)
/// if-chain that dispatches among them. Every c_j stays warm (called once
/// per Churn iterations), which is exactly the wide warm set that
/// thrashes a bounded code cache.
void buildChurn(ScenarioContext &Cx, unsigned Churn) {
  if (Churn == 0)
    return;
  ProgramBuilder &B = Cx.B;
  const ClassId K = B.addClass("ScnChurn");
  std::vector<MethodId> Rotation;
  for (unsigned J = 0; J != Churn; ++J) {
    std::string Name = "c";
    Name += std::to_string(J);
    const MethodId M = B.declareMethod(K, Name, MethodKind::Static,
                                       /*NumParams=*/1, /*ReturnsValue=*/true);
    CodeEmitter E = B.code(M);
    // Vary body size across the rotation so eviction ordering is not
    // degenerate (uniform sizes would make every victim equivalent).
    E.work(6 + static_cast<int64_t>(J % 11) * 7);
    E.load(0).iconst(J).iadd().vreturn();
    E.finish();
    Rotation.push_back(M);
  }
  Cx.ChurnStep = B.declareMethod(K, "step", MethodKind::Static,
                                 /*NumParams=*/2, /*ReturnsValue=*/true);
  {
    // locals: 0 = sel (already reduced mod Churn), 1 = x.
    CodeEmitter E = B.code(Cx.ChurnStep);
    for (unsigned J = 0; J != Churn; ++J) {
      const CodeEmitter::Label Next = E.newLabel();
      E.load(0).iconst(J).icmpEq().ifZero(Next);
      E.load(1).invokeStatic(Rotation[J]).vreturn();
      E.bind(Next);
    }
    E.load(1).vreturn();
    E.finish();
  }
}

/// Methods of one compiled phase.
struct PhaseMethods {
  /// Once-called marker; registered via Program::markPhaseStart.
  MethodId Begin = InvalidMethodId;
  /// Hot static kernel(arr, i) the main loop invokes.
  MethodId Kernel = InvalidMethodId;
};

/// Builds phase \p Index's class: the begin() marker, the shape-specific
/// call graph, and the kernel(arr, i) tying it together.
PhaseMethods buildPhase(ScenarioContext &Cx, const PhaseSpec &P,
                        unsigned Index) {
  ProgramBuilder &B = Cx.B;
  const ClassId PC = B.addClass("ScnPhase" + std::to_string(Index));
  PhaseMethods Out;

  Out.Begin = B.declareMethod(PC, "begin", MethodKind::Static,
                              /*NumParams=*/0, /*ReturnsValue=*/false);
  {
    CodeEmitter E = B.code(Out.Begin);
    E.work(1).ret();
    E.finish();
  }

  const int64_t Work = static_cast<int64_t>(P.WorkUnits);
  const unsigned Mega = P.Megamorphism;
  // Sinks are the (arr, i) -> value statics the kernel sums; each one ends
  // in a megamorphic dispatch.
  std::vector<MethodId> Sinks;

  switch (P.Shape) {
  case PhaseShape::Chain: {
    // kernel -> link0 -> ... -> link{Depth-1} -> dispatch. Declare all
    // links first so each body can call the next by id.
    std::vector<MethodId> Links;
    for (unsigned J = 0; J != P.Depth; ++J)
      Links.push_back(B.declareMethod(PC, "link" + std::to_string(J),
                                      MethodKind::Static, /*NumParams=*/2,
                                      /*ReturnsValue=*/true));
    for (unsigned J = 0; J != P.Depth; ++J) {
      CodeEmitter E = B.code(Links[J]);
      E.work(Work);
      if (J + 1 != P.Depth)
        E.load(0).load(1).invokeStatic(Links[J + 1]);
      else
        emitDispatch(E, Cx, Mega, 0);
      E.vreturn();
      E.finish();
    }
    Sinks.push_back(Links[0]);
    break;
  }
  case PhaseShape::Fanout: {
    // kernel -> leaf0..leaf{Depth-1}; each leaf biases the receiver index
    // differently, so the per-leaf sites see rotated receiver mixes.
    for (unsigned J = 0; J != P.Depth; ++J) {
      const MethodId Leaf =
          B.declareMethod(PC, "leaf" + std::to_string(J), MethodKind::Static,
                          /*NumParams=*/2, /*ReturnsValue=*/true);
      CodeEmitter E = B.code(Leaf);
      E.work(Work);
      emitDispatch(E, Cx, Mega, J);
      E.vreturn();
      E.finish();
      Sinks.push_back(Leaf);
    }
    break;
  }
  case PhaseShape::Diamond: {
    // kernel -> {left, right} -> join -> dispatch.
    const MethodId Join =
        B.declareMethod(PC, "join", MethodKind::Static, /*NumParams=*/2,
                        /*ReturnsValue=*/true);
    {
      CodeEmitter E = B.code(Join);
      E.work(Work);
      emitDispatch(E, Cx, Mega, 0);
      E.vreturn();
      E.finish();
    }
    for (const char *Side : {"left", "right"}) {
      const MethodId M =
          B.declareMethod(PC, Side, MethodKind::Static, /*NumParams=*/2,
                          /*ReturnsValue=*/true);
      CodeEmitter E = B.code(M);
      E.work(Work + P.Depth);
      E.load(0).load(1).invokeStatic(Join).vreturn();
      E.finish();
      Sinks.push_back(M);
    }
    break;
  }
  }

  Out.Kernel = B.declareMethod(PC, "kernel", MethodKind::Static,
                               /*NumParams=*/2, /*ReturnsValue=*/true);
  {
    // locals: 0 = arr, 1 = i, 2 = acc.
    CodeEmitter E = B.code(Out.Kernel);
    E.iconst(0).store(2);
    for (unsigned A = 0; A != P.AllocBurst; ++A)
      E.newObject(Cx.Buf).pop();
    if (P.MethodChurn != 0) {
      E.load(1).iconst(P.MethodChurn).irem();
      E.load(1).invokeStatic(Cx.ChurnStep);
      E.load(2).iadd().store(2);
    }
    for (const MethodId Sink : Sinks) {
      E.load(0).load(1).invokeStatic(Sink);
      E.load(2).iadd().store(2);
    }
    E.load(2).vreturn();
    E.finish();
  }
  return Out;
}

} // namespace

Workload aoci::makeScenarioWorkload(const ScenarioSpec &SpecIn,
                                    WorkloadParams Params) {
  const ScenarioSpec Spec = clampScenario(SpecIn);

  unsigned MaxMega = 1, MaxChurn = 0;
  bool Allocates = false;
  for (const PhaseSpec &P : Spec.Phases) {
    MaxMega = std::max(MaxMega, P.Megamorphism);
    MaxChurn = std::max(MaxChurn, P.MethodChurn);
    Allocates |= P.AllocBurst != 0;
  }

  ProgramBuilder B;
  ScenarioContext Cx(B);
  buildReceivers(Cx, MaxMega);
  Cx.Buf = B.addClass("ScnBuf", InvalidClassId, /*NumFields=*/3);
  (void)Allocates; // ScnBuf is registered either way; only bursts use it.
  buildChurn(Cx, MaxChurn);

  std::vector<PhaseMethods> Phases;
  for (unsigned I = 0; I != Spec.Phases.size(); ++I)
    Phases.push_back(buildPhase(Cx, Spec.Phases[I], I));

  const ClassId MainK = B.addClass("ScnMain");
  const MethodId Main = B.declareMethod(MainK, "main", MethodKind::Static,
                                        /*NumParams=*/0,
                                        /*ReturnsValue=*/true);
  Rng R(Params.Seed ^ 0x5C3A9E11u);
  const MethodId ColdInit =
      addColdLibrary(B, R, ColdLibrarySpec{6, 6, 20, 0.5, 0.3}, "ScnLib");

  {
    // locals: 0 = receiver array, 1 = acc, 2 = loop counter.
    CodeEmitter E = B.code(Main);
    E.invokeStatic(ColdInit);
    E.iconst(MaxMega).newArray().store(0);
    for (unsigned K = 0; K != MaxMega; ++K)
      E.load(0).iconst(K).newObject(Cx.OpClasses[K]).arrayStore();
    E.iconst(0).store(1);
    for (unsigned I = 0; I != Spec.Phases.size(); ++I) {
      E.invokeStatic(Phases[I].Begin);
      const double Scaled =
          static_cast<double>(Spec.Phases[I].Iterations) * Params.Scale;
      const int64_t Iters =
          std::max<int64_t>(1, static_cast<int64_t>(std::llround(Scaled)));
      emitCountedLoop(E, /*Slot=*/2, Iters, [&](CodeEmitter &E) {
        E.load(1);
        E.load(0).load(2).invokeStatic(Phases[I].Kernel);
        E.iadd().store(1);
      });
    }
    E.load(1).vreturn();
    E.finish();
  }

  B.setEntry(Main);

  Workload W;
  W.Name = Spec.Name;
  W.Description = formatString(
      "scenario: %u phase(s), megamorphism <=%u, churn <=%u",
      static_cast<unsigned>(Spec.Phases.size()), MaxMega, MaxChurn);
  W.Prog = B.build();
  for (unsigned I = 0; I != Phases.size(); ++I)
    W.Prog.markPhaseStart(Phases[I].Begin, I);
  W.Entries = {Main};
  return W;
}
