//===- osr/OsrManager.h - OSR & deoptimization driver ------------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concrete OsrDriver: decides, at each stale-frame backedge the
/// interpreter reports, whether transferring the activation is worth the
/// transition cost, and performs the transfer through the FrameMap
/// machinery. Two transitions exist:
///
///  - OSR entry: the top frame is *physical* and its variant superseded.
///    The frame is remapped onto the method's current variant and charged
///    CostModel::OsrTransitionCycles. From that point the long-running
///    activation — which Jikes' "future invocations only" install
///    semantics would have left in old code forever — runs replacement
///    code.
///
///  - Deoptimization: the top frame is *inlined* and the enclosing
///    physical variant superseded. The whole inline group (physical root
///    and every inlined frame above it; the intermediate ones are
///    suspended at their invoke sites) is re-established on the source
///    methods' baseline variants at CostModel::DeoptFrameCycles per
///    frame. This generalizes the per-call-site guard fallback: instead
///    of one dispatch falling back, a live activation leaves an entire
///    stale inlined body. The baseline frames are then themselves OSR
///    candidates at their next backedges, so deopt composes with entry
///    to land the activation in the *new* optimized code.
///
/// Policy is delegated to a callback (the Controller's analytic model,
/// wired up by AdaptiveSystem); without one, a conservative default
/// transfers only on level upgrades.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_OSR_OSRMANAGER_H
#define AOCI_OSR_OSRMANAGER_H

#include "osr/OsrConfig.h"
#include "vm/OsrDriver.h"
#include "vm/VirtualMachine.h"

#include <functional>

namespace aoci {

class OsrManager : public OsrDriver {
public:
  /// The cost/benefit gate: should the activation in \p From transfer to
  /// \p To for \p TransitionCycles? \p Savings receives the expected
  /// cycle savings for trace/diagnostic purposes. Must be deterministic.
  using PolicyFn = std::function<bool(MethodId M, const CodeVariant &From,
                                      const CodeVariant &To,
                                      uint64_t TransitionCycles,
                                      double *Savings)>;

  /// Installs the cost/benefit gate (AdaptiveSystem wires this to
  /// Controller::worthOsr). Null restores the default level-upgrade-only
  /// gate.
  void setPolicy(PolicyFn Fn) { Policy = std::move(Fn); }

  const OsrStats &stats() const { return Stats; }

  bool onStaleBackedge(VirtualMachine &VM, ThreadState &T) override;
  void onOsrFrameReturn(VirtualMachine &VM, ThreadState &T,
                        const Frame &Done) override;
  /// Forced deoptimization for the bounded code cache: every inline group
  /// still executing \p V (any thread, any stack position) is
  /// re-established on baseline frames so the variant can be reclaimed.
  /// Unlike backedge deopt there is no cost/benefit gate — the cache has
  /// already decided — but each group still pays DeoptFrameCycles per
  /// frame. No activation is left on \p V.
  void onEvictVariant(VirtualMachine &VM, const CodeVariant &V) override;

private:
  bool osrEnter(VirtualMachine &VM, ThreadState &T);
  bool deoptimize(VirtualMachine &VM, ThreadState &T);
  /// Re-establishes frames [Root, End) of \p T on their source methods'
  /// baseline variants (materializing missing baselines through
  /// ensureCompiled), charges DeoptFrameCycles per frame, and updates the
  /// remap statistics. Shared by backedge deopt and eviction deopt.
  void remapGroupToBaseline(VirtualMachine &VM, ThreadState &T, size_t Root,
                            size_t End);
  bool worthTransition(MethodId M, const CodeVariant &From,
                       const CodeVariant &To, uint64_t TransitionCycles,
                       double *Savings) const;
  /// Estimated cycles the closing OSR segment of \p F saved: the work it
  /// did in the replacement code, repriced at the stale variant's rate.
  uint64_t segmentRecovered(const VirtualMachine &VM, const Frame &F) const;

  PolicyFn Policy;
  OsrStats Stats;
};

} // namespace aoci

#endif // AOCI_OSR_OSRMANAGER_H
