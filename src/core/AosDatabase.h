//===- core/AosDatabase.h - The AOS decision repository ---------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "The AOS database is a central repository for recording and querying
/// various compilation decisions and events. One use of this repository
/// is by the inlining system to record refusals by the optimizing
/// compiler to inline particular call edges. This information is used by
/// the AI missing edge organizer to avoid recommending a method for
/// recompilation due to a hot call edge that the optimizing compiler has
/// already refused to inline." (Section 3.2)
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_CORE_AOSDATABASE_H
#define AOCI_CORE_AOSDATABASE_H

#include "opt/Compiler.h"
#include "profile/Context.h"
#include "vm/CostModel.h"

#include <functional>
#include <unordered_map>
#include <unordered_set>

namespace aoci {

/// Latest measured compile of one method: the real machine units, code
/// bytes, and compile cycles CodeManager::install charged for its most
/// recent variant. The budget organizer prices candidates with these
/// instead of the static SizeEstimator whenever the callee has ever been
/// compiled (Truffle-style "use the measured size, not the proxy").
struct MeasuredSize {
  uint64_t MachineUnits = 0;
  uint64_t CodeBytes = 0;
  uint64_t CompileCycles = 0;
  OptLevel Level = OptLevel::Baseline;
  unsigned Compiles = 0; ///< How many installs updated this entry.
};

/// The AOS database: inlining refusals plus the measured-size ledger.
class AosDatabase : public InlineRefusalSink {
public:
  //===--------------------------------------------------------------------===//
  // Refusals (InlineRefusalSink)
  //===--------------------------------------------------------------------===//

  void recordRefusal(MethodId Compiled, const Trace &Edge) override;

  /// True when the compiler refused \p Edge during some compilation of
  /// \p Compiled.
  bool isRefused(MethodId Compiled, const Trace &Edge) const;

  size_t numRefusals() const { return NumRefusals; }

  /// Invokes \p Fn for every recorded refusal as (compiled method, refused
  /// edge, callee). Iteration order is unspecified; callers that need
  /// determinism (profile serialization) must sort. Used by
  /// AdaptiveSystem::snapshotProfile to persist refusals so a warm-started
  /// system does not re-request recompilations the optimizing compiler
  /// already declined.
  void forEachRefusal(
      const std::function<void(MethodId Compiled, const ContextPair &Edge,
                               MethodId Callee)> &Fn) const {
    for (const RefusalKey &K : Refusals)
      Fn(K.Compiled, K.Edge, K.Callee);
  }

  //===--------------------------------------------------------------------===//
  // Measured-size ledger
  //===--------------------------------------------------------------------===//

  /// Records the measured size of a freshly installed variant of \p M.
  /// Later installs overwrite earlier ones: the newest variant is the
  /// best prediction of what recompiling the method would cost now.
  void recordMeasuredSize(MethodId M, OptLevel Level, uint64_t MachineUnits,
                          uint64_t CodeBytes, uint64_t CompileCycles) {
    MeasuredSize &S = Measured[M];
    S.MachineUnits = MachineUnits;
    S.CodeBytes = CodeBytes;
    S.CompileCycles = CompileCycles;
    S.Level = Level;
    ++S.Compiles;
  }

  /// Measured-size entry for \p M, or null if it was never compiled.
  const MeasuredSize *measuredSizeOf(MethodId M) const {
    auto It = Measured.find(M);
    return It == Measured.end() ? nullptr : &It->second;
  }

private:
  /// Refusal keys: (compiled method, edge caller, edge site, callee).
  struct RefusalKey {
    MethodId Compiled;
    ContextPair Edge;
    MethodId Callee;
    bool operator==(const RefusalKey &O) const {
      return Compiled == O.Compiled && Edge == O.Edge && Callee == O.Callee;
    }
  };
  struct RefusalKeyHash {
    size_t operator()(const RefusalKey &K) const {
      ContextPairHash H;
      return H(K.Edge) ^ (static_cast<size_t>(K.Compiled) * 0x9e3779b9) ^
             (static_cast<size_t>(K.Callee) << 1);
    }
  };

  std::unordered_set<RefusalKey, RefusalKeyHash> Refusals;
  size_t NumRefusals = 0;
  std::unordered_map<MethodId, MeasuredSize> Measured;
};

} // namespace aoci

#endif // AOCI_CORE_AOSDATABASE_H
