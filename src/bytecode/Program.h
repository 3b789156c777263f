//===- bytecode/Program.h - A whole bytecode program ------------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares Program, the container that owns every Klass and Method of a
/// workload, and the entry point the VM starts executing.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_BYTECODE_PROGRAM_H
#define AOCI_BYTECODE_PROGRAM_H

#include "bytecode/Klass.h"
#include "bytecode/Method.h"

#include <atomic>
#include <cassert>
#include <memory>
#include <string>
#include <vector>

namespace aoci {

class MethodImage;

/// A complete program: classes, methods, and an entry method.
///
/// Programs are immutable once built (see ProgramBuilder); the VM, the
/// profiling system, and the optimizer all hold const references to one.
class Program {
public:
  /// Registers \p K and returns its id. Invalidation: ids are stable, but
  /// references returned by klass()/method() may be invalidated by
  /// subsequent registrations.
  ClassId addClass(Klass K);

  /// Registers \p M and returns its id.
  MethodId addMethod(Method M);

  const Klass &klass(ClassId Id) const {
    assert(Id < Classes.size() && "class id out of range");
    return Classes[Id];
  }

  const Method &method(MethodId Id) const {
    assert(Id < Methods.size() && "method id out of range");
    return Methods[Id];
  }

  Klass &mutableKlass(ClassId Id) {
    assert(Id < Classes.size() && "class id out of range");
    return Classes[Id];
  }

  Method &mutableMethod(MethodId Id) {
    assert(Id < Methods.size() && "method id out of range");
    return Methods[Id];
  }

  unsigned numClasses() const { return static_cast<unsigned>(Classes.size()); }
  unsigned numMethods() const { return static_cast<unsigned>(Methods.size()); }

  /// The static method execution starts in.
  MethodId entryMethod() const { return Entry; }
  void setEntryMethod(MethodId M) { Entry = M; }

  /// Human-readable "Owner.name" form of a method, for diagnostics.
  std::string qualifiedName(MethodId Id) const;

  /// Total bytecodes across all concrete methods (Table 1's unit).
  uint64_t totalBytecodes() const;

  /// Looks up a method by qualified "Owner.name"; returns InvalidMethodId
  /// when absent. Intended for tests and examples, not hot paths.
  MethodId findMethod(const std::string &Qualified) const;

  /// The method image every VM on this program reads, built on the first
  /// call. Threads that race to build it each build one, the first to
  /// publish wins and the others free theirs.
  const MethodImage &image() const;

  //===--------------------------------------------------------------------===//
  // Phase markers (scenario workloads).
  //===--------------------------------------------------------------------===//

  /// Marks \p M as the start marker of workload phase \p Phase. A marker
  /// is a method the workload's driver invokes exactly once, at the
  /// moment the phase begins; the VM emits an uncharged `phase-shift`
  /// trace event when it baseline-compiles one (which, for a
  /// once-invoked method, happens exactly at that first call).
  void markPhaseStart(MethodId M, uint32_t Phase) {
    assert(M < Methods.size() && "method id out of range");
    PhaseStarts.emplace_back(M, Phase);
  }

  /// Phase index \p M starts, or -1 when \p M is not a phase marker.
  int64_t phaseStartOf(MethodId M) const {
    for (const auto &[Marker, Phase] : PhaseStarts)
      if (Marker == M)
        return Phase;
    return -1;
  }

  unsigned numPhaseStarts() const {
    return static_cast<unsigned>(PhaseStarts.size());
  }

private:
  /// Owns image(). An image points into the Program that built it, so a
  /// copied or moved-to Program starts without one.
  struct ImageSlot {
    ImageSlot() = default;
    ImageSlot(const ImageSlot &) noexcept {}
    ImageSlot &operator=(const ImageSlot &) noexcept;
    ~ImageSlot();
    std::atomic<const MethodImage *> Image{nullptr};
  };

  std::vector<Klass> Classes;
  std::vector<Method> Methods;
  MethodId Entry = InvalidMethodId;
  /// (marker method, phase index) pairs; tiny, scanned only when a method
  /// is first baseline-compiled.
  std::vector<std::pair<MethodId, uint32_t>> PhaseStarts;
  mutable ImageSlot Built;
};

} // namespace aoci

#endif // AOCI_BYTECODE_PROGRAM_H
