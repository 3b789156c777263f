//===- tools/ab/Side.h - One side of an in-process A/B -----------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interface between the A/B driver and the two builds it compares.
/// Side.cpp is compiled twice, once against each tree, so this header
/// names only standard types.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_TOOLS_AB_SIDE_H
#define AOCI_TOOLS_AB_SIDE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

/// What an op computed; both sides must agree on it.
struct AbOutcome {
  int64_t Result = 0;
  uint64_t Cycles = 0;
};

/// A perfbench workload's runs, as ops on builds of their programs.
class AbSide {
public:
  virtual ~AbSide() = default;
  virtual size_t ops() const = 0;
  virtual std::string name(size_t Op) const = 0;
  /// Drops the programs and builds them again, so that each pass builds
  /// whatever its runs derive from a program.
  virtual void rebuild() = 0;
  virtual AbOutcome run(size_t Op) = 0;
};

std::unique_ptr<AbSide> parentSide(const std::string &Workload, uint64_t Seed);
std::unique_ptr<AbSide> changeSide(const std::string &Workload, uint64_t Seed);

#endif // AOCI_TOOLS_AB_SIDE_H
