//===- bytecode/MethodImage.h - What every VM reads of a program -*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-program state that VMs read and never write: one dense entry
/// per method (what a call reads of its callee), the class hierarchy, and
/// the per-instruction cycle-charge tables. Program::image() builds it
/// once, on first use, and every VM, run and serve session on that
/// program reads the same one, so a VM keeps only its inline caches.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_BYTECODE_METHODIMAGE_H
#define AOCI_BYTECODE_METHODIMAGE_H

#include "bytecode/ClassHierarchy.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

namespace aoci {

/// What a call reads of its callee, packed by method id.
struct MethodEntry {
  const Instruction *Body = nullptr;
  /// Method::machineSize(), recorded when the body was set.
  uint32_t MachineUnits = 0;
  MethodId OverrideRoot = InvalidMethodId;
  uint16_t NumLocals = 0;
  uint16_t NumArgSlots = 0;
};

/// The CostModel fields a cycle-charge table reads: the instruction at
/// each pc costs machineSize * PerUnit * ScaleNum / ScaleDen cycles,
/// dividing last. A VM keys one per (level, inlined): PerUnit is the
/// level's cyclesPerUnit, and an inlined body's scale is the scope bonus
/// (1/1 otherwise).
struct CostKey {
  uint64_t PerUnit = 0;
  uint64_t ScaleNum = 1;
  uint64_t ScaleDen = 1;

  bool operator==(const CostKey &) const = default;
};

/// Every method's per-pc cycle-charge table under one CostKey, each
/// built on first use and published once: the thread that builds it
/// publishes it with a compare-and-swap, and a thread that loses the race
/// frees its copy and reads the winner's.
class CostTables {
public:
  CostTables(const Program &P, CostKey Key);
  ~CostTables();
  CostTables(const CostTables &) = delete;
  CostTables &operator=(const CostTables &) = delete;

  const CostKey Key;

  /// \p M's table. Building it throws std::runtime_error, naming the
  /// method and pc, if a charge exceeds 32 bits.
  const uint32_t *table(MethodId M) const {
    if (const uint32_t *Table = Tables[M].load(std::memory_order_acquire))
        [[likely]]
      return Table;
    return build(M);
  }

private:
  [[gnu::cold, gnu::noinline]] const uint32_t *build(MethodId M) const;

  const Program &P;
  mutable std::vector<std::atomic<const uint32_t *>> Tables;
};

/// See the file comment. Immutable once built, apart from tables being
/// published, so any number of threads may read one image.
class MethodImage {
public:
  explicit MethodImage(const Program &P);

  const MethodEntry &entry(MethodId M) const { return Entries[M]; }
  const ClassHierarchy &hierarchy() const { return Hierarchy; }

  /// The tables under \p Key, made on the first request for that key.
  const CostTables &costTables(const CostKey &Key) const;

private:
  const Program &P;
  std::vector<MethodEntry> Entries;
  ClassHierarchy Hierarchy;
  mutable std::mutex CostMutex;
  mutable std::vector<std::unique_ptr<CostTables>> Costs;
};

} // namespace aoci

#endif // AOCI_BYTECODE_METHODIMAGE_H
