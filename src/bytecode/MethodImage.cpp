//===- bytecode/MethodImage.cpp - What every VM reads of a program --------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "bytecode/MethodImage.h"

#include <stdexcept>
#include <string>

using namespace aoci;

CostTables::CostTables(const Program &P, CostKey Key)
    : Key(Key), P(P), Tables(P.numMethods()) {}

CostTables::~CostTables() {
  for (std::atomic<const uint32_t *> &Table : Tables)
    delete[] Table.load(std::memory_order_relaxed);
}

const uint32_t *CostTables::build(MethodId M) const {
  const std::vector<Instruction> &Body = P.method(M).Body;
  const auto Size = static_cast<uint32_t>(Body.size());
  auto Built = std::make_unique_for_overwrite<uint32_t[]>(Size);
  for (uint32_t PC = 0; PC != Size; ++PC) {
    const uint64_t Cost =
        Body[PC].machineSize() * Key.PerUnit * Key.ScaleNum / Key.ScaleDen;
    // Entries are 32-bit to halve the tables; a charge that does not fit
    // stops the run rather than advancing a truncated clock.
    if (Cost > UINT32_MAX) [[unlikely]]
      throw std::runtime_error(
          "cycle charge " + std::to_string(Cost) + " of " +
          P.qualifiedName(M) + " at pc " + std::to_string(PC) + " (" +
          std::to_string(Key.PerUnit) + " cycles per unit, scaled " +
          std::to_string(Key.ScaleNum) + "/" + std::to_string(Key.ScaleDen) +
          ") exceeds the 32-bit cost-table entry; lower the CostModel's "
          "CyclesPerUnit or the instruction's size");
    Built[PC] = static_cast<uint32_t>(Cost);
  }
  const uint32_t *Expected = nullptr;
  if (Tables[M].compare_exchange_strong(Expected, Built.get(),
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire))
    return Built.release();
  return Expected; // Another thread published first; Built is freed here.
}

MethodImage::MethodImage(const Program &P)
    : P(P), Entries(P.numMethods()), Hierarchy(P) {
  for (MethodId Id = 0; Id != P.numMethods(); ++Id) {
    const Method &M = P.method(Id);
    Entries[Id] = {M.Body.data(), M.machineSize(), M.OverrideRoot,
                   M.NumLocals, static_cast<uint16_t>(M.numArgSlots())};
  }
}

const CostTables &MethodImage::costTables(const CostKey &Key) const {
  std::lock_guard<std::mutex> Lock(CostMutex);
  for (const std::unique_ptr<CostTables> &T : Costs)
    if (T->Key == Key)
      return *T;
  return *Costs.emplace_back(std::make_unique<CostTables>(P, Key));
}
