//===- bytecode/Method.cpp - Method metadata and body --------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "bytecode/Method.h"

using namespace aoci;

void Method::setBody(std::vector<Instruction> NewBody, unsigned Units) {
  Body = std::move(NewBody);
  MachineUnits = Units;
}

unsigned Method::machineUnitsOf(const std::vector<Instruction> &Body) {
  unsigned Units = 0;
  for (const Instruction &I : Body)
    Units += I.machineSize();
  return Units;
}

std::vector<BytecodeIndex> Method::callSites() const {
  std::vector<BytecodeIndex> Sites;
  for (BytecodeIndex I = 0, E = static_cast<BytecodeIndex>(Body.size());
       I != E; ++I)
    if (isInvoke(Body[I].Op))
      Sites.push_back(I);
  return Sites;
}
