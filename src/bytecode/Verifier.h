//===- bytecode/Verifier.h - Static bytecode checking -----------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bytecode verifier: checks operand ranges, branch targets, invoke
/// signatures, and stack discipline (no underflow, no deeper than
/// MaxOperandStackDepth, consistent depth at merge points, no fall-through
/// past the end of a body). The VM asserts that programs it runs verify
/// cleanly, so interpreter bugs and workload generator bugs are caught
/// before execution, and sizes every frame by the depth bound.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_BYTECODE_VERIFIER_H
#define AOCI_BYTECODE_VERIFIER_H

#include "bytecode/Program.h"

#include <string>
#include <vector>

namespace aoci {

/// The deepest operand stack a verified method can reach: the stack-depth
/// dataflow rejects any instruction that leaves more values than this.
/// The interpreter reserves this many slab slots above each frame's
/// locals at entry, so stack pushes never need a bounds check.
constexpr unsigned MaxOperandStackDepth = 255;

/// Checks \p M (belonging to \p P) and appends human-readable problems to
/// \p Errors. Returns true when no problems were found.
bool verifyMethod(const Program &P, const Method &M,
                  std::vector<std::string> &Errors);

/// Verifies every concrete method plus whole-program invariants (valid
/// entry point, supertype registration order). Returns the full list of
/// problems; empty means the program is well formed.
std::vector<std::string> verifyProgram(const Program &P);

} // namespace aoci

#endif // AOCI_BYTECODE_VERIFIER_H
