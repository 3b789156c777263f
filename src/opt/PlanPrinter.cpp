//===- opt/PlanPrinter.cpp - Inline plan pretty-printer --------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "opt/PlanPrinter.h"

#include "support/StringUtils.h"

using namespace aoci;

namespace {

void describeNode(const Program &P, const InlineNode &Node, unsigned Indent,
                  std::string &Out) {
  for (const auto &Decision : Node.Sites) {
    for (const InlineCase &Case : Decision.Cases) {
      Out.append(Indent, ' ');
      Out += formatString("@%u -> %s%s [%u units]\n", Decision.Site,
                          Case.Guarded ? "guard " : "",
                          P.qualifiedName(Case.Callee).c_str(),
                          Case.BodyUnits);
      if (Case.Body)
        describeNode(P, *Case.Body, Indent + 2, Out);
    }
  }
}

} // namespace

std::string aoci::describeVariant(const Program &P,
                                  const CodeVariant &Variant) {
  std::string Out = formatString(
      "%s [%s, %llu bytes, %u inlines, %u guards, compile %llu cycles]\n",
      P.qualifiedName(Variant.M).c_str(), optLevelName(Variant.Level),
      static_cast<unsigned long long>(Variant.CodeBytes),
      Variant.Plan.NumInlineBodies, Variant.Plan.NumGuards,
      static_cast<unsigned long long>(Variant.CompileCycles));
  describeNode(P, Variant.Plan.Root, 2, Out);
  return Out;
}
