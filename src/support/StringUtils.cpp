//===- support/StringUtils.cpp - Text formatting helpers -----------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <cassert>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

using namespace aoci;

std::string aoci::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  assert(Needed >= 0 && "vsnprintf failed");
  std::string Out(static_cast<size_t>(Needed), '\0');
  std::vsnprintf(Out.data(), Out.size() + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Out;
}

std::string
aoci::renderTable(const std::vector<std::string> &Header,
                  const std::vector<std::vector<std::string>> &Rows) {
  const size_t NumCols = Header.size();
  std::vector<size_t> Widths(NumCols, 0);
  for (size_t C = 0; C != NumCols; ++C)
    Widths[C] = Header[C].size();
  for (const auto &Row : Rows) {
    assert(Row.size() == NumCols && "ragged table row");
    for (size_t C = 0; C != NumCols; ++C)
      if (Row[C].size() > Widths[C])
        Widths[C] = Row[C].size();
  }

  auto appendRow = [&](std::string &Out, const std::vector<std::string> &Row) {
    for (size_t C = 0; C != NumCols; ++C) {
      const std::string &Cell = Row[C];
      size_t Pad = Widths[C] - Cell.size();
      if (C == 0) {
        Out += Cell;
        Out.append(Pad, ' ');
      } else {
        Out += "  ";
        Out.append(Pad, ' ');
        Out += Cell;
      }
    }
    Out += '\n';
  };

  std::string Out;
  appendRow(Out, Header);
  size_t RuleWidth = 0;
  for (size_t C = 0; C != NumCols; ++C)
    RuleWidth += Widths[C] + (C == 0 ? 0 : 2);
  Out.append(RuleWidth, '-');
  Out += '\n';
  for (const auto &Row : Rows)
    appendRow(Out, Row);
  return Out;
}

std::string aoci::formatPercent(double Percent) {
  return formatString("%+.1f%%", Percent);
}

bool aoci::parseUnsigned(const std::string &Text, uint64_t Max,
                         uint64_t &Out) {
  if (Text.empty())
    return false;
  for (char C : Text)
    if (C < '0' || C > '9')
      return false;
  errno = 0;
  const unsigned long long V = std::strtoull(Text.c_str(), nullptr, 10);
  if (errno == ERANGE || V > Max)
    return false;
  Out = V;
  return true;
}

bool aoci::parseFinite(const std::string &Text, double &Out) {
  // strtod would skip leading whitespace.
  if (Text.empty() || std::isspace(static_cast<unsigned char>(Text[0])))
    return false;
  errno = 0;
  char *End = nullptr;
  const double V = std::strtod(Text.c_str(), &End);
  if (End != Text.c_str() + Text.size() || errno == ERANGE ||
      !std::isfinite(V))
    return false;
  Out = V;
  return true;
}
