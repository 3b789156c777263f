//===- support/StringUtils.h - Text formatting helpers ----------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printf-style std::string formatting and simple table rendering used by
/// the reporters that regenerate the paper's tables and figures as text,
/// and the strict number parsers every text input (CLI flags, v2
/// profiles, scenario files, tenant lists) reads numbers with.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_SUPPORT_STRINGUTILS_H
#define AOCI_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace aoci {

/// printf into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Renders a rectangular table with a header row, padding each column to
/// its widest cell. Every row must have the same number of cells as
/// \p Header. Columns after the first are right-aligned.
std::string renderTable(const std::vector<std::string> &Header,
                        const std::vector<std::vector<std::string>> &Rows);

/// Formats a signed percentage with one decimal, e.g. "+5.3%" / "-4.2%".
std::string formatPercent(double Percent);

/// Strictly parses one unsigned decimal integer no larger than \p Max: the
/// whole of \p Text must be digits, so an empty value, a sign, whitespace
/// and trailing junk are rejected, as is a value that overflows.
bool parseUnsigned(const std::string &Text, uint64_t Max, uint64_t &Out);

/// parseUnsigned() bounded by the maximum of \p Out's type.
template <typename T> bool parseUnsigned(const std::string &Text, T &Out) {
  uint64_t V = 0;
  if (!parseUnsigned(Text, std::numeric_limits<T>::max(), V))
    return false;
  Out = static_cast<T>(V);
  return true;
}

/// Strictly parses one finite decimal number: the whole of \p Text, with
/// no leading whitespace or trailing junk. NaN, infinity and values out of
/// double's range are rejected.
bool parseFinite(const std::string &Text, double &Out);

} // namespace aoci

#endif // AOCI_SUPPORT_STRINGUTILS_H
