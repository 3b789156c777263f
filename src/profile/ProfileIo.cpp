//===- profile/ProfileIo.cpp - Profile persistence -------------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
//
// The v2 grammar implemented here is specified in docs/profile-format.md;
// keep the two in sync.
//
//===----------------------------------------------------------------------===//

#include "profile/ProfileIo.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <sstream>

using namespace aoci;

//===----------------------------------------------------------------------===//
// v2: versioned, sectioned, Program-independent.
//===----------------------------------------------------------------------===//

static std::string formatTraceLine(const ProfileTraceLine &T) {
  std::string Line = formatString("%.6f", T.Weight);
  for (const auto &Pair : T.Context)
    Line += formatString(" %s:%u", Pair.first.c_str(), Pair.second);
  Line += " => " + T.Callee;
  return Line;
}

static void appendSorted(std::string &Out, std::vector<std::string> Lines) {
  std::sort(Lines.begin(), Lines.end());
  for (const std::string &Line : Lines) {
    Out += Line;
    Out += '\n';
  }
}

std::string aoci::serializeProfileData(const ProfileData &Data) {
  std::string Out = formatString("AOCI-PROFILE v%u\n", Data.Version);

  Out += "[meta]\n";
  Out += formatString("saved-at-cycle %llu\n",
                      static_cast<unsigned long long>(Data.SavedAtCycle));
  if (!Data.Workload.empty())
    Out += "workload " + Data.Workload + '\n';

  if (Data.HasThresholds) {
    Out += "[thresholds]\n";
    Out += formatString("decay-factor %.6f\n", Data.DecayFactor);
    Out += formatString("hot-method-samples %.6f\n", Data.HotMethodSamples);
    Out += formatString("hot-trace-threshold %.6f\n", Data.HotTraceThreshold);
    Out += formatString("min-rule-weight %.6f\n", Data.MinRuleWeight);
  }

  std::vector<std::string> Lines;
  Out += "[dcg]\n";
  for (const ProfileTraceLine &T : Data.DcgTraces)
    Lines.push_back(formatTraceLine(T));
  appendSorted(Out, std::move(Lines));

  Lines.clear();
  Out += "[decisions]\n";
  for (const ProfileTraceLine &T : Data.Decisions)
    Lines.push_back(formatTraceLine(T));
  appendSorted(Out, std::move(Lines));

  Lines.clear();
  Out += "[hot-methods]\n";
  for (const ProfileHotMethod &H : Data.HotMethods)
    Lines.push_back(formatString("%.6f %s", H.Samples, H.Method.c_str()));
  appendSorted(Out, std::move(Lines));

  Lines.clear();
  Out += "[refusals]\n";
  for (const ProfileRefusal &R : Data.Refusals)
    Lines.push_back(formatString("%s %s:%u => %s", R.Compiled.c_str(),
                                 R.Caller.c_str(), R.Site, R.Callee.c_str()));
  appendSorted(Out, std::move(Lines));

  return Out;
}

namespace {

/// Shared context for parse helpers: the current line number and section
/// name so every diagnostic can say where it happened.
struct ParseCursor {
  unsigned LineNo = 0;
  std::string Section; ///< Without brackets; empty before the first header.

  std::string where() const {
    if (Section.empty())
      return formatString("line %u", LineNo);
    return formatString("line %u in [%s]", LineNo, Section.c_str());
  }
};

} // namespace

/// Splits "name:site" with strict site parsing. On failure, \p Error is
/// set using \p Cur and the offending token.
static bool parseContextPairToken(const ParseCursor &Cur,
                                  const std::string &Tok, std::string &Name,
                                  uint32_t &Site, std::string &Error) {
  const size_t Colon = Tok.rfind(':');
  if (Colon == std::string::npos || Colon == 0) {
    Error = formatString("%s: malformed pair '%s' (expected caller:site)",
                         Cur.where().c_str(), Tok.c_str());
    return false;
  }
  if (!parseUnsigned(Tok.substr(Colon + 1), Site)) {
    Error = formatString("%s: bad site index in pair '%s'",
                         Cur.where().c_str(), Tok.c_str());
    return false;
  }
  Name = Tok.substr(0, Colon);
  return true;
}

/// Parses one [dcg]/[decisions] line: weight, context pairs, "=>", callee.
static bool parseTraceLineV2(const ParseCursor &Cur, const std::string &Line,
                             ProfileTraceLine &Out, std::string &Error) {
  std::istringstream Fields(Line);
  std::string Tok;
  Fields >> Tok;
  if (!parseFinite(Tok, Out.Weight) || Out.Weight <= 0) {
    Error = formatString("%s: bad weight '%s'", Cur.where().c_str(),
                         Tok.c_str());
    return false;
  }
  bool SawArrow = false;
  while (Fields >> Tok) {
    if (Tok == "=>") {
      if (SawArrow) {
        Error = formatString("%s: duplicate '=>'", Cur.where().c_str());
        return false;
      }
      SawArrow = true;
      continue;
    }
    if (SawArrow) {
      if (!Out.Callee.empty()) {
        Error = formatString("%s: multiple callees ('%s')",
                             Cur.where().c_str(), Tok.c_str());
        return false;
      }
      Out.Callee = Tok;
      continue;
    }
    std::string Name;
    uint32_t Site = 0;
    if (!parseContextPairToken(Cur, Tok, Name, Site, Error))
      return false;
    Out.Context.emplace_back(std::move(Name), Site);
  }
  if (!SawArrow || Out.Callee.empty() || Out.Context.empty()) {
    Error = formatString("%s: incomplete trace '%s'", Cur.where().c_str(),
                         Line.c_str());
    return false;
  }
  return true;
}

/// Parses one [refusals] line: compiled caller:site => callee.
static bool parseRefusalLine(const ParseCursor &Cur, const std::string &Line,
                             ProfileRefusal &Out, std::string &Error) {
  std::istringstream Fields(Line);
  std::string Edge, Arrow;
  if (!(Fields >> Out.Compiled >> Edge >> Arrow >> Out.Callee) ||
      Arrow != "=>") {
    Error = formatString(
        "%s: malformed refusal '%s' (expected compiled caller:site => callee)",
        Cur.where().c_str(), Line.c_str());
    return false;
  }
  std::string Extra;
  if (Fields >> Extra) {
    Error = formatString("%s: trailing token '%s' after refusal",
                         Cur.where().c_str(), Extra.c_str());
    return false;
  }
  return parseContextPairToken(Cur, Edge, Out.Caller, Out.Site, Error);
}

bool aoci::parseProfile(const std::string &Text, ProfileData &Data,
                        std::string &Error) {
  Data = ProfileData();
  Data.Version = 0;
  Error.clear();

  std::istringstream In(Text);
  std::string Line;
  ParseCursor Cur;
  bool SawHeader = false;
  bool SkippingUnknown = false;

  while (std::getline(In, Line)) {
    ++Cur.LineNo;
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (Line.empty() || Line[0] == '#')
      continue;

    // The first significant line must be the magic + version header.
    if (!SawHeader) {
      std::istringstream Fields(Line);
      std::string Magic, VersionTok;
      Fields >> Magic >> VersionTok;
      unsigned Version = 0;
      if (Magic != "AOCI-PROFILE" || VersionTok.size() < 2 ||
          VersionTok[0] != 'v' ||
          !parseUnsigned(VersionTok.substr(1), Version)) {
        Error = formatString(
            "%s: expected 'AOCI-PROFILE v<N>' header, got '%s'",
            Cur.where().c_str(), Line.c_str());
        return false;
      }
      if (Version != ProfileFormatVersion) {
        Error = formatString(
            "%s: unsupported profile version '%s' (this build reads v%u)",
            Cur.where().c_str(), VersionTok.c_str(), ProfileFormatVersion);
        return false;
      }
      Data.Version = Version;
      SawHeader = true;
      continue;
    }

    // Section headers.
    if (Line[0] == '[') {
      if (Line.back() != ']') {
        Error = formatString("%s: malformed section header '%s'",
                             Cur.where().c_str(), Line.c_str());
        return false;
      }
      const std::string Name = Line.substr(1, Line.size() - 2);
      SkippingUnknown = Name != "meta" && Name != "thresholds" &&
                        Name != "dcg" && Name != "decisions" &&
                        Name != "hot-methods" && Name != "refusals";
      if (SkippingUnknown)
        Data.Warnings.push_back(
            formatString("line %u: skipping unknown section '[%s]'",
                         Cur.LineNo, Name.c_str()));
      Cur.Section = Name;
      continue;
    }

    if (Cur.Section.empty()) {
      Error = formatString("%s: expected section header, got '%s'",
                           Cur.where().c_str(), Line.c_str());
      return false;
    }
    if (SkippingUnknown)
      continue;

    if (Cur.Section == "meta") {
      std::istringstream Fields(Line);
      std::string Key, Value;
      Fields >> Key >> Value;
      if (Key == "saved-at-cycle") {
        if (!parseUnsigned(Value, Data.SavedAtCycle)) {
          Error = formatString("%s: bad cycle count '%s'",
                               Cur.where().c_str(), Value.c_str());
          return false;
        }
      } else if (Key == "workload") {
        Data.Workload = Value;
      } else {
        Data.Warnings.push_back(
            formatString("line %u: skipping unknown [meta] key '%s'",
                         Cur.LineNo, Key.c_str()));
      }
    } else if (Cur.Section == "thresholds") {
      std::istringstream Fields(Line);
      std::string Key, Value;
      Fields >> Key >> Value;
      double *Dest = Key == "decay-factor"          ? &Data.DecayFactor
                     : Key == "hot-method-samples"  ? &Data.HotMethodSamples
                     : Key == "hot-trace-threshold" ? &Data.HotTraceThreshold
                     : Key == "min-rule-weight"     ? &Data.MinRuleWeight
                                                    : nullptr;
      if (!Dest) {
        Data.Warnings.push_back(
            formatString("line %u: skipping unknown [thresholds] key '%s'",
                         Cur.LineNo, Key.c_str()));
        continue;
      }
      if (!parseFinite(Value, *Dest)) {
        Error = formatString("%s: bad value '%s' for threshold '%s'",
                             Cur.where().c_str(), Value.c_str(), Key.c_str());
        return false;
      }
      Data.HasThresholds = true;
    } else if (Cur.Section == "dcg" || Cur.Section == "decisions") {
      ProfileTraceLine T;
      if (!parseTraceLineV2(Cur, Line, T, Error))
        return false;
      (Cur.Section == "dcg" ? Data.DcgTraces : Data.Decisions)
          .push_back(std::move(T));
    } else if (Cur.Section == "hot-methods") {
      std::istringstream Fields(Line);
      std::string SamplesTok;
      ProfileHotMethod H;
      Fields >> SamplesTok >> H.Method;
      if (!parseFinite(SamplesTok, H.Samples) || H.Samples <= 0) {
        Error = formatString("%s: bad sample count '%s'",
                             Cur.where().c_str(), SamplesTok.c_str());
        return false;
      }
      if (H.Method.empty()) {
        Error = formatString("%s: missing method name in '%s'",
                             Cur.where().c_str(), Line.c_str());
        return false;
      }
      Data.HotMethods.push_back(std::move(H));
    } else { // refusals
      ProfileRefusal R;
      if (!parseRefusalLine(Cur, Line, R, Error))
        return false;
      Data.Refusals.push_back(std::move(R));
    }
  }

  if (!SawHeader) {
    Error = "line 1: empty profile (missing 'AOCI-PROFILE v<N>' header)";
    return false;
  }
  return true;
}
