//===- profile/ProfileIo.h - Profile persistence ----------------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Text serialization of profile data. The paper contrasts its online
/// system with the offline profile-directed inliners of its related work
/// (Section 6: train on one run, optimize the next). This module makes
/// that comparison runnable.
///
/// The versioned format (ProfileData, serializeProfileData,
/// parseProfile) is the full AOS decision state: a magic + version
/// header followed by bracketed sections for the DCG traces, the
/// codified inlining decisions, the controller's hot-method sample
/// counts, the compiler's inline refusals, and the organizer thresholds
/// in effect. docs/profile-format.md is the normative spec (grammar,
/// determinism and forward-compatibility rules, an annotated example).
/// AdaptiveSystem::snapshotProfile() and AdaptiveSystem::warmStart() are
/// the save/load hooks; `aoci run --profile-out/--warm-start` is the CLI
/// surface.
///
/// Parsing is Program-independent: ProfileData stores qualified method
/// *names*, and resolution against a concrete Program happens at
/// warm-start time, where entries naming methods the production program
/// lacks are dropped and counted rather than failing the run — the
/// graceful-degradation half of the paper's stale-profile argument.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_PROFILE_PROFILEIO_H
#define AOCI_PROFILE_PROFILEIO_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace aoci {

/// The profile version this build writes and the only one it accepts.
constexpr unsigned ProfileFormatVersion = 2;

/// One serialized trace line of the [dcg] or [decisions] section:
/// a weight, an innermost-first context chain of (caller name, site)
/// pairs, and the callee name.
struct ProfileTraceLine {
  double Weight = 0;
  std::vector<std::pair<std::string, uint32_t>> Context;
  std::string Callee;
};

/// One [hot-methods] line: a decayed sample count for a method.
struct ProfileHotMethod {
  double Samples = 0;
  std::string Method;
};

/// One [refusals] line: the optimizing compiler refused to inline the
/// edge (Caller, Site) => Callee while compiling Compiled.
struct ProfileRefusal {
  std::string Compiled;
  std::string Caller;
  uint32_t Site = 0;
  std::string Callee;
};

/// The parsed (or to-be-serialized) contents of a v2 profile file.
/// Method references are qualified names; nothing here depends on a
/// Program. See docs/profile-format.md for the file grammar.
struct ProfileData {
  unsigned Version = ProfileFormatVersion;

  /// [meta] — provenance, informational.
  std::string Workload;
  uint64_t SavedAtCycle = 0;

  /// [thresholds] — the organizer knobs in effect when the profile was
  /// saved. Informational on load: warm start validates them against
  /// the consuming system's configuration and counts mismatches, but
  /// never overrides live configuration from a file.
  bool HasThresholds = false;
  double HotTraceThreshold = 0;
  double MinRuleWeight = 0;
  double HotMethodSamples = 0;
  double DecayFactor = 0;

  /// [dcg] — the dynamic call graph's context traces with weights.
  std::vector<ProfileTraceLine> DcgTraces;
  /// [decisions] — the codified inlining rules at snapshot time.
  std::vector<ProfileTraceLine> Decisions;
  /// [hot-methods] — the controller's decayed sample counts.
  std::vector<ProfileHotMethod> HotMethods;
  /// [refusals] — the AOS database's inline refusals.
  std::vector<ProfileRefusal> Refusals;

  /// Non-fatal parse diagnostics (unknown sections or threshold keys
  /// skipped under the forward-compatibility rules), one per line
  /// skipped, each with its line number.
  std::vector<std::string> Warnings;
};

/// Serializes \p Data to the v2 textual format. Deterministic: sections
/// are emitted in a fixed order and lines within each section are
/// sorted, so equal ProfileData always yields identical bytes.
std::string serializeProfileData(const ProfileData &Data);

/// Parses a v2 profile file into \p Data (reset first). Returns false
/// with a diagnostic in \p Error — always naming the line number, the
/// enclosing section, and the offending token — when the header is
/// missing, the version is unsupported, or a line is malformed.
/// Unknown sections and unknown [thresholds]/[meta] keys are skipped
/// with a warning in Data.Warnings instead of failing (the
/// forward-compatibility rule; see docs/profile-format.md).
bool parseProfile(const std::string &Text, ProfileData &Data,
                  std::string &Error);

} // namespace aoci

#endif // AOCI_PROFILE_PROFILEIO_H
