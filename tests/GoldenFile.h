//===- tests/GoldenFile.h - Update-or-compare golden fixtures ---*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The golden-file protocol every fixture test shares: compare output
/// byte for byte with a checked-in file, or, with AOCI_UPDATE_GOLDEN=1 in
/// the environment, rewrite the file instead (review the diff before
/// committing it).
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_TESTS_GOLDENFILE_H
#define AOCI_TESTS_GOLDENFILE_H

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace aoci {

/// The checked-in fixture tests/golden/<Name>.
inline std::string goldenPath(const std::string &Name) {
  return std::string(AOCI_GOLDEN_DIR) + "/" + Name;
}

/// Compares \p Actual byte for byte with the file at \p Path, or rewrites
/// the file and skips the test under AOCI_UPDATE_GOLDEN=1. \p Hint says
/// what a drift means.
inline void expectMatchesGolden(const std::string &Path,
                                const std::string &Actual,
                                const std::string &Hint) {
  if (const char *Update = std::getenv("AOCI_UPDATE_GOLDEN");
      Update && Update[0] == '1') {
    std::ofstream Out(Path, std::ios::binary);
    ASSERT_TRUE(Out) << "cannot write " << Path;
    Out << Actual;
    GTEST_SKIP() << "regenerated " << Path;
  }
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In) << "missing fixture " << Path
                  << " (regenerate with AOCI_UPDATE_GOLDEN=1)";
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  EXPECT_EQ(Buffer.str(), Actual)
      << Path << " drifted: " << Hint
      << ". If the change is intended, rerun with AOCI_UPDATE_GOLDEN=1 and "
         "review the fixture diff";
}

} // namespace aoci

#endif // AOCI_TESTS_GOLDENFILE_H
