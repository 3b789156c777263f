//===- tests/ServeTest.cpp - Serve mode and the shared code cache ----------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// Coverage of the src/share/ subsystem and the `aoci serve` harness
// mode: the plan-fingerprint key, the SharedCodeCache index protocol
// (publish / duplicate / hit / tombstoning capacity eviction), the
// tenant-list CLI grammar, and the serve driver's contracts — byte
// identity across --jobs, sharing as a pure accounting optimization
// (results never change, sharing off reproduces solo runs exactly),
// cross-session eviction deopting every installer under audits, and
// warm-start interop. The share-* trace stream's bytes are pinned by a
// golden fixture (same protocol as TraceTest: AOCI_UPDATE_GOLDEN=1
// regenerates).
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "harness/Serve.h"
#include "share/PlanFingerprint.h"
#include "share/SharedCodeCache.h"
#include "support/Audit.h"
#include "profile/ProfileIo.h"

#include "GoldenFile.h"
#include "SameResult.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>

using namespace aoci;

namespace {

/// The serve session configuration replicated as a solo RunConfig, so
/// solo references are directly comparable (same policy, depth, OSR).
RunConfig soloConfig(const std::string &Workload, double Scale) {
  const ServeConfig Serve;
  RunConfig Config;
  Config.WorkloadName = Workload;
  Config.Params.Scale = Scale;
  Config.Policy = Serve.Policy;
  Config.MaxDepth = Serve.MaxDepth;
  Config.Aos = Serve.Aos;
  Config.Model = Serve.Model;
  return Config;
}

ServeConfig smallServe(const std::string &Workload, unsigned Count,
                       double Scale) {
  ServeConfig Config;
  Config.Tenants.push_back({Workload, Count});
  Config.Params.Scale = Scale;
  return Config;
}

} // namespace

//===----------------------------------------------------------------------===//
// (1) The tenant-list grammar.
//===----------------------------------------------------------------------===//

TEST(ServeTenantListTest, AcceptsWorkloadsScenariosAndCounts) {
  std::vector<ServeTenantSpec> Tenants;
  std::string Error;
  ASSERT_TRUE(
      parseTenantList("compress:4,scn-phase-flip,db:2", Tenants, Error))
      << Error;
  ASSERT_EQ(Tenants.size(), 3u);
  EXPECT_EQ(Tenants[0], (ServeTenantSpec{"compress", 4}));
  EXPECT_EQ(Tenants[1], (ServeTenantSpec{"scn-phase-flip", 1}));
  EXPECT_EQ(Tenants[2], (ServeTenantSpec{"db", 2}));
}

TEST(ServeTenantListTest, RejectsBadInput) {
  std::vector<ServeTenantSpec> Tenants;
  std::string Error;
  for (const char *Bad :
       {"", "nope", "scn-nope", "compress:0", "compress:1000",
        "compress:x", "compress:", "compress,,db", "compress:4:2"}) {
    EXPECT_FALSE(parseTenantList(Bad, Tenants, Error))
        << "accepted \"" << Bad << "\"";
    EXPECT_FALSE(Error.empty());
  }
}

//===----------------------------------------------------------------------===//
// (2) The fingerprint key.
//===----------------------------------------------------------------------===//

TEST(PlanFingerprintTest, CanonicalAndSensitiveToWhatCodeIs) {
  const Workload W = makeWorkload("compress", WorkloadParams{1, 0.05});
  CodeVariant V;
  V.M = W.Prog.entryMethod();
  V.Level = OptLevel::Opt1;
  V.MachineUnits = 40;

  const std::string F = planFingerprint(W.Prog, V);
  // Name-keyed and self-describing: the qualified root name, the level,
  // and the unit count are all legible in the key.
  EXPECT_NE(F.find(W.Prog.qualifiedName(V.M)), std::string::npos);
  EXPECT_NE(F.find("|u40|"), std::string::npos);
  // Deterministic, and stable across Program instances of the same
  // workload — the property that makes cross-session keys meet.
  const Workload W2 = makeWorkload("compress", WorkloadParams{1, 0.05});
  CodeVariant V2 = {};
  V2.M = W2.Prog.entryMethod();
  V2.Level = OptLevel::Opt1;
  V2.MachineUnits = 40;
  EXPECT_EQ(F, planFingerprint(W2.Prog, V2));
  // Everything that changes what the code *is* changes the key.
  V2.MachineUnits = 41;
  EXPECT_NE(F, planFingerprint(W2.Prog, V2));
  V2.MachineUnits = 40;
  V2.Level = OptLevel::Opt2;
  EXPECT_NE(F, planFingerprint(W2.Prog, V2));
}

//===----------------------------------------------------------------------===//
// (3) The shared index protocol, unit-level (synthetic variants).
//===----------------------------------------------------------------------===//

namespace {

CodeVariant syntheticVariant(uint64_t CodeBytes, uint64_t CompileCycles) {
  CodeVariant V;
  V.Level = OptLevel::Opt1;
  V.MachineUnits = 10;
  V.CodeBytes = CodeBytes;
  V.CompileCycles = CompileCycles;
  // In the real flow the session bridge tags a variant before it is
  // ever registered as an installer; the auditor checks exactly that.
  V.SharedIn = true;
  return V;
}

} // namespace

TEST(SharedCodeCacheTest, PublishLookupHitAndDuplicate) {
  audit::setEnabled(true);
  SharedCodeCache Cache;
  const CodeVariant A = syntheticVariant(500, 9000);
  const CodeVariant B = syntheticVariant(500, 9999);

  EXPECT_EQ(Cache.lookup("m|opt1|u10|b3()"), nullptr);
  const size_t Idx = Cache.publish("m|opt1|u10|b3()", A, /*Session=*/0,
                                   /*Round=*/0);
  ASSERT_NE(Idx, static_cast<size_t>(-1));
  Cache.audit("publish");
  EXPECT_EQ(Cache.liveBytes(), 500u);
  EXPECT_EQ(Cache.numLiveEntries(), 1u);
  EXPECT_EQ(Cache.entry(Idx).MethodName, "m");
  EXPECT_EQ(Cache.entry(Idx).FullCompileCycles, 9000u);
  EXPECT_EQ(Cache.entry(Idx).Installers.size(), 1u);

  // First committer wins: a same-key publish is counted and rejected,
  // and never perturbs the accepted entry.
  EXPECT_EQ(Cache.publish("m|opt1|u10|b3()", B, /*Session=*/1, /*Round=*/0),
            static_cast<size_t>(-1));
  EXPECT_EQ(Cache.duplicatePublishes(), 1u);
  EXPECT_EQ(Cache.entry(Idx).FullCompileCycles, 9000u);

  size_t LookupIdx = 0;
  const ShareEntry *E = Cache.lookup("m|opt1|u10|b3()", &LookupIdx);
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(LookupIdx, Idx);
  Cache.recordHit(Idx, B, /*Session=*/1, /*Round=*/3);
  EXPECT_EQ(Cache.entry(Idx).Hits, 1u);
  EXPECT_EQ(Cache.entry(Idx).LastHitRound, 3u);
  EXPECT_EQ(Cache.entry(Idx).Installers.size(), 2u);
  Cache.audit("hit");
}

TEST(SharedCodeCacheTest, CapacityEvictsColdestTombstonesAndRepublishes) {
  audit::setEnabled(true);
  SharedCodeCache Cache(ShareCacheConfig{1000});
  const CodeVariant V = syntheticVariant(400, 9000);
  const size_t A = Cache.publish("a", V, 0, /*Round=*/0);
  const size_t B = Cache.publish("b", V, 0, /*Round=*/0);
  Cache.recordHit(A, V, 1, /*Round=*/1); // "a" is now the hotter entry.
  EXPECT_TRUE(Cache.enforceCapacity(1).empty()) << "800 of 1000 fits";

  const size_t C = Cache.publish("c", V, 0, /*Round=*/2);
  const std::vector<size_t> Victims = Cache.enforceCapacity(2);
  // Coldest first: "b" (last touched round 0) goes; "a" (hit in round
  // 1) and the fresh "c" survive.
  ASSERT_EQ(Victims.size(), 1u);
  EXPECT_EQ(Victims[0], B);
  EXPECT_TRUE(Cache.entry(B).Tombstoned);
  EXPECT_EQ(Cache.lookup("b"), nullptr) << "tombstones are unmapped";
  EXPECT_NE(Cache.lookup("a"), nullptr);
  EXPECT_NE(Cache.lookup("c"), nullptr);
  EXPECT_EQ(Cache.liveBytes(), 800u);
  EXPECT_EQ(Cache.sharedEvictions(), 1u);
  // The tombstone keeps its installer list until the driver applies the
  // per-session evictions; deregistration then empties it.
  EXPECT_EQ(Cache.entry(B).Installers.size(), 1u);
  Cache.deregisterInstaller(B, 0, &V);
  EXPECT_TRUE(Cache.entry(B).Installers.empty());
  Cache.audit("evict");

  // A tombstoned key may be re-published; the index stays coherent.
  const size_t B2 = Cache.publish("b", V, 2, /*Round=*/3);
  ASSERT_NE(B2, static_cast<size_t>(-1));
  EXPECT_NE(Cache.lookup("b"), nullptr);
  EXPECT_GT(Cache.entry(B2).PublishSeq, Cache.entry(C).PublishSeq);
  Cache.audit("republish");
  EXPECT_GE(Cache.peakBytes(), 1200u);
}

//===----------------------------------------------------------------------===//
// (4) Serve determinism: --jobs never changes a simulated byte.
//===----------------------------------------------------------------------===//

TEST(ServeTest, ByteIdenticalAcrossJobCounts) {
  ServeConfig Config;
  Config.Tenants = {{"compress", 2}, {"scn-phase-flip", 1}, {"db", 1}};
  Config.Params.Scale = 0.1;
  Config.Trace = true;
  const ServeResults Serial = runServe(Config, /*Jobs=*/1);
  const ServeResults Parallel = runServe(Config, /*Jobs=*/4);

  EXPECT_EQ(exportServeCsv(Serial), exportServeCsv(Parallel));
  std::ostringstream SerialTrace, ParallelTrace;
  exportServeTrace(SerialTrace, Serial);
  exportServeTrace(ParallelTrace, Parallel);
  EXPECT_EQ(SerialTrace.str(), ParallelTrace.str());
  EXPECT_EQ(Serial.Rounds, Parallel.Rounds);
  EXPECT_EQ(Serial.SharePeakBytes, Parallel.SharePeakBytes);
}

TEST(ServeTest, SessionsFreedAsTheyFinishKeepEveryByte) {
  // Sessions that finish far apart: the phase-flip scenario within two
  // rounds, jess in nine, the two db sessions after about twenty. Each
  // session is freed at the barrier where it finishes, while the bound
  // (below the unbounded run's ~40 KB peak) keeps evicting shared entries
  // that freed sessions had installed. The auditor re-checks every
  // registry and installer list at each barrier.
  audit::setEnabled(true);
  ServeConfig Config;
  Config.Tenants = {{"scn-phase-flip", 1}, {"jess", 1}, {"db", 2}};
  Config.Params.Scale = 0.1;
  Config.ShareCapacityBytes = 20000;
  Config.Trace = true;
  std::vector<uint64_t> EvictionsByRound;
  const ServeResults Serial =
      runServe(Config, /*Jobs=*/1, [&](const std::string &Line) {
        unsigned long long Round = 0, Evictions = 0;
        ASSERT_EQ(std::sscanf(Line.c_str(),
                              "round %llu: %*u active, %*u shared entries "
                              "(%*u hits, %*u publishes, %llu evictions)",
                              &Round, &Evictions),
                  2)
            << Line;
        EvictionsByRound.resize(Round + 1, Evictions);
        EvictionsByRound[Round] = Evictions;
      });
  const ServeResults Parallel = runServe(Config, /*Jobs=*/4);

  EXPECT_EQ(exportServeCsv(Serial), exportServeCsv(Parallel));
  std::ostringstream SerialTrace, ParallelTrace;
  exportServeTrace(SerialTrace, Serial);
  exportServeTrace(ParallelTrace, Parallel);
  EXPECT_EQ(SerialTrace.str(), ParallelTrace.str());

  ASSERT_EQ(Serial.Sessions.size(), 4u);
  uint64_t FirstEnd = UINT64_MAX;
  for (const ServeSessionResult &S : Serial.Sessions) {
    EXPECT_EQ(S.ProgramResult,
              runExperiment(soloConfig(S.TenantName, 0.1)).ProgramResult)
        << "session " << S.SessionId;
    FirstEnd = std::min(FirstEnd, S.StartRound + S.RoundsRun);
  }
  EXPECT_GT(Serial.ShareEvictions, 0u);
  ASSERT_EQ(EvictionsByRound.size(), Serial.Rounds);
  EXPECT_LE(4 * FirstEnd, Serial.Rounds)
      << "the first session must end in the first quarter of the serve";
  EXPECT_GT(Serial.ShareEvictions, EvictionsByRound[FirstEnd - 1])
      << "shared evictions continue after the first session is freed";
}

TEST(ServeTest, HugeStaggerStartsLateAndSkipsIdleRounds) {
  // Start rounds are 64-bit: session 2 starts at round 2^32 rather than
  // wrapping to round 0. Each session finishes long before the next one
  // starts, and the rounds in between, with nothing live, are skipped
  // rather than stepped through one by one.
  ServeConfig Config;
  Config.Tenants = {{"compress", 2}, {"jess", 1}};
  Config.Params.Scale = 0.02;
  Config.StaggerRounds = 1u << 31;
  uint64_t ProgressLines = 0;
  const ServeResults R =
      runServe(Config, 1, [&](const std::string &) { ++ProgressLines; });

  ASSERT_EQ(R.Sessions.size(), 3u);
  EXPECT_EQ(R.Sessions[0].StartRound, 0u);
  EXPECT_EQ(R.Sessions[1].StartRound, uint64_t{1} << 31);
  EXPECT_EQ(R.Sessions[2].StartRound, uint64_t{1} << 32);
  EXPECT_EQ(R.Rounds, R.Sessions[2].StartRound + R.Sessions[2].RoundsRun);
  EXPECT_EQ(ProgressLines, R.Sessions[0].RoundsRun + R.Sessions[1].RoundsRun +
                               R.Sessions[2].RoundsRun);
  EXPECT_NE(exportServeCsv(R).find(",4294967296,"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// (5) Sharing is an accounting optimization, never a semantic one.
//===----------------------------------------------------------------------===//

TEST(ServeTest, SameWorkloadSessionsHitAndPayLess) {
  const RunResult Solo = runExperiment(soloConfig("compress", 0.1));
  const ServeResults Serve = runServe(smallServe("compress", 4, 0.1), 1);

  ASSERT_EQ(Serve.Sessions.size(), 4u);
  for (const ServeSessionResult &S : Serve.Sessions)
    EXPECT_EQ(S.ProgramResult, Solo.ProgramResult)
        << "session " << S.SessionId;
  // The 1-round stagger lets sessions 1..3 hit everything session 0
  // published: (N-1)/N of all optimizing compilations are hits.
  EXPECT_GT(Serve.hitRate(), 0.5);
  EXPECT_GT(Serve.totalCompileCyclesSaved(), 0u);
  EXPECT_LT(Serve.totalCompileCyclesPaid(), 4 * Solo.OptCompileCycles);
  EXPECT_EQ(Serve.ShareDuplicatePublishes, 0u)
      << "the stagger means no two sessions first-compile in one round";
  // Hits are visible in the byte split: a hitting session's variants
  // are shared-in, and the publisher's accepted publishes tag its own.
  for (const ServeSessionResult &S : Serve.Sessions)
    EXPECT_GT(S.SharedCodeBytes, 0u) << "session " << S.SessionId;
}

TEST(ServeTest, SharingOffReproducesSoloRunsExactly) {
  const RunResult Solo = runExperiment(soloConfig("compress", 0.1));
  ServeConfig Config = smallServe("compress", 2, 0.1);
  Config.ShareEnabled = false;
  const ServeResults Serve = runServe(Config, 1);

  ASSERT_EQ(Serve.Sessions.size(), 2u);
  for (const ServeSessionResult &S : Serve.Sessions) {
    expectSameResult(S, Solo);
    EXPECT_EQ(S.ShareHits + S.SharePublishes + S.ShareCyclesSaved, 0u);
    EXPECT_EQ(S.SharedCodeBytes, 0u);
  }
  EXPECT_EQ(Serve.SharePublishesAccepted, 0u);
  EXPECT_EQ(Serve.SharePeakBytes, 0u);
}

//===----------------------------------------------------------------------===//
// (6) Cross-session eviction: a shared eviction deopts every installer.
//===----------------------------------------------------------------------===//

TEST(ServeTest, SharedEvictionDeoptsEveryInstallingSession) {
  audit::setEnabled(true); // every barrier audits the index + registries
  const RunResult Solo = runExperiment(soloConfig("compress", 0.1));
  ServeConfig Config = smallServe("compress", 4, 0.1);
  Config.ShareCapacityBytes = 4000; // far below the ~8k working set
  const ServeResults Serve = runServe(Config, 1);

  EXPECT_GT(Serve.ShareEvictions, 0u);
  EXPECT_LE(Serve.ShareLiveBytes, Config.ShareCapacityBytes);
  uint64_t TotalApplied = 0, TotalDeopts = 0;
  unsigned SessionsEvicted = 0;
  for (const ServeSessionResult &S : Serve.Sessions) {
    // Forced evictions never change what the program computes.
    EXPECT_EQ(S.ProgramResult, Solo.ProgramResult)
        << "session " << S.SessionId;
    TotalApplied += S.SharedEvictionsApplied;
    TotalDeopts += S.Deopts;
    SessionsEvicted += S.SharedEvictionsApplied > 0;
  }
  EXPECT_GT(TotalApplied, 0u);
  EXPECT_GE(SessionsEvicted, 2u)
      << "an eviction fans out across sessions, not just the publisher";
  EXPECT_GT(TotalDeopts, 0u)
      << "a variant evicted mid-activation walks back through deopt";
}

//===----------------------------------------------------------------------===//
// (7) Warm start composes with sharing.
//===----------------------------------------------------------------------===//

TEST(ServeTest, WarmStartedSessionsStillShare) {
  RunConfig Capture = soloConfig("compress", 0.1);
  Capture.CaptureProfile = true;
  const RunResult Cold = runExperiment(Capture);
  auto Profile = std::make_shared<ProfileData>();
  std::string Error;
  ASSERT_TRUE(parseProfile(Cold.CapturedProfile, *Profile, Error)) << Error;

  ServeConfig Config = smallServe("compress", 3, 0.1);
  Config.WarmStart = Profile;
  const ServeResults Serve = runServe(Config, 1);

  ASSERT_EQ(Serve.Sessions.size(), 3u);
  for (const ServeSessionResult &S : Serve.Sessions) {
    EXPECT_GT(S.WarmStartApplied, 0u) << "session " << S.SessionId;
    EXPECT_EQ(S.ProgramResult, Cold.ProgramResult);
  }
  // Warm-started sessions are as identical to each other as cold ones:
  // later starters still hit what the first published.
  EXPECT_GT(Serve.ShareTotalHits, 0u);
}

//===----------------------------------------------------------------------===//
// (8) Golden: the share-* event stream's bytes are pinned.
//===----------------------------------------------------------------------===//

TEST(ServeGoldenTest, ShareTraceJsonMatchesGolden) {
  ServeConfig Config = smallServe("compress", 2, 0.05);
  Config.Trace = true;
  std::string Error;
  uint32_t Mask = 0;
  ASSERT_TRUE(
      parseTraceFilter("share-publish,share-hit,share-evict", Mask, Error))
      << Error;
  Config.TraceKindMask = Mask;
  const ServeResults Serve = runServe(Config, 1);
  std::ostringstream OS;
  exportServeTrace(OS, Serve);
  expectMatchesGolden(goldenPath("trace_share.golden"), OS.str(),
                      "either the share protocol or the JSON serialization "
                      "changed");
}
