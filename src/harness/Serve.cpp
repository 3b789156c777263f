//===- harness/Serve.cpp - Multi-session server mode -----------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "harness/Serve.h"

#include "harness/CsvExport.h"
#include "support/Audit.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "trace/TraceJson.h"
#include "workload/scenario/ScenarioSpec.h"

#include <algorithm>
#include <map>
#include <thread>

using namespace aoci;

bool aoci::parseTenantList(const std::string &List,
                           std::vector<ServeTenantSpec> &Out,
                           std::string &Error) {
  Out.clear();
  size_t Pos = 0;
  while (Pos <= List.size()) {
    const size_t Comma = List.find(',', Pos);
    const std::string Item =
        List.substr(Pos, Comma == std::string::npos ? Comma : Comma - Pos);
    Pos = Comma == std::string::npos ? List.size() + 1 : Comma + 1;
    if (Item.empty()) {
      if (List.empty())
        break; // fall through to the empty-list diagnostic
      Error = "empty tenant item (stray comma?) in '" + List + "'";
      return false;
    }
    ServeTenantSpec Spec;
    const size_t Colon = Item.find(':');
    Spec.Name = Item.substr(0, Colon);
    if (Colon != std::string::npos) {
      uint64_t Count = 0;
      // The cap keeps a typo'd count from silently scheduling thousands
      // of sessions; raise it here if a real mix ever needs more.
      if (!parseUnsigned(Item.substr(Colon + 1), 999, Count)) {
        Error = "tenant '" + Item + "': count must be 1..999";
        return false;
      }
      Spec.Count = static_cast<unsigned>(Count);
      if (Spec.Count == 0) {
        Error = "tenant '" + Item + "': count must be at least 1";
        return false;
      }
    }
    bool Known = findBuiltinScenario(Spec.Name) != nullptr;
    for (const std::string &W : workloadNames())
      Known |= W == Spec.Name;
    if (!Known) {
      Error = "unknown tenant workload '" + Spec.Name + "'";
      return false;
    }
    Out.push_back(std::move(Spec));
  }
  if (Out.empty()) {
    Error = "empty tenant list";
    return false;
  }
  return true;
}

namespace {

/// One session of the serve schedule and where it stands in it.
/// Heap-allocated so the Session (which the pool's tasks point at) and
/// the trace sink (which its VM records into) never move. The Session is
/// freed at the barrier where it finishes, once its row is filled.
struct LiveSession {
  unsigned Id = 0;
  std::string TenantName;
  uint64_t StartRound = 0;
  TraceSink Trace;
  std::unique_ptr<Session> Run;
  /// Absolute clock bound of the next slice (advances by SliceCycles per
  /// round; a session whose clock overshot a slice — one long compile —
  /// simply idles until the bound catches up, deterministically).
  uint64_t NextLimit = 0;
  uint64_t RoundsRun = 0;
  bool Started = false;

  bool done() const { return Run == nullptr; }
};

} // namespace

ServeResults
aoci::runServe(const ServeConfig &Config, unsigned Jobs,
               const std::function<void(const std::string &)> &Progress) {
  if (Jobs == 0)
    Jobs = std::thread::hardware_concurrency();
  if (Jobs == 0)
    Jobs = 1;

  SharedCodeCache Cache(ShareCacheConfig{Config.ShareCapacityBytes});

  // Build every session on the driver thread, in session-id order —
  // construction (programs, baseline state, warm start) is simulated
  // work that must not depend on the pool. A tenant's sessions share one
  // build of its program, which the last of them to finish frees.
  std::vector<std::unique_ptr<LiveSession>> Sessions;
  {
    std::map<std::string, std::shared_ptr<const Workload>> Programs;
    for (const ServeTenantSpec &T : Config.Tenants) {
      for (unsigned I = 0; I != T.Count; ++I) {
        auto S = std::make_unique<LiveSession>();
        S->Id = static_cast<unsigned>(Sessions.size());
        S->TenantName = T.Name;
        S->StartRound = uint64_t{S->Id} * Config.StaggerRounds;
        RunConfig Run;
        Run.WorkloadName = T.Name;
        Run.Params = Config.Params;
        Run.Policy = Config.Policy;
        Run.MaxDepth = Config.MaxDepth;
        Run.Aos = Config.Aos;
        Run.Model = Config.Model;
        Run.WarmStart = Config.WarmStart;
        if (Config.Trace) {
          S->Trace.enable(Config.TraceKindMask);
          Run.Trace = &S->Trace;
        }
        std::shared_ptr<const Workload> &Program = Programs[T.Name];
        if (!Program)
          Program = buildWorkload(Run);
        S->Run = std::make_unique<Session>(
            Run, Program, Config.ShareEnabled ? &Cache : nullptr, S->Id);
        Sessions.push_back(std::move(S));
      }
    }
  }

  ServeResults R;
  R.Sessions.resize(Sessions.size());
  uint64_t Round = 0;
  {
    ThreadPool Pool(Jobs);
    while (true) {
      bool AnyAlive = false;
      uint64_t NextStart = UINT64_MAX;
      std::vector<LiveSession *> Active;
      for (auto &S : Sessions) {
        if (S->done())
          continue;
        AnyAlive = true;
        if (!S->Started && Round >= S->StartRound)
          S->Started = true;
        if (S->Started)
          Active.push_back(S.get());
        else
          NextStart = std::min(NextStart, S->StartRound);
      }
      if (!AnyAlive)
        break;
      // Nothing started is still live: skip the idle rounds up to the
      // next start. An idle round changes nothing simulated (no session
      // runs or publishes, so the shared bound already holds).
      if (Active.empty()) {
        Round = NextStart;
        continue;
      }

      // One slice of every active session, in parallel. The shared index
      // is frozen for the duration: sessions only read it (lookups) and
      // append to their own pending logs, so the interleaving cannot
      // influence any simulated outcome.
      std::vector<std::future<void>> Futures;
      Futures.reserve(Active.size());
      for (LiveSession *S : Active) {
        S->NextLimit += Config.SliceCycles;
        Futures.push_back(Pool.submit([S] { S->Run->run(S->NextLimit); }));
      }
      // get() rather than wait(): a session that threw re-throws here.
      for (std::future<void> &F : Futures)
        F.get();

      // Single-threaded barrier, in session-id order: merge share
      // activity, retire finished sessions, enforce the shared bound.
      for (LiveSession *S : Active) {
        ++S->RoundsRun;
        if (ShareSession *Bridge = S->Run->share())
          Bridge->commitRound(Round);
      }
      // A finished session's row is final: its state no longer changes
      // (shared evictions skip it once deregistered), so fill the row and
      // free the session here instead of holding every session until the
      // last one ends.
      for (LiveSession *S : Active) {
        if (!S->Run->finished())
          continue;
        ServeSessionResult &Row = R.Sessions[S->Id];
        static_cast<RunResult &>(Row) = S->Run->result();
        Row.SessionId = S->Id;
        Row.TenantName = S->TenantName;
        Row.IsScenario = findBuiltinScenario(S->TenantName) != nullptr;
        Row.StartRound = S->StartRound;
        Row.RoundsRun = S->RoundsRun;
        if (ShareSession *Bridge = S->Run->share())
          Bridge->sessionEnded();
        S->Run.reset();
      }
      if (Config.ShareEnabled) {
        for (size_t Victim : Cache.enforceCapacity(Round))
          for (auto &S : Sessions)
            if (S->Started && !S->done())
              S->Run->share()->applySharedEviction(Victim);
        if (audit::enabled()) {
          size_t Registered = 0;
          for (auto &S : Sessions) {
            if (S->done())
              continue;
            S->Run->share()->auditRegistry("serve-barrier");
            Registered += S->Run->share()->numRegistered();
          }
          Cache.audit("serve-barrier");
          size_t Installed = 0;
          for (size_t I = 0; I != Cache.numEntries(); ++I)
            Installed += Cache.entry(I).Installers.size();
          audit::check(Registered == Installed, "serve-barrier",
                       "session registries and shared installer lists "
                       "disagree: " +
                           std::to_string(Registered) + " vs " +
                           std::to_string(Installed));
        }
      }
      if (Progress)
        Progress(formatString(
            "round %llu: %zu active, %llu shared entries "
            "(%llu hits, %llu publishes, %llu evictions)",
            static_cast<unsigned long long>(Round), Active.size(),
            static_cast<unsigned long long>(Cache.numLiveEntries()),
            static_cast<unsigned long long>(Cache.totalHits()),
            static_cast<unsigned long long>(Cache.publishesAccepted()),
            static_cast<unsigned long long>(Cache.sharedEvictions())));
      ++Round;
    }
  }

  R.Rounds = Round;
  if (Config.Trace) {
    for (auto &S : Sessions) {
      R.Traces.push_back(std::move(S->Trace));
      R.TraceNames.push_back("s" + std::to_string(S->Id) + "." +
                             S->TenantName);
    }
  }
  R.SharePublishesAccepted = Cache.publishesAccepted();
  R.ShareDuplicatePublishes = Cache.duplicatePublishes();
  R.ShareTotalHits = Cache.totalHits();
  R.ShareEvictions = Cache.sharedEvictions();
  R.ShareLiveBytes = Cache.liveBytes();
  R.SharePeakBytes = Cache.peakBytes();
  R.ShareLiveEntries = Cache.numLiveEntries();
  return R;
}

uint64_t ServeResults::total(uint64_t RunResult::*Counter) const {
  uint64_t Sum = 0;
  for (const ServeSessionResult &S : Sessions)
    Sum += S.*Counter;
  return Sum;
}

double ServeResults::hitRate() const {
  const uint64_t Hits = total(&RunResult::ShareHits);
  const uint64_t Lookups = Hits + total(&RunResult::SharePublishes);
  if (Lookups == 0)
    return 0;
  return static_cast<double>(Hits) / static_cast<double>(Lookups);
}

std::string aoci::exportServeCsv(const ServeResults &Results) {
  // The program's result is no counter, so it splits the counter columns.
  constexpr std::string_view Clock[] = {"wall_cycles"};
  constexpr std::string_view Counters[] = {
      "opt_compilations",    "opt_compile_cycles", "share_hits",
      "share_publishes",     "share_saved_cycles", "share_evicts_applied",
      "share_evicts_pinned", "shared_bytes",       "private_bytes",
      "evictions",           "deopts",             "osr_entries"};
  std::string Out = "session,tenant,kind,start_round,rounds" +
                    counterHeader(Clock) + ",result" +
                    counterHeader(Counters) + "\n";
  for (const ServeSessionResult &S : Results.Sessions)
    Out += formatString("%u,%s,%s,%llu,%llu", S.SessionId,
                        S.TenantName.c_str(),
                        S.IsScenario ? "scenario" : "workload",
                        static_cast<unsigned long long>(S.StartRound),
                        static_cast<unsigned long long>(S.RoundsRun)) +
           counterCells(Clock, S) +
           formatString(",%lld", static_cast<long long>(S.ProgramResult)) +
           counterCells(Counters, S) + "\n";
  return Out;
}

std::string aoci::reportServe(const ServeResults &Results) {
  std::string Out = formatString(
      "%-4s %-22s %6s %10s %8s %6s %6s %10s %10s %8s\n", "id", "tenant",
      "rounds", "wall Mcy", "opt cmp", "hits", "pubs", "saved cy",
      "shared B", "priv B");
  for (const ServeSessionResult &S : Results.Sessions)
    Out += formatString(
        "%-4u %-22s %6llu %10.2f %8llu %6llu %6llu %10llu %10llu %8llu\n",
        S.SessionId, S.TenantName.c_str(),
        static_cast<unsigned long long>(S.RoundsRun),
        static_cast<double>(S.WallCycles) / 1e6,
        static_cast<unsigned long long>(S.OptCompilations),
        static_cast<unsigned long long>(S.ShareHits),
        static_cast<unsigned long long>(S.SharePublishes),
        static_cast<unsigned long long>(S.ShareCyclesSaved),
        static_cast<unsigned long long>(S.SharedCodeBytes),
        static_cast<unsigned long long>(S.PrivateCodeBytes));
  Out += formatString(
      "shared cache   %llu live entries, %llu live / %llu peak bytes\n",
      static_cast<unsigned long long>(Results.ShareLiveEntries),
      static_cast<unsigned long long>(Results.ShareLiveBytes),
      static_cast<unsigned long long>(Results.SharePeakBytes));
  Out += formatString(
      "               %llu publishes (+%llu same-round duplicates), "
      "%llu hits (%.1f%% hit rate), %llu evictions\n",
      static_cast<unsigned long long>(Results.SharePublishesAccepted),
      static_cast<unsigned long long>(Results.ShareDuplicatePublishes),
      static_cast<unsigned long long>(Results.ShareTotalHits),
      Results.hitRate() * 100.0,
      static_cast<unsigned long long>(Results.ShareEvictions));
  const uint64_t Paid = Results.totalCompileCyclesPaid();
  const uint64_t Saved = Results.totalCompileCyclesSaved();
  Out += formatString(
      "compile cycles %llu paid, %llu saved by sharing (%.1f%% of the "
      "%llu a shareless serve would pay)\n",
      static_cast<unsigned long long>(Paid),
      static_cast<unsigned long long>(Saved),
      Paid + Saved == 0
          ? 0.0
          : 100.0 * static_cast<double>(Saved) /
                static_cast<double>(Paid + Saved),
      static_cast<unsigned long long>(Paid + Saved));
  return Out;
}

void aoci::exportServeTrace(std::ostream &OS, const ServeResults &Results) {
  std::vector<TraceProcess> Procs;
  Procs.reserve(Results.Traces.size());
  for (size_t I = 0; I != Results.Traces.size(); ++I)
    Procs.push_back(TraceProcess{&Results.Traces[I], Results.TraceNames[I]});
  writeChromeTrace(OS, Procs);
}
