//===- trace/TraceSink.cpp - Per-run event sink ----------------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "trace/TraceSink.h"

#include "vm/Overhead.h"

#include <algorithm>
#include <sstream>

using namespace aoci;

static_assert(NumAosTraceTracks == NumAosComponents,
              "component track count must match vm/Overhead.h");

const char *aoci::traceEventKindName(TraceEventKind K) {
  switch (K) {
  case TraceEventKind::Sample:
    return "sample";
  case TraceEventKind::ListenerRecord:
    return "listener-record";
  case TraceEventKind::OrganizerWakeup:
    return "organizer-wakeup";
  case TraceEventKind::ControllerDecision:
    return "controller-decision";
  case TraceEventKind::CompileRequest:
    return "compile-request";
  case TraceEventKind::CompileComplete:
    return "compile-complete";
  case TraceEventKind::PlanInstall:
    return "plan-install";
  case TraceEventKind::PlanSite:
    return "plan-site";
  case TraceEventKind::GuardFallback:
    return "guard-fallback";
  case TraceEventKind::GcPause:
    return "gc-pause";
  case TraceEventKind::OsrEnter:
    return "osr-enter";
  case TraceEventKind::OsrExit:
    return "osr-exit";
  case TraceEventKind::Deopt:
    return "deopt";
  case TraceEventKind::CodeEvict:
    return "code-evict";
  case TraceEventKind::PhaseShift:
    return "phase-shift";
  case TraceEventKind::ProfileLoad:
    return "profile-load";
  case TraceEventKind::SharePublish:
    return "share-publish";
  case TraceEventKind::ShareHit:
    return "share-hit";
  case TraceEventKind::ShareEvict:
    return "share-evict";
  case TraceEventKind::BudgetDecision:
    return "budget-decision";
  }
  return "<invalid>";
}

bool aoci::parseTraceEventKind(const std::string &Name, TraceEventKind &K) {
  for (unsigned I = 0; I != NumTraceEventKinds; ++I) {
    const TraceEventKind Candidate = static_cast<TraceEventKind>(I);
    if (Name == traceEventKindName(Candidate)) {
      K = Candidate;
      return true;
    }
  }
  return false;
}

const char *aoci::traceTrackName(TraceTrack Track) {
  if (Track == TraceTrackVm)
    return "VirtualMachine";
  const unsigned Component = Track - 1;
  if (Component < NumAosComponents)
    return aosComponentName(static_cast<AosComponent>(Component));
  return "<invalid>";
}

bool aoci::parseTraceFilter(const std::string &List, uint32_t &Mask,
                            std::string &Error) {
  if (List.empty()) {
    Mask = TraceAllKinds;
    return true;
  }
  Mask = 0;
  std::stringstream In(List);
  std::string Token;
  while (std::getline(In, Token, ',')) {
    if (Token.empty())
      continue;
    TraceEventKind K;
    if (!parseTraceEventKind(Token, K)) {
      Error = "unknown trace event kind '" + Token + "'";
      return false;
    }
    Mask |= traceKindBit(K);
  }
  if (Mask == 0) {
    Error = "empty trace filter";
    return false;
  }
  return true;
}

TraceEvent &TraceSink::append(TraceEventKind Kind, TraceTrack Track,
                              uint64_t Cycle) {
  if (Chunks.empty() || Chunks.back().Size == ChunkCapacity) {
    // Ring behaviour: a cap evicts whole oldest chunks, keeping the most
    // recent window of the run.
    while (MaxEvents && !Chunks.empty() &&
           NumEvents + ChunkCapacity > MaxEvents &&
           NumEvents >= Chunks.front().Size) {
      NumEvents -= Chunks.front().Size;
      Dropped += Chunks.front().Size;
      Chunks.pop_front();
    }
    Chunks.emplace_back();
    Chunks.back().Events = std::make_unique<TraceEvent[]>(ChunkCapacity);
  }
  Chunk &C = Chunks.back();
  TraceEvent &E = C.Events[C.Size++];
  ++NumEvents;
  E = TraceEvent();
  E.Kind = Kind;
  E.Track = Track;
  E.Cycle = Cycle;
  E.Seq = NextSeq++;
  return E;
}

std::vector<TraceEvent> TraceSink::sortedEvents() const {
  std::vector<TraceEvent> Events;
  Events.reserve(NumEvents);
  forEach([&Events](const TraceEvent &E) { Events.push_back(E); });
  std::stable_sort(Events.begin(), Events.end(),
                   [](const TraceEvent &A, const TraceEvent &B) {
                     return A.Cycle != B.Cycle ? A.Cycle < B.Cycle
                                               : A.Seq < B.Seq;
                   });
  return Events;
}

void TraceSink::clear() {
  Chunks.clear();
  NextSeq = 0;
  NumEvents = 0;
  Dropped = 0;
}

void TraceSink::adoptEvents(TraceSink &&Other) {
  Chunks = std::move(Other.Chunks);
  NextSeq = Other.NextSeq;
  NumEvents = Other.NumEvents;
  Dropped = Other.Dropped;
  if (!Other.MethodNames.empty())
    MethodNames = std::move(Other.MethodNames);
  Other.clear();
}
