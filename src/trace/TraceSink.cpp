//===- trace/TraceSink.cpp - Per-run event sink ----------------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "trace/TraceSink.h"

#include <algorithm>

using namespace aoci;

bool aoci::parseTraceFilter(const std::string &List, uint32_t &Mask,
                            std::string &Error) {
  if (List.empty()) {
    Mask = TraceAllKinds;
    return true;
  }
  Mask = 0;
  for (size_t Begin = 0; Begin <= List.size();) {
    const size_t End = std::min(List.find(',', Begin), List.size());
    const std::string Token = List.substr(Begin, End - Begin);
    if (Token.empty()) {
      Error = "--trace-filter expects a comma-separated list without empty "
              "items, got '" +
              List + "'";
      return false;
    }
    TraceEventKind K;
    if (!parseTraceEventKind(Token, K)) {
      Error = "unknown trace event kind '" + Token + "'";
      return false;
    }
    Mask |= traceKindBit(K);
    Begin = End + 1;
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
