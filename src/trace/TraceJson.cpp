//===- trace/TraceJson.cpp - Chrome trace-event JSON export ----------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "trace/TraceJson.h"

#include <cinttypes>
#include <cstdio>

using namespace aoci;

std::string aoci::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (const char Ch : S) {
    switch (Ch) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(Ch) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", Ch);
        Out += Buf;
      } else {
        Out += Ch;
      }
    }
  }
  return Out;
}

namespace {

/// Fixed %.6g rendering so floating args serialize identically everywhere.
std::string formatDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

const char *organizerName(int64_t Id) {
  switch (Id) {
  case 0:
    return "method-organizer";
  case 1:
    return "ai-organizer";
  case 2:
    return "decay-organizer";
  case 3:
    return "missing-edge";
  }
  return "<invalid>";
}

/// Streams one JSON string member `"key":"escaped"`.
void strArg(std::ostream &OS, bool &First, const char *Key,
            const std::string &Value) {
  OS << (First ? "" : ",") << '"' << Key << "\":\"" << jsonEscape(Value)
     << '"';
  First = false;
}

void intArg(std::ostream &OS, bool &First, const char *Key, int64_t Value) {
  OS << (First ? "" : ",") << '"' << Key << "\":" << Value;
  First = false;
}

void boolArg(std::ostream &OS, bool &First, const char *Key, bool Value) {
  OS << (First ? "" : ",") << '"' << Key << "\":" << (Value ? "true" : "false");
  First = false;
}

void numArg(std::ostream &OS, bool &First, const char *Key, double Value) {
  OS << (First ? "" : ",") << '"' << Key << "\":" << formatDouble(Value);
  First = false;
}

/// Renders the method arg: captured qualified name, or "m<id>" fallback.
void methodArg(std::ostream &OS, bool &First, const char *Key,
               const TraceSink &Sink, uint32_t M) {
  if (M == UINT32_MAX)
    return;
  const std::string &Name = Sink.methodName(M);
  if (Name.empty())
    strArg(OS, First, Key, "m" + std::to_string(M));
  else
    strArg(OS, First, Key, Name);
}

/// The per-kind named `args` object; the field tables in OBSERVABILITY.md
/// mirror this function case by case.
void writeArgs(std::ostream &OS, const TraceSink &Sink, const TraceEvent &E) {
  OS << "{";
  bool First = true;
  switch (E.Kind) {
  case TraceEventKind::Sample:
    methodArg(OS, First, "method", Sink, E.Method);
    boolArg(OS, First, "atPrologue", E.A != 0);
    intArg(OS, First, "sampleIndex", E.B);
    intArg(OS, First, "thread", E.Thread);
    break;
  case TraceEventKind::ListenerRecord:
    methodArg(OS, First, "method", Sink, E.Method);
    strArg(OS, First, "listener", E.A == 0 ? "method" : "trace");
    intArg(OS, First, "depth", E.B);
    intArg(OS, First, "buffered", E.C);
    break;
  case TraceEventKind::OrganizerWakeup:
    strArg(OS, First, "organizer", organizerName(E.A));
    intArg(OS, First, "wakeup", E.B);
    intArg(OS, First, "examined", E.C);
    intArg(OS, First, "acted", E.D);
    break;
  case TraceEventKind::ControllerDecision:
    methodArg(OS, First, "method", Sink, E.Method);
    intArg(OS, First, "curLevel", E.A);
    intArg(OS, First, "chosenLevel", E.B);
    numArg(OS, First, "samples", E.X);
    numArg(OS, First, "futureAtCurrent", E.Y);
    numArg(OS, First, "bestCost", E.Z);
    break;
  case TraceEventKind::CompileRequest:
    methodArg(OS, First, "method", Sink, E.Method);
    intArg(OS, First, "level", E.A);
    boolArg(OS, First, "sameLevel", E.B != 0);
    strArg(OS, First, "origin", E.C == 0 ? "controller" : "missing-edge");
    intArg(OS, First, "queueDepth", E.D);
    break;
  case TraceEventKind::CompileComplete:
    methodArg(OS, First, "method", Sink, E.Method);
    intArg(OS, First, "level", E.A);
    intArg(OS, First, "codeBytes", E.B);
    intArg(OS, First, "sizeDelta", E.C);
    intArg(OS, First, "bodies", E.D);
    intArg(OS, First, "guards", E.E);
    break;
  case TraceEventKind::PlanInstall:
    methodArg(OS, First, "method", Sink, E.Method);
    intArg(OS, First, "level", E.A);
    intArg(OS, First, "sites", E.B);
    intArg(OS, First, "bodies", E.C);
    intArg(OS, First, "guards", E.D);
    break;
  case TraceEventKind::PlanSite: {
    methodArg(OS, First, "root", Sink, E.Method);
    intArg(OS, First, "site", E.A);
    intArg(OS, First, "depth", E.B);
    const bool Guarded = E.D != 0;
    strArg(OS, First, "verdict",
           !Guarded        ? "unguarded"
           : E.C <= 1      ? "guarded-mono"
                           : "guarded-poly");
    intArg(OS, First, "cases", E.C);
    methodArg(OS, First, "callee", Sink, static_cast<uint32_t>(E.E));
    break;
  }
  case TraceEventKind::GuardFallback:
    methodArg(OS, First, "method", Sink, E.Method);
    intArg(OS, First, "site", E.A);
    methodArg(OS, First, "target", Sink, static_cast<uint32_t>(E.B));
    intArg(OS, First, "thread", E.Thread);
    break;
  case TraceEventKind::GcPause:
    intArg(OS, First, "bytesSinceGc", E.A);
    intArg(OS, First, "pauseIndex", E.B);
    break;
  case TraceEventKind::OsrEnter:
    methodArg(OS, First, "method", Sink, E.Method);
    intArg(OS, First, "fromLevel", E.A);
    intArg(OS, First, "toLevel", E.B);
    intArg(OS, First, "pc", E.C);
    intArg(OS, First, "serial", E.D);
    numArg(OS, First, "expectedSavings", E.X);
    intArg(OS, First, "thread", E.Thread);
    break;
  case TraceEventKind::OsrExit:
    methodArg(OS, First, "method", Sink, E.Method);
    intArg(OS, First, "fromLevel", E.A);
    intArg(OS, First, "level", E.B);
    intArg(OS, First, "cyclesInVariant", E.C);
    intArg(OS, First, "recovered", E.D);
    intArg(OS, First, "thread", E.Thread);
    break;
  case TraceEventKind::Deopt:
    methodArg(OS, First, "method", Sink, E.Method);
    intArg(OS, First, "frames", E.A);
    intArg(OS, First, "pc", E.B);
    intArg(OS, First, "fromLevel", E.C);
    methodArg(OS, First, "topMethod", Sink, static_cast<uint32_t>(E.E));
    intArg(OS, First, "thread", E.Thread);
    break;
  case TraceEventKind::CodeEvict:
    methodArg(OS, First, "method", Sink, E.Method);
    intArg(OS, First, "level", E.A);
    intArg(OS, First, "codeBytes", E.B);
    intArg(OS, First, "serial", E.C);
    intArg(OS, First, "liveBytes", E.D);
    intArg(OS, First, "evictionIndex", E.E);
    break;
  case TraceEventKind::PhaseShift:
    methodArg(OS, First, "method", Sink, E.Method);
    intArg(OS, First, "phase", E.A);
    intArg(OS, First, "phases", E.B);
    break;
  case TraceEventKind::ProfileLoad:
    intArg(OS, First, "version", E.A);
    intArg(OS, First, "traces", E.B);
    intArg(OS, First, "decisions", E.C);
    intArg(OS, First, "hotMethods", E.D);
    intArg(OS, First, "refusals", E.E);
    numArg(OS, First, "dropped", E.X);
    break;
  case TraceEventKind::SharePublish:
    methodArg(OS, First, "method", Sink, E.Method);
    intArg(OS, First, "level", E.A);
    intArg(OS, First, "codeBytes", E.B);
    intArg(OS, First, "publishSeq", E.C);
    intArg(OS, First, "entries", E.D);
    break;
  case TraceEventKind::ShareHit:
    methodArg(OS, First, "method", Sink, E.Method);
    intArg(OS, First, "level", E.A);
    intArg(OS, First, "codeBytes", E.B);
    intArg(OS, First, "cyclesSaved", E.C);
    intArg(OS, First, "publishSeq", E.D);
    break;
  case TraceEventKind::ShareEvict:
    methodArg(OS, First, "method", Sink, E.Method);
    intArg(OS, First, "level", E.A);
    intArg(OS, First, "codeBytes", E.B);
    intArg(OS, First, "publishSeq", E.C);
    intArg(OS, First, "installers", E.D);
    break;
  case TraceEventKind::BudgetDecision:
    methodArg(OS, First, "method", Sink, E.Method);
    methodArg(OS, First, "callee", Sink, static_cast<uint32_t>(E.A));
    intArg(OS, First, "units", E.B);
    intArg(OS, First, "remaining", E.C);
    boolArg(OS, First, "accepted", E.D != 0);
    boolArg(OS, First, "measured", E.E != 0);
    numArg(OS, First, "weight", E.X);
    break;
  }
  OS << "}";
}

void writeMetadata(std::ostream &OS, bool &FirstEvent, int Pid,
                   const std::string &ProcessName) {
  OS << (FirstEvent ? "" : ",\n") << "{\"name\":\"process_name\",\"ph\":\"M\","
     << "\"pid\":" << Pid << ",\"tid\":0,\"args\":{\"name\":\""
     << jsonEscape(ProcessName) << "\"}}";
  FirstEvent = false;
  for (unsigned T = 0; T != 1 + NumAosTraceTracks; ++T)
    OS << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << Pid
       << ",\"tid\":" << T << ",\"args\":{\"name\":\""
       << traceTrackName(static_cast<TraceTrack>(T)) << "\"}}";
}

void writeEvent(std::ostream &OS, const TraceSink &Sink, int Pid,
                const TraceEvent &E) {
  const bool Duration = E.Dur != 0;
  OS << ",\n{\"name\":\"" << traceEventKindName(E.Kind) << "\",\"ph\":\""
     << (Duration ? 'X' : 'i') << '"';
  if (!Duration)
    OS << ",\"s\":\"t\"";
  OS << ",\"pid\":" << Pid << ",\"tid\":" << unsigned(E.Track)
     << ",\"ts\":" << E.Cycle;
  if (Duration)
    OS << ",\"dur\":" << E.Dur;
  OS << ",\"args\":";
  writeArgs(OS, Sink, E);
  OS << "}";
}

} // namespace

void aoci::writeChromeTrace(std::ostream &OS,
                            const std::vector<TraceProcess> &Procs) {
  OS << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool FirstEvent = true;
  for (size_t Pid = 0; Pid != Procs.size(); ++Pid) {
    writeMetadata(OS, FirstEvent, static_cast<int>(Pid), Procs[Pid].Name);
    for (const TraceEvent &E : Procs[Pid].Sink->sortedEvents())
      writeEvent(OS, *Procs[Pid].Sink, static_cast<int>(Pid), E);
  }
  OS << "\n]}\n";
}

void aoci::writeChromeTrace(std::ostream &OS, const TraceSink &Sink,
                            const std::string &ProcessName) {
  writeChromeTrace(OS, {TraceProcess{&Sink, ProcessName}});
}
