//===- trace/TraceJson.cpp - Chrome trace-event JSON export ----------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "trace/TraceJson.h"

#include "vm/Overhead.h"

#include <cstdio>
#include <iterator>

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

using K = TraceEventKind;
using T = TraceArgType;
using F = TraceField;

constexpr uint8_t on(TraceTrack Track) { return uint8_t(1u << Track); }
constexpr uint8_t on(AosComponent C) { return on(traceTrack(C)); }

constexpr TraceArgContract MethodArg = {"method", T::Method, F::Method};
constexpr TraceArgContract ThreadArg = {"thread", T::Int, F::Thread};
constexpr TraceArgContract LevelArg = {"level", T::Int, F::A};
constexpr TraceArgContract CodeBytesArg = {"codeBytes", T::Int, F::B};

/// One row per TraceEventKind, in enum order. Int and Float args are at
/// least 0 unless a row says otherwise.
constexpr TraceKindContract Contract[] = {
    {K::Sample, "sample", on(TraceTrackVm),
     {MethodArg, {"atPrologue", T::Bool, F::A}, {"sampleIndex", T::Int, F::B},
      ThreadArg}},
    {K::ListenerRecord, "listener-record", on(AosComponent::Listeners),
     {MethodArg, {"listener", T::Label, F::A, 0, {"method", "trace"}},
      {"depth", T::Int, F::B}, {"buffered", T::Int, F::C}}},
    {K::OrganizerWakeup, "organizer-wakeup",
     on(AosComponent::DecayOrganizer) | on(AosComponent::AiOrganizer) |
         on(AosComponent::MethodOrganizer),
     {{"organizer", T::Label, F::A, 0,
       {"method-organizer", "ai-organizer", "decay-organizer",
        "missing-edge"}},
      {"wakeup", T::Int, F::B}, {"examined", T::Int, F::C},
      {"acted", T::Int, F::D}}},
    {K::ControllerDecision, "controller-decision",
     on(AosComponent::Controller),
     {MethodArg, {"curLevel", T::Int, F::A}, {"chosenLevel", T::Int, F::B},
      {"samples", T::Float, F::X}, {"futureAtCurrent", T::Float, F::Y},
      {"bestCost", T::Float, F::Z}}},
    {K::CompileRequest, "compile-request", on(AosComponent::Controller),
     {MethodArg, LevelArg, {"sameLevel", T::Bool, F::B},
      {"origin", T::Label, F::C, 0, {"controller", "missing-edge"}},
      {"queueDepth", T::Int, F::D, 1}}},
    {K::CompileComplete, "compile-complete", on(AosComponent::Compilation),
     {MethodArg, LevelArg, CodeBytesArg,
      {"sizeDelta", T::Int, F::C, NoMinimum}, {"bodies", T::Int, F::D},
      {"guards", T::Int, F::E}}},
    {K::PlanInstall, "plan-install", on(AosComponent::Compilation),
     {MethodArg, LevelArg, {"sites", T::Int, F::B, 1},
      {"bodies", T::Int, F::C}, {"guards", T::Int, F::D}}},
    {K::PlanSite, "plan-site", on(AosComponent::Compilation),
     {{"root", T::Method, F::Method}, {"site", T::Int, F::A},
      {"depth", T::Int, F::B},
      {"verdict", T::Label, F::D, 0,
       {"unguarded", "guarded-mono", "guarded-poly"}},
      {"cases", T::Int, F::C}, {"callee", T::OptionalMethod, F::E}}},
    {K::GuardFallback, "guard-fallback", on(TraceTrackVm),
     {MethodArg, {"site", T::Int, F::A}, {"target", T::Method, F::B},
      ThreadArg}},
    {K::OsrEnter, "osr-enter", on(TraceTrackVm),
     {MethodArg, {"fromLevel", T::Int, F::A}, {"toLevel", T::Int, F::B},
      {"pc", T::Int, F::C}, {"serial", T::Int, F::D},
      {"expectedSavings", T::Float, F::X}, ThreadArg}},
    {K::OsrExit, "osr-exit", on(TraceTrackVm),
     {MethodArg, {"fromLevel", T::Int, F::A}, {"level", T::Int, F::B},
      {"cyclesInVariant", T::Int, F::C}, {"recovered", T::Int, F::D},
      ThreadArg}},
    {K::Deopt, "deopt", on(TraceTrackVm),
     {MethodArg, {"frames", T::Int, F::A, 1}, {"pc", T::Int, F::B},
      {"fromLevel", T::Int, F::C}, {"topMethod", T::Method, F::E},
      ThreadArg}},
    {K::CodeEvict, "code-evict", on(AosComponent::Compilation),
     {MethodArg, LevelArg, CodeBytesArg, {"serial", T::Int, F::C},
      {"liveBytes", T::Int, F::D}, {"evictionIndex", T::Int, F::E}}},
    {K::PhaseShift, "phase-shift", on(TraceTrackVm),
     {MethodArg, {"phase", T::Int, F::A}, {"phases", T::Int, F::B, 1}}},
    {K::ProfileLoad, "profile-load", on(AosComponent::AiOrganizer),
     {{"version", T::Int, F::A, 1}, {"traces", T::Int, F::B},
      {"decisions", T::Int, F::C}, {"hotMethods", T::Int, F::D},
      {"refusals", T::Int, F::E}, {"dropped", T::Float, F::X}}},
    {K::SharePublish, "share-publish", on(AosComponent::Compilation),
     {MethodArg, LevelArg, CodeBytesArg, {"publishSeq", T::Int, F::C},
      {"entries", T::Int, F::D, 1}}},
    {K::ShareHit, "share-hit", on(AosComponent::Compilation),
     {MethodArg, LevelArg, CodeBytesArg, {"cyclesSaved", T::Int, F::C},
      {"publishSeq", T::Int, F::D}}},
    {K::ShareEvict, "share-evict", on(AosComponent::Compilation),
     {MethodArg, LevelArg, CodeBytesArg, {"publishSeq", T::Int, F::C},
      {"installers", T::Int, F::D, 1}}},
    {K::BudgetDecision, "budget-decision", on(AosComponent::AiOrganizer),
     {MethodArg, {"callee", T::Method, F::A}, {"units", T::Int, F::B, 1},
      {"remaining", T::Int, F::C}, {"accepted", T::Bool, F::D},
      {"measured", T::Bool, F::E}, {"weight", T::Float, F::X}}},
};

static_assert(std::size(Contract) == NumTraceEventKinds);

/// Rows are in kind order, and exactly the Float args read X..Z.
constexpr bool wellFormed() {
  for (unsigned I = 0; I != NumTraceEventKinds; ++I) {
    if (Contract[I].Kind != static_cast<TraceEventKind>(I))
      return false;
    for (const TraceArgContract &Arg : Contract[I].Args)
      if (Arg.Key && (Arg.Type == T::Float) != (Arg.Field >= F::X))
        return false;
  }
  return true;
}
static_assert(wellFormed(), "one row per kind in enum order; Float reads X..Z");

/// Fixed %.6g rendering so floating args serialize identically everywhere.
std::string formatDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

/// The event's named `args` object: one member per arg of its kind's
/// contract row, in row order.
void writeArgs(std::ostream &OS, const TraceSink &Sink, const TraceEvent &E) {
  // The payload slots in TraceField order.
  const int64_t Ints[] = {E.Method, E.Thread, E.A, E.B, E.C, E.D, E.E};
  const double Floats[] = {E.X, E.Y, E.Z};
  OS << '{';
  const char *Sep = "";
  for (const TraceArgContract &Arg : traceKindContract(E.Kind).Args) {
    if (!Arg.Key)
      break;
    const unsigned Slot = static_cast<unsigned>(Arg.Field);
    const int64_t Code = Slot < std::size(Ints) ? Ints[Slot] : 0;
    const bool IsMethod = Arg.Type == TraceArgType::Method ||
                          Arg.Type == TraceArgType::OptionalMethod;
    if (IsMethod && static_cast<uint32_t>(Code) == UINT32_MAX)
      continue;
    OS << Sep << '"' << Arg.Key << "\":";
    Sep = ",";
    switch (Arg.Type) {
    case TraceArgType::Int:
      OS << Code;
      break;
    case TraceArgType::Float:
      OS << formatDouble(Floats[Slot - std::size(Ints)]);
      break;
    case TraceArgType::Bool:
      OS << (Code != 0 ? "true" : "false");
      break;
    case TraceArgType::Label: {
      const bool Known = Code >= 0 && Code < int64_t(std::size(Arg.Labels)) &&
                         Arg.Labels[Code];
      OS << '"' << (Known ? Arg.Labels[Code] : "<invalid>") << '"';
      break;
    }
    case TraceArgType::Method:
    case TraceArgType::OptionalMethod: {
      const uint32_t M = static_cast<uint32_t>(Code);
      const std::string &Name = Sink.methodName(M);
      if (Name.empty())
        OS << "\"m" << M << '"';
      else
        OS << '"' << jsonEscape(Name) << '"';
      break;
    }
    }
  }
  OS << '}';
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

/// The schema of one arg's value.
void writeArgSchema(std::ostream &OS, const TraceArgContract &Arg) {
  switch (Arg.Type) {
  case T::Int:
  case T::Float:
    OS << "{\"type\": \"" << (Arg.Type == T::Int ? "integer" : "number")
       << '"';
    if (Arg.Minimum != NoMinimum)
      OS << ", \"minimum\": " << Arg.Minimum;
    OS << '}';
    return;
  case T::Bool:
    OS << "{\"type\": \"boolean\"}";
    return;
  case T::Label:
    OS << "{\"enum\": [";
    for (unsigned I = 0; I != std::size(Arg.Labels) && Arg.Labels[I]; ++I)
      OS << (I ? ", \"" : "\"") << Arg.Labels[I] << '"';
    OS << "]}";
    return;
  case T::Method:
  case T::OptionalMethod:
    OS << "{\"$ref\": \"#/definitions/methodName\"}";
    return;
  }
}

/// One kind's definition: its name, its tracks and its args object.
void writeKindSchema(std::ostream &OS, const TraceKindContract &Row) {
  OS << "      \"" << Row.Name << "\": {\n"
     << "        \"properties\": {\n"
     << "          \"name\": {\"const\": \"" << Row.Name << "\"},\n"
     << "          \"tid\": {\"enum\": [";
  const char *Sep = "";
  for (unsigned Track = 0; Track != 1 + NumAosTraceTracks; ++Track)
    if (Row.Tracks & on(static_cast<TraceTrack>(Track))) {
      OS << Sep << Track;
      Sep = ", ";
    }
  OS << "]},\n"
     << "          \"args\": {\n"
     << "            \"type\": \"object\",\n"
     << "            \"required\": [";
  Sep = "";
  for (const TraceArgContract &Arg : Row.Args)
    if (Arg.Key && Arg.Type != T::OptionalMethod) {
      OS << Sep << '"' << Arg.Key << '"';
      Sep = ", ";
    }
  OS << "],\n"
     << "            \"properties\": {";
  Sep = "\n";
  for (const TraceArgContract &Arg : Row.Args)
    if (Arg.Key) {
      OS << Sep << "              \"" << Arg.Key << "\": ";
      writeArgSchema(OS, Arg);
      Sep = ",\n";
    }
  OS << "\n            },\n"
     << "            \"additionalProperties\": false\n"
     << "          }\n"
     << "        }\n"
     << "      }";
}

} // namespace

static_assert(NumAosTraceTracks == NumAosComponents,
              "component track count must match vm/Overhead.h");

const char *aoci::traceTrackName(TraceTrack Track) {
  if (Track == TraceTrackVm)
    return "VirtualMachine";
  const unsigned Component = Track - 1;
  if (Component < NumAosComponents)
    return aosComponentName(static_cast<AosComponent>(Component));
  return "<invalid>";
}

const TraceKindContract &aoci::traceKindContract(TraceEventKind K) {
  return Contract[static_cast<unsigned>(K)];
}

const char *aoci::traceEventKindName(TraceEventKind K) {
  return static_cast<unsigned>(K) < NumTraceEventKinds
             ? traceKindContract(K).Name
             : "<invalid>";
}

bool aoci::parseTraceEventKind(const std::string &Name, TraceEventKind &K) {
  for (const TraceKindContract &Row : Contract)
    if (Name == Row.Name) {
      K = Row.Kind;
      return true;
    }
  return false;
}

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

void aoci::writeTraceSchema(std::ostream &OS) {
  OS << R"json({
  "$schema": "http://json-schema.org/draft-07/schema#",
  "$id": "https://aoci.invalid/trace-event.schema.json",
  "title": "AOCI Chrome trace-event export",
  "description": "Schema of the Chrome trace JSON that aoci trace writes, as do aoci grid and aoci serve with --trace-out. Rendered from the trace contract table in src/trace/TraceJson.cpp by writeTraceSchema(); do not edit it by hand: change the table and regenerate it with AOCI_UPDATE_GOLDEN=1 ./build/tests/test_trace_contract. tools/validate_trace.jq checks a trace against it with plain jq.",
  "type": "object",
  "required": ["displayTimeUnit", "traceEvents"],
  "properties": {
    "displayTimeUnit": {"const": "ns"},
    "traceEvents": {"type": "array", "items": {"oneOf": [{"$ref": "#/definitions/metadataEvent"}, {"$ref": "#/definitions/dataEvent"}]}}
  },
  "additionalProperties": false,
  "definitions": {
    "pid": {"type": "integer", "minimum": 0},
    "tid": {"type": "integer", "minimum": 0, "maximum": )json"
     << NumAosTraceTracks << R"json(, "description": "Track 0 is VirtualMachine; AosComponent c renders on track c+1 (see OBSERVABILITY.md)"},
    "cycles": {"type": "integer", "minimum": 0, "description": "Simulated cycles (Perfetto renders them as microseconds)"},
    "methodName": {"type": "string", "description": "Qualified method name, or m<id> when no name table was captured"},
    "metadataEvent": {
      "type": "object",
      "required": ["name", "ph", "pid", "tid", "args"],
      "properties": {
        "name": {"enum": ["process_name", "thread_name"]},
        "ph": {"const": "M"},
        "pid": {"$ref": "#/definitions/pid"},
        "tid": {"$ref": "#/definitions/tid"},
        "args": {"type": "object", "required": ["name"], "properties": {"name": {"type": "string"}}, "additionalProperties": false}
      },
      "additionalProperties": false
    },
    "dataEvent": {
      "type": "object",
      "required": ["name", "ph", "pid", "tid", "ts", "args"],
      "properties": {
        "name": {"enum": [)json";
  for (unsigned I = 0; I != NumTraceEventKinds; ++I)
    OS << (I ? ", \"" : "\"") << Contract[I].Name << '"';
  OS << R"json(]},
        "ph": {"enum": ["i", "X"]},
        "s": {"const": "t"},
        "pid": {"$ref": "#/definitions/pid"},
        "tid": {"$ref": "#/definitions/tid"},
        "ts": {"$ref": "#/definitions/cycles"},
        "dur": {"type": "integer", "minimum": 1},
        "args": {"type": "object"}
      },
      "additionalProperties": false,
      "allOf": [
        {
          "description": "Instant events carry thread scope; duration events carry dur",
          "oneOf": [
            {"properties": {"ph": {"const": "i"}}, "required": ["s"], "not": {"required": ["dur"]}},
            {"properties": {"ph": {"const": "X"}}, "required": ["dur"], "not": {"required": ["s"]}}
          ]
        },
        {
          "description": "Each kind's tracks and args",
          "oneOf": [)json";
  for (unsigned I = 0; I != NumTraceEventKinds; ++I)
    OS << (I ? ",\n" : "\n") << "            {\"$ref\": \"#/definitions/kinds/"
       << Contract[I].Name << "\"}";
  OS << R"json(
          ]
        }
      ]
    },
    "kinds": {)json";
  for (unsigned I = 0; I != NumTraceEventKinds; ++I) {
    OS << (I ? ",\n" : "\n");
    writeKindSchema(OS, Contract[I]);
  }
  OS << R"json(
    }
  }
}
)json";
}
