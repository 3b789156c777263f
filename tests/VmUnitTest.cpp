//===- tests/VmUnitTest.cpp - Small-unit tests for src/vm -------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "opt/PlanPrinter.h"
#include "vm/CodeManager.h"
#include "vm/Heap.h"
#include "vm/Overhead.h"
#include "vm/Value.h"
#include "workload/FigureOne.h"

#include <gtest/gtest.h>

#include <vector>

using namespace aoci;

//===----------------------------------------------------------------------===//
// Value
//===----------------------------------------------------------------------===//

TEST(ValueTest, KindsAndAccessors) {
  Value I = Value::makeInt(-7);
  Value R = Value::makeRef(42);
  Value N = Value::makeNull();
  EXPECT_TRUE(I.isInt());
  EXPECT_EQ(I.asInt(), -7);
  EXPECT_TRUE(R.isRef());
  EXPECT_EQ(R.asRef(), 42u);
  EXPECT_TRUE(N.isNull());
  EXPECT_TRUE(Value().isInt()) << "default value is integer zero";
  EXPECT_EQ(Value().asInt(), 0);
}

TEST(ValueTest, EqualityIsKindAndBits) {
  EXPECT_TRUE(Value::makeInt(5).equals(Value::makeInt(5)));
  EXPECT_FALSE(Value::makeInt(5).equals(Value::makeInt(6)));
  EXPECT_TRUE(Value::makeRef(3).equals(Value::makeRef(3)));
  EXPECT_FALSE(Value::makeRef(3).equals(Value::makeInt(3)))
      << "a reference never equals an integer";
  EXPECT_TRUE(Value::makeNull().equals(Value::makeNull()));
  EXPECT_FALSE(Value::makeNull().equals(Value::makeInt(0)));
}

//===----------------------------------------------------------------------===//
// Heap
//===----------------------------------------------------------------------===//

TEST(HeapTest, ObjectsAndArrays) {
  Heap H;
  ObjectRef O = H.allocateObject(3, 2);
  ObjectRef A = H.allocateArray(5);
  EXPECT_EQ(H.numObjects(), 2u);
  EXPECT_EQ(H.object(O).Klass, 3u);
  EXPECT_FALSE(H.object(O).isArray());
  EXPECT_EQ(H.object(O).Length, 2u);
  EXPECT_TRUE(H.object(A).isArray());
  EXPECT_EQ(H.object(A).Length, 5u);
  // Slots default to integer zero.
  EXPECT_TRUE(H.object(A).Slots[4].isInt());
}

TEST(HeapTest, ArenaCrossesChunksWithoutOverlap) {
  // Enough small cells to fill several chunks, mixed with arrays that
  // leave chunk tails unused, one array longer than a chunk (its own
  // block) and one of length zero.
  Heap H;
  std::vector<ObjectRef> Refs;
  for (unsigned I = 0; I != 3 * Heap::ChunkSlots; ++I) {
    Refs.push_back(H.allocateObject(I % 7, I % 5));
    if (I % 100 == 0)
      Refs.push_back(H.allocateArray(I % 997));
  }
  const ObjectRef Long = H.allocateArray(Heap::ChunkSlots + 3);
  const ObjectRef Empty = H.allocateArray(0);
  Refs.push_back(Long);
  Refs.push_back(Empty);
  Refs.push_back(H.allocateObject(1, 4));
  EXPECT_EQ(H.numObjects(), Refs.size());
  EXPECT_TRUE(H.object(Long).isArray());
  EXPECT_EQ(H.object(Long).Length, Heap::ChunkSlots + 3);
  EXPECT_TRUE(H.object(Empty).isArray());
  EXPECT_EQ(H.object(Empty).Length, 0u);

  // Every slot reads integer zero at first.
  for (ObjectRef R : Refs)
    for (uint32_t S = 0; S != H.object(R).Length; ++S)
      ASSERT_TRUE(H.object(R).Slots[S].equals(Value())) << R << "/" << S;

  // Writing a cell's last slot leaves its successor's first slot alone;
  // a stray write past the last slot would show up as a changed mark.
  for (ObjectRef R : Refs)
    if (H.object(R).Length != 0)
      H.object(R).Slots[0] = Value::makeInt(R);
  for (ObjectRef R : Refs)
    if (const uint32_t Len = H.object(R).Length; Len != 0)
      H.object(R).Slots[Len - 1] = Value::makeInt(-1 - int64_t{R});
  for (ObjectRef R : Refs) {
    const HeapObject &Obj = H.object(R);
    const Value Last = Value::makeInt(-1 - int64_t{R});
    if (Obj.Length > 1) {
      EXPECT_TRUE(Obj.Slots[0].equals(Value::makeInt(R))) << R;
    }
    if (Obj.Length != 0) {
      EXPECT_TRUE(Obj.Slots[Obj.Length - 1].equals(Last)) << R;
    }
  }
}

//===----------------------------------------------------------------------===//
// OverheadMeter
//===----------------------------------------------------------------------===//

TEST(OverheadMeterTest, ChargesPerComponent) {
  OverheadMeter M;
  M.charge(AosComponent::Listeners, 10);
  M.charge(AosComponent::Compilation, 100);
  M.charge(AosComponent::Listeners, 5);
  EXPECT_EQ(M.cycles(AosComponent::Listeners), 15u);
  EXPECT_EQ(M.cycles(AosComponent::Compilation), 100u);
  EXPECT_EQ(M.cycles(AosComponent::Controller), 0u);
  EXPECT_EQ(M.total(), 115u);
}

TEST(OverheadMeterTest, ComponentNamesMatchFigureSix) {
  EXPECT_STREQ(aosComponentName(AosComponent::Listeners), "AOS Listeners");
  EXPECT_STREQ(aosComponentName(AosComponent::Compilation),
               "CompilationThread");
  EXPECT_STREQ(aosComponentName(AosComponent::DecayOrganizer),
               "DecayOrganizer");
  EXPECT_STREQ(aosComponentName(AosComponent::AiOrganizer), "AIOrganizer");
  EXPECT_STREQ(aosComponentName(AosComponent::MethodOrganizer),
               "MethodSampleOrganizer");
  EXPECT_STREQ(aosComponentName(AosComponent::Controller),
               "ControllerThread");
}

//===----------------------------------------------------------------------===//
// CodeManager
//===----------------------------------------------------------------------===//

namespace {

std::unique_ptr<CodeVariant> variant(MethodId M, OptLevel Level,
                                     uint64_t Bytes, uint64_t Compile) {
  auto V = std::make_unique<CodeVariant>();
  V->M = M;
  V->Level = Level;
  V->CodeBytes = Bytes;
  V->CompileCycles = Compile;
  return V;
}

} // namespace

TEST(CodeManagerTest, InstallTracksCurrentAndSerials) {
  FigureOneProgram F = makeFigureOne(1);
  CodeManager CM(F.P);
  EXPECT_EQ(CM.current(2), nullptr);
  const CodeVariant *V0 = CM.install(variant(2, OptLevel::Baseline, 100, 10));
  EXPECT_EQ(CM.current(2), V0);
  EXPECT_EQ(V0->SerialNumber, 0u);
  const CodeVariant *V1 = CM.install(variant(2, OptLevel::Opt1, 200, 50));
  EXPECT_EQ(CM.current(2), V1);
  EXPECT_EQ(V1->SerialNumber, 1u);
  EXPECT_EQ(CM.allVariants().size(), 2u);
  EXPECT_EQ(CM.current(3), nullptr);
}

TEST(CodeManagerTest, LedgersSeparateBaselineFromOpt) {
  FigureOneProgram F = makeFigureOne(1);
  CodeManager CM(F.P);
  CM.install(variant(0, OptLevel::Baseline, 100, 10));
  CM.install(variant(1, OptLevel::Opt1, 200, 50));
  CM.install(variant(1, OptLevel::Opt2, 300, 70));
  EXPECT_EQ(CM.baselineCompileCycles(), 10u);
  EXPECT_EQ(CM.optCompileCycles(), 120u);
  EXPECT_EQ(CM.optimizedBytesGenerated(), 500u)
      << "cumulative includes the obsoleted opt1 variant";
  EXPECT_EQ(CM.optimizedBytesResident(), 300u)
      << "resident counts only the installed opt variant";
  EXPECT_EQ(CM.numCompiles(OptLevel::Baseline), 1u);
  EXPECT_EQ(CM.numCompiles(OptLevel::Opt1), 1u);
  EXPECT_EQ(CM.numCompiles(OptLevel::Opt2), 1u);
}

TEST(CodeManagerTest, OldVariantsStayAliveAfterReplacement) {
  FigureOneProgram F = makeFigureOne(1);
  CodeManager CM(F.P);
  const CodeVariant *Old = CM.install(variant(0, OptLevel::Opt1, 100, 10));
  CM.install(variant(0, OptLevel::Opt2, 200, 20));
  // Running activations keep raw pointers into replaced variants.
  EXPECT_EQ(Old->CodeBytes, 100u);
  EXPECT_NE(CM.current(0), Old);
}

//===----------------------------------------------------------------------===//
// InlineNode / PlanPrinter
//===----------------------------------------------------------------------===//

TEST(InlineNodeTest, FindAndGetOrCreateKeepSitesSorted) {
  InlineNode Node;
  Node.getOrCreate(9);
  Node.getOrCreate(2);
  Node.getOrCreate(5);
  EXPECT_EQ(&Node.getOrCreate(5), Node.find(5));
  EXPECT_EQ(Node.find(3), nullptr);
  ASSERT_EQ(Node.Sites.size(), 3u);
  EXPECT_LT(Node.Sites[0].Site, Node.Sites[1].Site);
  EXPECT_LT(Node.Sites[1].Site, Node.Sites[2].Site);
}

TEST(PlanPrinterTest, RendersGuardsAndNesting) {
  FigureOneProgram F = makeFigureOne(1);
  CodeVariant V;
  V.M = F.RunTest;
  V.Level = OptLevel::Opt2;
  V.CodeBytes = 1234;
  InlineCase GetCase;
  GetCase.Callee = F.Get;
  GetCase.Guarded = true;
  GetCase.BodyUnits = 54;
  GetCase.Body = std::make_unique<InlineNode>();
  InlineCase HashCase;
  HashCase.Callee = F.MyKeyHashCode;
  HashCase.BodyUnits = 4;
  GetCase.Body->getOrCreate(F.HashCodeSite)
      .Cases.push_back(std::move(HashCase));
  V.Plan.Root.getOrCreate(F.GetSite1).Cases.push_back(std::move(GetCase));
  V.Plan.recountStatistics();

  std::string Out = describeVariant(F.P, V);
  EXPECT_NE(Out.find("HashMapTest.runTest"), std::string::npos);
  EXPECT_NE(Out.find("opt2"), std::string::npos);
  EXPECT_NE(Out.find("1234 bytes"), std::string::npos);
  EXPECT_NE(Out.find("guard HashMap.get"), std::string::npos);
  EXPECT_NE(Out.find("MyKey.hashCode"), std::string::npos);
  // Nesting: the hashCode line is indented deeper than the get line.
  size_t GetPos = Out.find("guard HashMap.get");
  size_t HashPos = Out.find("MyKey.hashCode");
  EXPECT_LT(GetPos, HashPos);
}
