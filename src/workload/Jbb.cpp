//===- workload/Jbb.cpp - The SPECjbb2000 workload --------------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stand-in for SPECjbb2000 (TPC-C-style transaction processing).
/// Behavioural signature: five transaction classes dispatched through the
/// shared TxManager.run() helper, each driver monomorphic in context;
/// warehouse/district field traffic and per-transaction allocation; and
/// a mid-run *phase shift* — the transaction mix flips from
/// NewOrder-heavy to Payment-heavy halfway through, exercising the decay
/// organizer's ability to retire stale hot edges.
///
//===----------------------------------------------------------------------===//

#include "workload/Workload.h"

#include "bytecode/ProgramBuilder.h"
#include "workload/WorkloadCommon.h"

using namespace aoci;

Workload aoci::makeJbb(WorkloadParams Params) {
  Rng R(Params.Seed ^ 0x1BB2000ULL);
  ProgramBuilder B;

  // Warehouse state: ytd, stock, orders.
  ClassId Warehouse = B.addClass("Warehouse", InvalidClassId, 3);
  // Order record allocated per NewOrder transaction.
  ClassId Order = B.addClass("Order", InvalidClassId, 2);

  // Transaction hierarchy: five process(warehouse) implementations.
  ClassId Transaction = B.addAbstractClass("Transaction", InvalidClassId, 1);
  MethodId Process = B.declareAbstractMethod(Transaction, "process",
                                             MethodKind::Virtual, 1, true);
  ClassId TxClasses[5];
  MethodId TxImpls[5];
  {
    // NewOrder: allocates an order, heavy work.
    TxClasses[0] = B.addClass("NewOrderTx", Transaction);
    TxImpls[0] = B.addOverride(TxClasses[0], Process);
    CodeEmitter E = B.code(TxImpls[0]);
    // Locals: 0=this 1=warehouse 2=order
    E.newObject(Order).store(2);
    E.load(2).load(1).getField(2).putField(0);
    E.load(1).load(1).getField(2).iconst(1).iadd().putField(2);
    E.work(30);
    E.load(2).getField(0).vreturn();
    E.finish();
  }
  {
    // Payment: ytd update, medium work.
    TxClasses[1] = B.addClass("PaymentTx", Transaction);
    TxImpls[1] = B.addOverride(TxClasses[1], Process);
    CodeEmitter E = B.code(TxImpls[1]);
    E.load(1).load(1).getField(0).iconst(5).iadd().putField(0);
    E.work(18);
    E.load(1).getField(0).vreturn();
    E.finish();
  }
  {
    // OrderStatus: read-only, small.
    TxClasses[2] = B.addClass("OrderStatusTx", Transaction);
    TxImpls[2] = B.addOverride(TxClasses[2], Process);
    CodeEmitter E = B.code(TxImpls[2]);
    E.load(1).getField(2).work(6).vreturn();
    E.finish();
  }
  {
    // Delivery: stock decrement, small.
    TxClasses[3] = B.addClass("DeliveryTx", Transaction);
    TxImpls[3] = B.addOverride(TxClasses[3], Process);
    CodeEmitter E = B.code(TxImpls[3]);
    E.load(1).load(1).getField(1).iconst(1).isub().putField(1);
    E.work(8);
    E.load(1).getField(1).vreturn();
    E.finish();
  }
  {
    // StockLevel: read-only scan, small.
    TxClasses[4] = B.addClass("StockLevelTx", Transaction);
    TxImpls[4] = B.addOverride(TxClasses[4], Process);
    CodeEmitter E = B.code(TxImpls[4]);
    E.load(1).getField(1).work(9).vreturn();
    E.finish();
  }

  // TxManager: warehouse + one instance of each transaction type, the
  // shared run() helper with THE process() site, and per-type drivers.
  // Fields: 0=warehouse 1..5=transactions
  ClassId Manager = B.addClass("TxManager", InvalidClassId, 6);
  MethodId Run =
      B.declareMethod(Manager, "run", MethodKind::Virtual, 1, true);
  {
    // run(tx): logging work + tx.process(this.warehouse)
    CodeEmitter E = B.code(Run);
    E.work(20);
    E.load(1).load(0).getField(0).invokeVirtual(Process);
    E.vreturn();
    E.finish();
  }
  MethodId Drivers[5];
  const char *DriverNames[5] = {"doNewOrder", "doPayment", "doOrderStatus",
                                "doDelivery", "doStockLevel"};
  for (unsigned I = 0; I != 5; ++I) {
    Drivers[I] = B.declareMethod(Manager, DriverNames[I],
                                 MethodKind::Virtual, 0, true);
    CodeEmitter E = B.code(Drivers[I]);
    E.load(0).load(0).getField(I + 1).invokeVirtual(Run);
    E.work(5);
    E.vreturn();
    E.finish();
  }

  // Phase drivers: a weighted mix of transactions per step, selected by
  // the step counter. Phase 1 is NewOrder-heavy; phase 2 Payment-heavy.
  auto addPhase = [&](const char *Name, const unsigned Thresholds[4])
      -> MethodId {
    // step(sel): sel in [0,10); thresholds partition it across drivers.
    MethodId M =
        B.declareMethod(Manager, Name, MethodKind::Virtual, 1, true);
    CodeEmitter E = B.code(M);
    std::vector<CodeEmitter::Label> Labels;
    for (unsigned I = 0; I != 4; ++I)
      Labels.push_back(E.newLabel());
    auto Done = E.newLabel();
    for (unsigned I = 0; I != 4; ++I) {
      E.load(1).iconst(Thresholds[I]).icmpLt().ifZero(Labels[I]);
      E.load(0).invokeVirtual(Drivers[I]).jump(Done);
      E.bind(Labels[I]);
    }
    E.load(0).invokeVirtual(Drivers[4]);
    E.bind(Done);
    E.vreturn();
    E.finish();
    return M;
  };
  const unsigned Phase1Mix[4] = {6, 8, 9, 10}; // 60/20/10/10/0
  const unsigned Phase2Mix[4] = {1, 7, 8, 9};  // 10/60/10/10/10
  MethodId Phase1 = addPhase("stepPhase1", Phase1Mix);
  MethodId Phase2 = addPhase("stepPhase2", Phase2Mix);

  MethodId ColdInit = addColdLibrary(
      B, R, ColdLibrarySpec{124, 13, 34, 0.45, 0.25}, "Jbb");

  ClassId MainK = B.addClass("JbbMain");
  MethodId Main = B.declareMethod(MainK, "main", MethodKind::Static, 0, true);
  {
    // Locals: 0=manager 1=loop 2=acc
    const int64_t StepsPerPhase =
        static_cast<int64_t>(36000 * Params.Scale);
    CodeEmitter E = B.code(Main);
    E.invokeStatic(ColdInit);
    E.newObject(Manager).store(0);
    E.load(0).newObject(Warehouse).putField(0);
    for (unsigned I = 0; I != 5; ++I)
      E.load(0).newObject(TxClasses[I]).putField(I + 1);
    E.iconst(0).store(2);
    emitCountedLoop(E, 1, StepsPerPhase, [&](CodeEmitter &L) {
      L.load(0).load(1).iconst(10).irem().invokeVirtual(Phase1);
      L.load(2).iadd().store(2);
    });
    emitCountedLoop(E, 1, StepsPerPhase, [&](CodeEmitter &L) {
      L.load(0).load(1).iconst(10).irem().invokeVirtual(Phase2);
      L.load(2).iadd().store(2);
    });
    E.load(2).vreturn();
    E.finish();
  }
  B.setEntry(Main);

  Workload W;
  W.Name = "SPECjbb2000";
  W.Description = "Transaction-processing stand-in: context-determined "
                  "transaction dispatch with a mid-run phase shift";
  W.Prog = B.build();
  W.Entries = {Main};
  return W;
}
