//===--- AbsInt.cpp - Flow-sensitive interval abstract interpretation ------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "absint/AbsInt.h"

#include "ir/Dominators.h"
#include "support/Casting.h"
#include "support/FPUtils.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <sstream>
#include <unordered_map>

using namespace wdm;
using namespace wdm::absint;
using namespace wdm::ir;

namespace {

//===----------------------------------------------------------------------===//
// Per-function CFG facts and state layout
//===----------------------------------------------------------------------===//

/// What the engine needs to know about one function, built once per
/// analysis and shared by every activation of it (the entry run and each
/// inlined call): reverse post order, loop heads, and the dense slot
/// layout of its abstract states, [arguments and value-producing
/// instructions | alloca cells | module globals].
struct FuncInfo {
  std::vector<const BasicBlock *> RPO; ///< Reachable blocks, entry first.
  std::unordered_map<const BasicBlock *, unsigned> Order; ///< RPO index.
  std::vector<char> LoopHead;                              ///< By RPO index.
  std::unordered_map<const Value *, unsigned> ValueSlot;
  std::unordered_map<const Instruction *, unsigned> CellSlot;
  unsigned GlobalBase = 0;
  unsigned NumSlots = 0;
  /// Facts joined across every context, by value slot (Void: never
  /// recorded).
  std::vector<AbstractValue> Facts;

  FuncInfo(const Function &F, size_t NumGlobals) {
    DominatorInfo Dom(F);
    RPO = Dom.rpo();
    for (unsigned K = 0; K < RPO.size(); ++K)
      Order.emplace(RPO[K], K);
    // A loop head dominates one of its predecessors (a back edge's source).
    LoopHead.assign(RPO.size(), 0);
    for (const BasicBlock *BB : RPO)
      for (const BasicBlock *S : successors(BB))
        if (Dom.dominates(S, BB))
          LoopHead[Order.at(S)] = 1;

    unsigned N = 0;
    for (unsigned K = 0; K < F.numArgs(); ++K)
      ValueSlot.emplace(F.arg(K), N++);
    F.forEachInst([&](const Instruction *I) {
      if (I->type() != Type::Void)
        ValueSlot.emplace(I, N++);
    });
    Facts.resize(N);
    F.forEachInst([&](const Instruction *I) {
      if (I->opcode() == Opcode::Alloca)
        CellSlot.emplace(I, N++);
    });
    GlobalBase = N;
    NumSlots = N + static_cast<unsigned>(NumGlobals);
  }

  /// The value slot of \p V; -1 for constants, globals and void
  /// instructions, which states do not hold.
  int slotOf(const Value *V) const {
    auto It = ValueSlot.find(V);
    return It == ValueSlot.end() ? -1 : static_cast<int>(It->second);
  }
};

//===----------------------------------------------------------------------===//
// Abstract machine state
//===----------------------------------------------------------------------===//

/// True unless \p V is the Void placeholder of a slot that no path into a
/// program point has defined.
bool defined(const AbstractValue &V) { return V.Ty != Type::Void; }

/// One program point's knowledge in its function's FuncInfo slot layout:
/// SSA values (arguments and instruction results), alloca cell contents,
/// and global-variable cells. An undefined slot means "not defined on any
/// path into this point"; the defs-dominate-uses rule makes reading a
/// one-sided slot at a join sound (any use is unreachable from the side
/// that lacks the definition).
struct AbsState {
  bool Reachable = false;
  std::vector<AbstractValue> Slots;

  /// Joins \p O into this state, widening every slot that was already
  /// defined against its old value when \p Widen. Returns true when the
  /// state changed.
  bool joinFrom(const AbsState &O, bool Widen) {
    if (!O.Reachable)
      return false;
    if (!Reachable) {
      *this = O;
      return true;
    }
    bool Changed = false;
    for (size_t K = 0; K < Slots.size(); ++K) {
      const AbstractValue &Src = O.Slots[K];
      AbstractValue &Dst = Slots[K];
      if (!defined(Src))
        continue;
      if (!defined(Dst)) {
        Dst = Src;
        Changed = true;
        continue;
      }
      AbstractValue New = Dst.join(Src);
      if (Widen)
        New = Dst.widen(New);
      if (!(New == Dst)) {
        Dst = New;
        Changed = true;
      }
    }
    return Changed;
  }
};

AbstractValue zeroOf(Type Ty) {
  switch (Ty) {
  case Type::Double:
    return AbstractValue::ofDouble(FPInterval::point(0.0));
  case Type::Int:
    return AbstractValue::ofInt(IntInterval::point(0));
  case Type::Bool:
    return AbstractValue::ofBool(BoolAbs::point(false));
  case Type::Void:
    break;
  }
  return AbstractValue::topOf(Ty);
}

AbstractValue initialValue(const GlobalVar *G) {
  return G->type() == Type::Double
             ? AbstractValue::ofDouble(FPInterval::point(G->initDouble()))
             : AbstractValue::ofInt(IntInterval::point(G->initInt()));
}

/// What a call contributes back to its caller.
struct CallSummary {
  bool MayReturn = false;
  AbstractValue Ret;
  std::vector<AbstractValue> ExitGlobals; ///< In module global order.
};

//===----------------------------------------------------------------------===//
// Engine
//===----------------------------------------------------------------------===//

/// Shared across the entry function and all inlined callees.
struct SharedCtx {
  AnalysisOptions Opts;
  unsigned Visits = 0;
  bool Complete = true;
  /// The module's globals, in the order of every state's global slots.
  std::vector<const GlobalVar *> Globals;
  std::unordered_map<const GlobalVar *, unsigned> GlobalIndex;
  /// CFG facts, state layout and recorded facts of every function the
  /// analysis entered.
  std::unordered_map<const Function *, std::unique_ptr<FuncInfo>> Funcs;
  /// Per-condbr edge feasibility (MayTrue/MayFalse = direction may be
  /// taken), joined across contexts.
  std::unordered_map<const Instruction *, BoolAbs> EdgeFeas;
  /// Per-comparison joined operand values, for boundary classification.
  std::unordered_map<const Instruction *, std::pair<AbstractValue, AbstractValue>>
      CmpOps;
  /// Functions whose facts are unusable (recursion or depth cap made the
  /// inlining give up somewhere).
  std::unordered_set<const Function *> FactsInvalid;
  /// Call stack for recursion detection.
  std::vector<const Function *> Stack;

  FuncInfo &info(const Function &F) {
    std::unique_ptr<FuncInfo> &FI = Funcs[&F];
    if (!FI)
      FI = std::make_unique<FuncInfo>(F, Globals.size());
    return *FI;
  }

  const FuncInfo *findInfo(const Function *F) const {
    auto It = Funcs.find(F);
    return It == Funcs.end() ? nullptr : It->second.get();
  }

  void invalidateFrom(const Function *F) {
    // Facts of F and everything it can call are no longer certificates.
    std::deque<const Function *> Work{F};
    while (!Work.empty()) {
      const Function *Cur = Work.front();
      Work.pop_front();
      if (!FactsInvalid.insert(Cur).second)
        continue;
      Cur->forEachInst([&](const Instruction *I) {
        if (I->opcode() == Opcode::Call)
          Work.push_back(I->callee());
      });
    }
  }
};

/// One activation of one function: chaotic iteration to a fixpoint,
/// narrowing, and a final pass that records facts.
class Engine {
public:
  Engine(const Function &F, FuncInfo &FI, SharedCtx &Ctx)
      : F(F), FI(FI), Ctx(Ctx) {}

  /// Runs to fixpoint from \p Entry, then (optionally) records facts in
  /// the final pass. Returns the call summary of this activation.
  CallSummary run(AbsState Entry, bool Record) {
    CallSummary Sum;
    Sum.Ret = AbstractValue::bottomOf(F.returnType());
    Sum.ExitGlobals.resize(Ctx.Globals.size());
    const unsigned NB = static_cast<unsigned>(FI.RPO.size());
    InState.assign(NB, AbsState{});
    if (NB == 0)
      return Sum;
    InState[0] = std::move(Entry);

    // Chaotic iteration in RPO priority with widening at loop heads.
    std::vector<unsigned> JoinCount(NB, 0);
    std::vector<char> Pending(NB, 0);
    Pending[0] = 1;
    unsigned NumPending = 1;
    while (NumPending && Ctx.Complete) {
      unsigned Idx = 0;
      while (!Pending[Idx])
        ++Idx;
      Pending[Idx] = 0;
      --NumPending;
      if (++Ctx.Visits > Ctx.Opts.MaxBlockVisits) {
        Ctx.Complete = false;
        break;
      }
      transferBlock(Idx, InState[Idx], /*Record=*/false, nullptr,
                    [&](unsigned Succ, const AbsState &St) {
                      bool Widen = FI.LoopHead[Succ] &&
                                   ++JoinCount[Succ] > Ctx.Opts.WidenDelay;
                      if (InState[Succ].joinFrom(St, Widen) &&
                          !Pending[Succ]) {
                        Pending[Succ] = 1;
                        ++NumPending;
                      }
                    });
    }

    // Narrowing: recompute in-states as exact joins of predecessor edges
    // for a few decreasing passes (loop-head states shrink back from the
    // widened infinities where the branch conditions allow).
    for (unsigned Pass = 0; Pass < Ctx.Opts.NarrowPasses && Ctx.Complete;
         ++Pass) {
      std::vector<AbsState> NewIn(NB);
      for (unsigned Idx = 0; Idx < NB; ++Idx) {
        if (!InState[Idx].Reachable)
          continue;
        if (++Ctx.Visits > Ctx.Opts.MaxBlockVisits) {
          Ctx.Complete = false;
          break;
        }
        transferBlock(Idx, InState[Idx], /*Record=*/false, nullptr,
                      [&](unsigned Succ, const AbsState &St) {
                        NewIn[Succ].joinFrom(St, /*Widen=*/false);
                      });
      }
      if (!Ctx.Complete)
        break;
      for (unsigned Idx = 1; Idx < NB; ++Idx)
        InState[Idx] = std::move(NewIn[Idx]);
    }
    if (!Ctx.Complete)
      return Sum; // every query degrades to "don't know"

    // Final pass: compute the summary and (when requested) record facts.
    for (unsigned Idx = 0; Idx < NB; ++Idx)
      if (InState[Idx].Reachable)
        transferBlock(Idx, InState[Idx], Record, &Sum,
                      [](unsigned, const AbsState &) {});
    return Sum;
  }

  /// In-states by RPO index, as the last run left them.
  const std::vector<AbsState> &inStates() const { return InState; }

private:
  /// Slot writes an edge refinement made, for restoring the block's
  /// out-state before the other edge is refined (at most three: the
  /// condition and the two comparison operands).
  struct Undo {
    unsigned N = 0;
    unsigned Slot[3];
    AbstractValue Old[3];
  };

  AbstractValue lookup(const Value *V, const AbsState &S) const {
    if (const auto *CD = dyn_cast<ConstantDouble>(V))
      return AbstractValue::ofDouble(FPInterval::point(CD->value()));
    if (const auto *CI = dyn_cast<ConstantInt>(V))
      return AbstractValue::ofInt(IntInterval::point(CI->value()));
    if (const auto *CB = dyn_cast<ConstantBool>(V))
      return AbstractValue::ofBool(BoolAbs::point(CB->value()));
    int K = FI.slotOf(V);
    if (K >= 0 && defined(S.Slots[K]))
      return S.Slots[K];
    return AbstractValue::topOf(V->type());
  }

  AbstractValue &globalSlot(AbsState &S, const GlobalVar *G) const {
    return S.Slots[FI.GlobalBase + Ctx.GlobalIndex.at(G)];
  }

  void havocGlobals(AbsState &S) const {
    for (size_t K = 0; K < Ctx.Globals.size(); ++K)
      S.Slots[FI.GlobalBase + K] =
          AbstractValue::topOf(Ctx.Globals[K]->type());
  }

  AbstractValue evalCall(const Instruction *I, AbsState &S, bool Record) {
    const Function *Callee = I->callee();
    bool Recursive = std::find(Ctx.Stack.begin(), Ctx.Stack.end(), Callee) !=
                     Ctx.Stack.end();
    if (Recursive || Ctx.Stack.size() >= Ctx.Opts.MaxCallDepth ||
        !Ctx.Complete) {
      // Give up on the call: result top, globals havoc, callee facts are
      // no longer certificates.
      Ctx.invalidateFrom(Callee);
      havocGlobals(S);
      return AbstractValue::topOf(I->type());
    }
    FuncInfo &CI = Ctx.info(*Callee);
    AbsState Entry;
    Entry.Reachable = true;
    Entry.Slots.resize(CI.NumSlots);
    for (unsigned K = 0; K < Callee->numArgs(); ++K)
      Entry.Slots[K] = lookup(I->operand(K), S); // arguments come first
    std::copy(S.Slots.begin() + FI.GlobalBase, S.Slots.end(),
              Entry.Slots.begin() + CI.GlobalBase);
    Ctx.Stack.push_back(Callee);
    CallSummary Sum = Engine(*Callee, CI, Ctx).run(std::move(Entry), Record);
    Ctx.Stack.pop_back();
    if (!Ctx.Complete) {
      Ctx.invalidateFrom(Callee);
      havocGlobals(S);
      return AbstractValue::topOf(I->type());
    }
    if (!Sum.MayReturn) {
      // Every path traps: execution cannot continue past the call.
      S.Reachable = false;
      return AbstractValue::bottomOf(I->type());
    }
    std::copy(Sum.ExitGlobals.begin(), Sum.ExitGlobals.end(),
              S.Slots.begin() + FI.GlobalBase);
    return Sum.Ret;
  }

  void recordCmp(const Instruction *I, const AbsState &S) {
    auto &Slot = Ctx.CmpOps[I];
    AbstractValue A = lookup(I->operand(0), S);
    AbstractValue Bv = lookup(I->operand(1), S);
    if (Slot.first.Ty == Type::Void) {
      Slot = {A, Bv};
    } else {
      Slot.first = Slot.first.join(A);
      Slot.second = Slot.second.join(Bv);
    }
  }

  AbstractValue evalInst(const Instruction *I, AbsState &S, bool Record) {
    auto D = [&](unsigned K) { return lookup(I->operand(K), S).D; };
    auto N = [&](unsigned K) { return lookup(I->operand(K), S).I; };
    auto B = [&](unsigned K) { return lookup(I->operand(K), S).B; };
    switch (I->opcode()) {
    case Opcode::FAdd:
      return AbstractValue::ofDouble(absFAdd(D(0), D(1)));
    case Opcode::FSub:
      return AbstractValue::ofDouble(absFSub(D(0), D(1)));
    case Opcode::FMul: {
      FPInterval R = absFMul(D(0), D(1));
      if (I->operand(0) == I->operand(1)) {
        // x*x is a square: never negative (same-sign product, and
        // (-0)*(-0) = +0) and NaN only when x itself is, never via the
        // zero-times-inf interior rule (x can't be 0 and inf at once).
        if (!R.numEmpty() && R.Lo < 0.0)
          R.Lo = 0.0;
        R.MayNaN = D(0).MayNaN;
      }
      return AbstractValue::ofDouble(R);
    }
    case Opcode::FDiv:
      return AbstractValue::ofDouble(absFDiv(D(0), D(1)));
    case Opcode::FRem:
      return AbstractValue::ofDouble(absFRem(D(0), D(1)));
    case Opcode::FNeg:
      return AbstractValue::ofDouble(absFNeg(D(0)));
    case Opcode::FAbs:
      return AbstractValue::ofDouble(absFAbs(D(0)));
    case Opcode::Sqrt:
      return AbstractValue::ofDouble(absSqrt(D(0)));
    case Opcode::Sin:
      return AbstractValue::ofDouble(absSin(D(0)));
    case Opcode::Cos:
      return AbstractValue::ofDouble(absCos(D(0)));
    case Opcode::Tan:
      return AbstractValue::ofDouble(absTan(D(0)));
    case Opcode::Exp:
      return AbstractValue::ofDouble(absExp(D(0)));
    case Opcode::Log:
      return AbstractValue::ofDouble(absLog(D(0)));
    case Opcode::Pow:
      return AbstractValue::ofDouble(absPow(D(0), D(1)));
    case Opcode::FMin:
      return AbstractValue::ofDouble(absFMin(D(0), D(1)));
    case Opcode::FMax:
      return AbstractValue::ofDouble(absFMax(D(0), D(1)));
    case Opcode::Floor:
      return AbstractValue::ofDouble(absFloor(D(0)));
    case Opcode::FCmp:
      if (Record)
        recordCmp(I, S);
      return AbstractValue::ofBool(absFCmp(I->pred(), D(0), D(1)));
    case Opcode::ICmp:
      if (Record)
        recordCmp(I, S);
      return AbstractValue::ofBool(absICmp(I->pred(), N(0), N(1)));
    case Opcode::IAdd:
      return AbstractValue::ofInt(absIAdd(N(0), N(1)));
    case Opcode::ISub:
      return AbstractValue::ofInt(absISub(N(0), N(1)));
    case Opcode::IMul:
      return AbstractValue::ofInt(absIMul(N(0), N(1)));
    case Opcode::IAnd:
      return AbstractValue::ofInt(absIAnd(N(0), N(1)));
    case Opcode::IOr:
      return AbstractValue::ofInt(absIOr(N(0), N(1)));
    case Opcode::IXor:
      return AbstractValue::ofInt(absIXor(N(0), N(1)));
    case Opcode::IShl:
      return AbstractValue::ofInt(absIShl(N(0), N(1)));
    case Opcode::ILShr:
      return AbstractValue::ofInt(absILShr(N(0), N(1)));
    case Opcode::BAnd: {
      BoolAbs A = B(0), Bb = B(1);
      if (A.isBottom() || Bb.isBottom())
        return AbstractValue::bottomOf(Type::Bool);
      return AbstractValue::ofBool(
          {A.MayTrue && Bb.MayTrue, A.MayFalse || Bb.MayFalse});
    }
    case Opcode::BOr: {
      BoolAbs A = B(0), Bb = B(1);
      if (A.isBottom() || Bb.isBottom())
        return AbstractValue::bottomOf(Type::Bool);
      return AbstractValue::ofBool(
          {A.MayTrue || Bb.MayTrue, A.MayFalse && Bb.MayFalse});
    }
    case Opcode::BNot: {
      BoolAbs A = B(0);
      return AbstractValue::ofBool({A.MayFalse, A.MayTrue});
    }
    case Opcode::SIToFP:
      return AbstractValue::ofDouble(absSIToFP(N(0)));
    case Opcode::FPToSI:
      return AbstractValue::ofInt(absFPToSI(D(0)));
    case Opcode::HighWord:
      return AbstractValue::ofInt(absHighWord(D(0)));
    case Opcode::UlpDiff:
      return AbstractValue::ofDouble(absUlpDiff(D(0), D(1)));
    case Opcode::Select: {
      BoolAbs C = B(0);
      AbstractValue R = AbstractValue::bottomOf(I->type());
      if (C.MayTrue)
        R = R.join(lookup(I->operand(1), S));
      if (C.MayFalse)
        R = R.join(lookup(I->operand(2), S));
      return R;
    }
    case Opcode::Alloca: {
      AbstractValue &Cell = S.Slots[FI.CellSlot.at(I)];
      AbstractValue Zero = zeroOf(I->type());
      // On loop re-entry the VM's frame slot keeps its old value while a
      // fresh interpreter slot would read zero; cover both.
      Cell = defined(Cell) ? Cell.join(Zero) : Zero;
      // The runtime value is the slot ordinal, a small nonnegative int.
      return AbstractValue::ofInt(
          IntInterval::range(0, std::numeric_limits<int64_t>::max()));
    }
    case Opcode::Load: {
      auto It = FI.CellSlot.find(cast<Instruction>(I->operand(0)));
      if (It != FI.CellSlot.end() && defined(S.Slots[It->second]))
        return S.Slots[It->second];
      return zeroOf(I->type());
    }
    case Opcode::Store: {
      auto It = FI.CellSlot.find(cast<Instruction>(I->operand(0)));
      if (It != FI.CellSlot.end())
        S.Slots[It->second] = lookup(I->operand(1), S);
      return AbstractValue::bottomOf(Type::Void);
    }
    case Opcode::LoadGlobal: {
      const auto *G = cast<GlobalVar>(I->operand(0));
      const AbstractValue &V = globalSlot(S, G);
      return defined(V) ? V : initialValue(G);
    }
    case Opcode::StoreGlobal:
      globalSlot(S, cast<GlobalVar>(I->operand(0))) =
          lookup(I->operand(1), S);
      return AbstractValue::bottomOf(Type::Void);
    case Opcode::SiteEnabled:
      // Runtime-gated (Algorithm 3's evolving L): either answer possible.
      return AbstractValue::ofBool(BoolAbs::top());
    case Opcode::Call:
      return evalCall(I, S, Record);
    case Opcode::Br:
    case Opcode::CondBr:
    case Opcode::Ret:
    case Opcode::Trap:
      break; // handled by transferBlock
    }
    return AbstractValue::bottomOf(Type::Void);
  }

  /// Overwrites the slot of \p V in \p S, logging the old value in \p U.
  void write(AbsState &S, const Value *V, const AbstractValue &A,
             Undo &U) const {
    unsigned K = FI.ValueSlot.at(V);
    U.Slot[U.N] = K;
    U.Old[U.N] = S.Slots[K];
    ++U.N;
    S.Slots[K] = A;
  }

  static void undo(AbsState &S, Undo &U) {
    while (U.N) {
      --U.N;
      S.Slots[U.Slot[U.N]] = U.Old[U.N];
    }
  }

  /// Refines \p S in place along a condbr edge, logging every write in
  /// \p U; returns false when the edge is infeasible.
  bool refineEdge(const Instruction *CondBr, bool TakenTrue, AbsState &S,
                  Undo &U) const {
    const Value *Cond = CondBr->operand(0);
    bool Want = TakenTrue;
    // Peel BNot chains so the refinement reaches the comparison.
    while (const auto *CI = dyn_cast<Instruction>(Cond)) {
      if (CI->opcode() != Opcode::BNot)
        break;
      Want = !Want;
      Cond = CI->operand(0);
    }
    auto Writable = [](const Value *V) {
      return isa<Instruction>(V) || isa<Argument>(V);
    };
    // Pin the condition (and the peeled chain root) on this edge.
    AbstractValue CondAbs = lookup(CondBr->operand(0), S);
    if (!CondAbs.B.contains(TakenTrue))
      return false;
    if (Writable(CondBr->operand(0)))
      write(S, CondBr->operand(0),
            AbstractValue::ofBool(BoolAbs::point(TakenTrue)), U);

    const auto *Cmp = dyn_cast<Instruction>(Cond);
    if (!Cmp ||
        (Cmp->opcode() != Opcode::FCmp && Cmp->opcode() != Opcode::ICmp))
      return true;
    AbstractValue A = lookup(Cmp->operand(0), S);
    AbstractValue B = lookup(Cmp->operand(1), S);
    bool Feasible;
    if (Cmp->opcode() == Opcode::FCmp)
      Feasible = refineFCmp(Cmp->pred(), Want, A.D, B.D);
    else
      Feasible = refineICmp(Cmp->pred(), Want, A.I, B.I);
    if (!Feasible)
      return false;
    if (Writable(Cmp->operand(0)))
      write(S, Cmp->operand(0), A, U);
    if (Cmp->operand(1) != Cmp->operand(0) && Writable(Cmp->operand(1)))
      write(S, Cmp->operand(1), B, U);
    return true;
  }

  /// Runs block \p Idx from \p In and hands each feasible out-edge's
  /// state to \p Emit(successor index, state). \p In is copied before the
  /// first Emit, so Emit may update the in-state of any block.
  template <typename EmitT>
  void transferBlock(unsigned Idx, const AbsState &In, bool Record,
                     CallSummary *Sum, EmitT Emit) {
    if (!In.Reachable)
      return;
    AbsState S = In;
    for (const auto &InstPtr : *FI.RPO[Idx]) {
      const Instruction *I = InstPtr.get();
      if (!S.Reachable)
        return;
      if (I->isTerminator()) {
        switch (I->opcode()) {
        case Opcode::Br:
          Emit(FI.Order.at(I->successor(0)), S);
          break;
        case Opcode::CondBr: {
          BoolAbs Feas;
          for (bool Dir : {true, false}) {
            Undo U;
            if (refineEdge(I, Dir, S, U)) {
              (Dir ? Feas.MayTrue : Feas.MayFalse) = true;
              Emit(FI.Order.at(I->successor(Dir ? 0 : 1)), S);
            }
            undo(S, U);
          }
          if (Record) {
            auto It = Ctx.EdgeFeas.find(I);
            if (It == Ctx.EdgeFeas.end())
              Ctx.EdgeFeas.emplace(I, Feas);
            else
              It->second = It->second.join(Feas);
          }
          break;
        }
        case Opcode::Ret:
          if (Sum) {
            Sum->MayReturn = true;
            if (I->numOperands() > 0)
              Sum->Ret = Sum->Ret.join(lookup(I->operand(0), S));
            for (size_t K = 0; K < Sum->ExitGlobals.size(); ++K) {
              const AbstractValue &G = S.Slots[FI.GlobalBase + K];
              AbstractValue &Exit = Sum->ExitGlobals[K];
              if (defined(G))
                Exit = defined(Exit) ? Exit.join(G) : G;
            }
          }
          break;
        default:
          break; // trap: execution stops; nothing to propagate
        }
        return;
      }
      AbstractValue R = evalInst(I, S, Record);
      if (!S.Reachable)
        return; // a no-return call ended the block
      if (I->type() != Type::Void) {
        if (R.isBottom())
          // No concrete value can exist here; the rest of the block (and
          // its successors) is unreachable from this state.
          return;
        unsigned K = FI.ValueSlot.at(I);
        S.Slots[K] = R;
        if (Record) {
          AbstractValue &Fact = FI.Facts[K];
          Fact = defined(Fact) ? Fact.join(R) : R;
        }
      }
    }
    // Unterminated block (under construction): dead end.
  }

  const Function &F;
  FuncInfo &FI;
  SharedCtx &Ctx;
  std::vector<AbsState> InState; ///< By RPO index.
};

} // namespace

//===----------------------------------------------------------------------===//
// FunctionAnalysis
//===----------------------------------------------------------------------===//

struct FunctionAnalysis::Impl {
  const Function *F = nullptr;
  SharedCtx Ctx;
  /// Entry-function block reachability, by RPO index.
  std::vector<char> BlockReach;
};

FunctionAnalysis::FunctionAnalysis(const Function &F, AnalysisOptions Opts)
    : P(std::make_unique<Impl>()) {
  P->F = &F;
  SharedCtx &Ctx = P->Ctx;
  Ctx.Opts = std::move(Opts);
  const Module *M = F.parent();
  for (size_t K = 0; K < M->numGlobals(); ++K) {
    Ctx.Globals.push_back(M->global(K));
    Ctx.GlobalIndex.emplace(M->global(K), static_cast<unsigned>(K));
  }

  FuncInfo &FI = Ctx.info(F);
  AbsState Entry;
  Entry.Reachable = true;
  Entry.Slots.resize(FI.NumSlots);
  unsigned DoubleOrdinal = 0;
  for (unsigned K = 0; K < F.numArgs(); ++K) {
    const Argument *A = F.arg(K);
    AbstractValue V = AbstractValue::topOf(A->type());
    if (A->type() == Type::Double) {
      if (DoubleOrdinal < Ctx.Opts.ArgRanges.size())
        V = AbstractValue::ofDouble(Ctx.Opts.ArgRanges[DoubleOrdinal]);
      ++DoubleOrdinal;
    }
    Entry.Slots[K] = V;
  }
  for (size_t K = 0; K < Ctx.Globals.size(); ++K)
    Entry.Slots[FI.GlobalBase + K] = initialValue(Ctx.Globals[K]);

  // One run: the fixpoint, then facts recorded in its final pass from the
  // stable states.
  Ctx.Stack.push_back(&F);
  Engine E(F, FI, Ctx);
  E.run(std::move(Entry), /*Record=*/true);
  if (Ctx.Complete)
    for (const AbsState &St : E.inStates())
      P->BlockReach.push_back(St.Reachable);
  Ctx.Stack.pop_back();
}

FunctionAnalysis::~FunctionAnalysis() = default;
FunctionAnalysis::FunctionAnalysis(FunctionAnalysis &&) noexcept = default;
FunctionAnalysis &
FunctionAnalysis::operator=(FunctionAnalysis &&) noexcept = default;

const Function &FunctionAnalysis::function() const { return *P->F; }

bool FunctionAnalysis::complete() const { return P->Ctx.Complete; }

AbstractValue FunctionAnalysis::factFor(const Instruction *I) const {
  const Function *Fn = I->parent()->parent();
  if (!complete() || P->Ctx.FactsInvalid.count(Fn))
    return AbstractValue::topOf(I->type());
  if (const FuncInfo *FI = P->Ctx.findInfo(Fn)) {
    int K = FI->slotOf(I);
    if (K >= 0 && defined(FI->Facts[K]))
      return FI->Facts[K];
  }
  return AbstractValue::bottomOf(I->type());
}

bool FunctionAnalysis::instReached(const Instruction *I) const {
  const Function *Fn = I->parent()->parent();
  if (!complete() || P->Ctx.FactsInvalid.count(Fn))
    return true;
  if (const FuncInfo *FI = P->Ctx.findInfo(Fn)) {
    int K = FI->slotOf(I);
    if (K >= 0 && defined(FI->Facts[K]))
      return true;
  }
  if (P->Ctx.EdgeFeas.count(I))
    return true;
  // Void instructions other than condbr have no recorded fact; fall back
  // to their block's reachability when they belong to the entry function.
  return Fn == P->F && blockReachable(I->parent());
}

bool FunctionAnalysis::blockReachable(const BasicBlock *BB) const {
  if (!complete())
    return true;
  const FuncInfo *FI = P->Ctx.findInfo(P->F);
  auto It = FI->Order.find(BB);
  return It != FI->Order.end() && P->BlockReach[It->second];
}

bool FunctionAnalysis::edgeFeasible(const Instruction *Branch,
                                    bool TakenTrue) const {
  if (!complete() || P->Ctx.FactsInvalid.count(Branch->parent()->parent()))
    return true;
  auto It = P->Ctx.EdgeFeas.find(Branch);
  if (It == P->Ctx.EdgeFeas.end())
    return false; // the condbr itself is unreachable
  return TakenTrue ? It->second.MayTrue : It->second.MayFalse;
}

bool FunctionAnalysis::cmpEqualityPossible(const Instruction *Cmp) const {
  if (!complete() || P->Ctx.FactsInvalid.count(Cmp->parent()->parent()))
    return true;
  auto It = P->Ctx.CmpOps.find(Cmp);
  if (It == P->Ctx.CmpOps.end())
    return false; // never reached: no boundary to hit
  const AbstractValue &A = It->second.first;
  const AbstractValue &B = It->second.second;
  if (Cmp->opcode() == Opcode::FCmp)
    // Equality needs a common non-NaN numeric value (NaN != NaN).
    return absFCmp(CmpPred::EQ, A.D, B.D).MayTrue;
  return absICmp(CmpPred::EQ, A.I, B.I).MayTrue;
}

//===----------------------------------------------------------------------===//
// Site classification
//===----------------------------------------------------------------------===//

const char *absint::siteVerdictName(SiteVerdict V) {
  switch (V) {
  case SiteVerdict::Unknown:
    return "unknown";
  case SiteVerdict::ProvedSafe:
    return "proved_safe";
  case SiteVerdict::Unreachable:
    return "unreachable";
  }
  return "unknown";
}

SiteVerdict absint::classifySite(const FunctionAnalysis &FA,
                                 const instr::Site &S) {
  if (!FA.complete() || !S.Inst)
    return SiteVerdict::Unknown;
  switch (S.Kind) {
  case instr::SiteKind::Comparison:
    if (!FA.instReached(S.Inst))
      return SiteVerdict::Unreachable;
    return FA.cmpEqualityPossible(S.Inst) ? SiteVerdict::Unknown
                                          : SiteVerdict::ProvedSafe;
  case instr::SiteKind::FPOp: {
    if (!FA.instReached(S.Inst))
      return SiteVerdict::Unreachable;
    AbstractValue V = FA.factFor(S.Inst);
    if (V.Ty != Type::Double)
      return SiteVerdict::Unknown;
    if (V.D.isBottom())
      return SiteVerdict::Unreachable;
    // The overflow observer fires on |r| >= MaxDouble or NaN.
    if (!V.D.MayNaN && !V.D.numEmpty() && V.D.Hi < MaxDouble &&
        V.D.Lo > -MaxDouble)
      return SiteVerdict::ProvedSafe;
    return SiteVerdict::Unknown;
  }
  case instr::SiteKind::BranchTrue:
    return FA.edgeFeasible(S.Inst, true) ? SiteVerdict::Unknown
                                         : SiteVerdict::Unreachable;
  case instr::SiteKind::BranchFalse:
    return FA.edgeFeasible(S.Inst, false) ? SiteVerdict::Unknown
                                          : SiteVerdict::Unreachable;
  }
  return SiteVerdict::Unknown;
}

std::vector<SiteReport> absint::classifySites(const FunctionAnalysis &FA,
                                              const instr::SiteTable &Sites) {
  std::vector<SiteReport> Out;
  Out.reserve(Sites.size());
  for (const instr::Site &S : Sites) {
    SiteReport R;
    R.Id = S.Id;
    R.Kind = S.Kind;
    R.Verdict = classifySite(FA, S);
    if (R.Verdict != SiteVerdict::Unknown) {
      std::ostringstream OS;
      OS << siteVerdictName(R.Verdict);
      if (!S.Description.empty())
        OS << ": " << S.Description;
      R.Reason = OS.str();
    }
    Out.push_back(std::move(R));
  }
  return Out;
}

bool absint::anySiteMaybeTriggers(const FunctionAnalysis &FA,
                                  const instr::SiteTable &Sites,
                                  const std::unordered_set<int> &Active) {
  for (const instr::Site &S : Sites) {
    if (!Active.count(S.Id))
      continue;
    if (classifySite(FA, S) == SiteVerdict::Unknown)
      return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Start-box shrinking
//===----------------------------------------------------------------------===//

BoxShrinkResult absint::shrinkStartBox(
    const Function &F, double Lo, double Hi, const AnalysisOptions &Base,
    const std::function<bool(const FunctionAnalysis &)> &Feasible,
    unsigned Segments) {
  BoxShrinkResult R{Lo, Hi, false};
  unsigned Dims = F.numDoubleArgs();
  if (Dims == 0 || Segments == 0 || !(Lo < Hi) || !std::isfinite(Lo) ||
      !std::isfinite(Hi))
    return R;

  double NewLo = std::numeric_limits<double>::infinity();
  double NewHi = -std::numeric_limits<double>::infinity();
  for (unsigned Dim = 0; Dim < Dims; ++Dim) {
    double KeptLo = std::numeric_limits<double>::infinity();
    double KeptHi = -std::numeric_limits<double>::infinity();
    for (unsigned Seg = 0; Seg < Segments; ++Seg) {
      double SLo = Lo + (Hi - Lo) * Seg / Segments;
      double SHi =
          Seg + 1 == Segments ? Hi : Lo + (Hi - Lo) * (Seg + 1) / Segments;
      AnalysisOptions Opts = Base;
      Opts.ArgRanges.assign(Dims, FPInterval::top());
      Opts.ArgRanges[Dim] = FPInterval::range(SLo, SHi);
      FunctionAnalysis FA(F, Opts);
      if (!FA.complete() || Feasible(FA)) {
        KeptLo = std::min(KeptLo, SLo);
        KeptHi = std::max(KeptHi, SHi);
      }
    }
    if (KeptLo > KeptHi) {
      // No feasible slice on this dimension: the pre-pass cannot help
      // (site pruning will already have retired such targets).
      return R;
    }
    NewLo = std::min(NewLo, KeptLo);
    NewHi = std::max(NewHi, KeptHi);
  }
  NewLo = std::max(NewLo, Lo);
  NewHi = std::min(NewHi, Hi);
  if (NewLo > Lo || NewHi < Hi) {
    R.Lo = NewLo;
    R.Hi = NewHi;
    R.Changed = true;
  }
  return R;
}
