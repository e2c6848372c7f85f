//===--- OverflowPass.cpp - Overflow detection pass (fpod) -------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "instrument/OverflowPass.h"

#include "instrument/Cloner.h"
#include "ir/IRBuilder.h"
#include "support/FPUtils.h"
#include "support/StringUtils.h"

using namespace wdm;
using namespace wdm::instr;
using namespace wdm::ir;

OverflowInstrumentation instr::instrumentOverflow(Function &F,
                                                  OverflowMetric Metric) {
  OverflowInstrumentation Result;
  Result.Sites = assignFPOpSites(F);

  Module *M = F.parent();
  Result.W = M->addGlobalDouble("__w_ovf_" + F.name(), Result.WInit);
  Result.LastSite = M->addGlobalInt("__last_ovf_" + F.name(), -1);
  Result.Wrapped = cloneFunction(F, "__ovf_" + F.name());

  IRBuilder B(*M);

  // Shared early-exit block: "if (w == 0) return;" needs somewhere to go.
  BasicBlock *RetBB = Result.Wrapped->addBlock("__ovf_ret");
  B.setInsertAppend(RetBB);
  switch (Result.Wrapped->returnType()) {
  case Type::Double:
    B.ret(B.lit(0.0));
    break;
  case Type::Int:
    B.ret(B.litInt(0));
    break;
  case Type::Bool:
    B.ret(B.litBool(false));
    break;
  case Type::Void:
    B.ret();
    break;
  }

  // Collect (block, index) of tagged sites first; instrument within each
  // block back-to-front so splitting at a later site never disturbs an
  // earlier site's position. Note: iterate over a snapshot of the block
  // list because splitting appends new blocks.
  struct Work {
    BasicBlock *BB;
    std::vector<size_t> SiteIdx;
  };
  std::vector<Work> Worklist;
  for (const auto &BB : *Result.Wrapped) {
    if (BB.get() == RetBB)
      continue;
    Work Item{BB.get(), {}};
    for (size_t I = 0; I < BB->size(); ++I)
      if (BB->inst(I)->isElementaryFPArith() && BB->inst(I)->id() >= 0)
        Item.SiteIdx.push_back(I);
    if (!Item.SiteIdx.empty())
      Worklist.push_back(std::move(Item));
  }

  unsigned SplitCounter = 0;
  for (Work &Item : Worklist) {
    for (size_t K = Item.SiteIdx.size(); K-- > 0;) {
      size_t Idx = Item.SiteIdx[K];
      Instruction *Op = Item.BB->inst(Idx);
      int SiteId = Op->id();

      // Split: everything after the FP op moves to a continuation block;
      // the check itself gets a block of its own between the two.
      BasicBlock *ContBB = Result.Wrapped->addBlockAfter(
          Item.BB, formatf("%s.ovf%u", Item.BB->name().c_str(),
                           SplitCounter));
      BasicBlock *ChkBB = Result.Wrapped->addBlockAfter(
          Item.BB, formatf("%s.ovfchk%u", Item.BB->name().c_str(),
                           SplitCounter++));
      for (auto &Tail : Item.BB->takeFrom(Idx + 1))
        ContBB->append(std::move(Tail));

      // "if (l is not in L)": a retired site skips the check entirely.
      B.setInsertAppend(Item.BB);
      B.condbr(B.siteEnabled(SiteId), ChkBB, ContBB);

      // The Algorithm 3 check: w = ...; if (w == 0) return;
      B.setInsertAppend(ChkBB);
      Value *Abs = B.fabs(Op);
      Value *Below = B.fcmp(CmpPred::LT, Abs, B.lit(MaxDouble));
      Value *Gap = Metric == OverflowMetric::AbsGap
                       ? static_cast<Value *>(
                             B.fsub(B.lit(MaxDouble), Abs))
                       : static_cast<Value *>(
                             B.ulpdiff(Abs, B.lit(MaxDouble)));
      Value *WNew = B.select(Below, Gap, B.lit(0.0));
      B.storeg(Result.W, WNew);
      B.storeg(Result.LastSite, B.litInt(SiteId));
      Value *IsZero = B.fcmp(CmpPred::EQ, WNew, B.lit(0.0));
      B.condbr(IsZero, RetBB, ContBB);
    }
  }
  return Result;
}
