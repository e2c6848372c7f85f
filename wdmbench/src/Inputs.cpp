//===--- Inputs.cpp - Seeded workload inputs ------------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "Common.h"

#include "gsl/Airy.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "support/Json.h"

#include <cmath>
#include <cstdio>

using namespace wdmbench;
using wdm::RNG;
namespace ir = wdm::ir;
using wdm::json::Value;

namespace {

const char *const Builtins[] = {"bessel",    "hyperg",     "airy",
                                "sin",       "fig1a",      "fig1b",
                                "fig2",      "classifier", "quadratic",
                                "ray_sphere", "hermite"};

/// Subjects whose warm entries serve the `warm` request class.
const char *const Corpus[] = {"fig1a",     "fig2",       "classifier",
                              "quadratic", "ray_sphere", "hermite"};

Value seedList(uint64_t Seed, unsigned Batch, unsigned N) {
  Value Seeds = Value::array();
  for (unsigned K = 0; K < N; ++K)
    Seeds.push(Value::number(
        static_cast<uint64_t>(mix(Seed, Batch * 1000ull + K) % 1000000007ull)));
  return Seeds;
}

Value strings(std::initializer_list<const char *> L) {
  Value A = Value::array();
  for (const char *S : L)
    A.push(Value::string(S));
  return A;
}

/// A one-element array (Value::push returns the element, not the array).
Value arrayOf(Value V) {
  Value A = Value::array();
  A.push(std::move(V));
  return A;
}

} // namespace

std::string wdmbench::gslStudySuite(uint64_t Seed, unsigned Batch,
                                    unsigned SeedsPerBatch) {
  Value Probes = Value::array();
  Probes.push(arrayOf(Value::number(wdm::gsl::AiryBug1Input)));
  Probes.push(arrayOf(Value::number(-1.14e57)));
  Value Jobs = Value::array();
  Value Seeds = seedList(Seed, Batch, SeedsPerBatch);
  for (const char *Subject : {"bessel", "hyperg", "airy"})
    for (const char *Task : {"overflow", "inconsistency"})
      for (size_t K = 0; K < Seeds.size(); ++K) {
        Value Job = Value::object()
                        .set("task", Value::string(Task))
                        .set("module", Value::object().set(
                                           "builtin", Value::string(Subject)))
                        .set("search", Value::object().set("seed",
                                                           Seeds.at(K)));
        // Table 5's airy inputs need exact hits; the study replays them.
        if (std::string(Task) == "inconsistency" &&
            std::string(Subject) == "airy")
          Job.set("probes", Probes);
        Jobs.push(std::move(Job));
      }
  // Both tasks use the paper's Algorithm 3 metric (MAX - |a|), the Table 3
  // configuration; it also keeps every subject's two job kinds alike in
  // cost, so the per-job latency distribution is not split in two halves
  // with its median in the gap.
  return Value::object()
      .set("suite", Value::string("gsl_study"))
      .set("defaults",
           Value::object()
               .set("overflow_metric", Value::string("absgap"))
               .set("search", Value::object().set("threads", Value::number(1))))
      .set("jobs", std::move(Jobs))
      .dump();
}

std::string wdmbench::smallSweepSuite(uint64_t Seed, unsigned Batch,
                                      unsigned SeedsPerBatch) {
  Value Subjects = Value::array();
  for (const char *S : Builtins)
    Subjects.push(Value::string(S));
  Value Configs = Value::array();
  Configs.push(Value::object());
  Configs.push(Value::object().set(
      "search", Value::object().set("backends", strings({"de"}))));
  Configs.push(Value::object().set(
      "search", Value::object().set("prune", Value::string("sites"))));
  return Value::object()
      .set("suite", Value::string("small_sweep"))
      .set("defaults",
           Value::object().set("search",
                               Value::object()
                                   .set("max_evals", Value::number(300))
                                   .set("threads", Value::number(1))))
      .set("matrix", Value::object()
                         .set("subjects", std::move(Subjects))
                         .set("tasks",
                              strings({"boundary", "coverage", "overflow"}))
                         .set("configs", std::move(Configs))
                         .set("seeds", seedList(Seed, Batch, SeedsPerBatch)))
      .dump();
}

std::string wdmbench::randomModuleIr(RNG &Rand) {
  ir::Module M("gen");
  ir::IRBuilder B(M);
  unsigned NumArgs = 1 + static_cast<unsigned>(Rand.below(3));
  ir::Function *F = M.addFunction("f", ir::Type::Double);
  std::vector<ir::Value *> Args;
  for (unsigned K = 0; K < NumArgs; ++K)
    Args.push_back(F->addArg(ir::Type::Double, "x" + std::to_string(K)));

  ir::BasicBlock *Entry = F->addBlock("entry");
  B.setInsertAppend(Entry);
  ir::Instruction *Acc = B.alloca_(ir::Type::Double);
  ir::Instruction *Counter = B.alloca_(ir::Type::Int);
  B.store(Acc, Args[0]);

  auto Arg = [&] { return Args[Rand.below(Args.size())]; };
  auto Lit = [&] {
    return B.lit(std::round(Rand.uniform(-8, 8) * 64) / 64 + 0.125);
  };
  // One arithmetic step on V; every op can overflow for some input.
  auto Step = [&](ir::Value *V) -> ir::Value * {
    switch (Rand.below(7)) {
    case 0:
      return B.fadd(V, Arg());
    case 1:
      return B.fmul(V, Lit());
    case 2:
      return B.fsub(B.fmul(V, V), Arg());
    case 3:
      return B.fdiv(V, B.fadd(B.fabs(Arg()), Lit()));
    case 4:
      return B.fadd(B.sin(V), B.fmul(Arg(), Lit()));
    case 5:
      return B.fmul(V, Arg());
    default:
      return B.fadd(B.exp(B.fmin(V, B.lit(700.0))), Lit());
    }
  };

  unsigned Segments = 2 + static_cast<unsigned>(Rand.below(5));
  unsigned Id = 0;
  for (unsigned S = 0; S < Segments; ++S) {
    std::string Tag = std::to_string(Id++);
    ir::Value *V = B.load(Acc);
    switch (Rand.below(3)) {
    case 0: { // straight line
      unsigned N = 1 + static_cast<unsigned>(Rand.below(4));
      for (unsigned K = 0; K < N; ++K)
        V = Step(V);
      B.store(Acc, V);
      break;
    }
    case 1: { // if/else diamond on a comparison against an argument
      ir::BasicBlock *T = F->addBlock("t" + Tag);
      ir::BasicBlock *E = F->addBlock("e" + Tag);
      ir::BasicBlock *J = F->addBlock("j" + Tag);
      ir::Value *C = B.fcmp(static_cast<ir::CmpPred>(Rand.below(4) + 2), V,
                        B.fadd(Arg(), Lit()));
      B.condbr(C, T, E);
      B.setInsertAppend(T);
      B.store(Acc, Step(V));
      B.br(J);
      B.setInsertAppend(E);
      B.store(Acc, Step(V));
      B.br(J);
      B.setInsertAppend(J);
      break;
    }
    default: { // counted loop, 2..6 trips
      ir::BasicBlock *H = F->addBlock("h" + Tag);
      ir::BasicBlock *Body = F->addBlock("b" + Tag);
      ir::BasicBlock *X = F->addBlock("x" + Tag);
      B.store(Counter, B.litInt(0));
      B.br(H);
      B.setInsertAppend(H);
      ir::Value *I = B.load(Counter);
      B.condbr(B.icmp(ir::CmpPred::LT, I,
                      B.litInt(2 + static_cast<int64_t>(Rand.below(5)))),
               Body, X);
      B.setInsertAppend(Body);
      B.store(Acc, Step(B.load(Acc)));
      B.store(Counter, B.iadd(B.load(Counter), B.litInt(1)));
      B.br(H);
      B.setInsertAppend(X);
      break;
    }
    }
  }
  B.ret(B.load(Acc));
  return toString(M);
}

std::string wdmbench::randomConstraint(RNG &Rand) {
  // A hidden point; each atom's bound is placed on the true side of it.
  const char *Vars[] = {"x", "y", "z"};
  unsigned NumVars = 1 + static_cast<unsigned>(Rand.below(3));
  double P[3];
  for (unsigned K = 0; K < NumVars; ++K)
    P[K] = std::round(Rand.uniform(-50, 50) * 16) / 16;
  char Buf[64];
  auto Num = [&](double V) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    return std::string(Buf);
  };
  std::string Out = "(and";
  unsigned Atoms = 1 + static_cast<unsigned>(Rand.below(3));
  for (unsigned A = 0; A < Atoms; ++A) {
    unsigned I = static_cast<unsigned>(Rand.below(NumVars));
    unsigned J = static_cast<unsigned>(Rand.below(NumVars));
    std::string E;
    double V = 0;
    switch (Rand.below(4)) {
    case 0:
      E = std::string("(+ ") + Vars[I] + " " + Vars[J] + ")";
      V = P[I] + P[J];
      break;
    case 1:
      E = std::string("(* ") + Vars[I] + " " + Vars[J] + ")";
      V = P[I] * P[J];
      break;
    case 2:
      E = std::string("(+ ") + Vars[I] + " (sin " + Vars[J] + "))";
      V = P[I] + std::sin(P[J]);
      break;
    default:
      E = std::string("(- (abs ") + Vars[I] + ") " + Vars[J] + ")";
      V = std::fabs(P[I]) - P[J];
      break;
    }
    double Gap = 0.5 + Rand.uniform(0, 4);
    if (Rand.chance(0.5))
      Out += " (< " + E + " " + Num(V + Gap) + ")";
    else
      Out += " (>= " + E + " " + Num(V - Gap) + ")";
  }
  return Out + ")";
}

const char *wdmbench::className(ReqClass C) {
  switch (C) {
  case ReqClass::Hit:
    return "hit";
  case ReqClass::Warm:
    return "warm";
  case ReqClass::Cold:
    return "cold";
  }
  return "?";
}

ServeInputs::ServeInputs(uint64_t Seed) : Rand(mix(Seed, 7)) {
  // 320 distinct cheap specs: more than the daemon's 256 memory entries,
  // so the Zipf tail is served from the disk level.
  for (unsigned K = 0; Pool.size() < 320; ++K) {
    const char *Subject = Builtins[K % 11];
    const char *Task = (K / 11) % 2 ? "coverage" : "boundary";
    Pool.push_back(
        Value::object()
            .set("task", Value::string(Task))
            .set("module",
                 Value::object().set("builtin", Value::string(Subject)))
            .set("search",
                 Value::object()
                     .set("max_evals", Value::number(200))
                     .set("seed", Value::number(static_cast<uint64_t>(
                                         mix(Seed, 100000 + K) % 1000000007ull))))
            .dump());
  }
  double Sum = 0;
  for (size_t R = 1; R <= Pool.size(); ++R)
    ZipfCdf.push_back(Sum += 1.0 / static_cast<double>(R));
  for (double &C : ZipfCdf)
    C /= Sum;
}

std::vector<Request> ServeInputs::schedule(double Rate, double Seconds) {
  std::vector<Request> Out;
  double T = 0;
  while (true) {
    T += -std::log(1.0 - Rand.uniform()) / Rate;
    if (T >= Seconds)
      break;
    double U = Rand.uniform();
    ReqClass C = U < 0.6 ? ReqClass::Hit
                         : (U < 0.85 ? ReqClass::Warm : ReqClass::Cold);
    Out.push_back({T, C, make(C)});
  }
  return Out;
}

std::string ServeInputs::make(ReqClass C) {
  uint64_t Fresh = 1000000 + ++Unique * 7919 + Rand.below(7919);
  switch (C) {
  case ReqClass::Hit: {
    double U = Rand.uniform();
    size_t R = 0;
    while (R + 1 < ZipfCdf.size() && ZipfCdf[R] < U)
      ++R;
    // Rank r maps to slot 97r mod 320 (a permutation), so the hot set
    // mixes subjects and tasks.
    return Pool[(R * 97) % Pool.size()];
  }
  case ReqClass::Warm: {
    const char *Subject = Corpus[Rand.below(6)];
    static const char *const Backends[] = {"basinhopping", "de", "random"};
    const char *Backend = Backends[Rand.below(3)];
    bool Path = Rand.chance(0.4);
    Value Spec = Value::object()
                     .set("task", Value::string(Path ? "path" : "boundary"))
                     .set("module", Value::object().set(
                                        "builtin", Value::string(Subject)));
    if (Path)
      Spec.set("path", arrayOf(
                           Value::object()
                               .set("branch", Value::number(0))
                               .set("taken", Value::boolean(Rand.chance(0.5)))));
    Spec.set("search",
             Value::object()
                 .set("max_evals", Value::number(1500))
                 .set("backends", arrayOf(Value::string(Backend)))
                 .set("seed", Value::number(Fresh)));
    return Spec.dump();
  }
  case ReqClass::Cold:
    break;
  }
  Value Search = Value::object()
                     .set("max_evals", Value::number(1500))
                     .set("seed", Value::number(Fresh));
  if (Rand.chance(0.3))
    return Value::object()
        .set("task", Value::string("fpsat"))
        .set("constraint", Value::string(randomConstraint(Rand)))
        .set("search", std::move(Search))
        .dump();
  static const char *const Tasks[] = {"boundary", "overflow", "coverage"};
  const char *Task = Tasks[Rand.below(3)];
  // Half the cold modules ask for the native tier, so JIT compile is on
  // the cold path; the rest leave the tier at its default.
  if (Rand.chance(0.5))
    Search.set("engine", Value::string("jit"));
  Value Spec = Value::object()
                   .set("task", Value::string(Task))
                   .set("module", Value::object().set(
                                      "ir", Value::string(randomModuleIr(Rand))))
                   .set("function", Value::string("f"));
  // Overflow budgets are per Algorithm 3 round; three rounds of 500 keep
  // a cold overflow request as cheap as the other cold kinds.
  if (std::string(Task) == "overflow") {
    Spec.set("nfp", Value::number(3));
    Search.set("max_evals", Value::number(500));
  }
  return Spec.set("search", std::move(Search)).dump();
}
