//===--- Interval.h - Rounding-aware abstract value domains ----*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract domains of the static pre-pass: outward-rounded binary64
/// intervals with a first-class NaN flag, wraparound-aware int64 intervals,
/// and a may-true/may-false boolean lattice. A value's interval is a
/// *certificate*: every concrete value the execution tiers can produce for
/// the instruction — under any of the four runtime rounding modes — lies
/// inside it (the soundness fuzz in tests/AbsIntTests.cpp checks exactly
/// this). Transfer functions live in Transfer.cpp, which is compiled with
/// -frounding-math like the execution tiers and keeps every
/// fesetround-directed endpoint behind an optimization barrier, so the
/// compiler can neither fold nor merge endpoints across rounding modes.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_ABSINT_INTERVAL_H
#define WDM_ABSINT_INTERVAL_H

#include "ir/Instruction.h"

#include <cstdint>
#include <limits>

namespace wdm::absint {

/// A set of binary64 values: the doubles in [Lo, Hi] (infinities included;
/// Lo > Hi encodes an empty numeric part) plus NaN when MayNaN. -0.0 and
/// +0.0 are not distinguished — an interval containing one contains both.
struct FPInterval {
  double Lo = std::numeric_limits<double>::infinity();
  double Hi = -std::numeric_limits<double>::infinity();
  bool MayNaN = false;

  static FPInterval top() {
    return {-std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::infinity(), true};
  }
  static FPInterval bottom() { return {}; }
  static FPInterval range(double Lo, double Hi) { return {Lo, Hi, false}; }
  static FPInterval point(double V);

  bool numEmpty() const { return !(Lo <= Hi); }
  bool isBottom() const { return numEmpty() && !MayNaN; }
  bool isSingleton() const { return Lo == Hi && !MayNaN; }
  bool contains(double V) const;
  bool containsZero() const { return Lo <= 0.0 && 0.0 <= Hi; }
  bool containsInf() const;
  /// True if the numeric part contains a strictly negative real (-0.0 does
  /// not count).
  bool containsNegative() const { return !numEmpty() && Lo < 0.0; }

  FPInterval join(const FPInterval &O) const;
  FPInterval meet(const FPInterval &O) const;
  /// Widening: unstable bounds jump to the infinities; MayNaN is sticky.
  FPInterval widen(const FPInterval &Next) const;
  bool operator==(const FPInterval &O) const;
};

/// A set of int64 values [Lo, Hi]; Lo > Hi is empty. Operations that may
/// wrap return top (the interpreter wraps via uint64 arithmetic).
struct IntInterval {
  int64_t Lo = std::numeric_limits<int64_t>::max();
  int64_t Hi = std::numeric_limits<int64_t>::min();

  static IntInterval top() {
    return {std::numeric_limits<int64_t>::min(),
            std::numeric_limits<int64_t>::max()};
  }
  static IntInterval bottom() { return {}; }
  static IntInterval point(int64_t V) { return {V, V}; }
  static IntInterval range(int64_t Lo, int64_t Hi) { return {Lo, Hi}; }

  bool isBottom() const { return Lo > Hi; }
  bool isSingleton() const { return Lo == Hi; }
  bool contains(int64_t V) const { return Lo <= V && V <= Hi; }

  IntInterval join(const IntInterval &O) const;
  IntInterval meet(const IntInterval &O) const;
  IntInterval widen(const IntInterval &Next) const;
  bool operator==(const IntInterval &O) const {
    return (isBottom() && O.isBottom()) || (Lo == O.Lo && Hi == O.Hi);
  }
};

/// May-true / may-false boolean lattice; neither flag set is bottom.
struct BoolAbs {
  bool MayTrue = false;
  bool MayFalse = false;

  static BoolAbs top() { return {true, true}; }
  static BoolAbs bottom() { return {}; }
  static BoolAbs point(bool V) { return {V, !V}; }

  bool isBottom() const { return !MayTrue && !MayFalse; }
  bool contains(bool V) const { return V ? MayTrue : MayFalse; }

  BoolAbs join(const BoolAbs &O) const {
    return {MayTrue || O.MayTrue, MayFalse || O.MayFalse};
  }
  BoolAbs meet(const BoolAbs &O) const {
    return {MayTrue && O.MayTrue, MayFalse && O.MayFalse};
  }
  bool operator==(const BoolAbs &O) const {
    return MayTrue == O.MayTrue && MayFalse == O.MayFalse;
  }
};

/// A typed abstract value; the IR's static types pick the active member.
struct AbstractValue {
  ir::Type Ty = ir::Type::Void;
  FPInterval D;
  IntInterval I;
  BoolAbs B;

  static AbstractValue ofDouble(FPInterval V) {
    AbstractValue A;
    A.Ty = ir::Type::Double;
    A.D = V;
    return A;
  }
  static AbstractValue ofInt(IntInterval V) {
    AbstractValue A;
    A.Ty = ir::Type::Int;
    A.I = V;
    return A;
  }
  static AbstractValue ofBool(BoolAbs V) {
    AbstractValue A;
    A.Ty = ir::Type::Bool;
    A.B = V;
    return A;
  }
  static AbstractValue topOf(ir::Type Ty);
  static AbstractValue bottomOf(ir::Type Ty);

  bool isBottom() const;
  AbstractValue join(const AbstractValue &O) const;
  AbstractValue widen(const AbstractValue &Next) const;
  bool operator==(const AbstractValue &O) const;
};

//===----------------------------------------------------------------------===//
// Transfer functions (Transfer.cpp; the -frounding-math TU)
//===----------------------------------------------------------------------===//

// Double arithmetic and intrinsics. Every function is sound for execution
// under any runtime rounding mode: endpoint arithmetic is rounded outward
// (exact IEEE operations) or bracketed by a generous ulp margin (libm
// calls).
FPInterval absFAdd(const FPInterval &A, const FPInterval &B);
FPInterval absFSub(const FPInterval &A, const FPInterval &B);
FPInterval absFMul(const FPInterval &A, const FPInterval &B);
FPInterval absFDiv(const FPInterval &A, const FPInterval &B);
FPInterval absFRem(const FPInterval &A, const FPInterval &B);
FPInterval absFNeg(const FPInterval &A);
FPInterval absFAbs(const FPInterval &A);
FPInterval absSqrt(const FPInterval &A);
FPInterval absSin(const FPInterval &A);
FPInterval absCos(const FPInterval &A);
FPInterval absTan(const FPInterval &A);
FPInterval absExp(const FPInterval &A);
FPInterval absLog(const FPInterval &A);
FPInterval absPow(const FPInterval &A, const FPInterval &B);
FPInterval absFMin(const FPInterval &A, const FPInterval &B);
FPInterval absFMax(const FPInterval &A, const FPInterval &B);
FPInterval absFloor(const FPInterval &A);

// Comparisons (C semantics on NaN: ordered predicates false, NE true).
BoolAbs absFCmp(ir::CmpPred P, const FPInterval &A, const FPInterval &B);
BoolAbs absICmp(ir::CmpPred P, const IntInterval &A, const IntInterval &B);

// Integer arithmetic/bitwise (wraparound goes to top).
IntInterval absIAdd(const IntInterval &A, const IntInterval &B);
IntInterval absISub(const IntInterval &A, const IntInterval &B);
IntInterval absIMul(const IntInterval &A, const IntInterval &B);
IntInterval absIAnd(const IntInterval &A, const IntInterval &B);
IntInterval absIOr(const IntInterval &A, const IntInterval &B);
IntInterval absIXor(const IntInterval &A, const IntInterval &B);
IntInterval absIShl(const IntInterval &A, const IntInterval &B);
IntInterval absILShr(const IntInterval &A, const IntInterval &B);

// Conversions, matching the interpreter's exact semantics (saturating
// FPToSI with NaN -> 0; HighWord of the raw bit pattern; UlpDiff as a
// saturating double).
FPInterval absSIToFP(const IntInterval &A);
IntInterval absFPToSI(const FPInterval &A);
IntInterval absHighWord(const FPInterval &A);
FPInterval absUlpDiff(const FPInterval &A, const FPInterval &B);

/// Refines \p A and \p B under the assumption that `fcmp.P A, B` evaluated
/// to \p Taken. Returns false when the assumption is infeasible (the edge
/// state is bottom). Ordered-true edges additionally clear MayNaN.
bool refineFCmp(ir::CmpPred P, bool Taken, FPInterval &A, FPInterval &B);
/// Same for icmp.
bool refineICmp(ir::CmpPred P, bool Taken, IntInterval &A, IntInterval &B);

/// Widens both numeric endpoints outward by \p Ulps representable doubles
/// (saturating at the infinities); the safety margin applied around libm
/// results whose last-ulp behavior varies across rounding modes.
FPInterval widenUlps(FPInterval A, unsigned Ulps);

} // namespace wdm::absint

#endif // WDM_ABSINT_INTERVAL_H
