//===--- Transfer.cpp - Outward-rounded interval transfer functions ---------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
//
// This TU is compiled with -frounding-math (see CMakeLists.txt), the same
// flag the execution tiers use: endpoint arithmetic here switches the FP
// environment with fesetround, and the compiler must not constant-fold
// across those switches. Interval endpoints for the exact IEEE operations
// (+ - * / sqrt and int->double conversion) are rounded outward, which
// bounds the concrete result under *any* of the four runtime rounding
// modes the interpreter supports. libm calls (sin, exp, ...) are not
// correctly rounded across modes, so their endpoint results are widened
// by a generous ulp margin instead.
//
// -frounding-math alone does not keep GCC from treating fesetround as a
// no-op for FP values: it CSEs `x * y` computed under FE_DOWNWARD with the
// same `x * y` under FE_UPWARD, and may move an operation across the
// switch. So + - * / compute both endpoints of every corner under one
// FE_UPWARD switch, the lower one as -RU(-x op y) (a different expression,
// never merged with RU(x op y)), and every operand and result that must
// stay inside a rounding-mode window passes through pin(), an empty asm
// the optimizer cannot see through or move across the fesetround calls.
//
//===----------------------------------------------------------------------===//

#include "absint/Interval.h"

#include "support/FPUtils.h"

#include <algorithm>
#include <cfenv>
#include <cmath>

using namespace wdm;
using namespace wdm::absint;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// Ulp margin around libm endpoint evaluations. Glibc's documented
/// worst-case errors under non-default rounding modes are a few ulps;
/// 8 leaves comfortable headroom without costing any pruning power.
constexpr unsigned LibmUlps = 8;

/// An optimization barrier: the returned value is opaque to the compiler,
/// so it is computed exactly where pin() stands (after the fesetround
/// before it, before the one after it) and is never merged with the same
/// expression evaluated under another rounding mode.
inline double pin(double X) {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  asm volatile("" : "+x"(X));
#elif defined(__GNUC__) && defined(__aarch64__)
  asm volatile("" : "+w"(X));
#else
  volatile double V = X;
  X = V;
#endif
  return X;
}

/// pin() for the int64 operand of a conversion.
inline int64_t pinInt(int64_t X) {
#if defined(__GNUC__)
  asm volatile("" : "+r"(X));
#else
  volatile int64_t V = X;
  X = V;
#endif
  return X;
}

/// Switches the rounding mode for one endpoint computation and restores
/// to-nearest on destruction (the process-wide default everywhere else in
/// wdm; exec::RoundingScope makes the same assumption).
class DirectedRounding {
public:
  explicit DirectedRounding(int Mode) { std::fesetround(Mode); }
  ~DirectedRounding() { std::fesetround(FE_TONEAREST); }
  DirectedRounding(const DirectedRounding &) = delete;
  DirectedRounding &operator=(const DirectedRounding &) = delete;
};

/// The four corners of an exact binary IEEE operation on two intervals,
/// rounded outward under a single FE_UPWARD switch. The upper bound of a
/// corner is RU(x op y); its lower bound is RD(x op y) = -RU(x' op y'),
/// where x' = -x, and y' = -y when op is + or - (\p NegateBoth) but
/// y' = y when op is * or /. A NaN corner (inf - inf, 0 * inf, ...) sets
/// MayNaN instead of an endpoint.
template <bool NegateBoth, typename OpT>
FPInterval cornerOp(const FPInterval &A, const FPInterval &B, OpT Op) {
  FPInterval R = FPInterval::bottom();
  R.MayNaN = A.MayNaN || B.MayNaN;
  if (A.numEmpty() || B.numEmpty())
    return R;
  const double Xs[2] = {A.Lo, A.Hi};
  const double Ys[2] = {B.Lo, B.Hi};
  double Up[4], Down[4];
  {
    DirectedRounding RM(FE_UPWARD);
    for (unsigned K = 0; K < 4; ++K) {
      double X = pin(Xs[K >> 1]), Y = pin(Ys[K & 1]);
      Up[K] = pin(Op(X, Y));
      Down[K] = -pin(Op(pin(-X), NegateBoth ? pin(-Y) : Y));
    }
  }
  for (unsigned K = 0; K < 4; ++K) {
    if (std::isnan(Up[K]) || std::isnan(Down[K])) {
      R.MayNaN = true;
      continue;
    }
    R.Lo = std::min(R.Lo, Down[K]);
    R.Hi = std::max(R.Hi, Up[K]);
  }
  return R;
}

double maxAbsBound(const FPInterval &A) {
  return std::max(std::fabs(A.Lo), std::fabs(A.Hi));
}

/// Joins [Lo, Hi] into R's numeric part.
void joinRange(FPInterval &R, double Lo, double Hi) {
  R.Lo = std::min(R.Lo, Lo);
  R.Hi = std::max(R.Hi, Hi);
}

} // namespace

//===----------------------------------------------------------------------===//
// FPInterval basics
//===----------------------------------------------------------------------===//

FPInterval FPInterval::point(double V) {
  if (V != V)
    return {Inf, -Inf, true};
  return {V, V, false};
}

bool FPInterval::contains(double V) const {
  if (V != V)
    return MayNaN;
  return Lo <= V && V <= Hi;
}

bool FPInterval::containsInf() const {
  return !numEmpty() && (Lo == -Inf || Hi == Inf);
}

FPInterval FPInterval::join(const FPInterval &O) const {
  FPInterval R;
  R.MayNaN = MayNaN || O.MayNaN;
  if (numEmpty()) {
    R.Lo = O.Lo;
    R.Hi = O.Hi;
  } else if (O.numEmpty()) {
    R.Lo = Lo;
    R.Hi = Hi;
  } else {
    R.Lo = std::min(Lo, O.Lo);
    R.Hi = std::max(Hi, O.Hi);
  }
  return R;
}

FPInterval FPInterval::meet(const FPInterval &O) const {
  FPInterval R;
  R.MayNaN = MayNaN && O.MayNaN;
  if (!numEmpty() && !O.numEmpty()) {
    R.Lo = std::max(Lo, O.Lo);
    R.Hi = std::min(Hi, O.Hi);
    if (R.Lo > R.Hi) {
      R.Lo = Inf;
      R.Hi = -Inf;
    }
  }
  return R;
}

FPInterval FPInterval::widen(const FPInterval &Next) const {
  FPInterval J = join(Next);
  FPInterval R = J;
  if (!numEmpty() && !J.numEmpty()) {
    if (J.Lo < Lo)
      R.Lo = -Inf;
    if (J.Hi > Hi)
      R.Hi = Inf;
  }
  return R;
}

bool FPInterval::operator==(const FPInterval &O) const {
  if (MayNaN != O.MayNaN)
    return false;
  if (numEmpty() || O.numEmpty())
    return numEmpty() == O.numEmpty();
  // Compare by bit pattern so [-0, x] and [+0, x] are distinct fixpoint
  // states (they describe the same value set, but bitwise stability is
  // what the worklist needs).
  return bitsOf(Lo) == bitsOf(O.Lo) && bitsOf(Hi) == bitsOf(O.Hi);
}

//===----------------------------------------------------------------------===//
// IntInterval basics
//===----------------------------------------------------------------------===//

IntInterval IntInterval::join(const IntInterval &O) const {
  if (isBottom())
    return O;
  if (O.isBottom())
    return *this;
  return {std::min(Lo, O.Lo), std::max(Hi, O.Hi)};
}

IntInterval IntInterval::meet(const IntInterval &O) const {
  if (isBottom() || O.isBottom())
    return bottom();
  IntInterval R{std::max(Lo, O.Lo), std::min(Hi, O.Hi)};
  return R.Lo > R.Hi ? bottom() : R;
}

IntInterval IntInterval::widen(const IntInterval &Next) const {
  IntInterval J = join(Next);
  if (isBottom() || J.isBottom())
    return J;
  IntInterval R = J;
  if (J.Lo < Lo)
    R.Lo = std::numeric_limits<int64_t>::min();
  if (J.Hi > Hi)
    R.Hi = std::numeric_limits<int64_t>::max();
  return R;
}

//===----------------------------------------------------------------------===//
// AbstractValue
//===----------------------------------------------------------------------===//

AbstractValue AbstractValue::topOf(ir::Type Ty) {
  AbstractValue A;
  A.Ty = Ty;
  switch (Ty) {
  case ir::Type::Double:
    A.D = FPInterval::top();
    break;
  case ir::Type::Int:
    A.I = IntInterval::top();
    break;
  case ir::Type::Bool:
    A.B = BoolAbs::top();
    break;
  case ir::Type::Void:
    break;
  }
  return A;
}

AbstractValue AbstractValue::bottomOf(ir::Type Ty) {
  AbstractValue A;
  A.Ty = Ty;
  return A;
}

bool AbstractValue::isBottom() const {
  switch (Ty) {
  case ir::Type::Double:
    return D.isBottom();
  case ir::Type::Int:
    return I.isBottom();
  case ir::Type::Bool:
    return B.isBottom();
  case ir::Type::Void:
    return false;
  }
  return false;
}

AbstractValue AbstractValue::join(const AbstractValue &O) const {
  AbstractValue R = *this;
  R.D = D.join(O.D);
  R.I = I.join(O.I);
  R.B = B.join(O.B);
  return R;
}

AbstractValue AbstractValue::widen(const AbstractValue &Next) const {
  AbstractValue R = *this;
  R.D = D.widen(Next.D);
  R.I = I.widen(Next.I);
  R.B = B.join(Next.B);
  return R;
}

bool AbstractValue::operator==(const AbstractValue &O) const {
  return Ty == O.Ty && D == O.D && I == O.I && B == O.B;
}

//===----------------------------------------------------------------------===//
// Ulp widening
//===----------------------------------------------------------------------===//

FPInterval absint::widenUlps(FPInterval A, unsigned Ulps) {
  if (A.numEmpty())
    return A;
  for (unsigned K = 0; K < Ulps; ++K) {
    A.Lo = nextDown(A.Lo);
    A.Hi = nextUp(A.Hi);
  }
  return A;
}

//===----------------------------------------------------------------------===//
// Elementary FP arithmetic (exact IEEE ops; directed-rounding corners)
//===----------------------------------------------------------------------===//

FPInterval absint::absFAdd(const FPInterval &A, const FPInterval &B) {
  return cornerOp<true>(A, B, [](double X, double Y) { return X + Y; });
}

FPInterval absint::absFSub(const FPInterval &A, const FPInterval &B) {
  return cornerOp<true>(A, B, [](double X, double Y) { return X - Y; });
}

FPInterval absint::absFMul(const FPInterval &A, const FPInterval &B) {
  FPInterval R =
      cornerOp<false>(A, B, [](double X, double Y) { return X * Y; });
  // 0 * inf pairings can hide in the interior (0 need not be an endpoint).
  if (!A.numEmpty() && !B.numEmpty()) {
    if ((A.containsZero() && B.containsInf()) ||
        (B.containsZero() && A.containsInf()))
      R.MayNaN = true;
  }
  return R;
}

FPInterval absint::absFDiv(const FPInterval &A, const FPInterval &B) {
  FPInterval R = FPInterval::bottom();
  R.MayNaN = A.MayNaN || B.MayNaN;
  if (A.numEmpty() || B.numEmpty())
    return R;
  if (B.containsZero()) {
    // x / ±0 lands on either infinity depending on sign pairings; the
    // numeric part collapses to top rather than tracking sign cases.
    R.Lo = -Inf;
    R.Hi = Inf;
    R.MayNaN = R.MayNaN || A.containsZero(); // 0 / 0
    if (A.containsInf() && B.containsInf())
      R.MayNaN = true; // inf / inf
    return R;
  }
  FPInterval Q =
      cornerOp<false>(A, B, [](double X, double Y) { return X / Y; });
  R.Lo = Q.Lo;
  R.Hi = Q.Hi;
  R.MayNaN = R.MayNaN || Q.MayNaN;
  if (A.containsInf() && B.containsInf())
    R.MayNaN = true;
  return R;
}

FPInterval absint::absFRem(const FPInterval &A, const FPInterval &B) {
  // fmod is exact (no rounding error): |r| <= |a|, |r| < |b|, sign of a.
  FPInterval R = FPInterval::bottom();
  R.MayNaN = A.MayNaN || B.MayNaN;
  if (A.numEmpty() || B.numEmpty())
    return R;
  R.MayNaN = R.MayNaN || A.containsInf() || B.containsZero();
  double M = std::min(maxAbsBound(A), maxAbsBound(B));
  double Lo = -M, Hi = M;
  if (A.Lo >= 0.0)
    Lo = 0.0;
  if (A.Hi <= 0.0)
    Hi = 0.0;
  R.Lo = Lo;
  R.Hi = Hi;
  return R;
}

FPInterval absint::absFNeg(const FPInterval &A) {
  FPInterval R = FPInterval::bottom();
  R.MayNaN = A.MayNaN;
  if (!A.numEmpty()) {
    R.Lo = -A.Hi;
    R.Hi = -A.Lo;
  }
  return R;
}

FPInterval absint::absFAbs(const FPInterval &A) {
  FPInterval R = FPInterval::bottom();
  R.MayNaN = A.MayNaN;
  if (A.numEmpty())
    return R;
  if (A.Lo >= 0.0) {
    R.Lo = A.Lo;
    R.Hi = A.Hi;
  } else if (A.Hi <= 0.0) {
    R.Lo = std::fabs(A.Hi);
    R.Hi = std::fabs(A.Lo);
  } else {
    R.Lo = 0.0;
    R.Hi = maxAbsBound(A);
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Intrinsics
//===----------------------------------------------------------------------===//

FPInterval absint::absSqrt(const FPInterval &A) {
  FPInterval R = FPInterval::bottom();
  R.MayNaN = A.MayNaN || A.containsNegative();
  if (A.numEmpty() || A.Hi < 0.0)
    return R;
  // sqrt is an exact IEEE operation; directed rounding gives tight bounds.
  double Lo = std::max(A.Lo, 0.0);
  {
    DirectedRounding RM(FE_DOWNWARD);
    R.Lo = pin(std::sqrt(pin(Lo)));
  }
  {
    DirectedRounding RM(FE_UPWARD);
    R.Hi = pin(std::sqrt(pin(A.Hi)));
  }
  return R;
}

FPInterval absint::absSin(const FPInterval &A) {
  FPInterval R = FPInterval::bottom();
  R.MayNaN = A.MayNaN || A.containsInf();
  if (A.numEmpty() || (A.Lo == -Inf && A.Hi == -Inf) ||
      (A.Lo == Inf && A.Hi == Inf))
    return R;
  R.Lo = -1.0;
  R.Hi = 1.0;
  return widenUlps(R, LibmUlps);
}

FPInterval absint::absCos(const FPInterval &A) { return absSin(A); }

FPInterval absint::absTan(const FPInterval &A) {
  FPInterval R = FPInterval::bottom();
  R.MayNaN = A.MayNaN || A.containsInf();
  if (A.numEmpty() || (A.Lo == -Inf && A.Hi == -Inf) ||
      (A.Lo == Inf && A.Hi == Inf))
    return R;
  R.Lo = -Inf;
  R.Hi = Inf;
  return R;
}

FPInterval absint::absExp(const FPInterval &A) {
  FPInterval R = FPInterval::bottom();
  R.MayNaN = A.MayNaN;
  if (A.numEmpty())
    return R;
  // Monotone increasing; exp(-inf) = 0, exp(inf) = inf, never negative.
  R.Lo = std::max(0.0, std::exp(A.Lo));
  R.Hi = std::exp(A.Hi);
  R = widenUlps(R, LibmUlps);
  if (R.Lo < 0.0)
    R.Lo = 0.0;
  return R;
}

FPInterval absint::absLog(const FPInterval &A) {
  FPInterval R = FPInterval::bottom();
  R.MayNaN = A.MayNaN || A.containsNegative();
  if (A.numEmpty() || A.Hi < 0.0)
    return R;
  // Monotone increasing on [0, inf]; log(0) = -inf.
  double Lo = std::max(A.Lo, 0.0);
  R.Lo = Lo == 0.0 ? -Inf : std::log(Lo);
  R.Hi = A.Hi == 0.0 ? -Inf : std::log(A.Hi);
  return widenUlps(R, LibmUlps);
}

FPInterval absint::absPow(const FPInterval &A, const FPInterval &B) {
  FPInterval R = FPInterval::bottom();
  if (A.isBottom() || B.isBottom())
    return R;
  // Nonnegative base and non-NaN operands: the result is never NaN and
  // only pow(±0, negative odd) can reach -inf. Anything else: full top
  // (negative bases with non-integer exponents, NaN special cases like
  // pow(1, NaN) = 1 — not worth modeling).
  if (!A.MayNaN && !B.MayNaN && !A.numEmpty() && !B.numEmpty() &&
      A.Lo >= 0.0) {
    R.Lo = (A.containsZero() && B.Lo < 0.0) ? -Inf : 0.0;
    R.Hi = Inf;
    return R;
  }
  return FPInterval::top();
}

FPInterval absint::absFMin(const FPInterval &A, const FPInterval &B) {
  // fmin(NaN, x) = x: a NaN operand passes the *other* operand through.
  FPInterval R = FPInterval::bottom();
  R.MayNaN = A.MayNaN && B.MayNaN;
  if (!A.numEmpty() && !B.numEmpty())
    joinRange(R, std::min(A.Lo, B.Lo), std::min(A.Hi, B.Hi));
  if (A.MayNaN && !B.numEmpty())
    joinRange(R, B.Lo, B.Hi);
  if (B.MayNaN && !A.numEmpty())
    joinRange(R, A.Lo, A.Hi);
  return R;
}

FPInterval absint::absFMax(const FPInterval &A, const FPInterval &B) {
  FPInterval R = FPInterval::bottom();
  R.MayNaN = A.MayNaN && B.MayNaN;
  if (!A.numEmpty() && !B.numEmpty())
    joinRange(R, std::max(A.Lo, B.Lo), std::max(A.Hi, B.Hi));
  if (A.MayNaN && !B.numEmpty())
    joinRange(R, B.Lo, B.Hi);
  if (B.MayNaN && !A.numEmpty())
    joinRange(R, A.Lo, A.Hi);
  return R;
}

FPInterval absint::absFloor(const FPInterval &A) {
  FPInterval R = FPInterval::bottom();
  R.MayNaN = A.MayNaN;
  if (!A.numEmpty()) {
    // floor is exact and monotone; infinities pass through.
    R.Lo = std::floor(A.Lo);
    R.Hi = std::floor(A.Hi);
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Comparisons
//===----------------------------------------------------------------------===//

BoolAbs absint::absFCmp(ir::CmpPred P, const FPInterval &A,
                        const FPInterval &B) {
  if (A.isBottom() || B.isBottom())
    return BoolAbs::bottom();
  BoolAbs R;
  // NaN on either side: every ordered predicate is false, NE is true.
  if (A.MayNaN || B.MayNaN) {
    if (P == ir::CmpPred::NE)
      R.MayTrue = true;
    else
      R.MayFalse = true;
  }
  if (!A.numEmpty() && !B.numEmpty()) {
    switch (P) {
    case ir::CmpPred::EQ:
      R.MayTrue |= A.Lo <= B.Hi && B.Lo <= A.Hi;
      R.MayFalse |= !(A.Lo == A.Hi && B.Lo == B.Hi && A.Lo == B.Lo);
      break;
    case ir::CmpPred::NE:
      R.MayTrue |= !(A.Lo == A.Hi && B.Lo == B.Hi && A.Lo == B.Lo);
      R.MayFalse |= A.Lo <= B.Hi && B.Lo <= A.Hi;
      break;
    case ir::CmpPred::LT:
      R.MayTrue |= A.Lo < B.Hi;
      R.MayFalse |= A.Hi >= B.Lo;
      break;
    case ir::CmpPred::LE:
      R.MayTrue |= A.Lo <= B.Hi;
      R.MayFalse |= A.Hi > B.Lo;
      break;
    case ir::CmpPred::GT:
      R.MayTrue |= A.Hi > B.Lo;
      R.MayFalse |= A.Lo <= B.Hi;
      break;
    case ir::CmpPred::GE:
      R.MayTrue |= A.Hi >= B.Lo;
      R.MayFalse |= A.Lo < B.Hi;
      break;
    }
  }
  return R;
}

BoolAbs absint::absICmp(ir::CmpPred P, const IntInterval &A,
                        const IntInterval &B) {
  if (A.isBottom() || B.isBottom())
    return BoolAbs::bottom();
  BoolAbs R;
  switch (P) {
  case ir::CmpPred::EQ:
    R.MayTrue = A.Lo <= B.Hi && B.Lo <= A.Hi;
    R.MayFalse = !(A.isSingleton() && B.isSingleton() && A.Lo == B.Lo);
    break;
  case ir::CmpPred::NE:
    R.MayTrue = !(A.isSingleton() && B.isSingleton() && A.Lo == B.Lo);
    R.MayFalse = A.Lo <= B.Hi && B.Lo <= A.Hi;
    break;
  case ir::CmpPred::LT:
    R.MayTrue = A.Lo < B.Hi;
    R.MayFalse = A.Hi >= B.Lo;
    break;
  case ir::CmpPred::LE:
    R.MayTrue = A.Lo <= B.Hi;
    R.MayFalse = A.Hi > B.Lo;
    break;
  case ir::CmpPred::GT:
    R.MayTrue = A.Hi > B.Lo;
    R.MayFalse = A.Lo <= B.Hi;
    break;
  case ir::CmpPred::GE:
    R.MayTrue = A.Hi >= B.Lo;
    R.MayFalse = A.Lo < B.Hi;
    break;
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Integer arithmetic
//===----------------------------------------------------------------------===//

namespace {

IntInterval fromWide(__int128 Lo, __int128 Hi) {
  constexpr __int128 Min = std::numeric_limits<int64_t>::min();
  constexpr __int128 Max = std::numeric_limits<int64_t>::max();
  if (Lo < Min || Hi > Max)
    return IntInterval::top(); // may wrap; the interpreter wraps mod 2^64
  return {static_cast<int64_t>(Lo), static_cast<int64_t>(Hi)};
}

} // namespace

IntInterval absint::absIAdd(const IntInterval &A, const IntInterval &B) {
  if (A.isBottom() || B.isBottom())
    return IntInterval::bottom();
  return fromWide(static_cast<__int128>(A.Lo) + B.Lo,
                  static_cast<__int128>(A.Hi) + B.Hi);
}

IntInterval absint::absISub(const IntInterval &A, const IntInterval &B) {
  if (A.isBottom() || B.isBottom())
    return IntInterval::bottom();
  return fromWide(static_cast<__int128>(A.Lo) - B.Hi,
                  static_cast<__int128>(A.Hi) - B.Lo);
}

IntInterval absint::absIMul(const IntInterval &A, const IntInterval &B) {
  if (A.isBottom() || B.isBottom())
    return IntInterval::bottom();
  __int128 C[4] = {static_cast<__int128>(A.Lo) * B.Lo,
                   static_cast<__int128>(A.Lo) * B.Hi,
                   static_cast<__int128>(A.Hi) * B.Lo,
                   static_cast<__int128>(A.Hi) * B.Hi};
  __int128 Lo = C[0], Hi = C[0];
  for (__int128 V : C) {
    Lo = V < Lo ? V : Lo;
    Hi = V > Hi ? V : Hi;
  }
  return fromWide(Lo, Hi);
}

namespace {

/// Smallest power-of-two bound B = 2^k - 1 >= max(AHi, BHi), for the
/// nonnegative bitwise range rules.
int64_t pow2Mask(int64_t V) {
  uint64_t U = static_cast<uint64_t>(V);
  uint64_t M = 0;
  while (M < U)
    M = M * 2 + 1;
  return static_cast<int64_t>(M);
}

bool bothNonNegBounded(const IntInterval &A, const IntInterval &B) {
  constexpr int64_t Cap = int64_t(1) << 62;
  return A.Lo >= 0 && B.Lo >= 0 && A.Hi <= Cap && B.Hi <= Cap;
}

} // namespace

IntInterval absint::absIAnd(const IntInterval &A, const IntInterval &B) {
  if (A.isBottom() || B.isBottom())
    return IntInterval::bottom();
  if (A.isSingleton() && B.isSingleton())
    return IntInterval::point(static_cast<int64_t>(
        static_cast<uint64_t>(A.Lo) & static_cast<uint64_t>(B.Lo)));
  if (bothNonNegBounded(A, B))
    return {0, std::min(A.Hi, B.Hi)};
  return IntInterval::top();
}

IntInterval absint::absIOr(const IntInterval &A, const IntInterval &B) {
  if (A.isBottom() || B.isBottom())
    return IntInterval::bottom();
  if (A.isSingleton() && B.isSingleton())
    return IntInterval::point(static_cast<int64_t>(
        static_cast<uint64_t>(A.Lo) | static_cast<uint64_t>(B.Lo)));
  if (bothNonNegBounded(A, B))
    return {std::max(A.Lo, B.Lo), pow2Mask(std::max(A.Hi, B.Hi))};
  return IntInterval::top();
}

IntInterval absint::absIXor(const IntInterval &A, const IntInterval &B) {
  if (A.isBottom() || B.isBottom())
    return IntInterval::bottom();
  if (A.isSingleton() && B.isSingleton())
    return IntInterval::point(static_cast<int64_t>(
        static_cast<uint64_t>(A.Lo) ^ static_cast<uint64_t>(B.Lo)));
  if (bothNonNegBounded(A, B))
    return {0, pow2Mask(std::max(A.Hi, B.Hi))};
  return IntInterval::top();
}

IntInterval absint::absIShl(const IntInterval &A, const IntInterval &B) {
  if (A.isBottom() || B.isBottom())
    return IntInterval::bottom();
  // The interpreter masks the shift amount with & 63 and wraps; only the
  // no-mask no-wrap case is worth modeling precisely.
  if (B.isSingleton() && B.Lo >= 0 && B.Lo <= 63) {
    int Sh = static_cast<int>(B.Lo);
    __int128 Lo = static_cast<__int128>(A.Lo) << Sh;
    __int128 Hi = static_cast<__int128>(A.Hi) << Sh;
    return fromWide(Lo, Hi);
  }
  return IntInterval::top();
}

IntInterval absint::absILShr(const IntInterval &A, const IntInterval &B) {
  if (A.isBottom() || B.isBottom())
    return IntInterval::bottom();
  // Logical shift reinterprets negative values as huge unsigned ones;
  // model only nonnegative A with an in-range shift interval.
  if (A.Lo >= 0 && B.Lo >= 0 && B.Hi <= 63) {
    uint64_t Lo = static_cast<uint64_t>(A.Lo) >> B.Hi;
    uint64_t Hi = static_cast<uint64_t>(A.Hi) >> B.Lo;
    return {static_cast<int64_t>(Lo), static_cast<int64_t>(Hi)};
  }
  return IntInterval::top();
}

//===----------------------------------------------------------------------===//
// Conversions
//===----------------------------------------------------------------------===//

FPInterval absint::absSIToFP(const IntInterval &A) {
  FPInterval R = FPInterval::bottom();
  if (A.isBottom())
    return R;
  // int -> double is an exact IEEE conversion: directed rounding bounds
  // the result under every runtime mode.
  {
    DirectedRounding RM(FE_DOWNWARD);
    R.Lo = pin(static_cast<double>(pinInt(A.Lo)));
  }
  {
    DirectedRounding RM(FE_UPWARD);
    R.Hi = pin(static_cast<double>(pinInt(A.Hi)));
  }
  return R;
}

IntInterval absint::absFPToSI(const FPInterval &A) {
  if (A.isBottom())
    return IntInterval::bottom();
  // Mirrors the interpreter's saturatingFPToSI exactly (truncation is
  // monotone, NaN maps to 0).
  auto Sat = [](double X) -> int64_t {
    constexpr double Lo = -9.223372036854775808e18;
    constexpr double Hi = 9.223372036854775807e18;
    if (X <= Lo)
      return std::numeric_limits<int64_t>::min();
    if (X >= Hi)
      return std::numeric_limits<int64_t>::max();
    return static_cast<int64_t>(X);
  };
  IntInterval R = IntInterval::bottom();
  if (!A.numEmpty())
    R = {Sat(A.Lo), Sat(A.Hi)};
  if (A.MayNaN)
    R = R.join(IntInterval::point(0));
  return R;
}

IntInterval absint::absHighWord(const FPInterval &A) {
  if (A.isBottom())
    return IntInterval::bottom();
  // Exact only for a non-NaN singleton away from zero (the sign of zero
  // changes the high word, and the interval cannot tell -0 from +0).
  if (!A.MayNaN && !A.numEmpty() && bitsOf(A.Lo) == bitsOf(A.Hi) &&
      A.Lo != 0.0)
    return IntInterval::point(static_cast<int64_t>(highWord(A.Lo)));
  return {0, static_cast<int64_t>(0xffffffffull)};
}

FPInterval absint::absUlpDiff(const FPInterval &A, const FPInterval &B) {
  if (A.isBottom() || B.isBottom())
    return FPInterval::bottom();
  // ulpDistanceAsDouble: nonnegative, saturates at (double)UINT64_MAX,
  // never NaN. Exact when both operands are non-NaN singletons.
  if (!A.MayNaN && !B.MayNaN && !A.numEmpty() && !B.numEmpty() &&
      A.Lo == A.Hi && B.Lo == B.Hi)
    return FPInterval::point(ulpDistanceAsDouble(A.Lo, B.Lo));
  double Max = static_cast<double>(std::numeric_limits<uint64_t>::max());
  return FPInterval::range(0.0, nextUp(Max));
}

//===----------------------------------------------------------------------===//
// Branch refinement
//===----------------------------------------------------------------------===//

namespace {

/// Numeric-only refinement for an ordered relation A rel B that is known
/// to hold for some non-NaN pair. Clamps A.Hi below B.Hi etc.; exactness
/// is not required, only soundness.
void clampLE(FPInterval &A, FPInterval &B) { // A <= B holds
  A.Hi = std::min(A.Hi, B.Hi);
  B.Lo = std::max(B.Lo, A.Lo);
}

void clampLT(FPInterval &A, FPInterval &B) { // A < B holds
  A.Hi = std::min(A.Hi, B.Hi == Inf ? Inf : nextDown(B.Hi));
  B.Lo = std::max(B.Lo, A.Lo == -Inf ? -Inf : nextUp(A.Lo));
}

void clampLEInt(IntInterval &A, IntInterval &B) {
  A.Hi = std::min(A.Hi, B.Hi);
  B.Lo = std::max(B.Lo, A.Lo);
}

void clampLTInt(IntInterval &A, IntInterval &B) { // A < B holds
  if (B.Hi != std::numeric_limits<int64_t>::min())
    A.Hi = std::min(A.Hi, B.Hi - 1);
  if (A.Lo != std::numeric_limits<int64_t>::max())
    B.Lo = std::max(B.Lo, A.Lo + 1);
}

} // namespace

bool absint::refineFCmp(ir::CmpPred P, bool Taken, FPInterval &A,
                        FPInterval &B) {
  if (A.isBottom() || B.isBottom())
    return false;
  // Resolve the assumption to an ordered relation where possible. A true
  // ordered predicate implies neither operand is NaN; a false NE likewise
  // (false NE means A == B, which NaN can never satisfy).
  bool Ordered = Taken ? P != ir::CmpPred::NE : P == ir::CmpPred::NE;
  if (Ordered) {
    A.MayNaN = false;
    B.MayNaN = false;
    if (A.numEmpty() || B.numEmpty())
      return false;
    ir::CmpPred Eff = P;
    if (!Taken && P == ir::CmpPred::NE)
      Eff = ir::CmpPred::EQ;
    switch (Eff) {
    case ir::CmpPred::EQ: {
      FPInterval M = A.meet(B);
      M.MayNaN = false;
      A = M;
      B = M;
      return !A.numEmpty();
    }
    case ir::CmpPred::LT:
      clampLT(A, B);
      break;
    case ir::CmpPred::LE:
      clampLE(A, B);
      break;
    case ir::CmpPred::GT:
      clampLT(B, A);
      break;
    case ir::CmpPred::GE:
      clampLE(B, A);
      break;
    case ir::CmpPred::NE:
      break; // true NE: no numeric refinement
    }
    if (!(A.Lo <= A.Hi)) {
      A.Lo = Inf;
      A.Hi = -Inf;
    }
    if (!(B.Lo <= B.Hi)) {
      B.Lo = Inf;
      B.Hi = -Inf;
    }
    return !A.isBottom() && !B.isBottom();
  }

  // Falsified ordered predicate (or a true NE handled above as ordered):
  // NaN alone can falsify any ordered predicate, so numeric refinement is
  // only legal when neither operand can be NaN.
  if (Taken) // true NE was handled in the ordered arm; nothing else here
    return true;
  if (A.MayNaN || B.MayNaN)
    return true; // NaN may explain the false outcome; refine nothing
  if (A.numEmpty() || B.numEmpty())
    return false;
  switch (P) {
  case ir::CmpPred::EQ:
    break; // !(A == B): shaving interior points is not expressible
  case ir::CmpPred::LT: // !(A < B) => A >= B
    clampLE(B, A);
    break;
  case ir::CmpPred::LE: // !(A <= B) => A > B
    clampLT(B, A);
    break;
  case ir::CmpPred::GT: // !(A > B) => A <= B
    clampLE(A, B);
    break;
  case ir::CmpPred::GE: // !(A >= B) => A < B
    clampLT(A, B);
    break;
  case ir::CmpPred::NE:
    break; // unreachable (handled in the ordered arm)
  }
  if (!(A.Lo <= A.Hi)) {
    A.Lo = Inf;
    A.Hi = -Inf;
  }
  if (!(B.Lo <= B.Hi)) {
    B.Lo = Inf;
    B.Hi = -Inf;
  }
  return !A.isBottom() && !B.isBottom();
}

bool absint::refineICmp(ir::CmpPred P, bool Taken, IntInterval &A,
                        IntInterval &B) {
  if (A.isBottom() || B.isBottom())
    return false;
  ir::CmpPred Eff = P;
  if (!Taken) {
    switch (P) {
    case ir::CmpPred::EQ:
      Eff = ir::CmpPred::NE;
      break;
    case ir::CmpPred::NE:
      Eff = ir::CmpPred::EQ;
      break;
    case ir::CmpPred::LT:
      Eff = ir::CmpPred::GE;
      break;
    case ir::CmpPred::LE:
      Eff = ir::CmpPred::GT;
      break;
    case ir::CmpPred::GT:
      Eff = ir::CmpPred::LE;
      break;
    case ir::CmpPred::GE:
      Eff = ir::CmpPred::LT;
      break;
    }
  }
  switch (Eff) {
  case ir::CmpPred::EQ: {
    IntInterval M = A.meet(B);
    A = M;
    B = M;
    return !M.isBottom();
  }
  case ir::CmpPred::NE:
    if (A.isSingleton() && B.isSingleton() && A.Lo == B.Lo)
      return false;
    return true;
  case ir::CmpPred::LT:
    clampLTInt(A, B);
    break;
  case ir::CmpPred::LE:
    clampLEInt(A, B);
    break;
  case ir::CmpPred::GT:
    clampLTInt(B, A);
    break;
  case ir::CmpPred::GE:
    clampLEInt(B, A);
    break;
  }
  return !A.isBottom() && !B.isBottom();
}
