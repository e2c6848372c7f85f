//===--- RNG.cpp - Deterministic random number generation ----------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "support/RNG.h"

#include "support/FPUtils.h"

#include <cassert>
#include <cmath>

using namespace wdm;

static uint64_t splitMix64(uint64_t &State) {
  State += 0x9e3779b97f4a7c15ull;
  uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

static uint64_t rotl(uint64_t X, int K) { return (X << K) | (X >> (64 - K)); }

RNG::RNG(uint64_t Seed) {
  uint64_t Mix = Seed;
  for (uint64_t &Word : S)
    Word = splitMix64(Mix);
}

uint64_t RNG::next() {
  uint64_t Result = rotl(S[0] + S[3], 23) + S[0];
  uint64_t T = S[1] << 17;
  S[2] ^= S[0];
  S[3] ^= S[1];
  S[1] ^= S[2];
  S[0] ^= S[3];
  S[2] ^= T;
  S[3] = rotl(S[3], 45);
  return Result;
}

double RNG::uniform() {
  // 53 high bits scaled into [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double RNG::uniform(double Lo, double Hi) {
  assert(Lo < Hi && "empty uniform range");
  return Lo + (Hi - Lo) * uniform();
}

double RNG::normal() {
  if (HasSpare) {
    HasSpare = false;
    return Spare;
  }
  double U1 = uniform();
  double U2 = uniform();
  // Guard against log(0).
  if (U1 <= 0)
    U1 = 0x1.0p-53;
  double R = std::sqrt(-2.0 * std::log(U1));
  double Theta = 2.0 * M_PI * U2;
  Spare = R * std::sin(Theta);
  HasSpare = true;
  return R * std::cos(Theta);
}

double RNG::normal(double Mean, double Sigma) {
  return Mean + Sigma * normal();
}

uint64_t RNG::below(uint64_t N) {
  assert(N > 0 && "below(0) is meaningless");
  // Rejection sampling to avoid modulo bias.
  uint64_t Threshold = (0 - N) % N;
  for (;;) {
    uint64_t Draw = next();
    if (Draw >= Threshold)
      return Draw % N;
  }
}

int64_t RNG::intIn(int64_t Lo, int64_t Hi) {
  assert(Lo <= Hi && "empty integer range");
  // Modulo-2^64 arithmetic: Hi - Lo overflows int64 for ranges wider
  // than 2^63, and the result is the same bits either way.
  uint64_t Span = static_cast<uint64_t>(Hi) - static_cast<uint64_t>(Lo);
  return static_cast<int64_t>(static_cast<uint64_t>(Lo) + below(Span + 1));
}

bool RNG::chance(double P) { return uniform() < P; }

double RNG::anyFiniteDouble() {
  for (;;) {
    uint64_t Bits = next();
    double X = fromBits(Bits);
    if (std::isfinite(X))
      return X;
  }
}

RNG RNG::split() { return RNG(next() ^ 0xa0761d6478bd642full); }
