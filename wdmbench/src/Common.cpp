//===--- Common.cpp - Shared plumbing of the wdm benchmark ----------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "support/BuildInfo.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

using namespace wdmbench;
using wdm::json::Value;

double wdmbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  Rank = std::clamp<size_t>(Rank, 1, V.size());
  return V[Rank - 1];
}

double wdmbench::tailPercentileFor(size_t N) {
  double Best = 50;
  for (double P : {90.0, 95.0, 99.0, 99.9})
    if (static_cast<double>(N) * (1 - P / 100.0) >= 10)
      Best = P;
  return Best;
}

double wdmbench::peakRssMb(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

uint64_t wdmbench::mix(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ull * (Stream + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

void Result::metric(const std::string &Name, double V,
                    const std::string &Unit) {
  Metrics.set(Name, Value::object()
                        .set("value", Value::number(V))
                        .set("unit", Value::string(Unit)));
}

double Result::value(const std::string &Name) const {
  const Value *M = Metrics.find(Name);
  return M ? M->find("value")->asDouble() : 0;
}

void Result::fail(const std::string &What) {
  ++Failed;
  if (Errors.size() < 20)
    Errors.push_back(What);
}

void Result::info(const std::string &Key, Value V) {
  Info.set(Key, std::move(V));
}

int Result::finish() {
  for (const std::string &E : Errors)
    std::cerr << "wdmbench: incorrect: " << E << "\n";
  if (Failed > Errors.size())
    std::cerr << "wdmbench: ... " << (Failed - Errors.size())
              << " more incorrect outputs\n";
  Info.set("build", wdm::support::buildInfoJson());
  std::cout << Value::object().set("info", Info).dump() << "\n";
  Value Out = Value::object()
                  .set("correct", Value::boolean(Failed == 0))
                  .set("attempted", Value::number(std::max<uint64_t>(
                                        Attempted, 1)))
                  .set("failed", Value::number(Failed))
                  .set("metrics", Metrics);
  std::cout << Out.dump() << std::endl;
  return Failed == 0 ? 0 : 1;
}

double JobClock::firstLine() const {
  std::lock_guard<std::mutex> L(Mu);
  return First;
}

std::map<std::string, JobClock::Times> JobClock::jobs() const {
  std::lock_guard<std::mutex> L(Mu);
  return Jobs;
}

int JobClock::overflow(int C) {
  if (C == traits_type::eof())
    return 0;
  char Ch = static_cast<char>(C);
  xsputn(&Ch, 1);
  return C;
}

std::streamsize JobClock::xsputn(const char *S, std::streamsize N) {
  std::lock_guard<std::mutex> L(Mu);
  for (std::streamsize I = 0; I < N; ++I) {
    if (S[I] == '\n')
      endLine();
    else
      Line.push_back(S[I]);
  }
  return N;
}

void JobClock::endLine() {
  double T = nowS();
  if (First == 0)
    First = T;
  if (Line.size() > 2 && Line[0] == '[') {
    size_t Close = Line.find(']');
    if (Close != std::string::npos) {
      Times &J = Jobs[Line.substr(1, Close - 1)];
      bool Started = Line.size() >= 9 &&
                     Line.compare(Line.size() - 9, 9, ": started") == 0;
      if (Started && J.Start == 0)
        J.Start = T;
      else if (!Started)
        J.End = T;
    }
  }
  Line.clear();
}

SpanSummary wdmbench::summarizeSpans(const Value &Trace) {
  struct Ev {
    std::string Name;
    double Ts, Dur;
  };
  std::map<uint64_t, std::vector<Ev>> ByThread;
  if (const Value *Events = Trace.find("traceEvents"))
    for (size_t I = 0; I < Events->size(); ++I) {
      const Value &E = Events->at(I);
      const Value *Ph = E.find("ph");
      const Value *Dur = E.find("dur");
      if (!Ph || Ph->asString() != "X" || !Dur)
        continue;
      ByThread[E.find("tid")->asUint()].push_back(
          {E.find("name")->asString(), E.find("ts")->asDouble(),
           Dur->asDouble()});
    }
  SpanSummary S;
  for (auto &[Tid, Evs] : ByThread) {
    // Outer spans first at equal start times.
    std::sort(Evs.begin(), Evs.end(), [](const Ev &A, const Ev &B) {
      return A.Ts != B.Ts ? A.Ts < B.Ts : A.Dur > B.Dur;
    });
    std::vector<double> ChildUs(Evs.size(), 0);
    std::vector<size_t> Stack;
    for (size_t I = 0; I < Evs.size(); ++I) {
      while (!Stack.empty() &&
             Evs[Stack.back()].Ts + Evs[Stack.back()].Dur <= Evs[I].Ts)
        Stack.pop_back();
      if (!Stack.empty())
        ChildUs[Stack.back()] += Evs[I].Dur;
      Stack.push_back(I);
    }
    for (size_t I = 0; I < Evs.size(); ++I) {
      S.SelfMs[Evs[I].Name] +=
          std::max(0.0, Evs[I].Dur - ChildUs[I]) / 1000.0;
      S.TotalMs[Evs[I].Name] += Evs[I].Dur / 1000.0;
      S.Count[Evs[I].Name] += 1;
    }
  }
  return S;
}
