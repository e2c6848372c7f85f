//===--- Common.h - Shared plumbing of the wdm benchmark --------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clocks, sample statistics, the metric sink that prints the final JSON
/// line, and a stream that timestamps every line JobScheduler writes to
/// its Progress stream (the benchmark's outside view of job start/finish).
///
//===----------------------------------------------------------------------===//

#ifndef WDMBENCH_COMMON_H
#define WDMBENCH_COMMON_H

#include "support/Json.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <streambuf>
#include <string>
#include <sys/types.h>
#include <vector>

namespace wdmbench {

/// Seconds on the steady clock since an arbitrary epoch.
inline double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of \p V (0 < P <= 100); 0 when empty.
double percentile(std::vector<double> V, double P);
inline double median(const std::vector<double> &V) {
  return percentile(V, 50);
}

/// The highest of {50, 90, 95, 99, 99.9} with at least ten samples
/// beyond it in a sample of \p N.
double tailPercentileFor(size_t N);

/// Peak resident set (VmHWM) of \p Pid in MiB; 0 when unreadable.
double peakRssMb(pid_t Pid);

/// Splitmix64: derives independent streams from the workload seed.
uint64_t mix(uint64_t Seed, uint64_t Stream);

/// Collects the metrics of one run and prints the closing JSON line.
class Result {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// A metric recorded earlier (0 when absent).
  double value(const std::string &Name) const;
  /// An incorrect output: counted in `failed` and reported on stderr.
  void fail(const std::string &What);
  void attempted(uint64_t N) { Attempted += N; }
  uint64_t failures() const { return Failed; }
  uint64_t attemptedCount() const { return Attempted; }
  /// Informational key/value printed on the line before the result.
  void info(const std::string &Key, wdm::json::Value V);
  /// Prints the info line and the result line; returns the exit code.
  int finish();

private:
  wdm::json::Value Metrics = wdm::json::Value::object();
  wdm::json::Value Info = wdm::json::Value::object();
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors;
};

/// An ostream that timestamps each line as it is written (thread-safe).
/// JobScheduler writes "[<job id>] <label>: started" when it dispatches a
/// job and one more line under the same id when the job ends.
class JobClock : public std::streambuf {
public:
  struct Times {
    double Start = 0;
    double End = 0;
  };

  std::ostream &stream() { return OS; }
  /// Time of the first line written.
  double firstLine() const;
  std::map<std::string, Times> jobs() const;

protected:
  int overflow(int C) override;
  std::streamsize xsputn(const char *S, std::streamsize N) override;

private:
  void endLine();

  mutable std::mutex Mu;
  std::string Line;
  double First = 0;
  std::map<std::string, Times> Jobs;
  std::ostream OS{this};
};

/// Self time per span name from a Chrome trace (obs::traceJson()):
/// each complete event's duration minus the part its same-thread nested
/// events cover, plus total time and count per name.
struct SpanSummary {
  std::map<std::string, double> SelfMs;
  std::map<std::string, double> TotalMs;
  std::map<std::string, uint64_t> Count;
};
SpanSummary summarizeSpans(const wdm::json::Value &Trace);

} // namespace wdmbench

#endif // WDMBENCH_COMMON_H
