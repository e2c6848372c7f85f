//===--- Suites.cpp - gsl_study and small_sweep ---------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
//
// Both suite workloads run back-to-back batches through the in-process
// api::JobScheduler until the measuring time is spent. Each batch is a
// fresh suite document (new seeds), so each gives one set-up sample:
// suite parse + expand up to the first dispatched job, read from the
// scheduler's Progress stream. Per-job verdict latency is the time
// between the job's "started" and its closing Progress line.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Layers.h"
#include "Oracle.h"
#include "Workloads.h"

#include "api/JobScheduler.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

using namespace wdmbench;
using namespace wdm;
using wdm::json::Value;

namespace {

struct Params {
  bool Gsl = true;
  unsigned SeedsPerBatch = 4;
};

/// One shard: on a shared host, two concurrent shards roughly doubled
/// the run-to-run spread of every timing, so the suites run their jobs
/// one after another (each job still searches single-threaded).
constexpr unsigned Shards = 1;

struct Batch {
  double SetupS = 0;
  double WallS = 0;
  std::vector<double> LatMs;
  std::vector<double> QueueMs;
  uint64_t Jobs = 0;
  uint64_t Findings = 0;
  uint64_t Evals = 0;
  uint64_t LogBytes = 0;
  api::SuiteReport Report;
};

std::string suiteText(const Params &P, uint64_t Seed, unsigned B) {
  return P.Gsl ? gslStudySuite(Seed, B, P.SeedsPerBatch)
               : smallSweepSuite(Seed, B, P.SeedsPerBatch);
}

Batch runBatch(const std::string &Text, const std::string &LogPath,
               Result &Out) {
  Batch B;
  JobClock Clock;
  double T0 = nowS();
  Expected<api::SuiteSpec> S = api::SuiteSpec::parse(Text);
  if (!S) {
    Out.fail("generated suite does not parse: " + S.error());
    return B;
  }
  api::SuiteRunOptions RO;
  RO.Mode = api::SuiteMode::InProcess;
  RO.Shards = Shards;
  RO.EventLog = LogPath;
  RO.Progress = &Clock.stream();
  Expected<api::SuiteReport> R =
      api::JobScheduler::execute(S.take(), std::move(RO));
  B.WallS = nowS() - T0;
  if (!R) {
    Out.fail("suite run failed: " + R.error());
    return B;
  }
  double Dispatch = Clock.firstLine();
  B.SetupS = Dispatch - T0;
  std::map<std::string, JobClock::Times> Times = Clock.jobs();
  for (const api::JobResult &JR : R->Results) {
    ++B.Jobs;
    auto It = Times.find(JR.Id);
    if (It != Times.end() && It->second.End > 0) {
      B.LatMs.push_back((It->second.End - It->second.Start) * 1e3);
      B.QueueMs.push_back((It->second.Start - Dispatch) * 1e3);
    }
    if (JR.hasReport()) {
      B.Findings += JR.R.Findings.size();
      B.Evals += JR.R.Evals;
    }
  }
  std::error_code EC;
  B.LogBytes = std::filesystem::file_size(LogPath, EC);
  std::filesystem::remove(LogPath, EC);
  B.Report = R.take();
  return B;
}

/// Correctness of one batch, outside the timed window: every job has a
/// report, every witness replays on the interpreter, and a sample of
/// reports equals an interpreter-tier run of the same spec.
void checkBatch(const Params &P, const Batch &B, WitnessOracle &Oracle,
                GslTotals &Totals, std::map<std::string, uint64_t> &Tiers,
                Result &Out) {
  Out.attempted(B.Jobs);
  unsigned Compared = 0;
  for (size_t I = 0; I < B.Report.Results.size(); ++I) {
    const api::JobResult &JR = B.Report.Results[I];
    if (!JR.hasReport()) {
      Out.fail("job " + JR.Id + " (" + JR.Spec.Module.Text +
               ") has no report: " + JR.Error);
      continue;
    }
    ++Tiers[JR.R.Engine];
    for (const std::string &E : Oracle.check(JR.Spec, JR.R))
      Out.fail(E);
    if (P.Gsl)
      Totals.add(JR.Spec, JR.R);
    // gsl_study compares its cheapest job (hyperg overflow) once per
    // batch; small_sweep one job in a hundred.
    bool Sample = P.Gsl ? (Compared == 0 && JR.Spec.Module.Text == "hyperg" &&
                           JR.Spec.Task == api::TaskKind::Overflow)
                        : I % 100 == 0;
    if (Sample) {
      ++Compared;
      std::string Diff = compareWithInterpreter(JR.Spec, JR.R.toJson());
      if (!Diff.empty())
        Out.fail("job " + JR.Id + ": " + Diff);
    }
  }
}

/// Specs of the first batch used by the layer probes: the first job of
/// each (task, subject) pair, thinned to at most \p Max.
std::vector<std::string> sampleSpecs(const std::string &Text, size_t Max,
                                     std::string &Trajectory, bool Gsl) {
  std::vector<std::string> Out;
  Expected<api::SuiteSpec> S = api::SuiteSpec::parse(Text);
  if (!S)
    return Out;
  Expected<std::vector<api::SuiteJob>> Jobs = S->expand();
  if (!Jobs)
    return Out;
  std::vector<std::string> Seen;
  std::vector<std::string> Distinct;
  for (const api::SuiteJob &J : *Jobs) {
    std::string Key = std::string(api::taskKindName(J.Spec.Task)) + " " +
                      J.Spec.Module.Text;
    if (std::find(Seen.begin(), Seen.end(), Key) != Seen.end())
      continue;
    Seen.push_back(Key);
    Distinct.push_back(J.CanonicalSpec);
    if (Trajectory.empty() && J.Spec.Task == api::TaskKind::Overflow &&
        J.Spec.Module.Text == (Gsl ? "bessel" : "quadratic"))
      Trajectory = J.CanonicalSpec;
  }
  size_t Step = std::max<size_t>(1, (Distinct.size() + Max - 1) / Max);
  for (size_t I = 0; I < Distinct.size(); I += Step)
    Out.push_back(Distinct[I]);
  return Out;
}

struct Totals {
  std::vector<double> Setup, Lat, Queue;
  double Wall = 0;
  uint64_t Jobs = 0, Findings = 0, Evals = 0, LogBytes = 0;
  unsigned Batches = 0;
  void add(const Batch &B) {
    Setup.push_back(B.SetupS);
    Lat.insert(Lat.end(), B.LatMs.begin(), B.LatMs.end());
    Queue.insert(Queue.end(), B.QueueMs.begin(), B.QueueMs.end());
    Wall += B.WallS;
    Jobs += B.Jobs;
    Findings += B.Findings;
    Evals += B.Evals;
    LogBytes += B.LogBytes;
    ++Batches;
  }
};

} // namespace

void wdmbench::runSuiteWorkload(const Options &O, Result &Out) {
  Params P;
  P.Gsl = O.Workload == "gsl_study";
  P.SeedsPerBatch = P.Gsl ? 4 : 10;
  const std::string Log = O.WorkDir + "/events.ndjson";

  WitnessOracle Oracle;
  GslTotals Gsl;
  std::map<std::string, uint64_t> Tiers;
  Totals T;

  if (!O.Trace) {
    // Warm-up batch (untimed): lazy process set-up, page faults, caches.
    checkBatch(P, runBatch(suiteText(P, O.Seed, 999), Log, Out), Oracle,
               Gsl, Tiers, Out);
    for (unsigned B = 0; T.Wall < O.Seconds; ++B) {
      Batch Bt = runBatch(suiteText(P, O.Seed, B), Log, Out);
      T.add(Bt);
      checkBatch(P, Bt, Oracle, Gsl, Tiers, Out);
      if (Bt.Jobs == 0)
        break;
    }
    Out.metric("setup_s", median(T.Setup), "s");
    Out.metric("jobs_per_s", T.Wall > 0 ? T.Jobs / T.Wall : 0, "1/s");
    Out.metric("verdict_p50_ms", median(T.Lat), "ms");
    double Tail = tailPercentileFor(T.Lat.size());
    Out.metric("verdict_tail_ms", percentile(T.Lat, Tail), "ms");
    Out.metric("peak_rss_mb", peakRssMb(getpid()), "MB");
    Out.info("verdict_tail_percentile", Value::number(Tail));
    Out.info("verdict_samples",
             Value::number(static_cast<uint64_t>(T.Lat.size())));
    Out.info("batches", Value::number(T.Batches));
    Out.info("evals", Value::number(T.Evals));
    Out.info("findings", Value::number(T.Findings));
  } else {
    std::string Trajectory;
    LayerInputs In;
    In.SuiteText = suiteText(P, O.Seed, 0);
    In.Specs = sampleSpecs(In.SuiteText, P.Gsl ? 6 : 12, Trajectory, P.Gsl);
    In.TrajectorySpec = Trajectory;
    In.WorkDir = O.WorkDir;
    In.Seed = O.Seed;
    runLayerProbes(In, Out);

    // The same batches untraced, then traced: the wall-time difference
    // is the tracing overhead.
    checkBatch(P, runBatch(suiteText(P, O.Seed, 999), Log, Out), Oracle,
               Gsl, Tiers, Out);
    unsigned N = 0;
    for (; T.Wall < O.Seconds / 2; ++N) {
      Batch Bt = runBatch(suiteText(P, O.Seed, N), Log, Out);
      T.add(Bt);
      checkBatch(P, Bt, Oracle, Gsl, Tiers, Out);
      if (Bt.Jobs == 0)
        break;
    }
    obs::setEnabled(true);
    Value Before = obs::snapshotJson();
    obs::startTrace();
    Totals Traced;
    for (unsigned B = 0; B < N; ++B)
      Traced.add(runBatch(suiteText(P, O.Seed, B), Log, Out));
    obs::stopTrace();
    TracedRun TR;
    TR.CounterDelta = obs::deltaJson(Before, obs::snapshotJson());
    TR.Trace = obs::traceJson();
    obs::clearTrace();
    obs::setEnabled(false);
    for (double L : Traced.Lat)
      TR.OperationMs += L;
    TR.Jobs = Traced.Jobs;
    TR.Findings = Traced.Findings;
    TR.Evals = Traced.Evals;
    TR.EvalNs = Out.value("exec.eval_ns.vm");
    TR.VerifyUs = Oracle.replayUs();
    reportTracedRun(TR, Out);
    Out.metric("obs.trace_overhead_frac",
               T.Wall > 0 ? Traced.Wall / T.Wall - 1 : 0, "frac");
    Out.metric("queue_ms", median(T.Queue), "ms");
    double JobMs = 0;
    for (double L : T.Lat)
      JobMs += L;
    Out.metric("suite.shard_idle_frac",
               T.Wall > 0 ? 1 - JobMs / 1e3 / (Shards * T.Wall) : 0,
               "frac");
    Out.metric("suite.log_bytes_per_job",
               T.Jobs ? double(T.LogBytes) / T.Jobs : 0, "bytes");
  }

  Out.info("engines", [&] {
    Value V = Value::object();
    for (const auto &[Name, N] : Tiers)
      V.set(Name.empty() ? "none" : Name, Value::number(N));
    return V;
  }());
  Out.info("witnesses_replayed", Value::number(Oracle.witnessesChecked()));
  if (P.Gsl) {
    Out.info("table3", Gsl.toJson());
    std::ifstream F(O.Oracle);
    std::stringstream SS;
    SS << F.rdbuf();
    Expected<Value> Want = Value::parse(SS.str());
    if (!Want)
      Out.fail("cannot read the expected-answer file " + O.Oracle);
    else
      for (const std::string &E : Gsl.compare(*Want))
        Out.fail("table 3 shape: " + E);
  }
}
