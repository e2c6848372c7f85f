//===--- ServeMix.cpp - serve_mix: open-loop traffic against wdm serve ----===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
//
// One single-threaded generator drives a Poisson schedule over at most
// maxConns() loopback connections (the daemon closes each connection after
// its response). Every request is timed from its due time, so a stall
// shows up in the latency of the requests queued behind it; how late
// the generator ran is reported separately.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Layers.h"
#include "Oracle.h"
#include "Workloads.h"

#include "api/Report.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "serve/Client.h"
#include "serve/Server.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace wdmbench;
using namespace wdm;
using wdm::json::Value;

namespace {

constexpr unsigned Workers = 2;         ///< Daemon request workers.
constexpr double ReferenceRate = 400;   ///< req/s of the latency phase.
constexpr double LadderStepS = 1.5;     ///< Seconds per ladder rate.
constexpr double LatencyLimitMs = 40; ///< Tail limit of the rate ladder.

struct Outcome {
  double Due = 0, Sent = 0, Done = 0;
  int Status = 0;
  std::string Body;
};

struct Conn {
  int Fd = -1;
  size_t Req = 0;
  std::string Out;
  size_t Written = 0;
  std::string In;
};

int connectLoopback(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return -1;
  sockaddr_in A{};
  A.sin_family = AF_INET;
  A.sin_port = htons(Port);
  A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) != 0 &&
      errno != EINPROGRESS) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

void finishResponse(Outcome &O, const std::string &Raw) {
  // "HTTP/1.1 200 OK\r\n...\r\n\r\n<body>"
  if (Raw.size() > 12 && Raw.compare(0, 5, "HTTP/") == 0)
    O.Status = std::atoi(Raw.c_str() + 9);
  size_t Split = Raw.find("\r\n\r\n");
  if (Split != std::string::npos)
    O.Body = Raw.substr(Split + 4);
}

/// Generator connections: up to four, never more than hardware threads.
unsigned maxConns() {
  return std::clamp(std::thread::hardware_concurrency(), 2u, 4u);
}

/// Runs \p Reqs open-loop against 127.0.0.1:\p Port.
std::vector<Outcome> openLoop(uint16_t Port, const std::vector<Request> &Reqs) {
  const unsigned MaxConns = maxConns();
  std::vector<Outcome> Res(Reqs.size());
  std::vector<Conn> Active;
  const double T0 = nowS();
  size_t Next = 0;
  auto Fail = [&](Conn &C) {
    Res[C.Req].Done = nowS() - T0;
    Res[C.Req].Status = 0;
    ::close(C.Fd);
    C.Fd = -1;
  };
  while (Next < Reqs.size() || !Active.empty()) {
    double Now = nowS() - T0;
    while (Next < Reqs.size() && Reqs[Next].Due <= Now &&
           Active.size() < MaxConns) {
      Conn C;
      C.Req = Next;
      Res[Next].Due = Reqs[Next].Due;
      Res[Next].Sent = Now;
      C.Fd = connectLoopback(Port);
      const std::string &B = Reqs[Next].Body;
      C.Out = "POST /v1/run HTTP/1.1\r\nHost: 127.0.0.1\r\n"
              "Content-Type: application/json\r\nContent-Length: " +
              std::to_string(B.size()) + "\r\nConnection: close\r\n\r\n" + B;
      ++Next;
      if (C.Fd < 0) {
        Res[C.Req].Done = Now;
        continue;
      }
      Active.push_back(std::move(C));
    }
    std::vector<pollfd> Fds;
    for (const Conn &C : Active)
      Fds.push_back({C.Fd,
                     static_cast<short>(C.Written < C.Out.size() ? POLLOUT
                                                                 : POLLIN),
                     0});
    int TimeoutMs = 50;
    if (Next < Reqs.size() && Active.size() < MaxConns)
      TimeoutMs = std::clamp(
          static_cast<int>((Reqs[Next].Due - Now) * 1000.0), 0, 50);
    ::poll(Fds.data(), Fds.size(), TimeoutMs);
    for (size_t I = 0; I < Fds.size(); ++I) {
      Conn &C = Active[I];
      if (!Fds[I].revents)
        continue;
      if (C.Written < C.Out.size()) {
        ssize_t N = ::send(C.Fd, C.Out.data() + C.Written,
                           C.Out.size() - C.Written, MSG_NOSIGNAL);
        if (N > 0)
          C.Written += static_cast<size_t>(N);
        else if (N < 0 && errno != EAGAIN && errno != EINTR)
          Fail(C);
        continue;
      }
      char Buf[65536];
      ssize_t N = ::recv(C.Fd, Buf, sizeof(Buf), 0);
      if (N > 0) {
        C.In.append(Buf, static_cast<size_t>(N));
      } else if (N == 0) {
        Res[C.Req].Done = nowS() - T0;
        finishResponse(Res[C.Req], C.In);
        ::close(C.Fd);
        C.Fd = -1;
      } else if (errno != EAGAIN && errno != EINTR) {
        Fail(C);
      }
    }
    // A request open for 30 s counts as failed.
    double Late = nowS() - T0 - 30;
    for (Conn &C : Active)
      if (C.Fd >= 0 && Res[C.Req].Sent < Late)
        Fail(C);
    Active.erase(std::remove_if(Active.begin(), Active.end(),
                                [](const Conn &C) { return C.Fd < 0; }),
                 Active.end());
  }
  return Res;
}

/// A `wdm serve` child on an ephemeral loopback port.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() { stop(); }

  /// Spawns and waits for /healthz; returns spawn-to-healthy seconds
  /// (negative on failure).
  double start(const std::string &Exe, const std::string &Dir) {
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir);
    double T0 = nowS();
    int Pipe[2];
    if (::pipe2(Pipe, O_CLOEXEC) != 0)
      return -1;
    Pid = ::fork();
    if (Pid == 0) {
      ::dup2(Pipe[1], STDOUT_FILENO);
      std::string Cache = "--cache-dir=" + Dir + "/cache";
      std::string State = "--state-dir=" + Dir + "/state";
      std::string Threads = "--threads=" + std::to_string(Workers);
      ::execl(Exe.c_str(), Exe.c_str(), "serve", "--port=0",
              Threads.c_str(), Cache.c_str(), State.c_str(),
              static_cast<char *>(nullptr));
      ::_exit(127);
    }
    ::close(Pipe[1]);
    if (Pid < 0) {
      ::close(Pipe[0]);
      return -1;
    }
    // "listening on 127.0.0.1:<port>\n"
    std::string Line;
    char Ch;
    while (::read(Pipe[0], &Ch, 1) == 1 && Ch != '\n')
      Line.push_back(Ch);
    ::close(Pipe[0]);
    size_t Colon = Line.rfind(':');
    if (Line.rfind("listening on ", 0) != 0 || Colon == std::string::npos)
      return -1;
    Port = static_cast<uint16_t>(std::atoi(Line.c_str() + Colon + 1));
    for (int Try = 0; Try < 2000; ++Try) {
      Expected<serve::HttpResponse> R = serve::httpRequest(
          "127.0.0.1", Port, "GET", "/healthz", "", "application/json", 5);
      if (R && R->Status == 200)
        return nowS() - T0;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return -1;
  }

  uint16_t port() const { return Port; }
  pid_t pid() const { return Pid; }

  /// SIGTERM (graceful drain), SIGKILL after 10 s; always reaps.
  void stop() {
    if (Pid <= 0)
      return;
    ::kill(Pid, SIGTERM);
    for (int I = 0; I < 1000; ++I) {
      if (::waitpid(Pid, nullptr, WNOHANG) == Pid) {
        Pid = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, nullptr, 0);
    Pid = -1;
  }

private:
  pid_t Pid = -1;
  uint16_t Port = 0;
};

/// Primes the result cache with the hit pool (untimed, sequential).
bool prime(uint16_t Port, const std::vector<std::string> &Pool,
           std::map<std::string, std::string> &Primed, Result &Out) {
  for (const std::string &B : Pool) {
    Expected<serve::HttpResponse> R =
        serve::httpRequest("127.0.0.1", Port, "POST", "/v1/run", B);
    if (!R || R->Status != 200) {
      Out.fail("priming request failed");
      return false;
    }
    Expected<Value> Doc = Value::parse(R->Body);
    if (Doc && Doc->find("report"))
      Primed[B] = api::deterministicReportJson(*Doc->find("report")).dump();
  }
  return true;
}

struct ClassStats {
  std::vector<double> LatMs;
};

struct PhaseStats {
  ClassStats Class[3];
  std::vector<double> AllMs;
  std::vector<double> LateMs; ///< Generator lateness (sent - due).
  uint64_t Ok = 0, Bad = 0, Findings = 0, Evals = 0, Bytes = 0;
  double TailMs() const { return percentile(AllMs, 95); }
};

/// Status/parse/cache checks of a phase; witness replay and interpreter
/// comparison on every \p CompareEvery-th warm/cold report.
PhaseStats account(const std::vector<Request> &Reqs,
                   const std::vector<Outcome> &Res,
                   const std::map<std::string, std::string> &Primed,
                   WitnessOracle &Oracle, unsigned CompareEvery,
                   Result &Out) {
  PhaseStats P;
  unsigned Fresh = 0;
  for (size_t I = 0; I < Reqs.size(); ++I) {
    const Outcome &O = Res[I];
    Out.attempted(1);
    P.Bytes += O.Body.size();
    double LatMs = (O.Done - O.Due) * 1e3;
    P.AllMs.push_back(LatMs);
    P.LateMs.push_back((O.Sent - O.Due) * 1e3);
    P.Class[static_cast<int>(Reqs[I].Class)].LatMs.push_back(LatMs);
    auto Bad = [&](const std::string &Why) {
      ++P.Bad;
      Out.fail(std::string(className(Reqs[I].Class)) + " request: " + Why);
    };
    if (O.Status != 200) {
      Bad("HTTP status " + std::to_string(O.Status));
      continue;
    }
    Expected<Value> Doc = Value::parse(O.Body);
    const Value *RepJson = Doc ? Doc->find("report") : nullptr;
    Expected<api::Report> Rep =
        RepJson ? api::Report::fromJson(*RepJson)
                : Expected<api::Report>::error("no report in response");
    if (!Rep) {
      Bad(Rep.error());
      continue;
    }
    P.Findings += Rep->Findings.size();
    P.Evals += Rep->Evals;
    if (Reqs[I].Class == ReqClass::Hit) {
      auto It = Primed.find(Reqs[I].Body);
      const Value *Cached = Doc->find("cached");
      if (!Cached || !Cached->asBool())
        Bad("a primed spec was not served from the result cache");
      else if (It == Primed.end() ||
               api::deterministicReportJson(*RepJson).dump() != It->second)
        Bad("cached report differs from the primed one");
      else
        ++P.Ok;
      continue;
    }
    Expected<api::AnalysisSpec> Spec = api::AnalysisSpec::parse(Reqs[I].Body);
    if (!Spec) {
      Bad(Spec.error());
      continue;
    }
    std::vector<std::string> Errs = Oracle.check(*Spec, *Rep);
    if (CompareEvery && Fresh++ % CompareEvery == 0)
      if (std::string D = compareWithInterpreter(*Spec, *RepJson); !D.empty())
        Errs.push_back(D);
    if (Errs.empty())
      ++P.Ok;
    else
      Bad(Errs.front());
  }
  return P;
}

void classMetrics(const PhaseStats &P, Value &Info) {
  for (int C = 0; C < 3; ++C) {
    const std::vector<double> &L = P.Class[C].LatMs;
    double Tail = tailPercentileFor(L.size());
    std::string N = className(static_cast<ReqClass>(C));
    Info.set(N + "_p50_ms", Value::object()
                                .set("value", Value::number(median(L)))
                                .set("unit", Value::string("ms")));
    Info.set(N + "_tail_ms", Value::object()
                                 .set("value", Value::number(percentile(L, Tail)))
                                 .set("unit", Value::string("ms"))
                                 .set("percentile", Value::number(Tail))
                                 .set("samples", Value::number(
                                                     static_cast<uint64_t>(
                                                         L.size()))));
  }
}

/// The rate ladder: fixed rates 1.3x apart until the p95 latency breaks
/// the limit or the generator falls behind (a growing backlog). The
/// highest sustainable rate is interpolated on the tail between the last
/// passing and the first failing step.
double maxRate(uint16_t Port, ServeInputs &Gen,
               const std::map<std::string, std::string> &Primed,
               WitnessOracle &Oracle, Value &Ladder, Result &Out) {
  double PrevRate = 0, PrevTail = 0;
  for (double Rate = ReferenceRate * 1.5; Rate < 20000; Rate *= 1.3) {
    std::vector<Request> Reqs = Gen.schedule(Rate, LadderStepS);
    std::vector<Outcome> Res = openLoop(Port, Reqs);
    PhaseStats P = account(Reqs, Res, Primed, Oracle, 0, Out);
    double Tail = P.TailMs();
    // Backlog: the last tenth of the step ran much later than the first.
    size_t Tenth = std::max<size_t>(1, P.LateMs.size() / 10);
    std::vector<double> Head(P.LateMs.begin(), P.LateMs.begin() + Tenth);
    std::vector<double> Last(P.LateMs.end() - Tenth, P.LateMs.end());
    bool Backlog = median(Last) > median(Head) + LatencyLimitMs;
    Ladder.push(Value::object()
                    .set("rate", Value::number(Rate))
                    .set("p95_ms", Value::number(Tail))
                    .set("backlog", Value::boolean(Backlog)));
    if (Tail > LatencyLimitMs || Backlog) {
      if (PrevRate == 0)
        return Rate * LatencyLimitMs / std::max(Tail, LatencyLimitMs);
      double F = (LatencyLimitMs - PrevTail) / std::max(Tail - PrevTail, 1e-9);
      return PrevRate + (Rate - PrevRate) * std::clamp(F, 0.0, 1.0);
    }
    PrevRate = Rate;
    PrevTail = Tail;
  }
  return PrevRate;
}

std::string jobsSuite(const std::vector<std::string> &Specs) {
  Value Jobs = Value::array();
  for (const std::string &S : Specs)
    if (Expected<Value> V = Value::parse(S))
      Jobs.push(V.take());
  return Value::object()
      .set("suite", Value::string("serve_mix_sample"))
      .set("jobs", std::move(Jobs))
      .dump();
}

} // namespace

void wdmbench::runServeMix(const Options &O, Result &Out) {
  ServeInputs Gen(O.Seed);
  WitnessOracle Oracle;
  std::map<std::string, std::string> Primed;

  if (O.Trace) {
    std::vector<std::string> Sample;
    std::string Trajectory;
    for (int K = 0; K < 4; ++K)
      Sample.push_back(Gen.hitPool()[K * 37]);
    for (int K = 0; K < 4; ++K)
      Sample.push_back(Gen.make(ReqClass::Warm));
    while (Trajectory.empty() || Sample.size() < 12) {
      std::string C = Gen.make(ReqClass::Cold);
      if (Trajectory.empty() && C.find("\"ir\"") != std::string::npos)
        Trajectory = C;
      if (Sample.size() < 12)
        Sample.push_back(C);
    }
    LayerInputs In;
    In.Specs = Sample;
    In.TrajectorySpec = Trajectory;
    In.SuiteText = jobsSuite(Sample);
    In.WorkDir = O.WorkDir;
    In.Seed = O.Seed;
    runLayerProbes(In, Out);

    // The reference stream against an in-process server, untraced and
    // then traced (fresh server and cache each time, same requests).
    std::vector<Request> Reqs = Gen.schedule(ReferenceRate, O.Seconds / 3);
    std::vector<Outcome> Runs[2];
    PhaseStats Stats[2];
    TracedRun TR;
    serve::ResultCache::Stats CS;
    api::WarmCache::Stats WS;
    for (int Traced = 0; Traced < 2; ++Traced) {
      serve::ServerOptions SO;
      SO.Threads = Workers;
      SO.CacheDir = O.WorkDir + "/inproc/cache";
      SO.StateDir = O.WorkDir + "/inproc/state";
      std::filesystem::remove_all(O.WorkDir + "/inproc");
      std::filesystem::create_directories(O.WorkDir + "/inproc");
      serve::Server S(SO);
      if (Status St = S.start(); !St.ok()) {
        Out.fail("in-process server: " + St.message());
        return;
      }
      Primed.clear();
      prime(S.port(), Gen.hitPool(), Primed, Out);
      Value Before = obs::snapshotJson();
      if (Traced)
        obs::startTrace();
      Runs[Traced] = openLoop(S.port(), Reqs);
      if (Traced) {
        obs::stopTrace();
        TR.Trace = obs::traceJson();
        obs::clearTrace();
        TR.CounterDelta = obs::deltaJson(Before, obs::snapshotJson());
      }
      S.requestStop();
      S.wait();
      CS = S.cache().stats();
      WS = S.warm().stats();
      Stats[Traced] = account(Reqs, Runs[Traced], Primed, Oracle, 0, Out);
    }
    obs::setEnabled(false);
    double Mean[2] = {0, 0};
    for (int K = 0; K < 2; ++K) {
      for (double L : Stats[K].AllMs)
        Mean[K] += L;
      Mean[K] /= std::max<size_t>(1, Stats[K].AllMs.size());
    }
    for (const Outcome &R : Runs[1])
      TR.OperationMs += (R.Done - R.Sent) * 1e3;
    TR.Jobs = Reqs.size();
    TR.Findings = Stats[1].Findings;
    TR.Evals = Stats[1].Evals;
    TR.EvalNs = Out.value("exec.eval_ns.vm");
    TR.VerifyUs = Oracle.replayUs();
    reportTracedRun(TR, Out);
    Out.metric("obs.trace_overhead_frac", Mean[0] > 0 ? Mean[1] / Mean[0] - 1 : 0,
               "frac");
    Out.metric("queue_ms", median(Stats[0].LateMs), "ms");
    // Cache and warm ratios of the stream itself (primed pool included).
    Out.metric("serve.cache_hit_ratio",
               CS.Hits + CS.Misses ? double(CS.Hits) / (CS.Hits + CS.Misses)
                                   : 0,
               "frac");
    Out.metric("serve.disk_hit_frac",
               CS.Hits ? double(CS.DiskHits) / CS.Hits : 0, "frac");
    Out.metric("api.warm_hit_ratio",
               WS.Hits + WS.Misses ? double(WS.Hits) / (WS.Hits + WS.Misses)
                                   : 0,
               "frac");
    SpanSummary Spans = summarizeSpans(TR.Trace);
    double Wall = Reqs.empty() ? 1 : Runs[1].back().Done;
    double Busy = Spans.TotalMs.count("request") ? Spans.TotalMs["request"] : 0;
    Out.metric("suite.shard_idle_frac", 1 - Busy / 1e3 / (Workers * Wall),
               "frac");
    Out.metric("suite.log_bytes_per_job",
               Reqs.empty() ? 0 : double(Stats[0].Bytes) / Reqs.size(),
               "bytes");
    Out.info("witnesses_replayed", Value::number(Oracle.witnessesChecked()));
    return;
  }

  // -- Untraced: set-up samples, then the reference rate, then the ladder.
  std::vector<double> Setup;
  for (int K = 0; K < 4; ++K) {
    Daemon D;
    double S = D.start(O.WdmExe, O.WorkDir + "/setup");
    if (S < 0) {
      Out.fail("wdm serve did not become healthy");
      return;
    }
    Setup.push_back(S);
  }
  Daemon D;
  double S = D.start(O.WdmExe, O.WorkDir + "/daemon");
  if (S < 0) {
    Out.fail("wdm serve did not become healthy");
    return;
  }
  Setup.push_back(S);
  if (!prime(D.port(), Gen.hitPool(), Primed, Out))
    return;

  // Warm-up at the reference rate (untimed): warm entries and page cache.
  {
    std::vector<Request> Reqs = Gen.schedule(ReferenceRate, 1.0);
    account(Reqs, openLoop(D.port(), Reqs), Primed, Oracle, 0, Out);
  }
  const double RefS = O.Seconds / 2;
  std::vector<Request> Reqs = Gen.schedule(ReferenceRate, RefS);
  std::vector<Outcome> Res = openLoop(D.port(), Reqs);
  Value Ladder = Value::array();
  double Max = maxRate(D.port(), Gen, Primed, Oracle, Ladder, Out);
  double Rss = peakRssMb(D.pid());
  D.stop();
  PhaseStats P = account(Reqs, Res, Primed, Oracle, 8, Out);


  double Tail = tailPercentileFor(P.AllMs.size());
  Out.metric("setup_s", median(Setup), "s");
  Out.metric("jobs_per_s", Max, "1/s");
  Out.metric("verdict_p50_ms", median(P.AllMs), "ms");
  Out.metric("verdict_tail_ms", percentile(P.AllMs, Tail), "ms");
  Out.metric("peak_rss_mb", Rss, "MB");
  Value Classes = Value::object();
  classMetrics(P, Classes);
  Classes.set("max_rate_rps", Value::object()
                                  .set("value", Value::number(Max))
                                  .set("unit", Value::string("1/s")));
  Out.info("serve_mix", std::move(Classes));
  Out.info("verdict_tail_percentile", Value::number(Tail));
  Out.info("reference_rate_rps", Value::number(ReferenceRate));
  Out.info("generator_late_p50_ms", Value::number(median(P.LateMs)));
  Out.info("ladder", std::move(Ladder));
  Out.info("witnesses_replayed", Value::number(Oracle.witnessesChecked()));
}
