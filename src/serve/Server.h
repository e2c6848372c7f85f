//===--- Server.h - The wdm daemon -----------------------------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `wdm serve`: the weak-distance engine as a long-running service. A
/// hand-rolled, dependency-free HTTP/1.1 daemon over one poll-loop
/// accept/read thread plus a small worker pool, executing through the
/// existing Analyzer/JobScheduler layers with two kinds of resident
/// state:
///
///  - a two-level content-addressed Report cache (serve::ResultCache):
///    a repeat request from any client is a lookup, not a search, and
///    the on-disk level survives restarts;
///  - a warm execution cache (api::WarmCache): resolved/verified IR,
///    instrumented clones, lowered bytecode, JIT code, and pre-pass
///    results stay resident keyed by construction-relevant spec
///    content, so a warm request of any IR task skips resolve -> verify
///    -> instrument -> lower -> compile -> pre-pass.
///
/// Endpoints:
///
///   POST /v1/run          sync AnalysisSpec -> envelope with Report
///   POST /v1/suite        async SuiteSpec -> job id (202)
///   GET  /v1/jobs/<id>    job status (+ SuiteReport when finished)
///   GET  /v1/jobs/<id>/events   the job's NDJSON event stream so far
///   GET  /metrics         Prometheus text over the obs registry
///   GET  /healthz         liveness
///   GET  /version         build provenance
///
/// Bounded on every axis: connection cap (503 beyond it), header/body
/// size limits (431/413), one request per connection. SIGINT/SIGTERM
/// (via serveForever) or requestStop() drain gracefully: stop
/// accepting, finish queued and in-flight requests, stop in-flight
/// suites through the scheduler's StopFlag seam (their logs stay valid
/// resume checkpoints), then return.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_SERVE_SERVER_H
#define WDM_SERVE_SERVER_H

#include "api/Warm.h"
#include "serve/Http.h"
#include "serve/ResultCache.h"
#include "support/Error.h"
#include "support/Json.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace wdm::serve {

struct ServerOptions {
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;        ///< 0 = ephemeral; see Server::port().
  unsigned Threads = 0;     ///< Request workers; 0 = min(4, hw threads).
  unsigned MaxConnections = 64; ///< Accepted-but-unfinished cap (503 over).
  HttpParser::Limits Limits;    ///< Header/body size caps.
  std::string CacheDir;     ///< Result-cache disk level ("" = memory only).
  size_t CacheCapacity = 256;   ///< Result-cache memory entries.
  size_t WarmCapacity = 64;     ///< Warm-entry LRU bound.
  std::string StateDir;     ///< Suite job logs; "" = CacheDir or ".wdm-serve".
  unsigned SuiteShards = 0; ///< Shards for async suites; 0 = hardware.
};

class Server {
public:
  explicit Server(ServerOptions O);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds, listens, and spawns the poll loop + workers. After success,
  /// port() is the bound port.
  Status start();

  /// The bound TCP port (resolves Port == 0).
  uint16_t port() const { return BoundPort; }

  /// Asks the daemon to drain: stop accepting, finish in-flight
  /// requests, interrupt in-flight suites. Safe from any thread and
  /// from a signal handler's perspective via a flag the poll loop
  /// polls. Idempotent.
  void requestStop();

  /// Blocks until requestStop() (or a failure) fully drains the daemon.
  void wait();

  /// start() + install SIGINT/SIGTERM-to-requestStop handlers + wait().
  /// Returns non-ok on startup failure. The CLI entry point. \p OnReady
  /// (when set) runs once the socket is bound, with the resolved port —
  /// the CLI prints its "listening on" line there so scripts can parse
  /// the ephemeral port before the call blocks.
  Status serveForever(const std::function<void(uint16_t)> &OnReady = {});

  ResultCache &cache() { return Cache; }
  api::WarmCache &warm() { return WarmC; }

  /// Handles one already-parsed request synchronously (no sockets) —
  /// the unit-test seam. Returns the serialized HTTP response.
  std::string handle(const HttpRequest &Req);

private:
  struct Conn {
    int Fd = -1;
    HttpParser Parser;
    Conn(int Fd, HttpParser::Limits L) : Fd(Fd), Parser(L) {}
  };

  struct SuiteRun {
    std::string Id;
    std::string EventLog;
    std::thread T;
    std::atomic<int> State{0}; ///< 0 running, 1 done, 2 failed.
    std::string Error;         ///< Set when State == 2.
    json::Value ReportJson;    ///< Set when State == 1.
    int ExitCode = 0;
  };

  void pollLoop();
  void workerLoop();
  void dispatch(int Fd, HttpRequest Req);
  void writeAndClose(int Fd, const std::string &Response);

  std::string handleRun(const HttpRequest &Req, int &Status);
  std::string handleSuite(const HttpRequest &Req, int &Status);
  std::string handleJob(const std::string &Path, int &Status,
                        std::string &ContentType);
  std::string jobsDir() const;

  ServerOptions Opt;
  ResultCache Cache;
  api::WarmCache WarmC;

  // Raw request body -> canonical spec hash memo. Canonicalization is a
  // pure function of the bytes, so identical repeat bodies (the traffic
  // a resident daemon actually sees) skip the spec parse + round-trip
  // on the hot path. Bounded by wholesale clear; only valid specs are
  // remembered.
  std::mutex SpecMemoMu;
  std::unordered_map<std::string, std::string> SpecMemo;

  int ListenFd = -1;
  int WakePipe[2] = {-1, -1};
  uint16_t BoundPort = 0;

  std::thread Poller;
  std::vector<std::thread> Workers;

  std::mutex QueueMu;
  std::condition_variable QueueCv;
  std::deque<std::pair<int, HttpRequest>> Queue;

  std::atomic<bool> Stop{false};      ///< Drain requested.
  std::atomic<bool> SuiteStop{false}; ///< Scheduler StopFlag seam.
  std::atomic<bool> Draining{false};
  std::atomic<unsigned> InFlight{0};

  std::mutex JobsMu;
  std::map<std::string, std::shared_ptr<SuiteRun>> Jobs;
  uint64_t JobSeq = 0;

  std::mutex DoneMu;
  std::condition_variable DoneCv;
  bool Done = false;
};

} // namespace wdm::serve

#endif // WDM_SERVE_SERVER_H
