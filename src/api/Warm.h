//===--- Warm.h - Warm execution state across runs -------------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resident-state half of service mode. Every Analyzer run resolves
/// into a WarmEntry: the resolved and verified module plus the task's
/// prepared state (instrumented clones, lowered bytecode, JIT code and
/// static pre-pass results, bundled inside the per-task analysis object).
/// A run without a cache takes a fresh, local entry and drops it at the
/// end; a run with a WarmCache attached takes the cache's entry for its
/// spec, so a warm request skips resolve -> verify -> instrument -> lower
/// -> compile -> pre-pass entirely and goes straight to the search.
///
/// Keys are content-addressed like everything else in the repo: the
/// canonical spec text with the *volatile* search knobs stripped (seed,
/// starts, max_evals, start box, wild-start probability, threads,
/// batch) — two requests that differ only in where/how long to search
/// share one warm entry, while anything construction-relevant (task,
/// module, function, task parameters, engine tier, prune mode,
/// backends) keys a distinct one. File-sourced modules additionally key
/// on the file *content* hash, so editing the file on disk naturally
/// misses the stale entry.
///
/// All five IR tasks warm: their prepared analysis objects are
/// re-runnable (each run re-enables every site and keeps its per-run
/// state — Algorithm 3's L, the covered set, findings — local), so a
/// warm run is bit-identical to a cold one. Only module-free fpsat has
/// nothing to keep.
///
/// Entries serialize concurrent same-key runs behind a per-entry mutex
/// (searches on *different* specs still run in parallel); the cache is
/// LRU-bounded, and an evicted entry stays alive until its in-flight
/// holder drops it.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_API_WARM_H
#define WDM_API_WARM_H

#include "gsl/GslCommon.h"
#include "ir/Module.h"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace wdm::api {

struct AnalysisSpec;

/// One run's resolved state: the module plus whatever the adapter's
/// prepare step parked (an analysis object owning instrumentation,
/// bytecode, JIT code, and the pre-pass plan). The holder locks Mu for
/// the whole task run.
struct WarmEntry {
  std::mutex Mu;
  bool Ready = false; ///< Module resolved and verified.
  std::unique_ptr<ir::Module> M; ///< Null for module-free tasks.
  ir::Function *F = nullptr;
  gsl::SfResultSlots Slots;
  /// The task's prepared state (set by the adapter's prepare step on the
  /// first run; cast back by the same adapter — the warm key pins the
  /// task kind).
  std::shared_ptr<void> State;
  uint64_t Runs = 0; ///< Completed task runs through this entry.
};

/// LRU-bounded map of warm entries. Thread-safe.
class WarmCache {
public:
  explicit WarmCache(size_t Capacity = 64) : Capacity(Capacity ? Capacity : 1) {}

  /// The warm key for \p Spec, or "" when the spec is not warmable
  /// (module-free fpsat, or an unreadable module file).
  static std::string keyFor(const AnalysisSpec &Spec);

  /// The entry for \p Key, minting (and LRU-evicting) as needed. The
  /// caller locks Entry->Mu before touching any other member.
  std::shared_ptr<WarmEntry> acquire(const std::string &Key);

  size_t size() const;

  struct Stats {
    uint64_t Hits = 0;   ///< acquire() of an existing entry.
    uint64_t Misses = 0; ///< Entries minted.
    uint64_t Evictions = 0;
  };
  Stats stats() const;

private:
  size_t Capacity;
  mutable std::mutex Mu;
  // Most recent at front.
  std::list<std::pair<std::string, std::shared_ptr<WarmEntry>>> Lru;
  std::unordered_map<
      std::string,
      std::list<std::pair<std::string, std::shared_ptr<WarmEntry>>>::iterator>
      Index;
  Stats St;
};

} // namespace wdm::api

#endif // WDM_API_WARM_H
