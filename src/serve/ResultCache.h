//===--- ResultCache.h - Content-addressed Report memoization --*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memoization half of src/serve/: Reports keyed by the canonical
/// spec hash, two levels deep —
///
///  - an in-memory LRU (bounded entry count) absorbing the repeat
///    traffic a resident daemon actually sees, and
///  - an on-disk store (`<dir>/<hh>/<hash>.json`, atomic tmp+rename
///    writes) that survives restarts, tolerant of corruption: an entry
///    that fails to read or parse is a miss, never a crash. Every entry
///    carries the build stamp of the binary that wrote it (its
///    support::buildInfoJson plus the executable's size and mtime), and an
///    entry from another build — or with no stamp — is a miss, so a
///    daemon restarted on a rebuilt binary never serves Reports the old
///    binary computed.
///
/// Keys reuse exactly the suite layer's content addressing:
/// `fnv1a64Hex` of the serialize-after-parse canonical spec text, with
/// the supervision `"limits"` block stripped first (PR 9's invariant:
/// job identity is supervision-independent). Identical specs that
/// differ only in formatting, member order, or defaults spelled out hit
/// the same entry.
///
/// Concurrent identical requests coalesce (single-flight): `acquire`
/// hands the first caller a leader lease while followers block until
/// the leader fulfills or fails; followers count as cache hits and the
/// search runs once.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_SERVE_RESULTCACHE_H
#define WDM_SERVE_RESULTCACHE_H

#include "support/Error.h"

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace wdm::serve {

/// Canonicalizes an AnalysisSpec JSON text: parse, strip the
/// supervision "limits" block, round-trip through AnalysisSpec (the
/// serialize-after-parse fixed point the suite layer addresses jobs
/// by). Errors are spec-usage errors (HTTP 400 / exit 2).
Expected<std::string> canonicalSpecText(const std::string &SpecJson);

/// fnv1a64Hex of canonicalSpecText.
Expected<std::string> specHash(const std::string &SpecJson);

/// Two-level content-addressed Report cache with single-flight.
class ResultCache {
public:
  struct Options {
    std::string Dir;            ///< On-disk store root ("" = memory-only).
    size_t MemoryCapacity = 256; ///< LRU entry bound.
  };

  struct Stats {
    uint64_t Hits = 0;       ///< Memory + disk hits (followers included).
    uint64_t Misses = 0;     ///< Leader leases handed out.
    uint64_t MemoryHits = 0;
    uint64_t DiskHits = 0;
    uint64_t Evictions = 0;  ///< LRU entries dropped from memory.
  };

  explicit ResultCache(Options O) : Opt(std::move(O)) {}

  /// The result of acquire(): either a hit (CachedJson non-empty) or a
  /// leader lease the caller must settle with fulfill()/abandon().
  struct Lease {
    bool Hit = false;
    std::string CachedJson; ///< The stored Report JSON text on a hit.
    std::string CachedHash; ///< Its deterministic-report hash.
  };

  /// Looks \p Hash up (memory, then disk). On a miss, the first caller
  /// becomes the leader (Hit == false) and MUST call fulfill or abandon;
  /// concurrent callers with the same hash block until the leader
  /// settles and then re-resolve (a fulfilled leader turns them into
  /// hits).
  Lease acquire(const std::string &Hash);

  /// Publishes \p ReportJson under \p Hash (memory + disk) and wakes
  /// followers. \p DetHash is the deterministic-view report hash, stored
  /// alongside so hits can answer without re-deriving it (the serve hot
  /// path splices the response from the stored text and this hash,
  /// parsing nothing).
  void fulfill(const std::string &Hash, const std::string &ReportJson,
               const std::string &DetHash);

  /// Releases the lease without publishing (the run failed); followers
  /// wake and the next acquire leads again.
  void abandon(const std::string &Hash);

  Stats stats() const;

  /// Entries currently resident in memory.
  size_t memorySize() const;

  const Options &options() const { return Opt; }

  /// On-disk store inspection: entry count and total bytes under
  /// \p Dir. Static so `wdm cache stats` needs no live daemon.
  static Status diskStats(const std::string &Dir, uint64_t &Entries,
                          uint64_t &Bytes);

  /// Removes every cache entry under \p Dir (only `<hh>/<hash>.json`
  /// shaped files; anything else is left alone). Returns the number
  /// removed via \p Removed.
  static Status diskClear(const std::string &Dir, uint64_t &Removed);

private:
  struct InFlight {
    std::condition_variable Cv;
    bool Settled = false;
    bool Fulfilled = false;
    unsigned Waiters = 0;
  };

  /// What a memory entry holds: the report text plus its precomputed
  /// deterministic-view hash.
  struct Stored {
    std::string Json;
    std::string DetHash;
  };

  void insertMemory(const std::string &Hash, Stored Entry);
  bool readDisk(const std::string &Hash, Stored &Out) const;
  void writeDisk(const std::string &Hash, const Stored &Entry) const;
  std::string diskPath(const std::string &Hash) const;

  Options Opt;
  mutable std::mutex Mu;
  // LRU: most recent at front; map values point into the list.
  std::list<std::pair<std::string, Stored>> Lru;
  std::unordered_map<std::string,
                     std::list<std::pair<std::string, Stored>>::iterator>
      Index;
  std::unordered_map<std::string, std::shared_ptr<InFlight>> Flights;
  Stats St;
};

} // namespace wdm::serve

#endif // WDM_SERVE_RESULTCACHE_H
