//===--- Warm.cpp - Warm execution state across runs ----------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "api/Warm.h"

#include "api/AnalysisSpec.h"
#include "support/Hash.h"

#include <fstream>
#include <sstream>

using namespace wdm;
using namespace wdm::api;

std::string WarmCache::keyFor(const AnalysisSpec &Spec) {
  if (Spec.Module.K == ModuleSource::Kind::None)
    return "";

  json::Value Doc = Spec.toJson();
  if (const json::Value *S = Doc.find("search")) {
    // Volatile knobs: where and how long to search, not what to build.
    json::Value Stable = *S;
    for (const char *Key : {"max_evals", "starts", "seed", "start_lo",
                            "start_hi", "wild_start_prob", "threads", "batch"})
      Stable.remove(Key);
    Doc.set("search", std::move(Stable));
  }
  std::string Key = Doc.dump();

  // File-sourced modules key on content, so an edited file misses the
  // stale entry instead of serving yesterday's IR.
  if (Spec.Module.K == ModuleSource::Kind::File) {
    std::ifstream In(Spec.Module.Text, std::ios::binary);
    if (!In)
      return ""; // Unreadable: run cold and let resolution report it.
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Key += "#module=" + fnv1a64Hex(Buf.str());
  }
  return fnv1a64Hex(Key);
}

std::shared_ptr<WarmEntry> WarmCache::acquire(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(Key);
  if (It != Index.end()) {
    Lru.splice(Lru.begin(), Lru, It->second);
    ++St.Hits;
    return It->second->second;
  }
  auto Entry = std::make_shared<WarmEntry>();
  Lru.emplace_front(Key, Entry);
  Index[Key] = Lru.begin();
  ++St.Misses;
  while (Lru.size() > Capacity) {
    Index.erase(Lru.back().first);
    Lru.pop_back(); // In-flight holders keep the shared_ptr alive.
    ++St.Evictions;
  }
  return Entry;
}

size_t WarmCache::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Lru.size();
}

WarmCache::Stats WarmCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return St;
}
