//===--- ResultCache.cpp - Content-addressed Report memoization -----------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "serve/ResultCache.h"

#include "api/AnalysisSpec.h"
#include "support/BuildInfo.h"
#include "support/Hash.h"
#include "support/Json.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <dirent.h>

using namespace wdm;
using namespace wdm::serve;

Expected<std::string> serve::canonicalSpecText(const std::string &SpecJson) {
  Expected<json::Value> Doc = json::Value::parse(SpecJson);
  if (!Doc)
    return Expected<std::string>::error("spec is not valid JSON: " +
                                        Doc.error());
  if (!Doc->isObject())
    return Expected<std::string>::error("spec must be a JSON object");
  // PR 9 invariant: the supervision "limits" block is not part of a
  // job's identity — strip it before canonicalization.
  Doc->remove("limits");
  Expected<api::AnalysisSpec> Spec = api::AnalysisSpec::fromJson(*Doc);
  if (!Spec)
    return Expected<std::string>::error(Spec.error());
  return Spec->toJson().dump();
}

Expected<std::string> serve::specHash(const std::string &SpecJson) {
  Expected<std::string> Canon = canonicalSpecText(SpecJson);
  if (!Canon)
    return Canon;
  return fnv1a64Hex(*Canon);
}

//===----------------------------------------------------------------------===//
// Memory level
//===----------------------------------------------------------------------===//

void ResultCache::insertMemory(const std::string &Hash, Stored Entry) {
  auto It = Index.find(Hash);
  if (It != Index.end()) {
    It->second->second = std::move(Entry);
    Lru.splice(Lru.begin(), Lru, It->second);
    return;
  }
  Lru.emplace_front(Hash, std::move(Entry));
  Index[Hash] = Lru.begin();
  while (Lru.size() > Opt.MemoryCapacity && !Lru.empty()) {
    Index.erase(Lru.back().first);
    Lru.pop_back();
    ++St.Evictions;
  }
}

//===----------------------------------------------------------------------===//
// Disk level
//===----------------------------------------------------------------------===//

namespace {

/// This binary's build stamp as stored in disk entries: the build info
/// plus the running executable's size and modification time. The build
/// info alone is fixed at configure time, so it cannot tell a rebuild
/// without a reconfigure, or two uncommitted trees on one commit, apart;
/// a relinked executable can. (A stat, not a content hash, so it costs
/// nothing at start-up.)
const json::Value &buildStamp() {
  static const json::Value Stamp = [] {
    json::Value S = support::buildInfoJson();
    struct stat Exe;
    if (::stat("/proc/self/exe", &Exe) == 0)
      S.set("binary",
            json::Value::string(std::to_string(Exe.st_size) + "@" +
                                std::to_string(Exe.st_mtim.tv_sec) + "." +
                                std::to_string(Exe.st_mtim.tv_nsec)));
    return S;
  }();
  return Stamp;
}

} // namespace

std::string ResultCache::diskPath(const std::string &Hash) const {
  return Opt.Dir + "/" + Hash.substr(0, 2) + "/" + Hash + ".json";
}

bool ResultCache::readDisk(const std::string &Hash, Stored &Out) const {
  if (Opt.Dir.empty())
    return false;
  std::ifstream In(diskPath(Hash), std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Ss;
  Ss << In.rdbuf();
  std::string Text = Ss.str();
  // Corruption tolerance: a torn or garbled entry is a miss, not a
  // crash — it must parse as a JSON object to count. So is an entry
  // another build wrote (or one with no stamp): its Report may differ.
  Expected<json::Value> Doc = json::Value::parse(Text);
  if (!Doc || !Doc->isObject())
    return false;
  const json::Value *B = Doc->find("build");
  const json::Value *H = Doc->find("report_hash");
  const json::Value *T = Doc->find("report_text");
  if (!B || B->dump() != buildStamp().dump() || !H || !H->isString() || !T ||
      !T->isString())
    return false;
  Out.Json = T->asString();
  Out.DetHash = H->asString();
  return true;
}

void ResultCache::writeDisk(const std::string &Hash,
                            const Stored &Entry) const {
  if (Opt.Dir.empty())
    return;
  ::mkdir(Opt.Dir.c_str(), 0755);
  std::string Shard = Opt.Dir + "/" + Hash.substr(0, 2);
  ::mkdir(Shard.c_str(), 0755);
  // Atomic publish: write a pid-suffixed temp file, then rename into
  // place, so readers never observe a torn entry.
  std::string Tmp =
      Shard + "/." + Hash + ".tmp." + std::to_string((long)::getpid());
  // The raw report text is wrapped as a string, so it restores
  // byte-identically.
  std::string Payload =
      json::Value::object()
          .set("build", buildStamp())
          .set("report_hash", json::Value::string(Entry.DetHash))
          .set("report_text", json::Value::string(Entry.Json))
          .dump();
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return;
    Out << Payload;
    if (!Out.good())
      return;
  }
  if (::rename(Tmp.c_str(), diskPath(Hash).c_str()) != 0)
    ::unlink(Tmp.c_str());
}

//===----------------------------------------------------------------------===//
// Single-flight acquire / fulfill / abandon
//===----------------------------------------------------------------------===//

ResultCache::Lease ResultCache::acquire(const std::string &Hash) {
  std::unique_lock<std::mutex> Lock(Mu);
  while (true) {
    auto It = Index.find(Hash);
    if (It != Index.end()) {
      Lru.splice(Lru.begin(), Lru, It->second);
      ++St.Hits;
      ++St.MemoryHits;
      return Lease{true, It->second->second.Json, It->second->second.DetHash};
    }

    auto FlightIt = Flights.find(Hash);
    if (FlightIt == Flights.end()) {
      // No leader yet; try disk before claiming the lease.
      Stored FromDisk;
      Lock.unlock();
      bool OnDisk = readDisk(Hash, FromDisk);
      Lock.lock();
      if (OnDisk) {
        Lease L{true, FromDisk.Json, FromDisk.DetHash};
        insertMemory(Hash, std::move(FromDisk));
        ++St.Hits;
        ++St.DiskHits;
        return L;
      }
      // Re-check: another thread may have led and settled while the
      // lock was dropped for the disk probe.
      if (Index.count(Hash) || Flights.count(Hash))
        continue;
      Flights[Hash] = std::make_shared<InFlight>();
      ++St.Misses;
      return Lease{false, "", ""};
    }

    // Follow the in-flight leader.
    std::shared_ptr<InFlight> F = FlightIt->second;
    ++F->Waiters;
    F->Cv.wait(Lock, [&] { return F->Settled; });
    --F->Waiters;
    if (F->Fulfilled) {
      auto Hit = Index.find(Hash);
      if (Hit != Index.end()) {
        Lru.splice(Lru.begin(), Lru, Hit->second);
        ++St.Hits;
        ++St.MemoryHits;
        return Lease{true, Hit->second->second.Json,
                     Hit->second->second.DetHash};
      }
    }
    // Leader abandoned (or the entry was evicted immediately): loop and
    // contend for leadership again.
  }
}

void ResultCache::fulfill(const std::string &Hash,
                          const std::string &ReportJson,
                          const std::string &DetHash) {
  Stored Entry{ReportJson, DetHash};
  writeDisk(Hash, Entry);
  std::lock_guard<std::mutex> Lock(Mu);
  insertMemory(Hash, std::move(Entry));
  auto It = Flights.find(Hash);
  if (It != Flights.end()) {
    It->second->Settled = true;
    It->second->Fulfilled = true;
    It->second->Cv.notify_all();
    Flights.erase(It);
  }
}

void ResultCache::abandon(const std::string &Hash) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Flights.find(Hash);
  if (It != Flights.end()) {
    It->second->Settled = true;
    It->second->Cv.notify_all();
    Flights.erase(It);
  }
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return St;
}

size_t ResultCache::memorySize() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Lru.size();
}

//===----------------------------------------------------------------------===//
// Static on-disk inspection (for `wdm cache`)
//===----------------------------------------------------------------------===//

namespace {

bool isHexName(const std::string &Name) {
  // "<16 hex>.json"
  if (Name.size() != 16 + 5 || Name.substr(16) != ".json")
    return false;
  for (size_t I = 0; I < 16; ++I)
    if (!std::isxdigit((unsigned char)Name[I]))
      return false;
  return true;
}

template <typename Fn> Status forEachEntry(const std::string &Dir, Fn Visit) {
  DIR *Top = ::opendir(Dir.c_str());
  if (!Top)
    return Status::error("cannot open cache dir: " + Dir);
  while (dirent *Shard = ::readdir(Top)) {
    std::string SName = Shard->d_name;
    if (SName.size() != 2 || !std::isxdigit((unsigned char)SName[0]) ||
        !std::isxdigit((unsigned char)SName[1]))
      continue;
    std::string SPath = Dir + "/" + SName;
    DIR *Sub = ::opendir(SPath.c_str());
    if (!Sub)
      continue;
    while (dirent *E = ::readdir(Sub)) {
      std::string Name = E->d_name;
      if (isHexName(Name))
        Visit(SPath + "/" + Name);
    }
    ::closedir(Sub);
  }
  ::closedir(Top);
  return Status::success();
}

} // namespace

Status ResultCache::diskStats(const std::string &Dir, uint64_t &Entries,
                              uint64_t &Bytes) {
  Entries = 0;
  Bytes = 0;
  return forEachEntry(Dir, [&](const std::string &Path) {
    struct stat Sb;
    if (::stat(Path.c_str(), &Sb) == 0) {
      ++Entries;
      Bytes += (uint64_t)Sb.st_size;
    }
  });
}

Status ResultCache::diskClear(const std::string &Dir, uint64_t &Removed) {
  Removed = 0;
  return forEachEntry(Dir, [&](const std::string &Path) {
    if (::unlink(Path.c_str()) == 0)
      ++Removed;
  });
}
