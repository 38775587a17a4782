// Service benchmark: closed-loop clients drive the sharded Service through
// Service::Execute (no link model), every response is checked, and one JSON
// result line is printed last. The gated speed figures are ratios against a
// sorted-array reference that each client runs on its own core between
// batches (see SummarizeLoop), which cancels the drift of a shared host's
// core speed. With --trace 1 the run instead reports the
// per-layer ledger: the same closed loop with a span around each Execute,
// then a seeded sample of the same batches replayed by one client through
// each layer's public entry points on a mirror (per-shard Wormholes and
// WALs built from the same keyset and router). See NOTES.md for why each
// workload exists and which end-to-end metric each layer metric moves.
//
// Usage: perfbench --workload W --seed N --seconds S --trace 0|1
//                  --wal-root DIR [--trace-file F] [--wal-fs NAME]
//                  [--git-sha SHA] [--source-digest HEX]
#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/ledger.h"
#include "src/common/qsbr.h"
#include "src/common/rng.h"
#include "src/core/wormhole.h"
#include "src/durability/fault_file.h"
#include "src/durability/wal.h"
#include "src/server/service.h"
#include "src/server/shard_router.h"
#include "src/workload/keysets.h"

namespace perfbench {
namespace {

using wh::Op;
using wh::Request;
using wh::Response;
using wh::Service;

constexpr size_t kClients = 3;
constexpr size_t kShards = 4;
constexpr size_t kBatch = 128;
constexpr uint32_t kMaxScan = 100;      // scan length uniform in 1..kMaxScan
constexpr uint64_t kRevScanOneIn = 10;  // one scan in ten is kScanRev
constexpr double kZipfTheta = 0.99;
constexpr size_t kRouterSamples = 4096;
constexpr int kSetupRepeats = 3;
constexpr uint64_t kWarmupBatches = 100;  // per client, part of setup_s
constexpr uint64_t kCheckpointEveryWrites = 1ull << 18;
constexpr size_t kHistoryKeys = 300000;  // recovery history: keys loaded
constexpr uint64_t kHistoryBatches = 1000;  // write batches after checkpoint
constexpr int kRecoveryRepeats = 9;
constexpr uint64_t kRefEvery = 8;  // a client runs the reference after every
                                   // kRefEvery-th batch
constexpr uint64_t kReplayBatches = 2000;  // ledger sample size
constexpr uint64_t kWarmupClientBase = 1000;  // batch streams for warm-up

struct Workload {
  const char* name;
  wh::KeysetId keyset;
  double scale;  // wh::ScaledCount scale factor
  int get_pct;
  int put_pct;
  int delete_pct;  // the rest up to 100 is Scan
  bool zipf;       // scrambled Zipfian (theta 0.99), else uniform
  bool durable;    // per-shard WAL, fsync=always
  bool every_get_hits;
  // Nominal on-CPU time of one reference batch run while loading, in
  // microseconds; a round figure near what the tuning host measured.
  // setup_s is quoted at the core speed that gives it (see Run).
  double ref_batch_us;
};

// Put values are fingerprints of existing keys, so workloads with scans keep
// a fixed key set and a scan's expected items follow from its start rank.
constexpr Workload kWorkloads[] = {
    {"read-url", wh::KeysetId::kUrl, 5.0, 100, 0, 0, false, false, true, 600},
    {"scan-az1", wh::KeysetId::kAz1, 0.5, 0, 5, 0, false, false, false, 300},
    {"update-zipf-durable", wh::KeysetId::kAz1, 0.5, 50, 45, 5, true, true,
     false, 300},
};

struct Config {
  const Workload* w = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string wal_root;
  std::string trace_file;
  std::string wal_fs = "unknown";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// On-CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID) or of the
// whole process, exited threads included (CLOCK_PROCESS_CPUTIME_ID). Time
// a thread spends descheduled is not counted: neither preemption by other
// tasks nor, with paravirtual steal accounting, time the hypervisor steals
// from its vCPU. The gated metrics are on-CPU times (see NOTES.md).
uint64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

// Keeps a computed value, and so the work behind it, from being optimized
// away.
void KeepAlive(uint64_t v) { asm volatile("" : : "r"(v) : "memory"); }

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) {
    sum += x;
  }
  return Ratio(sum, static_cast<double>(v.size()));
}

// Runs fn on a fresh thread that leaves every QSBR domain it joined on exit,
// so no idle registered thread stalls a shard's reclamation.
void RunInQsbrThread(const std::function<void()>& fn) {
  std::thread t([&] {
    wh::QsbrThreadScope scope;
    fn();
  });
  t.join();
}

// Runs fn(c) for c in [0, kClients) on kClients QSBR-scoped threads.
void OnClients(const std::function<void(size_t)>& fn) {
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; c++) {
    threads.emplace_back([&fn, c] {
      wh::QsbrThreadScope scope;
      fn(c);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
}

// ---- keys ------------------------------------------------------------------

// Sorts in four parallel chunks, then merges them: on the 3.3M-key URL
// keyset this keeps workload.keygen_s, which every run pays, seconds shorter.
void ParallelSort(std::vector<std::string>* keys) {
  constexpr size_t kParts = 4;
  const auto at = [&](size_t part) {
    return keys->begin() +
           static_cast<std::ptrdiff_t>(keys->size() * part / kParts);
  };
  std::vector<std::thread> threads;
  for (size_t p = 0; p < kParts; p++) {
    threads.emplace_back([&, p] { std::sort(at(p), at(p + 1)); });
  }
  for (auto& t : threads) {
    t.join();
  }
  std::inplace_merge(at(0), at(1), at(2));
  std::inplace_merge(at(2), at(3), at(4));
  std::inplace_merge(at(0), at(2), at(4));
}

// The keyset in ascending order, packed into one buffer (key i is
// bytes[off[i], off[i+1])). Sorted order gives every key a rank, from which
// a scan's exact expected result follows.
class KeySpace {
 public:
  explicit KeySpace(std::vector<std::string> keys) {
    ParallelSort(&keys);
    off_.reserve(keys.size() + 1);
    size_t total = 0;
    for (const auto& k : keys) {
      total += k.size();
    }
    bytes_.reserve(total);
    for (auto& k : keys) {
      off_.push_back(bytes_.size());
      bytes_.append(k);
      std::string().swap(k);
    }
    off_.push_back(bytes_.size());
  }

  size_t size() const { return off_.size() - 1; }
  std::string_view key(size_t i) const {
    return std::string_view(bytes_).substr(off_[i], off_[i + 1] - off_[i]);
  }

 private:
  std::string bytes_;
  std::vector<uint64_t> off_;
};

// ---- batches ---------------------------------------------------------------

constexpr uint64_t kBatchIndexMask = (1ull << 40) - 1;

uint64_t BatchId(uint64_t client, uint64_t index) {
  return client << 40 | index;
}

// Batch `index` of client `client` is a pure function of (seed, client,
// index), which is what lets the ledger replay "the same batches".
class BatchGen {
 public:
  BatchGen(const Workload& w, const KeySpace& keys, uint64_t seed)
      : w_(w), keys_(keys), seed_(seed) {
    if (w.zipf) {
      zipf_ = std::make_unique<ScrambledZipf>(keys.size(), kZipfTheta,
                                              seed ^ 0x5a17f00dull);
    }
  }

  // rank[i] is the key rank request i was drawn at.
  void Make(uint64_t client, uint64_t index, std::vector<Request>* batch,
            std::vector<uint32_t>* rank) const {
    uint64_t mix = seed_ * 0x9e3779b97f4a7c15ull + BatchId(client, index);
    wh::Rng rng(wh::SplitMix64(mix));
    batch->resize(kBatch);
    rank->resize(kBatch);
    for (size_t i = 0; i < kBatch; i++) {
      Request& r = (*batch)[i];
      const int dice = static_cast<int>(rng.NextBounded(100));
      const size_t k =
          zipf_ ? zipf_->Next(rng) : rng.NextBounded(keys_.size());
      (*rank)[i] = static_cast<uint32_t>(k);
      r.key.assign(keys_.key(k));
      r.value.clear();
      r.scan_limit = 0;
      if (dice < w_.get_pct) {
        r.op = Op::kGet;
      } else if (dice < w_.get_pct + w_.put_pct) {
        r.op = Op::kPut;
        r.value = Fingerprint(r.key);
      } else if (dice < w_.get_pct + w_.put_pct + w_.delete_pct) {
        r.op = Op::kDelete;
      } else {
        r.op = rng.NextBounded(kRevScanOneIn) == 0 ? Op::kScanRev : Op::kScan;
        r.scan_limit = 1 + static_cast<uint32_t>(rng.NextBounded(kMaxScan));
      }
    }
  }

 private:
  const Workload& w_;
  const KeySpace& keys_;
  uint64_t seed_;
  std::unique_ptr<ScrambledZipf> zipf_;
};

// Expected number of items of a scan starting at key rank `rank`: the limit,
// unless the end of the keyspace comes first.
size_t ExpectedScanItems(const Request& r, size_t rank, size_t n) {
  const size_t available = r.op == Op::kScanRev ? rank + 1 : n - rank;
  return std::min<size_t>(r.scan_limit, available);
}

// Returns the number of requests whose response is wrong. Gets must hit with
// their own key's fingerprint (every_get_hits) or may miss; mutations must
// be acknowledged; a scan must return exactly the keys that follow (or
// precede) its start rank in the fixed key set: strictly ordered, on the
// correct side of the start key, and the full limit unless the keyspace
// ends first.
uint64_t CheckBatch(const Workload& w, const KeySpace& keys,
                    const std::vector<Request>& batch,
                    const std::vector<uint32_t>& rank,
                    const std::vector<Response>& resp, uint64_t* gets,
                    uint64_t* hits) {
  uint64_t failed = 0;
  for (size_t i = 0; i < batch.size(); i++) {
    const Request& q = batch[i];
    const Response& r = resp[i];
    bool good = r.ok;
    switch (q.op) {
      case Op::kGet:
        ++*gets;
        if (r.found) {
          ++*hits;
          good = good && HasFingerprint(q.key, r.value);
        } else {
          good = good && !w.every_get_hits;
        }
        break;
      case Op::kPut:
        good = good && r.found;
        break;
      case Op::kDelete:
        break;
      case Op::kScan:
      case Op::kScanRev: {
        const size_t want = ExpectedScanItems(q, rank[i], keys.size());
        good = good && r.items.size() == want;
        const bool rev = q.op == Op::kScanRev;
        for (size_t j = 0; good && j < want; j++) {
          const size_t k = rev ? rank[i] - j : rank[i] + j;
          good = r.items[j].first == keys.key(k);
        }
        break;
      }
    }
    failed += good ? 0 : 1;
  }
  return failed;
}

size_t WritesIn(const std::vector<Request>& batch) {
  size_t n = 0;
  for (const Request& r : batch) {
    n += (r.op == Op::kPut || r.op == Op::kDelete) ? 1 : 0;
  }
  return n;
}

// ---- the sorted-array reference ------------------------------------------------

// Answers a batch the simplest ordered way: binary search over the sorted
// keyset for every request, and a scan copies its keys out as the Service's
// response would. It is the benchmark's own code, fixed, and does not touch
// the store: it measures how fast the core it runs on is at that moment.
// Returns a checksum of the work, for KeepAlive.
uint64_t ReferenceBatch(const KeySpace& keys,
                        const std::vector<Request>& batch,
                        std::vector<std::string>* items) {
  uint64_t sum = 0;
  for (const Request& r : batch) {
    size_t lo = 0;
    size_t hi = keys.size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (keys.key(mid) < r.key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    sum += lo;
    if (r.op != Op::kScan && r.op != Op::kScanRev) {
      continue;
    }
    // The first kScan item is the first key >= start; for kScanRev the last
    // key <= start (start itself: every scan starts at an existing key).
    items->resize(std::max<size_t>(items->size(), r.scan_limit));
    for (size_t j = 0; j < r.scan_limit; j++) {
      if (r.op == Op::kScan ? lo + j >= keys.size() : j > lo) {
        break;
      }
      (*items)[j].assign(keys.key(r.op == Op::kScan ? lo + j : lo - j));
      sum += (*items)[j].size();
    }
  }
  return sum;
}

// Reference batches that the loading threads of a set-up run between their
// Put batches: their total on-CPU time and count.
struct RefTally {
  std::atomic<uint64_t> ns{0};
  std::atomic<uint64_t> batches{0};

  void Run(const KeySpace& keys, const std::vector<Request>& batch,
           std::vector<std::string>* items) {
    const uint64_t r0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
    KeepAlive(ReferenceBatch(keys, batch, items));
    ns.fetch_add(CpuNs(CLOCK_THREAD_CPUTIME_ID) - r0,
                 std::memory_order_relaxed);
    batches.fetch_add(1, std::memory_order_relaxed);
  }
};

// ---- service set-up ----------------------------------------------------------

wh::ServiceOptions MakeServiceOptions(bool durable, const std::string& dir) {
  wh::ServiceOptions opt;
  if (durable) {
    opt.durability.enabled = true;
    opt.durability.dir = dir;
    opt.durability.wal.fsync = wh::durability::WalOptions::Fsync::kAlways;
  }
  return opt;
}

// Puts keys[order[lo..hi)] through Execute in batches; returns failures.
// With a tally, also runs the reference on every kRefEvery-th batch.
uint64_t LoadKeys(Service* svc, const KeySpace& keys,
                  const std::vector<uint32_t>& order, size_t lo, size_t hi,
                  RefTally* ref = nullptr) {
  std::vector<Request> batch;
  std::vector<Response> resp;
  std::vector<std::string> ref_items;
  uint64_t failed = 0;
  for (size_t i = lo; i < hi; i += kBatch) {
    const size_t n = std::min(kBatch, hi - i);
    batch.resize(n);
    for (size_t j = 0; j < n; j++) {
      Request& r = batch[j];
      r.op = Op::kPut;
      r.key.assign(keys.key(order[i + j]));
      r.value = Fingerprint(r.key);
    }
    svc->Execute(batch, &resp);
    for (const Response& r : resp) {
      failed += (r.ok && r.found) ? 0 : 1;
    }
    if (ref != nullptr && (i - lo) / kBatch % kRefEvery == 0) {
      ref->Run(keys, batch, &ref_items);
    }
  }
  return failed;
}

// Scans the whole store through Execute, in key order.
std::vector<std::pair<std::string, std::string>> FullScan(Service* svc) {
  std::vector<std::pair<std::string, std::string>> all;
  std::vector<Request> batch(1);
  std::vector<Response> resp;
  batch[0].op = Op::kScan;
  batch[0].scan_limit = 4096;
  batch[0].key.clear();
  while (true) {
    svc->Execute(batch, &resp);
    auto& items = resp[0].items;
    if (items.empty()) {
      break;
    }
    batch[0].key = items.back().first;
    batch[0].key.push_back('\0');  // the smallest key after the last one
    for (auto& kv : items) {
      all.push_back(std::move(kv));
    }
  }
  return all;
}

// Mismatches between the item set before shutdown and after recovery, plus
// items that are out of order or do not carry their key's fingerprint.
uint64_t CompareItemSets(
    const std::vector<std::pair<std::string, std::string>>& before,
    const std::vector<std::pair<std::string, std::string>>& after) {
  uint64_t bad = before.size() > after.size() ? before.size() - after.size()
                                              : after.size() - before.size();
  const size_t n = std::min(before.size(), after.size());
  for (size_t i = 0; i < n; i++) {
    bad += before[i] == after[i] ? 0 : 1;
  }
  for (size_t i = 0; i < before.size(); i++) {
    const bool ordered = i == 0 || before[i - 1].first < before[i].first;
    bad += (ordered && HasFingerprint(before[i].first, before[i].second)) ? 0
                                                                          : 1;
  }
  return bad;
}

// ---- the closed loop ---------------------------------------------------------

struct ClientOut {
  std::vector<uint64_t> lat_ns;  // batches that ended inside the window
  std::vector<uint64_t> cpu_ns;  // their on-CPU times, parallel to lat_ns
  std::vector<uint64_t> end_ns;  // their end times, parallel to lat_ns
  std::vector<uint64_t> ref_ns;  // on-CPU times of reference batches
  std::vector<uint64_t> ref_at;  // lat_ns.size() when each ref_ns was taken
  std::vector<Span> spans;       // traced: one server.execute span per batch
  uint64_t batches = 0;          // batches executed (window or not)
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t gets = 0;
  uint64_t hits = 0;
};

struct LoopOut {
  std::vector<ClientOut> clients;
  std::vector<Span> checkpoints;
  uint64_t start_ns = 0;
  uint64_t window_ns = 0;
  uint64_t failed = 0;  // checkpoint errors
};

enum SpanName : uint16_t {
  kSpanExecute,
  kSpanCheckpoint,
  kSpanRoute,
  kSpanMultiGet,
  kSpanMultiPut,
  kSpanDelete,
  kSpanCursorSeek,
  kSpanCursorStep,
  kSpanWalAppend,
  kSpanLoadMultiPut,
  kSpanNames,
};

constexpr const char* kSpanNameText[kSpanNames] = {
    "server.execute",      "durability.checkpoint", "server.route",
    "core.multiget",       "core.multiput",         "core.delete",
    "core.cursor_seek",    "core.cursor_step",      "durability.wal_append",
    "core.load_multiput",
};

// kClients closed-loop clients for `seconds`; the calling thread is the
// coordinator and, on durable workloads, checkpoints every
// kCheckpointEveryWrites acknowledged writes.
LoopOut RunClosedLoop(Service* svc, const Workload& w, const KeySpace& keys,
                      const BatchGen& gen, double seconds, bool traced) {
  LoopOut out;
  out.clients.resize(kClients);
  std::atomic<bool> go{false};
  std::atomic<uint64_t> writes_acked{0};
  const uint64_t window_ns = static_cast<uint64_t>(seconds * 1e9);
  std::atomic<uint64_t> start_ns{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; c++) {
    threads.emplace_back([&, c] {
      wh::QsbrThreadScope scope;
      ClientOut& co = out.clients[c];
      co.lat_ns.reserve(1 << 19);
      co.cpu_ns.reserve(1 << 19);
      co.end_ns.reserve(1 << 19);
      if (traced) {
        co.spans.reserve(1 << 19);
      }
      std::vector<Request> batch;
      std::vector<uint32_t> rank;
      std::vector<Response> resp;
      std::vector<std::string> ref_items;
      while (!go.load(std::memory_order_acquire)) {
      }
      const uint64_t deadline =
          start_ns.load(std::memory_order_relaxed) + window_ns;
      for (uint64_t b = 0;; b++) {
        gen.Make(c, b, &batch, &rank);
        const uint64_t t0 = NowNs();
        if (t0 >= deadline) {
          break;
        }
        const uint64_t c0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
        svc->Execute(batch, &resp);
        const uint64_t c1 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
        const uint64_t t1 = NowNs();
        co.batches++;
        co.attempted += batch.size();
        co.failed += CheckBatch(w, keys, batch, rank, resp, &co.gets, &co.hits);
        writes_acked.fetch_add(WritesIn(batch), std::memory_order_relaxed);
        if (t1 <= deadline) {
          co.lat_ns.push_back(t1 - t0);
          co.cpu_ns.push_back(c1 - c0);
          co.end_ns.push_back(t1);
        }
        if (b % kRefEvery == 0) {
          const uint64_t r0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
          KeepAlive(ReferenceBatch(keys, batch, &ref_items));
          co.ref_ns.push_back(CpuNs(CLOCK_THREAD_CPUTIME_ID) - r0);
          co.ref_at.push_back(co.lat_ns.size());
        }
        if (traced) {
          Span s;
          s.name = kSpanExecute;
          s.batch = BatchId(c, b);
          s.start_ns = t0;
          s.end_ns = t1;
          s.n = batch.size();
          co.spans.push_back(s);
        }
      }
    });
  }
  start_ns.store(NowNs(), std::memory_order_relaxed);
  go.store(true, std::memory_order_release);
  const uint64_t deadline = start_ns.load(std::memory_order_relaxed) + window_ns;
  uint64_t next_checkpoint = kCheckpointEveryWrites;
  while (NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    if (!w.durable ||
        writes_acked.load(std::memory_order_relaxed) < next_checkpoint) {
      continue;
    }
    next_checkpoint += kCheckpointEveryWrites;
    Span s;
    s.name = kSpanCheckpoint;
    RunInQsbrThread([&] {
      s.start_ns = NowNs();
      const wh::durability::Status st = svc->Checkpoint();
      s.end_ns = NowNs();
      if (!st.ok()) {
        std::fprintf(stderr, "checkpoint failed: %s\n", st.message().c_str());
        out.failed++;
      }
    });
    out.checkpoints.push_back(s);
  }
  for (auto& t : threads) {
    t.join();
  }
  out.start_ns = start_ns.load(std::memory_order_relaxed);
  out.window_ns = window_ns;
  return out;
}

// The gated figures pair each client's Execute calls with reference batches
// (ReferenceBatch) run by the same client on the same core in the same
// stretch of time, and report their ratio.
//
// Why a ratio: the times are on-CPU times (CLOCK_THREAD_CPUTIME_ID), so a
// client that is descheduled, by another task or by the hypervisor stealing
// its vCPU, adds nothing to them. But on a shared host a vCPU's speed still
// drifts, over seconds to minutes, by up to ~1.5x (a busy sibling
// hyperthread, the host's cache and memory load), and the same code then
// reads 30-40% apart in runs minutes apart. The reference slows down with
// the core, so the ratio stays put: over three runs on a 4-vCPU KVM guest
// the raw batch times of scan-az1 ranged over 15% and the ratio over 2%.
// It cancels most of the drift, not all: a faster core also shifts the
// balance of compute and memory stalls, and in one fast spell the ratio of
// read-url moved by 16%.
//
// Every client's batches are cut, in order, into slices of about
// kSliceSamples (at least that many, so a slice's p99 has 10 samples
// beyond it; a slice also holds ~kSliceSamples / kRefEvery reference
// batches). Per slice (AddSliceRatios): speedup = mean reference time /
// mean Execute time, and the latency figures are the slice's Execute p50
// and p99 divided by its mean reference time. Each metric is the mean over
// all slices of all clients.
constexpr size_t kSliceSamples = 1000;

struct LoopSummary {
  double speedup = 0;  // reference time / Execute time, same batches
  double p50_x = 0;    // Execute p50 in multiples of the reference's mean
  double p99_x = 0;
  size_t slices = 0;  // 0: a client ran fewer than kSliceSamples batches
  double cpu_mops = 0;   // requests per Execute CPU-second, in millions
  double ref_us = 0;     // mean reference batch, on-CPU
  double wall_mops = 0;  // requests per second of the window, all clients
  LatencySummary wall;   // Execute wall latency over the whole window
  LatencySummary cpu;    // Execute on-CPU time over the whole window
};

LoopSummary SummarizeLoop(const LoopOut& loop) {
  LoopSummary out;
  std::vector<uint64_t> lat;
  std::vector<uint64_t> cpu;
  uint64_t cpu_total = 0;
  uint64_t ref_total = 0;
  uint64_t refs = 0;
  SliceRatios r;
  bool short_client = false;
  for (const ClientOut& co : loop.clients) {
    lat.insert(lat.end(), co.lat_ns.begin(), co.lat_ns.end());
    cpu.insert(cpu.end(), co.cpu_ns.begin(), co.cpu_ns.end());
    for (uint64_t c : co.cpu_ns) {
      cpu_total += c;
    }
    for (uint64_t c : co.ref_ns) {
      ref_total += c;
    }
    refs += co.ref_ns.size();
    short_client = short_client ||
                   AddSliceRatios(co.cpu_ns, co.ref_ns, co.ref_at,
                                  kSliceSamples, &r) == 0;
  }
  out.speedup = Mean(r.speedup);
  out.p50_x = Mean(r.p50_x);
  out.p99_x = Mean(r.p99_x);
  out.slices = short_client ? 0 : r.speedup.size();
  out.cpu_mops = Ratio(static_cast<double>(cpu.size() * kBatch) * 1e3,
                       static_cast<double>(cpu_total));
  out.ref_us = Ratio(static_cast<double>(ref_total) * 1e-3,
                     static_cast<double>(refs));
  out.wall_mops = static_cast<double>(lat.size() * kBatch) /
                  Seconds(loop.window_ns) * 1e-6;
  out.wall = Summarize(std::move(lat));
  out.cpu = Summarize(std::move(cpu));
  return out;
}

struct Setup {
  std::unique_ptr<Service> svc;
  double cpu_s = 0;   // on-CPU time of all set-up threads, reference excluded
  double ref_us = 0;  // mean reference batch run while loading
  double wall_s = 0;
  uint64_t attempted = 0;  // load and warm-up requests
  uint64_t failed = 0;
};

// Constructs the Service, loads every key through batched Execute Puts from
// kClients threads, and warms it with kWarmupBatches workload batches per
// client. The keyset already exists: its generation is not set-up time.
// Nothing else runs in the process meanwhile, so the process CPU clock
// counts exactly the set-up threads.
Setup BuildService(const Config& cfg, const KeySpace& keys,
                   const std::vector<uint32_t>& order,
                   const wh::ShardRouter& router, const BatchGen& gen) {
  const std::string dir = cfg.wal_root + "/main";
  std::filesystem::remove_all(dir);
  Setup s;
  std::atomic<uint64_t> failed{0};
  RefTally ref;
  const uint64_t t0 = NowNs();
  const uint64_t c0 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
  s.svc = std::make_unique<Service>(MakeServiceOptions(cfg.w->durable, dir),
                                    router);
  // Every key is loaded before any client warms up: a warm-up scan must
  // find the whole key set.
  OnClients([&](size_t c) {
    const size_t lo = order.size() * c / kClients;
    const size_t hi = order.size() * (c + 1) / kClients;
    failed.fetch_add(LoadKeys(s.svc.get(), keys, order, lo, hi, &ref),
                     std::memory_order_relaxed);
  });
  OnClients([&](size_t c) {
    std::vector<Request> batch;
    std::vector<uint32_t> rank;
    std::vector<Response> resp;
    uint64_t gets = 0;
    uint64_t hits = 0;
    uint64_t bad = 0;
    for (uint64_t b = 0; b < kWarmupBatches; b++) {
      gen.Make(kWarmupClientBase + c, b, &batch, &rank);
      s.svc->Execute(batch, &resp);
      bad += CheckBatch(*cfg.w, keys, batch, rank, resp, &gets, &hits);
    }
    failed.fetch_add(bad, std::memory_order_relaxed);
  });
  const uint64_t ref_ns = ref.ns.load(std::memory_order_relaxed);
  s.cpu_s = Seconds(CpuNs(CLOCK_PROCESS_CPUTIME_ID) - c0 - ref_ns);
  s.ref_us = Ratio(static_cast<double>(ref_ns) * 1e-3,
                   static_cast<double>(ref.batches.load(
                       std::memory_order_relaxed)));
  s.wall_s = Seconds(NowNs() - t0);
  s.attempted = order.size() + kClients * kWarmupBatches * kBatch;
  s.failed = failed.load(std::memory_order_relaxed);
  if (!s.svc->durability_status().ok()) {
    s.failed++;
  }
  return s;
}

// ---- recovery ------------------------------------------------------------------

struct RecoveryOut {
  double recovery_cpu_s = 0;
  double checkpoint_s = 0;  // the history's one checkpoint, no live writers
  double replay_records_per_s = 0;
  uint64_t failed = 0;
};

// A fixed write history, so replay length does not depend on throughput:
// load the first min(n, kHistoryKeys) keys of the load order into a durable
// Service, checkpoint, then kHistoryBatches batches of Puts (90%) and Deletes
// (10%) uniform over those keys. recovery_cpu_s is the median on-CPU time
// of constructing a Service over the directories it leaves (recovery runs
// on the constructing thread); every recovery must yield the item set
// scanned before shutdown. Also times Wal::Replay over the same directories
// (log decode only, no apply).
RecoveryOut RunRecoveryHistory(const Config& cfg, const KeySpace& keys,
                               const std::vector<uint32_t>& order,
                               const wh::ShardRouter& router) {
  RecoveryOut out;
  const std::string dir = cfg.wal_root + "/history";
  std::filesystem::remove_all(dir);
  const wh::ServiceOptions opt = MakeServiceOptions(true, dir);
  const size_t h = std::min(order.size(), kHistoryKeys);
  std::vector<std::pair<std::string, std::string>> before;
  RunInQsbrThread([&] {
    Service svc(opt, router);
    out.failed += LoadKeys(&svc, keys, order, 0, h);
    const uint64_t c0 = NowNs();
    if (!svc.Checkpoint().ok()) {
      out.failed++;
    }
    out.checkpoint_s = Seconds(NowNs() - c0);
    wh::Rng rng(cfg.seed ^ 0x4157u);
    std::vector<Request> batch(kBatch);
    std::vector<Response> resp;
    for (uint64_t b = 0; b < kHistoryBatches; b++) {
      for (Request& r : batch) {
        r.key.assign(keys.key(order[rng.NextBounded(h)]));
        if (rng.NextBounded(10) == 0) {
          r.op = Op::kDelete;
          r.value.clear();
        } else {
          r.op = Op::kPut;
          r.value = Fingerprint(r.key);
        }
      }
      svc.Execute(batch, &resp);
      for (const Response& r : resp) {
        out.failed += r.ok ? 0 : 1;
      }
    }
    before = FullScan(&svc);
  });
  std::vector<double> times;
  for (int rep = 0; rep < kRecoveryRepeats; rep++) {
    RunInQsbrThread([&] {
      const uint64_t c0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
      Service svc(opt, router);
      times.push_back(Seconds(CpuNs(CLOCK_THREAD_CPUTIME_ID) - c0));
      if (!svc.durability_status().ok()) {
        out.failed++;
      }
      if (rep == 0) {
        out.failed += CompareItemSets(before, FullScan(&svc));
      }
    });
  }
  out.recovery_cpu_s = Median(times);
  wh::durability::Fs fs;
  std::vector<double> rates;
  for (int rep = 0; rep < kRecoveryRepeats; rep++) {
    uint64_t records = 0;
    const uint64_t t0 = NowNs();
    for (size_t s = 0; s < router.shard_count(); s++) {
      wh::durability::ReplayStats st;
      if (!wh::durability::Wal::Replay(&fs, dir + "/shard-" + std::to_string(s),
                                       0, nullptr, &st)
               .ok()) {
        out.failed++;
      }
      records += st.records;
    }
    rates.push_back(Ratio(static_cast<double>(records), Seconds(NowNs() - t0)));
  }
  out.replay_records_per_s = Median(rates);
  std::filesystem::remove_all(dir);
  return out;
}

// ---- the layer ledger ------------------------------------------------------------

// Per-shard Wormholes (and WALs on durable workloads or for the probe)
// built from the same keyset and router as the Service, driven directly
// through each layer's public entry points. count_probes is on for
// core.probes_per_lookup. Members destruct in reverse order: the WALs before
// the Fs they write through, each index before its QSBR domain.
struct Mirror {
  wh::durability::Fs fs;
  std::vector<std::unique_ptr<wh::Qsbr>> qsbr;
  std::vector<std::unique_ptr<wh::Wormhole>> index;
  std::vector<std::unique_ptr<wh::durability::Wal>> wal;
};

struct Ledger {
  std::vector<Span> spans;
  uint64_t gets = 0;
  uint64_t hits = 0;
  uint64_t scans = 0;
  uint64_t multi_shard_scans = 0;
  uint64_t shards_touched = 0;
  uint64_t batches = 0;
  uint64_t wal_user_bytes = 0;
  uint64_t failed = 0;

  uint32_t Add(uint16_t name, uint32_t parent, uint64_t batch, uint64_t t0,
               uint64_t t1, uint64_t n) {
    Span s;
    s.name = name;
    s.id = static_cast<uint32_t>(spans.size());
    s.parent = parent;
    s.batch = batch;
    s.start_ns = t0;
    s.end_ns = t1;
    s.n = n;
    spans.push_back(s);
    return s.id;
  }
};

// Per-shard WALs for the mirror, fsync=always, under <wal-root>/mirror.
void OpenMirrorWals(const Config& cfg, size_t shards, Mirror* m, Ledger* led) {
  const std::string dir = cfg.wal_root + "/mirror";
  std::filesystem::remove_all(dir);
  wh::durability::WalOptions wopt;
  wopt.fsync = wh::durability::WalOptions::Fsync::kAlways;
  for (size_t s = 0; s < shards; s++) {
    const std::string sd = dir + "/shard-" + std::to_string(s);
    wh::durability::Status st = m->fs.MkDirs(sd);
    m->wal.push_back(wh::durability::Wal::Open(&m->fs, sd, wopt, &st));
    if (m->wal.back() == nullptr) {
      std::fprintf(stderr, "mirror WAL open failed: %s\n",
                   st.message().c_str());
      led->failed++;
    }
  }
}

void BuildMirror(const Config& cfg, const KeySpace& keys,
                 const std::vector<uint32_t>& order,
                 const wh::ShardRouter& router, Mirror* m, Ledger* led) {
  wh::Options iopt;
  iopt.count_probes = true;
  for (size_t s = 0; s < router.shard_count(); s++) {
    m->qsbr.push_back(std::make_unique<wh::Qsbr>());
    m->index.push_back(std::make_unique<wh::Wormhole>(iopt, m->qsbr[s].get()));
  }
  // Load in the Service's load order and batch size, one MultiPut per shard
  // sub-batch: the core's share of set-up.
  std::vector<std::vector<std::pair<std::string_view, std::string_view>>> sub(
      router.shard_count());
  std::vector<std::string> values(kBatch);
  for (size_t i = 0; i < order.size(); i += kBatch) {
    const size_t n = std::min(kBatch, order.size() - i);
    for (auto& v : sub) {
      v.clear();
    }
    for (size_t j = 0; j < n; j++) {
      const std::string_view k = keys.key(order[i + j]);
      values[j] = Fingerprint(k);
      sub[router.ShardOf(k)].emplace_back(k, values[j]);
    }
    for (size_t s = 0; s < sub.size(); s++) {
      if (sub[s].empty()) {
        continue;
      }
      const uint64_t t0 = NowNs();
      m->index[s]->MultiPut(sub[s]);
      led->Add(kSpanLoadMultiPut, kNoParent, 0, t0, NowNs(), sub[s].size());
    }
  }
  if (cfg.w->durable) {
    OpenMirrorWals(cfg, router.shard_count(), m, led);
  }
}


// Replays one batch through the mirror the way Service::Execute runs it:
// route every key, group by shard in submission order, per shard append the
// mutations to its WAL, then serve maximal Get/Put runs with MultiGet /
// MultiPut, Deletes one by one, and scans by draining shard cursors in scan
// order (one cursor per shard per batch). Response building and the item
// copies are left out: they are the server's own work.
void ReplayOnMirror(const Workload& w, const KeySpace& keys,
                    const wh::ShardRouter& router,
                    const std::vector<Request>& batch,
                    const std::vector<uint32_t>& rank, uint64_t batch_id,
                    uint32_t parent, Mirror* m, Ledger* led) {
  const size_t shards = router.shard_count();
  std::vector<uint32_t> shard_of(batch.size());
  uint64_t t0 = NowNs();
  for (size_t i = 0; i < batch.size(); i++) {
    shard_of[i] = static_cast<uint32_t>(router.ShardOf(batch[i].key));
  }
  led->Add(kSpanRoute, parent, batch_id, t0, NowNs(), batch.size());
  std::vector<std::vector<uint32_t>> groups(shards);
  for (uint32_t i = 0; i < batch.size(); i++) {
    groups[shard_of[i]].push_back(i);
  }
  std::vector<std::unique_ptr<wh::Cursor>> cursors(shards);
  std::vector<std::string_view> get_keys;
  std::vector<std::string> values;
  std::vector<uint8_t> hits;
  std::vector<std::pair<std::string_view, std::string_view>> puts;
  std::vector<wh::durability::WalEntry> entries;
  led->batches++;
  for (size_t s = 0; s < shards; s++) {
    const std::vector<uint32_t>& g = groups[s];
    if (g.empty()) {
      continue;
    }
    led->shards_touched++;
    wh::Wormhole* index = m->index[s].get();
    if (!m->wal.empty()) {
      entries.clear();
      for (uint32_t i : g) {
        const Request& r = batch[i];
        if (r.op == Op::kPut) {
          entries.push_back({wh::durability::WalOp::kPut, r.key, r.value});
          led->wal_user_bytes += r.key.size() + r.value.size();
        } else if (r.op == Op::kDelete) {
          entries.push_back({wh::durability::WalOp::kDelete, r.key, {}});
          led->wal_user_bytes += r.key.size();
        }
      }
      if (!entries.empty() && m->wal[s] != nullptr) {
        uint64_t last_seq = 0;
        t0 = NowNs();
        const wh::durability::Status st =
            m->wal[s]->AppendBatch(entries.data(), entries.size(), &last_seq);
        led->Add(kSpanWalAppend, parent, batch_id, t0, NowNs(),
                 entries.size());
        led->failed += st.ok() ? 0 : 1;
      }
    }
    size_t i = 0;
    while (i < g.size()) {
      const Op op = batch[g[i]].op;
      size_t j = i + 1;
      if (op == Op::kGet || op == Op::kPut) {
        while (j < g.size() && batch[g[j]].op == op) {
          j++;
        }
      }
      if (op == Op::kGet) {
        get_keys.clear();
        for (size_t k = i; k < j; k++) {
          get_keys.push_back(batch[g[k]].key);
        }
        t0 = NowNs();
        const size_t found = index->MultiGet(get_keys, &values, &hits);
        led->Add(kSpanMultiGet, parent, batch_id, t0, NowNs(), j - i);
        led->gets += j - i;
        led->hits += found;
      } else if (op == Op::kPut) {
        puts.clear();
        for (size_t k = i; k < j; k++) {
          puts.emplace_back(batch[g[k]].key, batch[g[k]].value);
        }
        t0 = NowNs();
        index->MultiPut(puts);
        led->Add(kSpanMultiPut, parent, batch_id, t0, NowNs(), j - i);
      } else if (op == Op::kDelete) {
        t0 = NowNs();
        index->Delete(batch[g[i]].key);
        led->Add(kSpanDelete, parent, batch_id, t0, NowNs(), 1);
      } else {
        const Request& r = batch[g[i]];
        const bool rev = r.op == Op::kScanRev;
        const size_t limit = r.scan_limit;
        const size_t candidates = rev ? s + 1 : shards - s;
        size_t got = 0;
        size_t visited = 0;
        for (size_t c = 0; c < candidates && got < limit; c++) {
          const size_t cs = rev ? s - c : s + c;
          visited++;
          t0 = NowNs();
          if (cursors[cs] == nullptr) {
            cursors[cs] = m->index[cs]->NewCursor();
          }
          wh::Cursor* cur = cursors[cs].get();
          cur->SetScanLimitHint(limit - got);
          if (rev) {
            cur->SeekForPrev(r.key);
          } else {
            cur->Seek(r.key);
          }
          const uint64_t t1 = NowNs();
          led->Add(kSpanCursorSeek, parent, batch_id, t0, t1, 1);
          uint64_t steps = 0;
          while (cur->Valid()) {
            got++;
            if (got == limit) {
              break;
            }
            if (rev) {
              cur->Prev();
            } else {
              cur->Next();
            }
            steps++;
          }
          led->Add(kSpanCursorStep, parent, batch_id, t1, NowNs(), steps);
        }
        led->scans++;
        led->multi_shard_scans += visited > 1 ? 1 : 0;
        // Exact counts are known only while the key set is fixed.
        if (w.delete_pct == 0) {
          led->failed +=
              got == ExpectedScanItems(r, rank[g[i]], keys.size()) ? 0 : 1;
        }
      }
      i = j;
    }
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---- output ----------------------------------------------------------------------

void WriteTrace(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) {
    return;
  }
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write trace %s\n", tmp.c_str());
    return;
  }
  std::fprintf(f, "name,id,parent,batch,start_ns,end_ns,n\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s,%u,%lld,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                 "\n",
                 kSpanNameText[s.name], s.id,
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 s.batch, s.start_ns, s.end_ns, s.n);
  }
  const bool ok = std::fclose(f) == 0;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  return out;
}

void PrintResult(uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); i++) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// Sums of span durations and work items per span name.
struct SpanTotals {
  std::vector<uint64_t> ns = std::vector<uint64_t>(kSpanNames, 0);
  std::vector<uint64_t> n = std::vector<uint64_t>(kSpanNames, 0);
  std::vector<uint64_t> count = std::vector<uint64_t>(kSpanNames, 0);
  std::vector<uint64_t> wal_ns;  // each durability.wal_append span

  explicit SpanTotals(const Ledger& led) {
    for (const Span& s : led.spans) {
      ns[s.name] += s.duration();
      n[s.name] += s.n;
      count[s.name]++;
      if (s.name == kSpanWalAppend) {
        wal_ns.push_back(s.duration());
      }
    }
  }
  double PerItem(SpanName name) const {
    return Ratio(static_cast<double>(ns[name]), static_cast<double>(n[name]));
  }
};

uint64_t DirBytes(const std::string& dir) {
  std::error_code ec;
  uint64_t total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) {
      total += e.file_size(ec);
    }
  }
  return total;
}

// Mix of the ledger's probe: every entry point the replay can reach.
constexpr Workload kProbe = {"probe", wh::KeysetId::kAz1, 0, 30, 30, 5,
                             false, true, false, 0};
constexpr uint64_t kProbeBatches = 500;
constexpr uint64_t kProbeClient = 2000;

// The traced run's phase 2 and the per-layer metrics (see NOTES.md).
// Returns the metrics; adds the requests it checks to *attempted and its
// failures to *failed.
std::vector<Metric> RunLedger(const Config& cfg, const KeySpace& keys,
                              const std::vector<uint32_t>& order,
                              const wh::ShardRouter& router,
                              const BatchGen& gen, Service* svc,
                              const LoopOut& loop, double traced_speedup,
                              double keygen_s, uint64_t* attempted,
                              uint64_t* failed) {
  const Workload& w = *cfg.w;
  Ledger led;
  Ledger probe;
  Mirror mirror;
  uint64_t exec_ns = 0;
  uint64_t exec_ops = 0;
  uint64_t probes = 0;
  uint64_t lookups = 0;
  uint64_t wal_bytes_replay = 0;
  RunInQsbrThread([&] {
    // The sampled batches run back to back through Execute, then (after the
    // mirror is built) back to back through the mirror, so neither side
    // runs with the other's working set in its caches.
    wh::Rng pick(cfg.seed ^ 0x1ed9e5ull);
    std::vector<uint64_t> sample(kReplayBatches);
    for (uint64_t& id : sample) {
      const uint64_t c = pick.NextBounded(kClients);
      id = BatchId(c, pick.NextBounded(
                          std::max<uint64_t>(1, loop.clients[c].batches)));
    }
    std::vector<uint32_t> parent(sample.size());
    std::vector<Request> batch;
    std::vector<uint32_t> rank;
    std::vector<Response> resp;
    uint64_t g = 0;
    uint64_t h = 0;
    for (size_t k = 0; k < sample.size(); k++) {
      gen.Make(sample[k] >> 40, sample[k] & kBatchIndexMask, &batch, &rank);
      const uint64_t e0 = NowNs();
      svc->Execute(batch, &resp);
      const uint64_t e1 = NowNs();
      *attempted += batch.size();
      *failed += CheckBatch(w, keys, batch, rank, resp, &g, &h);
      parent[k] =
          led.Add(kSpanExecute, kNoParent, sample[k], e0, e1, batch.size());
      exec_ns += e1 - e0;
      exec_ops += batch.size();
    }
    BuildMirror(cfg, keys, order, router, &mirror, &led);
    for (const auto& ix : mirror.index) {
      probes -= ix->stats().probes;
      lookups -= ix->stats().lookups;
    }
    for (size_t k = 0; k < sample.size(); k++) {
      gen.Make(sample[k] >> 40, sample[k] & kBatchIndexMask, &batch, &rank);
      ReplayOnMirror(w, keys, router, batch, rank, sample[k], parent[k],
                     &mirror, &led);
    }
    for (const auto& ix : mirror.index) {
      probes += ix->stats().probes;
      lookups += ix->stats().lookups;
    }
    wal_bytes_replay = DirBytes(cfg.wal_root + "/mirror");
    // Entry points the sampled batches never reach (cursors on read-url,
    // MultiGet on scan-az1, the WAL on the WAL-off workloads, ...) are
    // timed on a fixed seeded probe over the same mirror instead, so every
    // per-layer metric is measured on every workload. Probe spans belong to
    // no Execute call and stay out of the server metrics and self time.
    if (mirror.wal.empty()) {
      OpenMirrorWals(cfg, router.shard_count(), &mirror, &probe);
    }
    const BatchGen probe_gen(kProbe, keys, cfg.seed ^ 0x9b0be5ull);
    for (uint64_t b = 0; b < kProbeBatches; b++) {
      probe_gen.Make(kProbeClient, b, &batch, &rank);
      ReplayOnMirror(kProbe, keys, router, batch, rank, 0, kNoParent, &mirror,
                     &probe);
    }
  });
  *failed += led.failed + probe.failed;
  const uint64_t wal_bytes_probe =
      DirBytes(cfg.wal_root + "/mirror") - wal_bytes_replay;

  const SpanTotals rt(led);
  const SpanTotals pt(probe);
  std::vector<std::string> from_probe;
  // A core or durability span's figure comes from the replay when the
  // sampled batches reached it, else from the probe.
  auto src = [&](SpanName name, const char* metric) -> const SpanTotals& {
    if (rt.count[name] > 0) {
      return rt;
    }
    from_probe.push_back(metric);
    return pt;
  };
  std::vector<std::vector<Span>> children(led.spans.size());
  for (const Span& s : led.spans) {
    if (s.parent != kNoParent) {
      children[s.parent].push_back(s);
    }
  }
  int64_t self_ns = 0;
  for (const Span& s : led.spans) {
    if (s.name == kSpanExecute) {
      self_ns += SelfTimeNs(s, children[s.id]);
    }
  }

  // Phase 1: per-request Execute time with kClients clients, and the
  // batches that overlapped a checkpoint.
  uint64_t p1_ns = 0;
  uint64_t p1_ops = 0;
  std::vector<uint64_t> overlap;
  std::vector<uint64_t> all_batches;
  std::vector<Span> trace;
  for (const ClientOut& co : loop.clients) {
    for (const Span& s : co.spans) {
      p1_ns += s.duration();
      p1_ops += s.n;
      all_batches.push_back(s.duration());
      for (const Span& cp : loop.checkpoints) {
        if (s.start_ns < cp.end_ns && cp.start_ns < s.end_ns) {
          overlap.push_back(s.duration());
          break;
        }
      }
      trace.push_back(s);
    }
  }
  std::vector<double> cp_s;
  for (const Span& cp : loop.checkpoints) {
    cp_s.push_back(Seconds(cp.duration()));
    trace.push_back(cp);
  }
  const RecoveryOut rec = RunRecoveryHistory(cfg, keys, order, router);
  *failed += rec.failed;
  // Without a WAL there are no checkpoints under load: the checkpoint time
  // is the recovery history's, and the "overlapping" tail is that of all
  // batches, i.e. the tail a checkpoint would add to.
  if (cp_s.empty()) {
    cp_s.push_back(rec.checkpoint_s);
    overlap = all_batches;
    from_probe.push_back("durability.checkpoint_s");
    from_probe.push_back("durability.checkpoint_overlap_p99_us");
  }

  const double exec_1c = Ratio(exec_ns, exec_ops);
  const SpanTotals& wal = src(kSpanWalAppend, "durability.wal_*");
  const LatencySummary wal_ls = Summarize(wal.wal_ns);
  const LatencySummary ov_ls = Summarize(overlap);
  const Ledger& gets = led.gets > 0 ? led : probe;
  const Ledger& scans = led.scans > 0 ? led : probe;
  if (&gets == &probe) {
    from_probe.push_back("core.get_hit_ratio");
  }
  if (&scans == &probe) {
    from_probe.push_back("server.scan_multi_shard_frac");
  }
  std::vector<Metric> m = {
      {"server.execute_ns_per_op", exec_1c, "ns"},
      {"server.route_ns_per_key", rt.PerItem(kSpanRoute), "ns"},
      {"server.self_ns_per_op", Ratio(self_ns, exec_ops), "ns"},
      {"server.shards_per_batch", Ratio(led.shards_touched, led.batches),
       "count"},
      {"server.scan_multi_shard_frac",
       Ratio(scans.multi_shard_scans, scans.scans), "ratio"},
      {"server.contention_ns_per_op", Ratio(p1_ns, p1_ops) - exec_1c, "ns"},
      {"server.traced_speedup_vs_sorted_array", traced_speedup, "x"},
      {"core.multiget_ns_per_key",
       src(kSpanMultiGet, "core.multiget_ns_per_key").PerItem(kSpanMultiGet),
       "ns"},
      {"core.get_hit_ratio", Ratio(gets.hits, gets.gets), "ratio"},
      {"core.probes_per_lookup", Ratio(probes, lookups), "count"},
      {"core.multiput_ns_per_key",
       src(kSpanMultiPut, "core.multiput_ns_per_key").PerItem(kSpanMultiPut),
       "ns"},
      {"core.load_multiput_ns_per_key", rt.PerItem(kSpanLoadMultiPut), "ns"},
      {"core.delete_ns", src(kSpanDelete, "core.delete_ns").PerItem(kSpanDelete),
       "ns"},
      {"core.cursor_seek_ns",
       src(kSpanCursorSeek, "core.cursor_seek_ns").PerItem(kSpanCursorSeek),
       "ns"},
      {"core.cursor_step_ns_per_item",
       src(kSpanCursorStep, "core.cursor_step_ns_per_item")
           .PerItem(kSpanCursorStep),
       "ns"},
      {"durability.wal_append_p50_us", wal_ls.p50 * 1e-3, "us"},
      {"durability.wal_append_p99_us", wal_ls.p99 * 1e-3, "us"},
      {"durability.records_per_append",
       Ratio(wal.n[kSpanWalAppend], wal.count[kSpanWalAppend]), "count"},
      {"durability.wal_bytes_per_user_byte",
       &wal == &rt ? Ratio(wal_bytes_replay, led.wal_user_bytes)
                   : Ratio(wal_bytes_probe, probe.wal_user_bytes),
       "ratio"},
      {"durability.checkpoint_s", Median(cp_s), "s"},
      {"durability.checkpoint_overlap_p99_us", ov_ls.p99 * 1e-3, "us"},
      {"durability.replay_records_per_s", rec.replay_records_per_s, "1/s"},
      {"durability.recovery_cpu_s", rec.recovery_cpu_s, "s"},
      {"workload.keygen_s", keygen_s, "s"},
  };
  std::printf("ledger: %" PRIu64 " replayed batches; wal appends n=%zu (p%g "
              "%.2f us); checkpoint-overlapping batches n=%zu (p%g %.2f us); "
              "mirror get hits %" PRIu64 "/%" PRIu64 "\n",
              led.batches, wal_ls.n, wal_ls.tail_pct, wal_ls.tail * 1e-3,
              ov_ls.n, ov_ls.tail_pct, ov_ls.tail * 1e-3, gets.hits,
              gets.gets);
  std::printf("ledger metrics from the probe or the recovery history:");
  for (const std::string& name : from_probe) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");
  if (w.every_get_hits && led.hits != led.gets) {
    *failed += led.gets - led.hits;
  }

  // One trace: phase-1 spans, then the ledger's, then the probe's, with ids
  // renumbered to stay unique.
  for (uint32_t i = 0; i < trace.size(); i++) {
    trace[i].id = i;
  }
  for (const Ledger* l : {&led, &probe}) {
    const uint32_t offset = static_cast<uint32_t>(trace.size());
    for (Span s : l->spans) {
      s.id += offset;
      s.parent = s.parent == kNoParent ? kNoParent : s.parent + offset;
      trace.push_back(s);
    }
  }
  WriteTrace(cfg.trace_file, trace);
  return m;
}

// ---- main --------------------------------------------------------------------------

int Run(const Config& cfg) {
  const Workload& w = *cfg.w;
  std::error_code ec;
  std::filesystem::create_directories(cfg.wal_root, ec);

  uint64_t t0 = NowNs();
  std::vector<std::string> raw =
      wh::GenerateKeyset({w.keyset, wh::ScaledCount(w.keyset, w.scale), cfg.seed});
  // Router boundaries from an evenly strided sample of the generated keys
  // (generation order is random, so the stride is a uniform sample).
  std::vector<std::string> samples;
  const size_t stride = std::max<size_t>(1, raw.size() / kRouterSamples);
  for (size_t i = 0; i < raw.size(); i += stride) {
    samples.push_back(raw[i]);
  }
  const KeySpace keys(std::move(raw));
  std::vector<uint32_t> order(keys.size());
  for (uint32_t i = 0; i < order.size(); i++) {
    order[i] = i;
  }
  wh::Rng shuffle_rng(cfg.seed ^ 0x10adull);
  for (size_t i = order.size(); i > 1; i--) {
    std::swap(order[i - 1], order[shuffle_rng.NextBounded(i)]);
  }
  const wh::ShardRouter router =
      wh::ShardRouter::FromSamples(std::move(samples), kShards);
  const BatchGen gen(w, keys, cfg.seed);
  const double keygen_s = Seconds(NowNs() - t0);

  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"git_sha\": \"%s\", \"source_digest\": \"%s\", \"compiler\": "
      "\"%s\", \"nproc\": %u, \"clients\": %zu, \"keys\": %zu, \"shards\": "
      "%zu, \"batch\": %zu, \"seconds\": %g, \"trace\": %d, \"wal\": \"%s\", "
      "\"wal_fs\": \"%s\"}\n",
      w.name, cfg.seed, JsonEscape(cfg.git_sha).c_str(),
      JsonEscape(cfg.source_digest).c_str(), JsonEscape(__VERSION__).c_str(),
      std::thread::hardware_concurrency(), kClients, keys.size(),
      router.shard_count(), kBatch, cfg.seconds, cfg.trace ? 1 : 0,
      w.durable ? "fsync=always" : "off", JsonEscape(cfg.wal_fs).c_str());

  uint64_t attempted = 0;
  uint64_t failed = 0;
  // setup_s: each set-up's CPU time, without the reference batches its
  // loading threads ran, scaled to the workload's nominal reference speed
  // (ref_batch_us over the reference batch measured during that set-up).
  // It then follows the store's set-up work, not the host's speed.
  std::vector<double> setup_scaled;
  Setup setup;
  std::printf("set-ups (cpu s / wall s / reference batch us):");
  for (int rep = 0; rep < (cfg.trace ? 1 : kSetupRepeats); rep++) {
    setup.svc.reset();
    setup = BuildService(cfg, keys, order, router, gen);
    setup_scaled.push_back(setup.cpu_s * Ratio(w.ref_batch_us, setup.ref_us));
    std::printf(" %.4f/%.4f/%.2f", setup.cpu_s, setup.wall_s, setup.ref_us);
    attempted += setup.attempted;
    failed += setup.failed;
  }
  std::printf("\n");
  Service* svc = setup.svc.get();

  LoopOut loop = RunClosedLoop(svc, w, keys, gen, cfg.seconds, cfg.trace);
  uint64_t gets = 0;
  uint64_t hits = 0;
  for (const ClientOut& co : loop.clients) {
    attempted += co.attempted;
    failed += co.failed;
    gets += co.gets;
    hits += co.hits;
  }
  failed += loop.failed;
  const LoopSummary sum = SummarizeLoop(loop);
  std::printf("vs the sorted-array reference: speedup %.4f, batch p50 %.4f x, "
              "p99 %.4f x (means over %zu per-client slices of >= %zu "
              "batches)\n",
              sum.speedup, sum.p50_x, sum.p99_x, sum.slices, kSliceSamples);
  std::printf("on-CPU: %.4f Mop/cpu-s; reference batch %.2f us\n",
              sum.cpu_mops, sum.ref_us);
  std::printf("whole window, on-CPU: %zu batch samples, p50 %.2f us, p99 "
              "%.2f us, p%g %.2f us\n",
              sum.cpu.n, sum.cpu.p50 * 1e-3, sum.cpu.p99 * 1e-3,
              sum.cpu.tail_pct, sum.cpu.tail * 1e-3);
  std::printf("whole window, wall clock: %.4f Mop/s (%zu clients, between "
              "reference batches), p50 %.2f "
              "us, p99 %.2f us, p%g %.2f us; get hits %" PRIu64 "/%" PRIu64
              ", checkpoints %zu\n",
              sum.wall_mops, kClients, sum.wall.p50 * 1e-3,
              sum.wall.p99 * 1e-3, sum.wall.tail_pct, sum.wall.tail * 1e-3,
              hits, gets, loop.checkpoints.size());
  if (sum.slices == 0) {
    std::fprintf(stderr, "a client ran fewer than %zu batches, too few for a "
                 "p99\n", kSliceSamples);
    failed++;
  }

  std::vector<Metric> metrics;
  if (cfg.trace) {
    metrics = RunLedger(cfg, keys, order, router, gen, svc, loop, sum.speedup,
                        keygen_s, &attempted, &failed);
  }

  const double mem_per_key = Ratio(static_cast<double>(svc->MemoryBytes()),
                                   static_cast<double>(svc->size()));
  if (w.durable) {
    // The item set read back by scans before shutdown must be exactly the
    // item set a fresh Service recovers from the directories left behind.
    std::vector<std::pair<std::string, std::string>> before;
    RunInQsbrThread([&] { before = FullScan(svc); });
    setup.svc.reset();
    RunInQsbrThread([&] {
      Service recovered(MakeServiceOptions(true, cfg.wal_root + "/main"),
                        router);
      const uint64_t bad = CompareItemSets(before, FullScan(&recovered));
      std::printf("durable item set: %zu items before shutdown, %" PRIu64
                  " mismatches after recovery\n",
                  before.size(), bad);
      failed += bad;
      failed += recovered.durability_status().ok() ? 0 : 1;
    });
  }
  setup.svc.reset();
  std::filesystem::remove_all(cfg.wal_root + "/main", ec);
  std::filesystem::remove_all(cfg.wal_root + "/mirror", ec);

  if (!cfg.trace) {
    metrics = {
        {"speedup_vs_sorted_array", sum.speedup, "x"},
        {"batch_p50_vs_sorted_array", sum.p50_x, "x"},
        {"batch_p99_vs_sorted_array", sum.p99_x, "x"},
        {"setup_s", Median(setup_scaled), "s"},
        {"mem_bytes_per_key", mem_per_key, "B"},
    };
  }
  std::printf("failed_frac %.6g (%" PRIu64 " of %" PRIu64 ")\n",
              Ratio(failed, attempted), failed, attempted);
  PrintResult(attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Freed memory stays in the process instead of going back to the kernel,
  // so repeated set-ups and recoveries reuse pages that are already mapped.
  // First-touch page faults, whose cost in a guest depends on the host, then
  // fall only on the first set-up and stay out of the medians.
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  perfbench::Config cfg;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), nullptr);
    } else if (flag == "--trace") {
      cfg.trace = val == "1";
    } else if (flag == "--wal-root") {
      cfg.wal_root = val;
    } else if (flag == "--trace-file") {
      cfg.trace_file = val;
    } else if (flag == "--wal-fs") {
      cfg.wal_fs = val;
    } else if (flag == "--git-sha") {
      cfg.git_sha = val;
    } else if (flag == "--source-digest") {
      cfg.source_digest = val;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  for (const auto& w : perfbench::kWorkloads) {
    if (workload == w.name) {
      cfg.w = &w;
    }
  }
  if (cfg.w == nullptr || cfg.wal_root.empty() || !(cfg.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload {read-url|scan-az1|"
                 "update-zipf-durable} --seed N --seconds S --trace 0|1 "
                 "--wal-root DIR [--trace-file F]\n");
    return 2;
  }
  return perfbench::Run(cfg);
}
