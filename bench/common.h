// Shared benchmark harness: index adapters, keyset cache, fixed-duration
// multithreaded throughput measurement, and paper-style table printing.
//
// Environment knobs (all benches):
//   WH_BENCH_SCALE    keyset scale factor (default 0.05; 1.0 ~ 2M keys max;
//                     the paper's sizes correspond to ~250)
//   WH_BENCH_THREADS  max thread count (default min(16, hardware), clamp 1-256)
//   WH_BENCH_SECONDS  seconds per measured cell (default 0.4, clamp (0, 600])
#ifndef BENCH_COMMON_H_
#define BENCH_COMMON_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/cursor.h"
#include "src/workload/keysets.h"

namespace wh {

class Service;  // src/server/service.h; only LoadService callers need it

struct BenchEnv {
  double scale = 0.05;
  int threads = 16;
  double seconds = 0.4;
};
BenchEnv GetBenchEnv();

// Machine-readable output: call first in main(). With --json on the command
// line (or WH_BENCH_JSON=1) the table printers below collect instead of
// print, and one JSON document — {"bench", "env", "sections": [{"title",
// "cols", "rows": [{"label", "values"}]}]} — is written to stdout when the
// process exits (scripts/bench_snapshot.sh aggregates these into
// BENCH_<date>.json). Without the flag, behavior is unchanged. The table
// printers are main-thread-only either way.
void BenchInit(const char* bench_name, int argc, char** argv);
bool BenchJsonMode();

// True when `flag` appears anywhere in argv (position-independent, so bench
// flags compose with --json in any order).
bool HasFlag(int argc, char** argv, std::string_view flag);

// Uniform runtime interface over all indexes (virtual dispatch costs ~2 ns/op,
// equal for every index, irrelevant to the relative shapes we reproduce).
class IndexIface {
 public:
  virtual ~IndexIface() = default;
  virtual const char* name() const = 0;
  virtual bool Get(std::string_view key, std::string* value) = 0;
  virtual void Put(std::string_view key, std::string_view value) = 0;
  virtual bool Delete(std::string_view key) = 0;
  virtual size_t Scan(std::string_view start, size_t count,
                      const std::function<bool(std::string_view, std::string_view)>& fn) = 0;
  // Bidirectional ordered cursor (contract in src/common/cursor.h). Every
  // index provides one; Cuckoo's is the sorted-snapshot ordered fallback.
  virtual std::unique_ptr<Cursor> NewCursor() = 0;
  virtual uint64_t MemoryBytes() const = 0;
  // True when concurrent writers are safe (Wormhole, Masstree).
  virtual bool thread_safe_writes() const = 0;
};

// Factory names: "SkipList", "B+tree", "ART", "Masstree", "Wormhole",
// "Cuckoo", plus "Wormhole[base|+tm|+ih|+st|+dp]" for the Fig. 11 ablation
// configurations and "Wormhole[+split]" for the split-point heuristic on top
// of them. Every Wormhole name builds the same thread-safe class; only its
// Options differ.
std::unique_ptr<IndexIface> MakeIndex(const std::string& name);

// Cached keyset access (generation is deterministic; cache avoids regenerating
// across measurements within one binary).
const std::vector<std::string>& GetKeyset(KeysetId id, double scale);

// Loads all keys (value = 8-byte payload as in the paper's index-only focus).
void LoadIndex(IndexIface* index, const std::vector<std::string>& keys);

// Evenly strided sample of at most ~`count` keys, the shared input to
// ShardRouter::FromSamples — one sampling policy across the service benches
// keeps their shard layouts comparable.
std::vector<std::string> SampleKeys(const std::vector<std::string>& keys,
                                    size_t count);

// Loads all keys into the sharded service through batched Put requests. Runs
// on a scoped worker thread so the calling thread never joins the shards'
// QSBR domains at all — RunThroughput's coordinator does quiesce every
// domain it joined (QsbrQuiesce), but staying out of them entirely keeps
// shard reclamation independent of the coordinator's cadence.
void LoadService(Service* service, const std::vector<std::string>& keys);

// Runs `worker(thread_id, stop_flag)` on `threads` threads for `seconds`; each
// worker returns its operation count. Returns million-operations-per-second.
double RunThroughput(int threads, double seconds,
                     const std::function<uint64_t(int, const std::atomic<bool>&)>& worker);

// Uniform-random point-lookup throughput (the paper's canonical measurement).
double LookupThroughput(IndexIface* index, const std::vector<std::string>& keys,
                        int threads, double seconds);

// Table printing: header row then fixed-width columns.
void PrintHeader(const std::string& title, const std::vector<std::string>& cols);
void PrintRow(const std::string& label, const std::vector<double>& values);

}  // namespace wh

#endif  // BENCH_COMMON_H_
