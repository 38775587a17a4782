// Fig. 18: range-lookup throughput — seek to a random key and scan the
// following (up to) 100 keys. ART is omitted exactly as in the paper (its
// reference implementation has no range scan; ours does, shown with
// --with-art). Beyond the paper's figure, the cursor refactor adds the shapes
// the callback API could not express: reverse scans (Prev over 100 keys) and
// YCSB-E-style short scans (limit 16 and 128), each emitted as its own
// section / --json rows.
//
// Reading the rows: each index pays its cursor protocol's honest price.
// Wormhole's cursor runs the speculative-then-locked protocol (see README
// "Cursors" and wormhole.h): the bench declares each scan's length via
// SetScanLimitHint, so every positioning fills a bounded flat window — one
// validated slab read of exactly the items the scan will emit, still with no
// lock held across user code. Masstree and ART cursors re-descend from the root
// per step. Shapes within an index (forward vs reverse vs short) are the
// comparison this figure adds; the drain emits its limit-th item without a
// trailing step, as a real request loop would.
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/common/cursor.h"
#include "src/common/rng.h"

namespace {

// One range op: position at a random key, then take `limit` cursor steps in
// `forward` direction. Counts whole ranges per second, as the paper does.
double RangeThroughput(wh::IndexIface* index, const std::vector<std::string>& keys,
                       bool forward, size_t limit, int threads, double seconds) {
  return wh::RunThroughput(threads, seconds, [&](int tid, const std::atomic<bool>& stop) {
    wh::Rng rng(4242 + static_cast<uint64_t>(tid));
    uint64_t ops = 0;
    const size_t n = keys.size();
    size_t sink = 0;
    auto cursor = index->NewCursor();
    cursor->SetScanLimitHint(limit);  // bounded windows where supported
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string& start = keys[rng.NextBounded(n)];
      size_t got = 0;
      // Emit the limit-th item without stepping past it: an overstep would
      // charge every range one repositioning nobody consumes.
      if (forward) {
        cursor->Seek(start);
        while (cursor->Valid()) {
          sink += cursor->key().size();
          if (++got == limit) {
            break;
          }
          cursor->Next();
        }
      } else {
        cursor->SeekForPrev(start);
        while (cursor->Valid()) {
          sink += cursor->key().size();
          if (++got == limit) {
            break;
          }
          cursor->Prev();
        }
      }
      ops++;  // one range operation
    }
    (void)sink;
    return ops;
  });
}

struct Shape {
  const char* title;
  bool forward;
  size_t limit;
};

}  // namespace

int main(int argc, char** argv) {
  wh::BenchInit("fig18_range", argc, argv);
  const bool with_art = wh::HasFlag(argc, argv, "--with-art");
  const wh::BenchEnv env = wh::GetBenchEnv();
  std::vector<std::string> cols;
  for (const wh::KeysetId id : wh::kAllKeysets) {
    cols.push_back(wh::KeysetName(id));
  }
  std::vector<const char*> names = {"SkipList", "B+tree", "Masstree", "Wormhole"};
  if (with_art) {
    names.insert(names.begin() + 2, "ART");
  }
  const Shape shapes[] = {
      {"forward scan 100", true, 100},
      {"reverse scan 100", false, 100},
      {"short scan 16 (YCSB-E)", true, 16},
      {"short scan 128 (YCSB-E)", true, 128},
  };
  constexpr size_t kShapes = sizeof(shapes) / sizeof(shapes[0]);
  // Load each (index, keyset) once and measure all four shapes on it — index
  // loading dominates wall time at full scale — then emit per-shape sections.
  std::vector<std::vector<std::vector<double>>> rows(
      kShapes, std::vector<std::vector<double>>(names.size()));
  for (size_t n = 0; n < names.size(); n++) {
    for (const wh::KeysetId id : wh::kAllKeysets) {
      const auto& keys = wh::GetKeyset(id, env.scale);
      auto index = wh::MakeIndex(names[n]);
      wh::LoadIndex(index.get(), keys);
      for (size_t s = 0; s < kShapes; s++) {
        rows[s][n].push_back(RangeThroughput(index.get(), keys, shapes[s].forward,
                                             shapes[s].limit, env.threads,
                                             env.seconds));
      }
    }
  }
  const std::string threads_suffix =
      ", " + std::to_string(env.threads) + " threads";
  for (size_t s = 0; s < kShapes; s++) {
    wh::PrintHeader("Fig. 18: range lookup throughput (M ranges/s), " +
                        std::string(shapes[s].title) + threads_suffix,
                    cols);
    for (size_t n = 0; n < names.size(); n++) {
      wh::PrintRow(names[n], rows[s][n]);
    }
  }
  return 0;
}
