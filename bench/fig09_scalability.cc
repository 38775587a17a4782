// Fig. 9: lookup throughput vs number of threads on the Az1 keyset, for skip
// list, B+ tree, ART, Masstree and Wormhole. The paper's thread-unsafe
// Wormhole row is not reproduced: the index has one class, the thread-safe
// one, whose lock-free reads are what this figure measures.
#include <cstdio>
#include <string_view>
#include <vector>

#include "bench/common.h"

int main(int argc, char** argv) {
  wh::BenchInit("fig09_scalability", argc, argv);
  const wh::BenchEnv env = wh::GetBenchEnv();
  const auto& keys = wh::GetKeyset(wh::KeysetId::kAz1, env.scale);

  std::vector<int> thread_counts;
  for (int t = 1; t <= env.threads; t *= 2) {
    thread_counts.push_back(t);
  }
  if (thread_counts.back() != env.threads) {
    thread_counts.push_back(env.threads);
  }

  std::vector<std::string> cols;
  cols.reserve(thread_counts.size());
  for (const int t : thread_counts) {
    cols.push_back(std::to_string(t) + "T");
  }
  wh::PrintHeader("Fig. 9: lookup throughput (MOPS) vs threads, keyset Az1", cols);

  std::vector<double> wormhole_row;
  for (const char* name : {"SkipList", "B+tree", "ART", "Masstree", "Wormhole"}) {
    auto index = wh::MakeIndex(name);
    wh::LoadIndex(index.get(), keys);
    std::vector<double> row;
    row.reserve(thread_counts.size());
    for (const int t : thread_counts) {
      row.push_back(wh::LookupThroughput(index.get(), keys, t, env.seconds));
    }
    wh::PrintRow(name, row);
    if (std::string_view(name) == "Wormhole") {
      wormhole_row = row;
    }
  }
  // The paper's headline claim (near-linear read scalability) as one number:
  // aggregate throughput at the highest thread count relative to one thread.
  // (Prose, so it stays out of the machine-readable JSON document.)
  if (!wh::BenchJsonMode() && wormhole_row.size() >= 2 && wormhole_row.front() > 0.0) {
    std::printf("# Wormhole scaling: %.2fx at %dT vs 1T\n",
                wormhole_row.back() / wormhole_row.front(),
                thread_counts.back());
  }
  return 0;
}
