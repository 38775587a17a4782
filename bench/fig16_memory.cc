// Fig. 16: memory usage of each index after loading each keyset, against the
// baseline of sum(key length + one 8-byte pointer) per key. Values are megabytes
// at the current scale (paper reports GB at full scale; ratios are comparable).
#include <vector>

#include "bench/common.h"

int main(int argc, char** argv) {
  wh::BenchInit("fig16_memory", argc, argv);
  const wh::BenchEnv env = wh::GetBenchEnv();
  std::vector<std::string> cols;
  for (const wh::KeysetId id : wh::kAllKeysets) {
    cols.push_back(wh::KeysetName(id));
  }
  wh::PrintHeader("Fig. 16: memory usage (MB) after load", cols);
  for (const char* name : {"SkipList", "B+tree", "ART", "Masstree", "Wormhole"}) {
    std::vector<double> row;
    for (const wh::KeysetId id : wh::kAllKeysets) {
      const auto& keys = wh::GetKeyset(id, env.scale);
      auto index = wh::MakeIndex(name);
      wh::LoadIndex(index.get(), keys);
      row.push_back(static_cast<double>(index->MemoryBytes()) / 1e6);
    }
    wh::PrintRow(name, row);
  }
  // Baseline: minimal demand = key bytes + one pointer per key (paper's formula).
  std::vector<double> base;
  for (const wh::KeysetId id : wh::kAllKeysets) {
    const auto& keys = wh::GetKeyset(id, env.scale);
    double bytes = 0;
    for (const auto& k : keys) {
      bytes += static_cast<double>(k.size()) + 8.0;
    }
    base.push_back(bytes / 1e6);
  }
  wh::PrintRow("Baseline", base);
  return 0;
}
