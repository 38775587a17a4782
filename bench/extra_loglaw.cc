// Extra experiment (not a paper figure, but the paper's core claim): measured
// MetaTrieHT probes per lookup must grow like O(log L) with key/anchor length and
// stay flat in N (the key count).
//
// Columns: average probes per lookup. For Klong keysets the anchor length tracks
// the key length L, so probes ~ log2(L); for Kshort anchors stay short and probes
// stay nearly constant. The N-sweep holds L fixed and scales the key count 16x.
#include <cstdio>
#include <cmath>

#include "bench/common.h"
#include "src/common/rng.h"
#include "src/core/wormhole.h"

namespace {

double AvgProbes(const std::vector<std::string>& keys) {
  wh::Options opt;
  opt.count_probes = true;
  wh::Wormhole index(opt);
  for (const auto& k : keys) {
    index.Put(k, "v");
  }
  wh::Rng rng(5);
  std::string v;
  const int lookups = 100000;
  for (int i = 0; i < lookups; i++) {
    index.Get(keys[rng.NextBounded(keys.size())], &v);
  }
  return index.stats().avg_probes();
}

}  // namespace

int main() {
  std::printf("# O(log L) validation: MetaTrieHT probes per lookup\n\n");

  std::printf("Probes vs key length L (100k keys each):\n");
  std::printf("%-10s %10s %10s %10s\n", "L (bytes)", "Klong", "Kshort", "log2(L)");
  for (const size_t len : {8, 16, 32, 64, 128, 256, 512}) {
    const auto klong = wh::GenerateFixedLenKeyset(100000, len, /*zero_filled=*/true, 3);
    const auto kshort = wh::GenerateFixedLenKeyset(100000, len, /*zero_filled=*/false, 3);
    std::printf("%-10zu %10.2f %10.2f %10.2f\n", len, AvgProbes(klong), AvgProbes(kshort),
                std::log2(static_cast<double>(len)));
  }

  std::printf("\nProbes vs key count N (L = 64 B, zero-filled prefixes):\n");
  std::printf("%-10s %10s\n", "N", "probes");
  for (const size_t n : {25000, 100000, 400000}) {
    const auto keys = wh::GenerateFixedLenKeyset(n, 64, /*zero_filled=*/true, 4);
    std::printf("%-10zu %10.2f\n", n, AvgProbes(keys));
  }
  std::printf(
      "\n(Paper claim: lookup cost O(log min(L_anc, L_key)), independent of N.)\n");
  return 0;
}
