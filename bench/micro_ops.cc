// Microbenchmarks (google-benchmark) of the primitives behind Wormhole's
// O(log L) claim: CRC32C hashing (one-shot vs incremental), MetaTrieHT LPM
// search, leaf point search with/without DirectPos, and end-to-end Get/Put.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/common/crc32c.h"
#include "src/common/rng.h"
#include "src/core/wormhole.h"
#include "src/workload/keysets.h"

namespace wh {
namespace {

std::vector<std::string> MakeKeys(size_t n, size_t len) {
  return GenerateFixedLenKeyset(n, len, /*zero_filled_prefix=*/false, 123);
}

void BM_Crc32cOneShot(benchmark::State& state) {
  const std::string key(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(key.data(), key.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32cOneShot)->Arg(8)->Arg(64)->Arg(256)->Arg(1024);

void BM_Crc32cIncrementalExtend(benchmark::State& state) {
  // The IncHashing primitive: extend a saved state by 8 bytes.
  const std::string key(1024, 'x');
  uint32_t st = kCrc32cInit;
  size_t off = 0;
  for (auto _ : state) {
    st = Crc32cExtend(st, key.data() + off, 8);
    benchmark::DoNotOptimize(st);
    off = (off + 8) & 1023;
  }
}
BENCHMARK(BM_Crc32cIncrementalExtend);

void BM_WormholeGet(benchmark::State& state) {
  const auto keys = MakeKeys(100000, static_cast<size_t>(state.range(0)));
  Wormhole index;
  for (const auto& k : keys) {
    index.Put(k, "v");
  }
  Rng rng(5);
  std::string value;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Get(keys[rng.NextBounded(keys.size())], &value));
  }
}
BENCHMARK(BM_WormholeGet)->Arg(8)->Arg(64)->Arg(256);

void BM_WormholeGetNoDirectPos(benchmark::State& state) {
  const auto keys = MakeKeys(100000, 64);
  Options opt;
  opt.direct_pos = false;
  Wormhole index(opt);
  for (const auto& k : keys) {
    index.Put(k, "v");
  }
  Rng rng(5);
  std::string value;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Get(keys[rng.NextBounded(keys.size())], &value));
  }
}
BENCHMARK(BM_WormholeGetNoDirectPos);

void BM_WormholePut(benchmark::State& state) {
  const auto keys = MakeKeys(200000, 24);
  Wormhole index;
  size_t i = 0;
  for (auto _ : state) {
    index.Put(keys[i], "v");
    i = (i + 1) % keys.size();
  }
}
BENCHMARK(BM_WormholePut);

void BM_WormholeScan100(benchmark::State& state) {
  const auto keys = MakeKeys(100000, 24);
  Wormhole index;
  for (const auto& k : keys) {
    index.Put(k, "v");
  }
  Rng rng(6);
  for (auto _ : state) {
    size_t sink = 0;
    index.Scan(keys[rng.NextBounded(keys.size())], 100,
               [&](std::string_view k, std::string_view) {
                 sink += k.size();
                 return true;
               });
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_WormholeScan100);

}  // namespace
}  // namespace wh

BENCHMARK_MAIN();
