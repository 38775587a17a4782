// Measurement primitives of the service benchmark, kept in one header so the
// benchmark's own tests (ledger_test.cc) exercise exactly the code the
// benchmark runs: value fingerprints, latency percentiles, the per-slice
// ratios against the reference, span self time, and the scrambled-Zipfian
// key chooser.
#ifndef WH_PERFBENCH_LEDGER_H_
#define WH_PERFBENCH_LEDGER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace perfbench {

// ---- value fingerprints ----------------------------------------------------

// Every Put writes these 8 bytes as the key's value, so any Get hit can be
// checked against its own key without a reference map.
inline uint64_t KeyHash(std::string_view key) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a, then a SplitMix finalizer
  for (unsigned char c : key) {
    h = (h ^ c) * 0x100000001b3ull;
  }
  return wh::SplitMix64(h);
}

inline std::string Fingerprint(std::string_view key) {
  const uint64_t h = KeyHash(key);
  std::string v(sizeof(h), '\0');
  std::memcpy(v.data(), &h, sizeof(h));
  return v;
}

inline bool HasFingerprint(std::string_view key, std::string_view value) {
  const uint64_t h = KeyHash(key);
  return value.size() == sizeof(h) &&
         std::memcmp(value.data(), &h, sizeof(h)) == 0;
}

// ---- latency percentiles ---------------------------------------------------

// Nearest-rank percentile of ascending samples: the smallest sample with at
// least pct% of all samples at or below it. Requires a non-empty input.
inline uint64_t PercentileSorted(const std::vector<uint64_t>& sorted,
                                 double pct) {
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

// The highest percentile of the ladder below that leaves at least ten samples
// beyond it, i.e. n * (100 - p) / 100 >= 10; 0 when even p50 does not (fewer
// than 20 samples). A tail is only reported where the sample supports it.
inline double HighestSupportedPercentile(size_t n) {
  static constexpr double kLadder[] = {99.999, 99.99, 99.9, 99.0, 90.0, 50.0};
  for (double p : kLadder) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) {
      return p;
    }
  }
  return 0.0;
}

struct LatencySummary {
  size_t n = 0;
  uint64_t p50 = 0;
  uint64_t p99 = 0;        // valid only when tail_pct >= 99
  double tail_pct = 0.0;   // HighestSupportedPercentile(n)
  uint64_t tail = 0;       // the sample at tail_pct
};

inline LatencySummary Summarize(std::vector<uint64_t> samples) {
  LatencySummary s;
  s.n = samples.size();
  if (samples.empty()) {
    return s;
  }
  std::sort(samples.begin(), samples.end());
  s.p50 = PercentileSorted(samples, 50.0);
  s.p99 = PercentileSorted(samples, 99.0);
  s.tail_pct = HighestSupportedPercentile(s.n);
  s.tail = s.tail_pct > 0 ? PercentileSorted(samples, s.tail_pct) : 0;
  return s;
}

// ---- paired reference slices -------------------------------------------------

// Ratios of one client's Execute calls to the reference batches it ran in
// between, per slice of its timed window. exec_ns[i] is batch i's on-CPU
// time; ref_ns[j] is a reference batch's, run right after batch
// ref_at[j] - 1 (ref_at is non-decreasing). A core that slows down slows
// both sides, so the ratios of a slice do not depend on its speed.
struct SliceRatios {
  std::vector<double> speedup;  // mean reference time / mean Execute time
  std::vector<double> p50_x;    // Execute p50 / mean reference time
  std::vector<double> p99_x;    // Execute p99 / mean reference time
};

// Cuts the batches, in order, into n / slice slices of equal count (so each
// holds at least `slice`) and appends each slice's ratios to *out. Returns
// the number of slices: 0 when there are fewer than `slice` batches.
inline size_t AddSliceRatios(const std::vector<uint64_t>& exec_ns,
                             const std::vector<uint64_t>& ref_ns,
                             const std::vector<uint64_t>& ref_at,
                             size_t slice, SliceRatios* out) {
  const auto mean = [](auto lo, auto hi) {
    double sum = 0;
    for (auto it = lo; it != hi; ++it) {
      sum += static_cast<double>(*it);
    }
    return hi == lo ? 0.0 : sum / static_cast<double>(hi - lo);
  };
  const size_t n = exec_ns.size();
  const size_t k = slice == 0 ? 0 : n / slice;
  for (size_t i = 0; i < k; i++) {
    const size_t lo = n * i / k;
    const size_t hi = n * (i + 1) / k;
    // Reference batches run after one of this slice's batches.
    const auto rlo = std::lower_bound(ref_at.begin(), ref_at.end(), lo + 1) -
                     ref_at.begin();
    const auto rhi = std::lower_bound(ref_at.begin(), ref_at.end(), hi + 1) -
                     ref_at.begin();
    const double ref = mean(ref_ns.begin() + rlo, ref_ns.begin() + rhi);
    const std::vector<uint64_t> s(exec_ns.begin() + static_cast<std::ptrdiff_t>(lo),
                                  exec_ns.begin() + static_cast<std::ptrdiff_t>(hi));
    const double exec = mean(s.begin(), s.end());
    const LatencySummary ls = Summarize(s);
    const auto ratio = [](double num, double den) {
      return den == 0 ? 0.0 : num / den;
    };
    out->speedup.push_back(ratio(ref, exec));
    out->p50_x.push_back(ratio(static_cast<double>(ls.p50), ref));
    out->p99_x.push_back(ratio(static_cast<double>(ls.p99), ref));
  }
  return k;
}

// ---- spans -----------------------------------------------------------------

inline constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  uint16_t name = 0;     // index into the benchmark's span-name table
  uint32_t id = 0;       // unique within one trace
  uint32_t parent = kNoParent;
  uint64_t batch = 0;    // client << 40 | batch index
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t n = 0;        // work items the span covered (keys, records, items)

  uint64_t duration() const { return end_ns - start_ns; }
};

// Length of the union of [start, end) intervals: children that overlap one
// another are counted once.
inline uint64_t CoveredNs(std::vector<std::pair<uint64_t, uint64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  uint64_t covered = 0;
  uint64_t run_start = 0;
  uint64_t run_end = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (e <= s) {
      continue;
    }
    if (open && s <= run_end) {
      run_end = std::max(run_end, e);
      continue;
    }
    if (open) {
      covered += run_end - run_start;
    }
    run_start = s;
    run_end = e;
    open = true;
  }
  if (open) {
    covered += run_end - run_start;
  }
  return covered;
}

// A span's self time: its duration minus the time its children cover. The
// children are not clipped to the parent's interval, because in the layer
// ledger a batch's children are the replay of that batch through each
// layer's entry points and run after the Service call they account for.
// Negative when the children took longer than the parent.
inline int64_t SelfTimeNs(const Span& parent, const std::vector<Span>& children) {
  std::vector<std::pair<uint64_t, uint64_t>> iv;
  iv.reserve(children.size());
  for (const Span& c : children) {
    iv.emplace_back(c.start_ns, c.end_ns);
  }
  return static_cast<int64_t>(parent.duration()) -
         static_cast<int64_t>(CoveredNs(std::move(iv)));
}

// ---- scrambled Zipfian -----------------------------------------------------

// Zipfian over n items with exponent theta: rank r (0 = hottest) is drawn
// with probability (r + 1)^-theta / zeta(n, theta), by inverting the exact
// CDF. A seeded permutation maps ranks to item indices ("scrambled"), so the
// hot items are scattered over the key order and across shards instead of
// clustering at the start of the keyspace.
class ScrambledZipf {
 public:
  ScrambledZipf(size_t n, double theta, uint64_t seed) : cdf_(n), perm_(n) {
    double sum = 0.0;
    for (size_t r = 0; r < n; r++) {
      sum += std::pow(static_cast<double>(r + 1), -theta);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) {
      c /= sum;
    }
    zeta_ = sum;
    theta_ = theta;
    std::iota(perm_.begin(), perm_.end(), 0u);
    wh::Rng rng(seed);
    for (size_t i = n; i > 1; i--) {
      std::swap(perm_[i - 1], perm_[rng.NextBounded(i)]);
    }
  }

  size_t NextRank(wh::Rng& rng) const {
    const double u = rng.NextDouble();
    const size_t r = static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(r, cdf_.size() - 1);
  }

  size_t Next(wh::Rng& rng) const { return perm_[NextRank(rng)]; }

  size_t ItemOfRank(size_t rank) const { return perm_[rank]; }

  double RankProbability(size_t rank) const {
    return std::pow(static_cast<double>(rank + 1), -theta_) / zeta_;
  }

 private:
  std::vector<double> cdf_;
  std::vector<uint32_t> perm_;
  double zeta_ = 1.0;
  double theta_ = 0.0;
};

}  // namespace perfbench

#endif  // WH_PERFBENCH_LEDGER_H_
