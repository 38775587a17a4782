// Cursor contract enforcement (src/common/cursor.h): every index MakeIndex
// can construct is walked against a std::map oracle — full forward and
// reverse sweeps, random Seek/SeekForPrev probes (present, absent, prefix,
// extension), and random Next/Prev walks mixing directions — on all 8 paper
// keysets. The unified edge semantics (empty start key, seek past either
// end, stepping an invalid cursor) are asserted for every index, so the
// subtle divergences the callback Scan API used to hide (bptree/art vs
// wormhole) cannot come back.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "src/common/cursor.h"
#include "src/common/rng.h"
#include "src/workload/keysets.h"

namespace wh {
namespace {

// Every name MakeIndex accepts (mirrors bench/common.h). Cuckoo is covered
// too: its cursor is the ordered sorted-snapshot fallback.
const char* kAllIndexNames[] = {
    "SkipList",       "B+tree",        "ART",           "Masstree",
    "Wormhole",       "Cuckoo",
    "Wormhole[base]", "Wormhole[+tm]", "Wormhole[+ih]", "Wormhole[+st]",
    "Wormhole[+dp]",  "Wormhole[+split]",
};

using Oracle = std::map<std::string, std::string>;

// A key above every generated key (keysets emit bytes < 0xfe).
std::string HighSentinel() { return std::string(64, '\xfe'); }

// Mutates a pool key into a likely-absent probe that lands on the
// anchor/prefix boundary paths (same shapes as the Scan differential).
std::string MutateKey(Rng& rng, const std::string& key) {
  std::string k = key;
  switch (rng.NextBounded(3)) {
    case 0:
      k.resize(k.size() / 2 + 1);
      break;
    case 1:
      k.push_back('~');
      break;
    default:
      if (!k.empty()) {
        k[k.size() / 2] = '!';
      }
      break;
  }
  return k;
}

void ExpectAt(Cursor* c, const Oracle::const_iterator& it, const Oracle& oracle,
              const std::string& what) {
  if (it == oracle.end()) {
    ASSERT_FALSE(c->Valid()) << what << ": cursor valid at " << c->key()
                             << ", oracle exhausted";
    return;
  }
  ASSERT_TRUE(c->Valid()) << what << ": cursor invalid, oracle at " << it->first;
  ASSERT_EQ(c->key(), it->first) << what;
  ASSERT_EQ(c->value(), it->second) << what;
}

void RunCursorDifferential(const std::string& name,
                           const std::vector<std::string>& pool, uint64_t seed) {
  SCOPED_TRACE("index=" + name);
  auto index = MakeIndex(name);
  Oracle oracle;
  Rng rng(seed);

  // Build phase: puts with overwrites plus deletions, so cursors see update
  // and (for wormhole/art/bptree) post-removal structures. All mutation
  // happens before any cursor exists — single-writer cursors are invalidated
  // by writes.
  for (size_t i = 0; i < pool.size(); i++) {
    const std::string v = "v" + std::to_string(i);
    index->Put(pool[i], v);
    oracle[pool[i]] = v;
  }
  for (size_t i = 0; i < pool.size(); i += 3) {
    index->Delete(pool[i]);
    oracle.erase(pool[i]);
  }
  ASSERT_FALSE(oracle.empty());

  auto c = index->NewCursor();

  // Full forward sweep from the empty start key.
  {
    auto it = oracle.begin();
    size_t steps = 0;
    for (c->Seek(""); ; c->Next(), ++it, ++steps) {
      ExpectAt(c.get(), it, oracle, "forward sweep @" + std::to_string(steps));
      if (it == oracle.end()) {
        break;
      }
    }
    ASSERT_EQ(steps, oracle.size());
    // Stepping an invalid cursor is a no-op: it stays invalid.
    c->Next();
    ASSERT_FALSE(c->Valid());
    c->Prev();
    ASSERT_FALSE(c->Valid());
  }

  // Full reverse sweep from a key above everything.
  {
    auto it = oracle.end();
    size_t steps = 0;
    c->SeekForPrev(HighSentinel());
    for (;;) {
      if (it == oracle.begin()) {
        // One step past the smallest key falls off the front.
        break;
      }
      --it;
      ExpectAt(c.get(), it, oracle, "reverse sweep @" + std::to_string(steps));
      c->Prev();
      steps++;
    }
    ASSERT_FALSE(c->Valid()) << "reverse sweep must exhaust";
    ASSERT_EQ(steps, oracle.size());
    c->Prev();
    ASSERT_FALSE(c->Valid());
  }

  // Edge semantics, identical for every index:
  //   Seek past the last key and SeekForPrev below the first are invalid;
  //   Seek("") is the smallest key; SeekForPrev(last) is the largest.
  c->Seek(HighSentinel());
  ASSERT_FALSE(c->Valid()) << "seek past end";
  if (oracle.count("") == 0) {
    c->SeekForPrev("");
    ASSERT_FALSE(c->Valid()) << "seek-for-prev before start";
  }
  c->Seek("");
  ASSERT_TRUE(c->Valid());
  ASSERT_EQ(c->key(), oracle.begin()->first);
  c->SeekForPrev(HighSentinel());
  ASSERT_TRUE(c->Valid());
  ASSERT_EQ(c->key(), oracle.rbegin()->first);

  // Random repositioning probes: ceil and floor of present and mutated keys.
  for (int probe = 0; probe < 200; probe++) {
    const std::string& base = pool[rng.NextBounded(pool.size())];
    const std::string target =
        rng.NextBounded(2) == 0 ? base : MutateKey(rng, base);
    c->Seek(target);
    ExpectAt(c.get(), oracle.lower_bound(target), oracle, "Seek " + target);
    c->SeekForPrev(target);
    auto floor = oracle.upper_bound(target);
    ExpectAt(c.get(), floor == oracle.begin() ? oracle.end() : --floor, oracle,
             "SeekForPrev " + target);
  }

  // Random walks mixing Next and Prev from a random interior position.
  for (int walk = 0; walk < 40; walk++) {
    const std::string start = pool[rng.NextBounded(pool.size())];
    c->Seek(start);
    auto it = oracle.lower_bound(start);
    for (int step = 0; step < 24; step++) {
      if (rng.NextBounded(2) == 0) {
        if (it != oracle.end()) {
          ++it;
        }
        c->Next();
      } else {
        // The oracle mirror of Prev-on-invalid staying invalid: only step
        // the iterator while the cursor is valid.
        if (it == oracle.end()) {
          c->Prev();  // no-op by contract
        } else if (it == oracle.begin()) {
          it = oracle.end();  // fell off the front: invalid
          c->Prev();
        } else {
          --it;
          c->Prev();
        }
      }
      if (it == oracle.end()) {
        ASSERT_FALSE(c->Valid()) << "walk " << walk << " step " << step;
        break;  // both sides invalid; a fresh walk re-seeks
      }
      ExpectAt(c.get(), it, oracle,
               "walk " + std::to_string(walk) + " step " + std::to_string(step));
    }
  }
}

TEST(CursorDifferential, AllIndexesAllKeysets) {
  for (const KeysetId id : kAllKeysets) {
    SCOPED_TRACE(std::string("keyset=") + KeysetName(id));
    const auto pool = GenerateKeyset({id, 500, 13});
    for (const char* name : kAllIndexNames) {
      RunCursorDifferential(name, pool, 0xc0ffee ^ static_cast<uint64_t>(id));
    }
  }
}

// The Scan entry points are wrappers over cursors now; make sure the wrapper
// preserves the documented callback semantics (inclusive start, early stop
// counted, count cap) for a couple of representative indexes.
TEST(CursorDifferential, ScanWrapperMatchesCursor) {
  for (const char* name : {"Wormhole", "B+tree"}) {
    SCOPED_TRACE(std::string("index=") + name);
    auto index = MakeIndex(name);
    for (int i = 0; i < 300; i++) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "key%04d", i);
      index->Put(buf, "v");
    }
    std::vector<std::string> scanned;
    const size_t n =
        index->Scan("key0100", 5, [&](std::string_view k, std::string_view) {
          scanned.emplace_back(k);
          return scanned.size() < 3;  // early stop on the 3rd invocation
        });
    ASSERT_EQ(n, 3u);
    ASSERT_EQ(scanned,
              (std::vector<std::string>{"key0100", "key0101", "key0102"}));
    auto c = index->NewCursor();
    std::vector<std::string> walked;
    for (c->Seek("key0100"); c->Valid() && walked.size() < 3; c->Next()) {
      walked.emplace_back(c->key());
    }
    ASSERT_EQ(scanned, walked);
  }
}

}  // namespace
}  // namespace wh
