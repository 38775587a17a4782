#include "src/core/wormhole.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <thread>

#include "src/common/bytes.h"
#include "src/common/crc32c.h"
#include "src/common/qsbr.h"

namespace wh {

namespace {

uint32_t HashPrefix(std::string_view prefix) {
  return Crc32cExtend(kCrc32cInit, prefix.data(), prefix.size());
}

uint16_t TagOf(uint32_t hash) { return static_cast<uint16_t>(hash >> 16); }

// Registers the calling thread with the index's QSBR domain before any shared
// pointer is loaded (so concurrent reclaimers account for it) and reports a
// quiescent state on the way out of the operation.
struct QsbrOp {
  Qsbr* qsbr;
  Qsbr::Slot* slot;
  explicit QsbrOp(Qsbr* q) : qsbr(q), slot(q->CurrentSlot()) {}
  ~QsbrOp() { qsbr->Quiesce(slot); }
};

// Full-key CRC32C for the DirectPos in-leaf search, derived from the LPM's
// saved prefix state: `state` hashes key[0, lo), and extending a raw CRC32C
// state over the tail equals hashing the whole key from byte 0. Returns 0
// when DirectPos is off (the in-leaf search is hash-free by design).
uint32_t ExtendKvHash(bool direct_pos, uint32_t state, std::string_view key,
                      size_t lo) {
  if (!direct_pos) {
    return 0;
  }
  return key.size() > lo ? Crc32cExtend(state, key.data() + lo, key.size() - lo)
                         : state;
}

// Read prefetch with high temporal locality; a hint only, so a null (failed
// optimistic load) is simply skipped.
inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  if (p != nullptr) {
    __builtin_prefetch(p, 0, 3);
  }
#else
  (void)p;
#endif
}

}  // namespace

// --- structure and invariants ----------------------------------------------
//
// Invariants (see wormhole.h for the model):
//   - Anchors, node prefixes and list membership order are immutable; only
//     pointers between objects change, always via release stores.
//   - All structural mutation (split / removal / table growth) happens under
//     meta_mu_, so there is at most one structural writer; readers see any
//     interleaving of its atomic stores and rely on leaf validation + retry.
//   - Unlinked leaves / nodes / bucket lines are retired to QSBR, never
//     freed inline: a lock-free reader routed through stale state must be
//     able to dereference it, fail validation, and retry safely.

// One MetaTrieHT node: a distinct prefix of some anchor. lmost/rmost bound the
// contiguous run of leaves whose anchors carry this prefix; child_bits marks
// which next bytes extend it to a longer anchor prefix; has_terminal marks that
// a leaf's anchor equals the prefix exactly (that leaf is then lmost).
// Every field is lock-free-readable. Pre-publication initialization
// uses relaxed stores (the bucket pointer swap that publishes the node is a
// release store); all later in-place updates are release stores.
struct Wormhole::Node {
  const std::string prefix;
  std::atomic<Leaf*> lmost{nullptr};
  std::atomic<Leaf*> rmost{nullptr};
  std::atomic<bool> has_terminal{false};
  std::atomic<uint64_t> child_bits[4];

  explicit Node(std::string p) : prefix(std::move(p)) {
    for (auto& w : child_bits) {
      w.store(0, std::memory_order_relaxed);
    }
  }

  void SetChild(uint8_t b) {
    child_bits[b >> 6].fetch_or(1ull << (b & 63), std::memory_order_release);
  }
  void ClearChild(uint8_t b) {
    child_bits[b >> 6].fetch_and(~(1ull << (b & 63)), std::memory_order_release);
  }

  // Largest child byte <= t, or -1.
  int LargestChildLE(uint8_t t) const {
    int w = t >> 6;
    const int bit = t & 63;
    uint64_t bits = child_bits[w].load(std::memory_order_acquire) &
                    (bit == 63 ? ~0ull : (2ull << bit) - 1);
    while (true) {
      if (bits != 0) {
        return (w << 6) + 63 - __builtin_clzll(bits);
      }
      if (--w < 0) {
        return -1;
      }
      bits = child_bits[w].load(std::memory_order_acquire);
    }
  }
};

struct Wormhole::Leaf {
  const std::string anchor;
  std::atomic<Leaf*> prev{nullptr};
  std::atomic<Leaf*> next{nullptr};
  // Per-leaf lock: writers, and readers whose optimistic attempts failed;
  // below meta_mu_ in the hierarchy (a thread holding `lock` never acquires
  // meta_mu_, and never a second leaf's lock).
  mutable Mutex lock;
  // Seqlock write counter (protocol helpers in leaf_ops.h): odd exactly while
  // a locked writer is inside a SeqlockWriteSection — every in-leaf mutation,
  // the split's store swap + linkage update, and removal — and a net +2 per
  // section. Lock-free readers (OptimisticLeafGet) snapshot an even value,
  // copy speculatively, and revalidate; cursors compare equality across
  // window boundaries (any change, structural or in-leaf, forces a
  // re-rank/re-route). All accesses outside the leaf_ops.h helpers use
  // explicit memory_order — enforced by the seqlock-order lint rule.
  std::atomic<uint64_t> version{0};
  // Retirement flag (version parity no longer encodes it): set inside the
  // removal's write section, under the exclusive lock + meta_mu_, right
  // before the leaf is unlinked. Lock-free readers check it after the
  // speculative copy; a racy early read only costs a retry.
  std::atomic<bool> dead{false};
  leafops::LeafStore store GUARDED_BY(lock);

  explicit Leaf(std::string a) : anchor(std::move(a)) {}
  bool retired() const {  // lock-free callers included
    return dead.load(std::memory_order_acquire);
  }
};

namespace {

// Replaced SpecVec blocks from a published leaf store go through QSBR: a
// lock-free reader's op-scoped epoch (or a cursor's pin) may still be
// loading from the old block when the writer swaps in a replacement.
void FreeStoreBlock(void* block) { ::operator delete(block); }

void RetireStoreBlock(void* ctx, void* block) {
  static_cast<Qsbr*>(ctx)->Retire(block, &FreeStoreBlock);
}

}  // namespace

struct Wormhole::Table {
  const size_t mask;
  std::vector<std::atomic<Bucket*>> buckets;  // immutable COW chains

  explicit Table(size_t n) : mask(n - 1), buckets(n) {
    for (auto& b : buckets) {
      b.store(nullptr, std::memory_order_relaxed);
    }
  }
};

Wormhole::Wormhole(const Options& opt, Qsbr* qsbr) : opt_(opt), qsbr_(qsbr) {
  if (opt_.leaf_capacity < 4) {
    opt_.leaf_capacity = 4;
  } else if (opt_.leaf_capacity > 4096) {
    opt_.leaf_capacity = 4096;
  }
  head_ = new Leaf("");  // anchor "" — covers everything until the first split
  head_->store.release = {&RetireStoreBlock, qsbr_};
  root_ = new Node("");
  root_->lmost.store(head_, std::memory_order_relaxed);
  root_->rmost.store(head_, std::memory_order_relaxed);
  root_->has_terminal.store(true, std::memory_order_relaxed);
  Table* t = new Table(256);
  const uint32_t h = HashPrefix({});
  Bucket* b = new Bucket();
  b->tags[0] = TagOf(h);
  b->nodes[0] = root_;
  b->count = 1;
  t->buckets[h & t->mask].store(b, std::memory_order_relaxed);
  table_.store(t, std::memory_order_release);
  node_count_ = 1;
}

Wormhole::~Wormhole() {
  // Contract: no concurrent operations; every other thread has quiesced or
  // exited. Free the live structure, then drain whatever this index retired.
  Table* t = table_.load(std::memory_order_acquire);
  for (auto& slot : t->buckets) {
    Bucket* b = slot.load(std::memory_order_relaxed);
    // lint:allow(qsbr-free): destructor contract — all threads quiesced
    metabucket::ForEach(b, [](uint16_t, Node* nd) { delete nd; });
    metabucket::FreeChain(b);
  }
  delete t;  // lint:allow(qsbr-free): destructor contract — all threads quiesced
  for (Leaf* l = head_; l != nullptr;) {
    Leaf* next = l->next.load(std::memory_order_relaxed);
    delete l;  // lint:allow(qsbr-free): destructor contract — all threads quiesced
    l = next;
  }
  qsbr_->Quiesce(qsbr_->CurrentSlot());
  // Bounded drain of the domain: reclaim while making progress. With this
  // index's threads quiesced (the contract), everything it retired is freed
  // here; anything still blocked belongs to *other* indexes sharing the
  // domain or to stale registrants, and spinning on it (Qsbr::Drain) could
  // hang this destructor on state it does not own. Leftovers are freed by
  // later reclaims or by ~Qsbr.
  while (qsbr_->TryReclaim() > 0) {
  }
}

// --- lock-free read path ---------------------------------------------------

// hot-path: one LPM probe's line-chain walk
Wormhole::Node* Wormhole::FindNodeInChain(const Bucket* b, uint32_t hash,
                                          std::string_view prefix) const {
  return metabucket::Find(b, TagOf(hash), opt_.tag_matching, opt_.sort_by_tag,
                          [&](const Node* nd) { return nd->prefix == prefix; });
}

// hot-path: child-descent probe
Wormhole::Node* Wormhole::FindChildInChain(const Bucket* b, uint32_t hash,
                                           std::string_view prefix,
                                           char extra) const {
  const size_t len = prefix.size() + 1;
  return metabucket::Find(b, TagOf(hash), opt_.tag_matching, opt_.sort_by_tag,
                          [&](const Node* nd) {
                            const std::string& p = nd->prefix;
                            return p.size() == len && p.back() == extra &&
                                   std::memcmp(p.data(), prefix.data(),
                                               prefix.size()) == 0;
                          });
}

// hot-path: per-probe bucket dispatch
Wormhole::Node* Wormhole::LookupNode(const Table* t, uint32_t hash,
                                     std::string_view prefix) const {
  return FindNodeInChain(
      t->buckets[hash & t->mask].load(std::memory_order_acquire), hash, prefix);
}

// One key's route to its leaf: the LPM binary search over prefix lengths,
// then at most one child probe. Each probe is split at its bucket-line load,
// so RouteToLeaf can run the steps back to back and MultiGet can interleave
// a group of routes around prefetches.
struct Wormhole::Route {
  std::string_view key;
  size_t lo;  // LPM invariant: best->prefix.size() == lo, lo_state hashes
  size_t hi;  // key[0, lo), and the match length lies in [lo, hi]
  size_t m;   // prefix length of the pending LPM probe
  uint32_t lo_state;
  uint32_t probe_hash;  // hash of the pending probe's prefix
  uint32_t kv_hash;     // DirectPos full-key hash, set once the LPM is done
  uint32_t probes;      // MetaTrieHT probes consumed
  Node* best;
  const std::atomic<Bucket*>* slot;  // pending probe's bucket head slot
  Leaf* leaf;  // once done; null if a node was observed mid-publication
  char child_byte;
  bool child;  // the pending probe is the child probe
  bool done;
};

// hot-path: route setup
[[gnu::always_inline]] inline void Wormhole::RouteBegin(
    const Table* t, std::string_view key, Route* r) const {
  r->key = key;
  r->lo = 0;
  r->hi = std::min(key.size(), max_anchor_len_.load(std::memory_order_relaxed));
  r->lo_state = kCrc32cInit;
  r->probes = 0;
  r->best = root_;
  r->child = false;
  r->done = false;
  RouteResolve(t, r);
}

// hot-path: one route step
[[gnu::always_inline]] inline void Wormhole::RouteStep(
    const Table* t, Route* r, const Bucket* line) const {
  r->probes++;
  if (r->child) {
    Node* c = FindChildInChain(line, r->probe_hash, r->best->prefix,
                               r->child_byte);
    // A null child: the child bit and the bucket were observed from
    // different instants.
    r->leaf = c == nullptr ? nullptr : c->rmost.load(std::memory_order_acquire);
    r->done = true;
    return;
  }
  if (Node* n = FindNodeInChain(line, r->probe_hash, r->key.substr(0, r->m))) {
    r->best = n;
    r->lo = r->m;
    r->lo_state = r->probe_hash;
  } else {
    r->hi = r->m - 1;
  }
  RouteResolve(t, r);
}

// hot-path: next probe, or the leaf
[[gnu::always_inline]] inline void Wormhole::RouteResolve(const Table* t,
                                                          Route* r) const {
  const std::string_view key = r->key;
  if (r->lo < r->hi) {
    r->m = (r->lo + r->hi + 1) / 2;
    r->probe_hash = opt_.inc_hashing
                        ? Crc32cExtend(r->lo_state, key.data() + r->lo,
                                       r->m - r->lo)
                        : Crc32cExtend(kCrc32cInit, key.data(), r->m);
    r->slot = &t->buckets[r->probe_hash & t->mask];
    return;
  }
  // The LPM is done. Reuse its prefix state for the DirectPos full-key hash
  // instead of rehashing the key from byte 0.
  r->kv_hash = ExtendKvHash(opt_.direct_pos, r->lo_state, key, r->lo);
  if (r->lo < key.size()) {
    const int c = r->best->LargestChildLE(static_cast<uint8_t>(key[r->lo]));
    if (c >= 0) {
      r->child_byte = static_cast<char>(c);
      r->probe_hash = Crc32cExtend(r->lo_state, &r->child_byte, 1);
      r->slot = &t->buckets[r->probe_hash & t->mask];
      r->child = true;
      return;
    }
  }
  Leaf* lm = r->best->lmost.load(std::memory_order_acquire);
  r->leaf = lm == nullptr  // node observed mid-publication
                ? nullptr
                : (r->best->has_terminal.load(std::memory_order_acquire)
                       ? lm
                       : lm->prev.load(std::memory_order_acquire));
  r->done = true;
}

void Wormhole::CountLookups(uint64_t lookups, uint64_t probes) const {
  if (opt_.count_probes) {
    lookups_.fetch_add(lookups, std::memory_order_relaxed);
    probes_.fetch_add(probes, std::memory_order_relaxed);
  }
}

// hot-path: every lookup routes through here
Wormhole::Leaf* Wormhole::RouteToLeaf(std::string_view key,
                                      uint32_t* kv_hash) const {
  const Table* t = table_.load(std::memory_order_acquire);
  Route r;
  RouteBegin(t, key, &r);
  while (!r.done) {
    RouteStep(t, &r, r.slot->load(std::memory_order_acquire));
  }
  CountLookups(1, r.probes);
  *kv_hash = r.kv_hash;
  return r.leaf;
}

// hot-path: per-acquire validation
bool Wormhole::Covers(const Leaf* leaf, std::string_view key) {
  // Locked callers hold leaf->lock (either mode): the leaf's own range only
  // changes under that lock held exclusively; a *successor's* removal can
  // swing leaf->next concurrently, but that only grows the true range, so a
  // stale next either accepts correctly or rejects and retries. Lock-free
  // callers (OptimisticLeafGet) use this purely as a pre-filter — anchors
  // are immutable, the loads are atomic, and a racy verdict is caught by the
  // seqlock validation that follows.
  if (leaf->retired()) {
    return false;
  }
  if (key < std::string_view(leaf->anchor)) {
    return false;
  }
  const Leaf* nx = leaf->next.load(std::memory_order_acquire);
  return nx == nullptr || key < std::string_view(nx->anchor);
}

// hot-path: the lock-free point read (one attempt)
Wormhole::SpecOutcome Wormhole::OptimisticLeafGet(Leaf* leaf,
                                                  std::string_view key,
                                                  uint32_t kv_hash,
                                                  std::string* value) const {
  const uint64_t begin = leafops::SeqlockReadBegin(leaf->version);
  if ((begin & 1) != 0) {
    return SpecOutcome::kRetry;  // writer mid-section; reading is pointless
  }
  if (!Covers(leaf, key)) {
    return SpecOutcome::kRetry;  // stale route (split/removed); re-route
  }
  const leafops::SpecRead r =
      leafops::SpecFind(leaf->store, opt_.direct_pos, key, kv_hash, value);
  if (r == leafops::SpecRead::kInconsistent) {
    return SpecOutcome::kRetry;
  }
  // The acquire fence inside orders every speculative load above before the
  // version re-read; an unchanged even version (and a still-live leaf) means
  // no write section overlapped the copy — the snapshot is consistent.
  if (!leafops::SeqlockReadValidate(leaf->version, begin) || leaf->retired()) {
    return SpecOutcome::kRetry;
  }
  return r == leafops::SpecRead::kFound ? SpecOutcome::kHit : SpecOutcome::kMiss;
}

Wormhole::Leaf* Wormhole::AcquireLeaf(std::string_view key,
                                      uint32_t* kv_hash) {
  for (int attempt = 0; attempt < 64; attempt++) {
    Leaf* leaf = RouteToLeaf(key, kv_hash);
    if (leaf == nullptr) {
      std::this_thread::yield();
      continue;
    }
    leaf->lock.lock();
    if (Covers(leaf, key)) {
      return leaf;
    }
    leaf->lock.unlock();
  }
  // Structural churn outran optimistic routing; serialize with the writers —
  // under meta_mu_ the trie is stable, so the route is exact.
  ScopedLock g(meta_mu_);
  Leaf* leaf = RouteToLeaf(key, kv_hash);
  assert(leaf != nullptr);
  leaf->lock.lock();
  assert(Covers(leaf, key));
  return leaf;
}

// --- public API ------------------------------------------------------------

bool Wormhole::ReadKey(Leaf* leaf, std::string_view key, uint32_t kv_hash,
                       std::string* value, bool* routed) {
  // Fast path: one seqlock-validated speculative read per attempt, routing
  // lock-free whenever there is no candidate leaf. The caller's QsbrOp is
  // what makes the lockless dereferences safe — the thread's epoch stays
  // pinned for the whole operation, so a leaf (or a store block) retired
  // mid-read cannot be freed under us.
  for (uint32_t attempt = 0; attempt < opt_.optimistic_retries; attempt++) {
    if (leaf == nullptr) {
      leaf = RouteToLeaf(key, &kv_hash);  // self-counts the lookup
      *routed = true;
      if (leaf == nullptr) {
        continue;  // routed mid-publication; re-route
      }
    }
    const SpecOutcome oc = OptimisticLeafGet(leaf, key, kv_hash, value);
    if (oc != SpecOutcome::kRetry) {
      return oc == SpecOutcome::kHit;
    }
    leaf = nullptr;
  }
  // Fallback (also the whole path when optimistic_retries is 0): the same
  // reader under the leaf lock, where no write section can be open, so
  // validation cannot fail. AcquireLeaf locks + validates coverage with
  // bounded retries, serializing with structural writers in the limit —
  // readers cannot livelock.
  *routed = true;
  for (;;) {
    leaf = AcquireLeaf(key, &kv_hash);
    leaf->lock.AssertHeld();  // handed over by AcquireLeaf (NO_TSA)
    const SpecOutcome oc = OptimisticLeafGet(leaf, key, kv_hash, value);
    leaf->lock.unlock();
    if (oc != SpecOutcome::kRetry) {
      return oc == SpecOutcome::kHit;
    }
  }
}

bool Wormhole::Get(std::string_view key, std::string* value) {
  QsbrOp op(qsbr_);
  bool routed = false;
  return ReadKey(nullptr, key, 0, value, &routed);
}

size_t Wormhole::MultiGet(const std::vector<std::string_view>& keys,
                          std::vector<std::string>* values,
                          std::vector<uint8_t>* hits) {
  const size_t n = keys.size();
  values->resize(n);
  hits->assign(n, 0);
  if (n == 0) {
    return 0;
  }
  QsbrOp op(qsbr_);
  size_t found = 0;

  // The batch runs groups of kGroup Routes interleaved: every round each
  // in-flight route loads its pending probe's bucket head and prefetches
  // the line, then consumes the line and prefetches its next probe's bucket
  // slot, or its resolved leaf's header. The serial path pays each trie-walk
  // cache miss back-to-back; here up to kGroup misses are in flight at once.
  constexpr size_t kGroup = 8;
  Route rt[kGroup];
  const Bucket* lines[kGroup];
  for (size_t base = 0; base < n; base += kGroup) {
    const size_t g = std::min(kGroup, n - base);
    const Table* t = table_.load(std::memory_order_acquire);
    for (size_t i = 0; i < g; i++) {
      RouteBegin(t, keys[base + i], &rt[i]);
      PrefetchRead(rt[i].done ? static_cast<const void*>(rt[i].leaf)
                              : rt[i].slot);
    }
    for (bool active = true; active;) {
      active = false;
      for (size_t i = 0; i < g; i++) {
        if (!rt[i].done) {
          lines[i] = rt[i].slot->load(std::memory_order_acquire);
          PrefetchRead(lines[i]);
          active = true;
        }
      }
      for (size_t i = 0; i < g; i++) {
        if (!rt[i].done) {
          RouteStep(t, &rt[i], lines[i]);
          PrefetchRead(rt[i].done ? static_cast<const void*>(rt[i].leaf)
                                  : rt[i].slot);
        }
      }
    }

    // Validate, don't lock. Each key runs serial Get's reader, seeded with
    // its route's leaf as the first candidate (its header is already in
    // cache). The fast path touches no leaf lock at all.
    uint64_t probes = 0;
    size_t rerouted = 0;  // keys whose re-route/fallback self-counted lookups
    for (size_t i = 0; i < g; i++) {
      probes += rt[i].probes;
      std::string* out = &(*values)[base + i];
      bool routed = false;
      if (ReadKey(rt[i].leaf, keys[base + i], rt[i].kv_hash, out, &routed)) {
        (*hits)[base + i] = 1;
        found++;
      } else {
        out->clear();
      }
      if (routed) {
        rerouted++;
      }
    }
    // A re-routed or fallback key's lookups are counted by RouteToLeaf (per
    // attempt, matching the serial Get path); counting those keys here as
    // well would inflate probes-per-lookup relative to serial measurements.
    CountLookups(g - rerouted, probes);
  }
  return found;
}

void Wormhole::MultiPut(
    const std::vector<std::pair<std::string_view, std::string_view>>& items) {
  QsbrOp op(qsbr_);
  Leaf* leaf = nullptr;  // held exclusively while non-null
  uint32_t h = 0;
  for (const auto& [key, value] : items) {
    if (leaf != nullptr && Covers(leaf, key)) {
      // Reused route: no LPM ran for this key, so there is no prefix state
      // to extend — derive the DirectPos hash from byte 0.
      h = ExtendKvHash(opt_.direct_pos, kCrc32cInit, key, 0);
    } else {
      if (leaf != nullptr) {
        leaf->lock.unlock();
      }
      leaf = AcquireLeaf(key, &h);
    }
    const int slot = leafops::FindSlot(leaf->store, opt_.direct_pos, key, h);
    if (slot >= 0) {
      leafops::SeqlockWriteSection ws(&leaf->version);
      leafops::UpdateValue(&leaf->store, static_cast<uint16_t>(slot), value);
      continue;
    }
    if (leaf->store.size() < opt_.leaf_capacity) {
      {
        leafops::SeqlockWriteSection ws(&leaf->version);
        leafops::Insert(&leaf->store, opt_.direct_pos, key, value, h);
      }
      item_count_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Full leaf: drop the cached lock (PutSlow serializes on meta_mu_ and
    // must never run with a leaf lock held) and take the split path.
    leaf->lock.unlock();
    leaf = nullptr;
    PutSlow(key, value);
  }
  if (leaf != nullptr) {
    leaf->lock.unlock();
  }
}

void Wormhole::Put(std::string_view key, std::string_view value) {
  QsbrOp op(qsbr_);
  uint32_t h;
  Leaf* leaf = AcquireLeaf(key, &h);
  leaf->lock.AssertHeld();  // handed over by AcquireLeaf (NO_TSA)
  const int slot = leafops::FindSlot(leaf->store, opt_.direct_pos, key, h);
  if (slot >= 0) {
    {
      leafops::SeqlockWriteSection ws(&leaf->version);
      leafops::UpdateValue(&leaf->store, static_cast<uint16_t>(slot), value);
    }
    leaf->lock.unlock();
    return;
  }
  if (leaf->store.size() < opt_.leaf_capacity) {
    {
      leafops::SeqlockWriteSection ws(&leaf->version);
      leafops::Insert(&leaf->store, opt_.direct_pos, key, value, h);
    }
    item_count_.fetch_add(1, std::memory_order_relaxed);
    leaf->lock.unlock();
    return;
  }
  leaf->lock.unlock();
  PutSlow(key, value);
}

void Wormhole::PutSlow(std::string_view key, std::string_view value) {
  ScopedLock g(meta_mu_);
  // Re-resolve the leaf: between the fast path dropping its lock and this
  // point, a concurrent writer may have split (or emptied and removed) the
  // leaf the fast path saw, so the cached pointer must not be trusted.
  uint32_t h;
  Leaf* leaf = RouteToLeaf(key, &h);
  leaf->lock.lock();
  const int slot = leafops::FindSlot(leaf->store, opt_.direct_pos, key, h);
  if (slot >= 0) {
    {
      leafops::SeqlockWriteSection ws(&leaf->version);
      leafops::UpdateValue(&leaf->store, static_cast<uint16_t>(slot), value);
    }
    leaf->lock.unlock();
    return;
  }
  if (leaf->store.size() < opt_.leaf_capacity) {  // a concurrent split made room
    {
      leafops::SeqlockWriteSection ws(&leaf->version);
      leafops::Insert(&leaf->store, opt_.direct_pos, key, value, h);
    }
    item_count_.fetch_add(1, std::memory_order_relaxed);
    leaf->lock.unlock();
    return;
  }
  SplitAndInsert(leaf, key, value, h);
  leaf->lock.unlock();  // `leaf` is the split's left half, still covered
}

bool Wormhole::Delete(std::string_view key) {
  QsbrOp op(qsbr_);
  uint32_t h;
  Leaf* leaf = AcquireLeaf(key, &h);
  leaf->lock.AssertHeld();  // handed over by AcquireLeaf (NO_TSA)
  const int slot = leafops::FindSlot(leaf->store, opt_.direct_pos, key, h);
  if (slot < 0) {
    leaf->lock.unlock();
    return false;
  }
  if (leaf->store.size() > 1 || leaf == head_) {
    {
      leafops::SeqlockWriteSection ws(&leaf->version);
      leafops::Erase(&leaf->store, opt_.direct_pos,
                     static_cast<uint16_t>(slot));
    }
    item_count_.fetch_sub(1, std::memory_order_relaxed);
    leaf->lock.unlock();
    return true;
  }
  // Erasing would empty a non-head leaf: a structural change.
  leaf->lock.unlock();
  return DeleteSlow(key);
}

bool Wormhole::DeleteSlow(std::string_view key) {
  ScopedLock g(meta_mu_);
  uint32_t h;
  Leaf* leaf = RouteToLeaf(key, &h);  // re-resolve, as in PutSlow
  leaf->lock.lock();
  const int slot = leafops::FindSlot(leaf->store, opt_.direct_pos, key, h);
  if (slot < 0) {
    leaf->lock.unlock();
    return false;
  }
  {
    // The erase and the removal below are separate sections: sections must
    // not nest, and the gap between them only exposes a valid (empty) store.
    leafops::SeqlockWriteSection ws(&leaf->version);
    leafops::Erase(&leaf->store, opt_.direct_pos, static_cast<uint16_t>(slot));
  }
  item_count_.fetch_sub(1, std::memory_order_relaxed);
  if (leaf->store.size() == 0 && leaf != head_) {
    RemoveLeafLocked(leaf);
  }
  leaf->lock.unlock();
  return true;
}

// Epoch-pinned concurrent cursor (protocol in wormhole.h). Between calls it
// holds only the QSBR pin, a leaf pointer + version snapshot, and the filled
// window — never a lock, so a parked cursor blocks no writer and user code
// never runs under a leaf lock.
//
// Two window modes, picked by SetScanLimitHint:
//   unbounded (hint 0, the default): every refill copies the rest of the
//     leaf's ordered window from the seek rank on, so a full sweep pays one
//     refill per leaf.
//   bounded (hint n): a refill copies at most n items — a short scan that
//     fits the window emits straight from one validated slab read and never
//     touches the bytes it will not return. Draining past a truncated window
//     edge continues inside the same leaf under a version check (no
//     re-route) and only falls back to the hash route on a lost race.
//
// One reader fills every window: TrySpecFill, the seqlock-bracketed
// leafops::SpecFillWindow copy (relaxed loads, every index/offset clamped to
// its block, then an acquire fence + version re-read + dead-flag recheck).
// It runs lock-free first, exactly like Get; after Options::optimistic_retries
// lost races (or from the start when that is 0) the operation reruns it under
// the leaf lock, where no write section can be open and validation cannot
// fail — only a moved or retired leaf still re-routes. Once an
// operation takes the lock it stays locked: bouncing back into speculation
// under the very churn that defeated it would burn retries without bounding
// the work. Hops and continuations revalidate against the snapshot version
// the same way in both modes, so a read-only scan on the lock-free path
// performs ZERO atomic RMW: no leaf lock word is ever written, and the only
// stores land in the cursor's own window buffer. Every fill reuses one
// FlatWindow — one flat buffer, no per-item allocation — and computes the
// seek rank against the same snapshot it copies, so the items a positioning
// skips are never copied.
class Wormhole::CursorImpl final : public Cursor {
 public:
  explicit CursorImpl(Wormhole* wh) : wh_(wh), slot_(wh->qsbr_->CurrentSlot()) {
    // The pin freezes this thread's epoch: leaf_ stays dereferenceable across
    // calls even after the leaf is unlinked and retired.
    wh_->qsbr_->Pin(slot_);
  }
  ~CursorImpl() override {
    wh_->qsbr_->Unpin(slot_);
    wh_->qsbr_->Quiesce(slot_);
  }

  void Seek(std::string_view target) override { SeekTo<true>(target); }
  void SeekForPrev(std::string_view target) override {
    SeekTo<false>(target);
  }

  bool Valid() const override {
    EnsurePositioned();
    return valid_;
  }

  void SetScanLimitHint(size_t items_per_positioning) override {
    hint_ = items_per_positioning;
  }

  void Next() override { Step<true>(); }
  void Prev() override { Step<false>(); }

  std::string_view key() const override {
    EnsurePositioned();
    return win_.KeyAt(pos_);
  }
  std::string_view value() const override {
    EnsurePositioned();
    return win_.ValueAt(pos_);
  }

 private:
  // A deferred window-boundary step parked by Next()/Prev(): bound_ and
  // strict_ already name the logical position; the refill that materializes
  // it runs on the next query. Every public entry point funnels through
  // EnsurePositioned() first, so the deferral is never observable.
  enum class Pending { kNone, kForward, kBackward };

  // The scan direction is a template parameter (kFwd: ascending keys) so
  // each direction compiles to straight-line code on the per-item path; a
  // runtime direction argument measured ~2% slower on a YCSB-E scan mix.
  template <bool kFwd>
  void SeekTo(std::string_view target) {
    bound_.assign(target);
    strict_ = false;
    consumed_ = 0;
    pending_ = Pending::kNone;
    Position<kFwd>(/*locked=*/false);
  }

  template <bool kFwd>
  void Step() {
    EnsurePositioned();
    if (!valid_) {
      return;
    }
    consumed_++;
    if (kFwd ? pos_ + 1 < win_.size() : pos_ > 0) {
      pos_ = kFwd ? pos_ + 1 : pos_ - 1;
      return;
    }
    // Window drained: the logical position is "first key beyond the one we
    // just returned" — remember it so any fallback re-routes exactly there.
    // assign(), not a view: the refill is about to recycle the flat buffer.
    bound_.assign(win_.KeyAt(pos_));
    strict_ = true;
    // Defer the refill until the cursor is queried again (Valid/key/value or
    // another step). A bounded scan's LAST step always drains its window;
    // refilling eagerly there would copy a whole window — up to half of all
    // fill work for a scan that fits one window — that the caller, who is
    // about to stop, never reads.
    pending_ = kFwd ? Pending::kForward : Pending::kBackward;
  }

  void EnsurePositioned() const {
    if (pending_ != Pending::kNone) {
      auto* self = const_cast<CursorImpl*>(this);
      pending_ == Pending::kForward ? self->Advance<true>()
                                    : self->Advance<false>();
    }
  }

  // A truncated window left items behind in this very leaf — a leaf hop
  // would skip them, so continue inside the (revalidated) leaf instead.
  // Otherwise hop: lock-free first, then under the lock, and a failed locked
  // hop retries as a locked continuation — re-rank under the coverage check
  // and hop from the fresh snapshot, far cheaper than a full re-route.
  template <bool kFwd>
  void Advance() {
    pending_ = Pending::kNone;
    if (kFwd ? trunc_hi_ : trunc_lo_) {
      Continue<kFwd>(/*locked=*/false);
    } else if ((wh_->opt_.optimistic_retries == 0 ||
                !Hop<kFwd>(/*locked=*/false)) &&
               !Hop<kFwd>(/*locked=*/true)) {
      Continue<kFwd>(/*locked=*/true);
    }
  }

  // Remaining per-positioning budget: the hint promises "about hint_ items
  // consumed per Seek/SeekForPrev", so a continuation mid-scan only needs
  // what is left of that promise — a 100-item scan that drains 68 items off
  // its first leaf copies 32 from the next, not a fresh 100. A caller that
  // oversteps its own hint keeps getting hint_-sized windows (one re-fill
  // per hint_ items) rather than degenerate one-item refills.
  size_t Budget() const {
    if (hint_ == 0) {
      return 0;  // unbounded mode
    }
    return consumed_ < hint_ ? hint_ - consumed_ : hint_;
  }

  // Verdict of one fill attempt. kMoved is the coverage check rejecting
  // bound_ (leaf split past it / retired / stale route): the bound lives
  // elsewhere, so retrying the same leaf is pointless — reposition instead.
  enum class SpecFill { kOk, kRetry, kMoved };

  // One window fill against `leaf`, bracketed by the seqlock protocol
  // exactly like OptimisticLeafGet: even-version snapshot, coverage check,
  // bounds-clamped SpecFillWindow copy, then acquire fence + version re-read
  // + dead-flag recheck. On kOk the window, truncation flags, and the
  // (leaf_, leaf_version_) snapshot are installed — the validated even
  // `begin` IS the snapshot version every later hop or continuation
  // revalidates. `has_bound` selects the rank source: the bound_ rank search
  // (first key (strict_ ? > : >=) bound_ forward, keys (strict_ ? < : <=)
  // bound_ backward) for positioning/continuation fills, or the leaf edge
  // for hop fills (which check only the dead flag — a hop target
  // legitimately does not cover bound_). Lock-free it performs no atomic
  // RMW on any outcome; under the leaf lock only kMoved (or a retired hop
  // target) can fail it.
  // NO_TSA: the seqlock-reader shape (sync.h usage rules) — reads
  // GUARDED_BY(leaf->lock) data with no lock held (or, as the fallback,
  // with it held) and discards the result unless the version
  // validates; the TSan hammer tests exercise the race.
  template <bool kFwd>
  SpecFill TrySpecFill(Leaf* leaf, bool has_bound) NO_THREAD_SAFETY_ANALYSIS {
    const uint64_t begin = leafops::SeqlockReadBegin(leaf->version);
    if ((begin & 1) != 0) {
      return SpecFill::kRetry;  // writer mid-section; reading is pointless
    }
    if (has_bound) {
      if (!Covers(leaf, bound_)) {
        return SpecFill::kMoved;
      }
    } else if (leaf->retired()) {
      return SpecFill::kRetry;
    }
    const leafops::SpecWindow w = leafops::SpecFillWindow(
        leaf->store, kFwd, has_bound, bound_, kFwd == strict_, Budget(),
        &win_);
    if (!w.ok) {
      return SpecFill::kRetry;  // internally impossible snapshot
    }
    if (!leafops::SeqlockReadValidate(leaf->version, begin) ||
        leaf->retired()) {
      return SpecFill::kRetry;
    }
    trunc_lo_ = w.lo > 0;
    trunc_hi_ = w.hi < w.n;
    leaf_ = leaf;
    leaf_version_ = begin;
    return SpecFill::kOk;
  }

  // TrySpecFill, run under leaf->lock when `locked`.
  template <bool kFwd>
  SpecFill Fill(Leaf* leaf, bool has_bound, bool locked) {
    if (!locked) {
      return TrySpecFill<kFwd>(leaf, has_bound);
    }
    ScopedLock lk(leaf->lock);
    return TrySpecFill<kFwd>(leaf, has_bound);
  }

  // Positions on a validated window's first item in scan direction; false
  // when the window is empty (the fill reached the leaf edge, so a hop
  // completes the step). Reached only with no lock held, which is what
  // makes the deep neighbor prefetch legal. The prefetch runs only when the
  // window reached the leaf edge in scan direction — a truncated window's
  // next fill continues inside THIS leaf, so the neighbor's lines would be
  // fetched for nothing (and bounded short scans would pay it on every
  // positioning).
  template <bool kFwd>
  bool Land() {
    if (win_.size() == 0) {
      return false;
    }
    pos_ = kFwd ? 0 : win_.size() - 1;
    valid_ = true;
    if (kFwd ? !trunc_hi_ : !trunc_lo_) {
      PrefetchNeighborData(leaf_, kFwd);
    }
    return true;
  }

  // Warm the likely next hop target while the caller drains this window:
  // header plus the store's ordered index, slot array, and slab head — the
  // lines the next fill touches first. No lock is held here, and reaching
  // the neighbor's block pointers is an atomic AcquireView (a prefetch of
  // the payload is not a memory access the model sees).
  // NO_TSA: same lock-free neighbor peek as TrySpecFill.
  void PrefetchNeighborData(const Leaf* leaf,
                            bool fwd) NO_THREAD_SAFETY_ANALYSIS {
    const Leaf* nb =
        (fwd ? leaf->next : leaf->prev).load(std::memory_order_acquire);
    if (nb == nullptr) {
      return;
    }
    PrefetchRead(nb);
    PrefetchRead(nb->store.by_key.AcquireView().p);
    PrefetchRead(nb->store.slots.AcquireView().p);
    PrefetchRead(nb->store.slab.AcquireView().p);
  }

  // Fresh positioning at bound_: Seek, SeekForPrev, and the re-route after
  // a lost continuation race. Get's loop shape — optimistic_retries
  // lock-free attempts (route fresh each time; any lost race just
  // re-routes), then the same fill under the lock AcquireLeaf hands over.
  template <bool kFwd>
  void Position(bool locked) {
    for (uint32_t a = 0;; a++) {
      locked = locked || a >= wh_->opt_.optimistic_retries;
      uint32_t h;
      SpecFill oc = SpecFill::kRetry;
      if (locked) {
        Leaf* leaf = wh_->AcquireLeaf(bound_, &h);
        leaf->lock.AssertHeld();  // handed over by AcquireLeaf (NO_TSA)
        oc = TrySpecFill<kFwd>(leaf, /*has_bound=*/true);
        leaf->lock.unlock();
      } else if (Leaf* leaf = wh_->RouteToLeaf(bound_, &h)) {
        oc = TrySpecFill<kFwd>(leaf, /*has_bound=*/true);
      }
      // An empty window means the seek rank was the leaf's edge, so the
      // validated window "covers" through the leaf boundary and a hop
      // completes it.
      if (oc == SpecFill::kOk && (Land<kFwd>() || Hop<kFwd>(locked))) {
        return;
      }
    }
  }

  // Continuation past a truncated window edge (or a lost hop) without a
  // re-route: same leaf_, fresh rank past bound_. The version advances on
  // EVERY write section, so snapshot equality would force a re-route on any
  // in-leaf churn; the coverage check suffices: a live leaf that still
  // covers bound_ holds exactly the keys between bound_ and its current
  // next anchor, so the successor of bound_ (if any in range) lives here.
  // The fill re-snapshots the version, so a follow-up hop validates against
  // fresh state. kMoved (bound_ left the leaf) repositions; lost lock-free
  // races burn attempts, and a lost locked hop repositions too.
  template <bool kFwd>
  void Continue(bool locked) {
    for (uint32_t a = 0;; a++) {
      locked = locked || a >= wh_->opt_.optimistic_retries;
      const SpecFill oc = Fill<kFwd>(leaf_, /*has_bound=*/true, locked);
      if (oc == SpecFill::kOk && (Land<kFwd>() || Hop<kFwd>(locked))) {
        return;
      }
      if (oc == SpecFill::kMoved || locked) {
        Position<kFwd>(locked);
        return;
      }
    }
  }

  // Walks from the (leaf_, leaf_version_) snapshot, whose window reached
  // the leaf edge, to the neighbor in scan direction until a nonempty
  // window or the list end. Load the neighbor pointer, THEN revalidate the
  // version (SeqlockReadValidate's acquire fence orders the two loads): an
  // unchanged version proves leaf_ never split after the pointer was read,
  // so the neighbor still bounds everything the window covered. A
  // neighbor's plain removal swings the pointer without bumping the
  // version, but that only grows the covered range. The neighbor is filled
  // from its edge; its own validation (+ dead recheck) guards its half of
  // the race. Going backward the back-link can lag a split of pv (its new
  // right sibling slots in between them), so pv is accepted only while it
  // still links forward to cur under its validated version. That check runs
  // AFTER the fill: if it fails, the fill just installed the WRONG
  // predecessor as the snapshot, so restore the previous (still coherent)
  // one — otherwise the retry would resume from pv and skip every key in
  // between. Returns true when handled (window installed or list end
  // reached), false on any lost race.
  template <bool kFwd>
  bool Hop(bool locked) {
    for (;;) {
      Leaf* cur = leaf_;
      const uint64_t cur_version = leaf_version_;
      Leaf* nb =
          (kFwd ? cur->next : cur->prev).load(std::memory_order_acquire);
      if (!leafops::SeqlockReadValidate(cur->version, cur_version)) {
        return false;
      }
      if (nb == nullptr) {
        valid_ = false;  // list end in scan direction
        return true;
      }
      if (Fill<kFwd>(nb, /*has_bound=*/false, locked) != SpecFill::kOk) {
        return false;
      }
      if (!kFwd && (nb->next.load(std::memory_order_acquire) != cur ||
                   !leafops::SeqlockReadValidate(nb->version, leaf_version_))) {
        leaf_ = cur;
        leaf_version_ = cur_version;
        return false;
      }
      if (Land<kFwd>()) {
        return true;
      }
      // A validated empty live leaf (only ever the head): keep walking from
      // the fresh snapshot the fill installed.
    }
  }

  Wormhole* wh_;
  Qsbr::Slot* slot_;
  Leaf* leaf_ = nullptr;  // leaf win_ was filled from (pin keeps it alive)
  uint64_t leaf_version_ = 0;
  leafops::FlatWindow win_;  // flat buffers reused across refills
  size_t pos_ = 0;
  bool valid_ = false;
  bool trunc_lo_ = false;  // refill left leaf items out below the window
  bool trunc_hi_ = false;  // ... and above it
  size_t hint_ = 0;      // SetScanLimitHint: items per positioning (0 = all)
  size_t consumed_ = 0;  // steps taken since the last Seek/SeekForPrev
  std::string bound_;  // re-route point: first/last key (strict_?beyond:at) it
  bool strict_ = false;
  Pending pending_ = Pending::kNone;  // deferred boundary step (see Advance)
};

std::unique_ptr<Cursor> Wormhole::NewCursor() {
  return std::make_unique<CursorImpl>(this);
}

size_t Wormhole::Scan(std::string_view start, size_t count, const ScanFn& fn) {
  if (count == 0) {
    return 0;  // skip the cursor's pin/route round-trip entirely
  }
  QsbrOp op(qsbr_);
  CursorImpl c(this);
  return ScanViaCursor(&c, start, count, fn);
}

// --- structural writers (meta_mu_ held) ------------------------------------

void Wormhole::InsertEntry(uint32_t hash, Node* node) {
  Table* t = table_.load(std::memory_order_relaxed);
  std::atomic<Bucket*>& slot = t->buckets[hash & t->mask];
  Bucket* old = slot.load(std::memory_order_relaxed);
  Bucket* nb = metabucket::CopyChain(old);
  metabucket::Insert(nb, TagOf(hash), node, opt_.sort_by_tag);
  slot.store(nb, std::memory_order_release);
  for (Bucket* l = old; l != nullptr;) {
    Bucket* nx = l->next;  // immutable under meta_mu_; Retire only defers free
    qsbr_->Retire(l);
    l = nx;
  }
}

void Wormhole::RemoveEntry(uint32_t hash, Node* node) {
  Table* t = table_.load(std::memory_order_relaxed);
  std::atomic<Bucket*>& slot = t->buckets[hash & t->mask];
  Bucket* old = slot.load(std::memory_order_relaxed);
  bool found = false;
  Bucket* nb = metabucket::CopyChainExcept(old, node, &found);
  (void)found;
  assert(found && "MetaTrieHT entry missing on removal");
  slot.store(nb, std::memory_order_release);  // nb may be null: bucket emptied
  for (Bucket* l = old; l != nullptr;) {
    Bucket* nx = l->next;
    qsbr_->Retire(l);
    l = nx;
  }
}

void Wormhole::MaybeGrowTable() {
  Table* t = table_.load(std::memory_order_relaxed);
  if (node_count_ <= t->buckets.size() * 2) {
    return;
  }
  Table* nt = new Table(t->buckets.size() * 2);
  for (auto& bp : t->buckets) {
    const Bucket* b = bp.load(std::memory_order_relaxed);
    // Rehash from each node's immutable prefix (entries carry only the tag);
    // pre-publication, so plain stores and in-place chain inserts are fine.
    metabucket::ForEach(b, [&](uint16_t, Node* nd) {
      const uint32_t h = HashPrefix(nd->prefix);
      std::atomic<Bucket*>& ns = nt->buckets[h & nt->mask];
      Bucket* head = ns.load(std::memory_order_relaxed);
      if (head == nullptr) {
        head = new Bucket();
        ns.store(head, std::memory_order_relaxed);
      }
      metabucket::Insert(head, TagOf(h), nd, opt_.sort_by_tag);
    });
  }
  table_.store(nt, std::memory_order_release);
  for (auto& bp : t->buckets) {
    for (Bucket* l = bp.load(std::memory_order_relaxed); l != nullptr;) {
      Bucket* nx = l->next;
      qsbr_->Retire(l);
      l = nx;
    }
  }
  qsbr_->Retire(t);
}

void Wormhole::InsertAnchor(const std::string& anchor, Leaf* leaf) {
  uint32_t state = kCrc32cInit;
  Node* parent = nullptr;
  const Table* t = table_.load(std::memory_order_relaxed);
  // Shallow-to-deep insertion keeps the present prefix set prefix-closed at
  // every instant, preserving the binary-search monotonicity readers rely on;
  // each node is fully initialized before the bucket swap publishes it, and
  // the parent's child bit is set only after the child is findable.
  for (size_t d = 0; d <= anchor.size(); d++) {
    if (d > 0) {
      state = Crc32cExtend(state, anchor.data() + d - 1, 1);
    }
    const std::string_view prefix(anchor.data(), d);
    Node* n = LookupNode(t, state, prefix);
    if (n == nullptr) {
      n = new Node(std::string(prefix));
      n->lmost.store(leaf, std::memory_order_relaxed);
      n->rmost.store(leaf, std::memory_order_relaxed);
      if (d == anchor.size()) {
        n->has_terminal.store(true, std::memory_order_relaxed);
      }
      InsertEntry(state, n);
      node_count_++;
      parent->SetChild(static_cast<uint8_t>(anchor[d - 1]));  // d >= 1: root pre-exists
    } else {
      if (anchor < n->lmost.load(std::memory_order_relaxed)->anchor) {
        n->lmost.store(leaf, std::memory_order_release);
      }
      if (anchor > n->rmost.load(std::memory_order_relaxed)->anchor) {
        n->rmost.store(leaf, std::memory_order_release);
      }
      if (d == anchor.size()) {
        n->has_terminal.store(true, std::memory_order_release);
      }
    }
    parent = n;
  }
  if (anchor.size() > max_anchor_len_.load(std::memory_order_relaxed)) {
    max_anchor_len_.store(anchor.size(), std::memory_order_release);
  }
}

void Wormhole::SplitAndInsert(Leaf* left, std::string_view key,
                              std::string_view value, uint32_t kv_hash) {
  // Preconditions: meta_mu_ and left->lock (exclusive) held; left is full and
  // does not contain key. The caller releases left->lock after this returns.
  const size_t n = left->store.size();
  assert(n >= 2);
  (void)n;
  const size_t si =
      leafops::ChooseSplitIndex(left->store, opt_.split_shortest_anchor);
  const std::string_view right_min = left->store.KeyAt(si);
  // Copy the anchor bytes out before SplitTail rewrites the slab under them.
  Leaf* right = new Leaf(std::string(right_min.substr(
      0, leafops::SeparatorLen(left->store.KeyAt(si - 1), right_min))));
  // The right leaf inherits the QSBR-backed block-release hook BEFORE its
  // store is built: any block its later growth replaces must outlive the
  // grace period once the leaf is published.
  right->store.release = left->store.release;
  {
    // One seqlock write section covers the store swap, the covered insert
    // and the linkage update: left's store mutates and its range shrinks,
    // and an optimistic reader overlapping any of it sees an odd or advanced
    // version and retries. Net +2 — the same coverage-change bump as before.
    leafops::SeqlockWriteSection ws(&left->version);
    leafops::SplitTail(&left->store, &right->store, si, opt_.direct_pos);
    // The new item goes to whichever side covers it — placed before
    // publication, so no second published-leaf lock is ever taken.
    if (key < std::string_view(right->anchor)) {
      leafops::Insert(&left->store, opt_.direct_pos, key, value, kv_hash);
    } else {
      leafops::Insert(&right->store, opt_.direct_pos, key, value, kv_hash);
    }
    item_count_.fetch_add(1, std::memory_order_relaxed);

    // Publish: link the fully built leaf into the list (the release store
    // to left->next publishes right's fields). A reader routed to left for
    // a right-side key after this fails validation (key >= right->anchor)
    // and retries.
    Leaf* nx = left->next.load(std::memory_order_relaxed);
    right->prev.store(left, std::memory_order_relaxed);
    right->next.store(nx, std::memory_order_relaxed);
    if (nx != nullptr) {
      nx->prev.store(right, std::memory_order_release);
    }
    left->next.store(right, std::memory_order_release);
  }

  InsertAnchor(right->anchor, right);
  MaybeGrowTable();
}

void Wormhole::RemoveLeafLocked(Leaf* leaf) {
  // Preconditions: meta_mu_ and leaf->lock (exclusive) held; leaf is empty
  // and is not head_.
  assert(leaf != head_ && leaf->store.size() == 0);
  {
    // Retirement is the dead flag now, not version parity; the write section
    // still advances the version by 2 so any optimistic read or cursor
    // snapshot that straddles the removal fails its validation.
    leafops::SeqlockWriteSection ws(&leaf->version);
    leaf->dead.store(true, std::memory_order_release);
  }
  const std::string& a = leaf->anchor;
  std::vector<uint32_t> states(a.size() + 1);
  states[0] = kCrc32cInit;
  for (size_t d = 1; d <= a.size(); d++) {
    states[d] = Crc32cExtend(states[d - 1], a.data() + d - 1, 1);
  }
  const Table* t = table_.load(std::memory_order_relaxed);
  Leaf* lprev = leaf->prev.load(std::memory_order_relaxed);
  Leaf* lnext = leaf->next.load(std::memory_order_relaxed);
  // Deepest-first: nodes whose subtree held only this leaf are unlinked and
  // retired (the prefix set stays prefix-closed at every instant); survivors
  // get their leaf bounds repointed to the contiguous neighbor.
  for (size_t d = a.size();; d--) {
    Node* n = LookupNode(t, states[d], std::string_view(a.data(), d));
    assert(n != nullptr);
    if (n->lmost.load(std::memory_order_relaxed) == leaf &&
        n->rmost.load(std::memory_order_relaxed) == leaf) {
      // d >= 1 here: the root spans head_, which is never removed.
      RemoveEntry(states[d], n);
      node_count_--;
      Node* parent = LookupNode(t, states[d - 1], std::string_view(a.data(), d - 1));
      parent->ClearChild(static_cast<uint8_t>(a[d - 1]));
      qsbr_->Retire(n);
    } else {
      if (d == a.size()) {
        n->has_terminal.store(false, std::memory_order_release);
      }
      if (n->lmost.load(std::memory_order_relaxed) == leaf) {
        n->lmost.store(lnext, std::memory_order_release);
      }
      if (n->rmost.load(std::memory_order_relaxed) == leaf) {
        n->rmost.store(lprev, std::memory_order_release);
      }
    }
    if (d == 0) {
      break;
    }
  }
  lprev->next.store(lnext, std::memory_order_release);
  if (lnext != nullptr) {
    lnext->prev.store(lprev, std::memory_order_release);
  }
  // The leaf is unreachable for new readers; in-flight ones still holding it
  // see the dead flag (or the advanced version) and retry. Freed after the
  // grace period (the caller's own quiescent report comes after it releases
  // leaf->lock).
  qsbr_->Retire(leaf);
}

// --- accounting ------------------------------------------------------------

uint64_t Wormhole::MemoryBytes() const {
  ScopedLock g(meta_mu_);  // structure is stable underneath
  uint64_t total = sizeof(*this);
  for (Leaf* l = head_; l != nullptr; l = l->next.load(std::memory_order_relaxed)) {
    ScopedLock lk(l->lock);
    total += sizeof(Leaf) + StrHeapBytes(l->anchor);
    total += leafops::MemoryBytes(l->store, opt_.direct_pos);
  }
  const Table* t = table_.load(std::memory_order_relaxed);
  total += sizeof(Table) + t->buckets.size() * sizeof(std::atomic<Bucket*>);
  for (const auto& bp : t->buckets) {
    const Bucket* b = bp.load(std::memory_order_relaxed);
    total += metabucket::LineCount(b) * sizeof(Bucket);
    metabucket::ForEach(b, [&](uint16_t, const Node* nd) {
      total += sizeof(Node) + StrHeapBytes(nd->prefix);
    });
  }
  return total;
}

WormholeStats Wormhole::stats() const {
  WormholeStats s;
  s.lookups = lookups_.load(std::memory_order_relaxed);
  s.probes = probes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace wh
