//! Byte-budget cache modeling a node's main-memory file cache.
//!
//! The paper's prototype back-ends rely on FreeBSD's unified buffer
//! cache; its simulator (the LARD simulator of Pai et al., ASPLOS '98,
//! which it extends) runs Greedy-Dual-Size replacement over whole files.
//! This module serves both the simulator (`phttp-sim`) and the live
//! prototype (`phttp-proto`): whole-document entries under a byte budget,
//! with the victim chosen by an [`EvictPolicy`] — strict LRU, or
//! GreedyDual-Size costed by the miss delay the owner measures and,
//! where the owner counts demand, weighted by it (GreedyDual-Size-
//! Frequency).
//!
//! Implementation: hash map + intrusive doubly-linked recency list over
//! a slab, so `touch`/`insert`/LRU-evict are O(1). GreedyDual keeps a
//! priority `H` per entry and a lazy min-heap over them; a hit only
//! re-stamps the entry (`H = L + step`, no heap operation), and the heap
//! is repaired where it is consumed — inside eviction. All arithmetic is
//! integer fixed point and nothing is randomized, so simulator runs stay
//! bit-for-bit deterministic under either policy.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::Hash;

const NIL: usize = usize::MAX;

/// Fractional bits of the GreedyDual fixed point: `step = cost · 2³² /
/// size` resolves a unit cost over sizes up to 4 GiB.
const GD_FRAC_BITS: u32 = 32;

/// Cost (µs of aggregate miss delay) of an entry never given a delay
/// sample. With no samples at all every entry costs the same and the
/// policy is plain GDS(1): evict by size, aged by `L`.
const GD_UNIT_COST: u64 = 1;

/// Costs are clamped here (2²⁸ µs ≈ 4.5 min of aggregate delay) before
/// entering the fixed point, so `step < 2⁶⁰` whatever the owner reports.
const GD_MAX_COST: u64 = (1 << 28) - 1;

/// Inflation value past which `L`, every `H` and every heap key are
/// rebased by `−L`. With `step < 2⁶⁰`, no `H = L + step` computed below
/// this bound can reach 2⁶³, so the arithmetic never wraps.
const GD_REBASE_AT: u64 = 1 << 62;

// `L` is checked against the bound once per insert, whose victims can
// overshoot it by less than one step; the newcomer adds one more.
const _: () = assert!(GD_MAX_COST << GD_FRAC_BITS < 1 << 60);
const _: () = assert!(GD_REBASE_AT + (2 << 60) < 1 << 63);

/// Stale heap items tolerated beyond one per live entry before the heap
/// is rebuilt from the live entries (`heap ≤ 2·len + GD_HEAP_SLACK`).
const GD_HEAP_SLACK: usize = 64;

/// `queued_tick` of a slab slot that holds no live entry.
const DEAD: u64 = u64::MAX;

/// Victim-selection policy for [`LruCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictPolicy {
    /// Strict LRU: always evict the tail (least recently used) entry.
    #[default]
    Lru,
    /// GreedyDual-Size (Cao & Irani, USITS '97 — the replacement policy
    /// of the LARD simulator this paper extends). Every entry carries
    /// `H = L + cost/size`; the victim is the entry with the smallest
    /// `H`, the inflation value `L` then rises to that `H`, and a hit or
    /// refresh re-stamps the entry's `H` from the current `L` — so what
    /// stays is what is expensive to miss per byte held, aged by how
    /// long ago it was last useful.
    ///
    /// `cost` is the entry's EWMA aggregate miss delay (µs): the fetch
    /// latency plus the wait of every request coalesced onto that fetch,
    /// fed in via [`LruCache::insert_with_delay`] — after *Caching with
    /// Delayed Hits* (SIGCOMM 2020), a miss costs what it stalls, not 1.
    /// Entries never given a sample cost one unit, which makes a
    /// metadata-only cache plain GDS(1).
    ///
    /// An owner that counts demand passes it as a weight `f ≥ 1` on its
    /// hits and inserts ([`LruCache::touch_weighted`],
    /// [`LruCache::insert_valued_weighted`]), and the step becomes
    /// `f·cost/size` — GreedyDual-Size-Frequency (Cherkasova, HP Labs
    /// HPL-98-69, 1998): what stays is what is hit most per byte held.
    /// A weighted hit never lowers the entry's `H` (decayed demand
    /// shrinks the step later hits add, not the priority already
    /// earned). An entry never given a weight weighs 1, so callers that
    /// pass none get GreedyDual-Size bit for bit.
    ///
    /// Ties go to the least recently used entry, so costs proportional
    /// to size degenerate to *exactly* [`Lru`](Self::Lru). The entry
    /// being inserted is never its own insert's victim unless nothing
    /// else is left.
    GreedyDual,
}

#[derive(Debug, Clone)]
struct Entry<K, V> {
    target: K,
    size: u64,
    /// EWMA of observed aggregate miss delay (µs) for this entry; 0 until
    /// a delay sample is provided. The GreedyDual cost.
    score: u64,
    /// Demand weight `f ≥ 1` of the last weighted hit or insert (1 if
    /// none): GreedyDual-Size-Frequency's frequency.
    freq: u32,
    /// `freq·cost/size` in fixed point, recomputed whenever size, score
    /// or weight changes so a hit is one add.
    step: u64,
    /// GreedyDual priority, `L + step` as of the last insert/hit.
    h: u64,
    /// Logical time of the last insert/hit: the recency tie-break among
    /// equal `H`, and the identity of a heap item (ticks are unique).
    tick: u64,
    /// Tick carried by this entry's one valid heap item ([`DEAD`] for a
    /// free slot). An item whose tick differs is stale and dropped; a
    /// valid item older than `tick` means the entry was hit since.
    queued_tick: u64,
    /// The cached payload, if the owner caches one (see
    /// [`LruCache::insert_valued`]). Metadata-only entries — the
    /// simulator's, and any admitted through the plain
    /// [`LruCache::insert`] — carry `None`.
    value: Option<V>,
    prev: usize,
    next: usize,
}

/// Heap item: `(H, tick, slab index)` as of the push, min first.
type HeapItem = Reverse<(u64, u64, usize)>;

/// A cache of keyed entries with a byte budget (strict LRU unless
/// [`set_policy`](Self::set_policy) says otherwise).
///
/// Generic over an optional per-entry payload `V` (default `()` — the
/// simulator and the dispatcher's mirrors track metadata only). The
/// prototype's nodes instantiate `V = bytes::Bytes` so the cache is the
/// sole long-term owner of each cached body slice: a hit hands out an
/// O(1) refcounted clone instead of regenerating a fresh copy, and an
/// eviction drops the last owner.
#[derive(Debug, Clone)]
pub struct LruCache<K, V = ()> {
    budget: u64,
    used: u64,
    policy: EvictPolicy,
    map: HashMap<K, usize>,
    slab: Vec<Entry<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    evictions: u64,
    /// When enabled, every victim of budget pressure is appended here for
    /// the owner to drain — the raw material of cache-coherence feedback
    /// reports. Disabled by default so unconsumed journals cannot grow.
    journal: Option<Vec<K>>,
    /// GreedyDual inflation value `L`: the `H` of the last victim.
    inflation: u64,
    /// Next tick to hand out.
    clock: u64,
    /// Lazy min-heap over `(H, tick)`; empty under [`EvictPolicy::Lru`].
    /// Holds exactly one valid item per live entry, keyed at or below the
    /// entry's current `(H, tick)`, plus stale items awaiting a pop.
    heap: BinaryHeap<HeapItem>,
    /// Heap pushes + pops so far — lets tests prove the hit path does
    /// none.
    #[cfg(test)]
    heap_ops: u64,
}

/// `freq·cost/size` in fixed point for an entry with EWMA delay `score`
/// and demand weight `freq`; the weighted cost is clamped like the cost.
fn gd_step(score: u64, freq: u32, size: u64) -> u64 {
    let cost = score
        .clamp(GD_UNIT_COST, GD_MAX_COST)
        .saturating_mul(u64::from(freq.max(1)))
        .min(GD_MAX_COST);
    (cost << GD_FRAC_BITS) / size.max(1)
}

impl<K: Copy + Eq + Hash, V> LruCache<K, V> {
    /// Creates a strict-LRU cache holding at most `budget_bytes` of
    /// content.
    pub fn new(budget_bytes: u64) -> Self {
        LruCache {
            budget: budget_bytes,
            used: 0,
            policy: EvictPolicy::Lru,
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            evictions: 0,
            journal: None,
            inflation: 0,
            clock: 0,
            heap: BinaryHeap::new(),
            #[cfg(test)]
            heap_ops: 0,
        }
    }

    /// Selects the victim-selection policy. Switching policy never touches
    /// cache contents — it only changes which entry future budget pressure
    /// evicts — so the eviction journal (and any [`drain_evictions`]
    /// consumer replaying it) stays exact under either policy. Entries
    /// cached under LRU enter GreedyDual stamped in recency order at the
    /// current inflation value.
    ///
    /// [`drain_evictions`]: Self::drain_evictions
    pub fn set_policy(&mut self, policy: EvictPolicy) {
        if policy == self.policy {
            return;
        }
        self.policy = policy;
        if self.is_gd() {
            let mut idx = self.tail;
            while idx != NIL {
                let e = &mut self.slab[idx];
                e.step = gd_step(e.score, e.freq, e.size);
                let prev = e.prev;
                self.stamp(idx);
                idx = prev;
            }
        }
        self.rebuild_heap();
    }

    /// Returns the active victim-selection policy.
    pub fn policy(&self) -> EvictPolicy {
        self.policy
    }

    fn is_gd(&self) -> bool {
        self.policy == EvictPolicy::GreedyDual
    }

    /// Turns the eviction journal on or off. While on, every entry
    /// evicted by budget pressure is recorded (in eviction order) until
    /// [`drain_evictions`](Self::drain_evictions) collects it. Explicit
    /// [`remove`](Self::remove) calls and rejected oversized inserts are
    /// *not* journalled — they are the owner's own actions, not silent
    /// evictions the owner needs telling about. Turning the journal off
    /// discards any undrained entries.
    pub fn set_journal(&mut self, enabled: bool) {
        self.journal = enabled.then(Vec::new);
    }

    /// Takes the journalled evictions accumulated since the last drain
    /// (empty if the journal is disabled).
    pub fn drain_evictions(&mut self) -> Vec<K> {
        match self.journal.as_mut() {
            Some(j) => std::mem::take(j),
            None => Vec::new(),
        }
    }

    /// Returns the byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Returns the bytes currently cached.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Returns the number of cached targets.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total number of evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Returns `true` if the target is cached, and if so marks it most
    /// recently used (a cache hit). O(1) under either policy: GreedyDual
    /// re-stamps the entry's `H` and leaves the heap alone.
    pub fn touch(&mut self, target: K) -> bool {
        match self.map.get(&target) {
            Some(&idx) => {
                self.hit(idx);
                true
            }
            None => false,
        }
    }

    /// [`touch`](Self::touch) carrying the target's current demand
    /// `weight` (0 reads as 1), which becomes the entry's GreedyDual-
    /// Size-Frequency weight. Still O(1) and heap-free: the step is
    /// recomputed only when the weight changed, and the re-stamped `H`
    /// never falls below the entry's previous one. Weight 1 on an entry
    /// that never had another is exactly [`touch`](Self::touch).
    pub fn touch_weighted(&mut self, target: K, weight: u32) -> bool {
        match self.map.get(&target) {
            Some(&idx) => {
                self.reweigh(idx, weight);
                self.hit(idx);
                true
            }
            None => false,
        }
    }

    /// Like [`touch`](Self::touch), but also returns a borrow of the
    /// entry's cached payload (a hit on a valued cache). `None` when
    /// the target is absent **or** cached metadata-only; either way
    /// recency is updated iff the target is present.
    pub fn touch_value(&mut self, target: K) -> Option<&V> {
        let &idx = self.map.get(&target)?;
        self.hit(idx);
        self.slab[idx].value.as_ref()
    }

    /// The entry's cached payload without updating recency.
    pub fn get(&self, target: K) -> Option<&V> {
        self.map
            .get(&target)
            .and_then(|&idx| self.slab[idx].value.as_ref())
    }

    /// Every cached `(target, payload)` pair, in no particular order,
    /// skipping metadata-only entries. O(len) — diagnostics and the
    /// refcount-hygiene audit, not the serve path.
    pub fn iter_values(&self) -> impl Iterator<Item = (K, &V)> {
        self.map.values().filter_map(|&idx| {
            let e = &self.slab[idx];
            e.value.as_ref().map(|v| (e.target, v))
        })
    }

    /// Returns `true` if the target is cached without updating recency.
    pub fn contains(&self, target: K) -> bool {
        self.map.contains_key(&target)
    }

    /// The entry the next eviction would evict — the LRU tail, or the
    /// smallest `(H, tick)` under GreedyDual — and its size, left in
    /// place. Nothing observable changes: contents, recency, priorities
    /// and `L` stay as they were, so the next eviction evicts exactly
    /// this entry. `&mut` only because the lazy heap is repaired on the
    /// way, as an eviction would repair it. `None` when the cache is
    /// empty.
    pub fn peek_victim(&mut self) -> Option<(K, u64)> {
        let idx = match self.policy {
            EvictPolicy::Lru => self.tail,
            EvictPolicy::GreedyDual => self.peek_min()?,
        };
        (idx != NIL).then(|| (self.slab[idx].target, self.slab[idx].size))
    }

    /// Inserts a target of the given size, evicting entries as the
    /// active [`EvictPolicy`] chooses until the budget holds.
    /// Returns `true` iff the target was **newly admitted** — absent
    /// before the call and cached after it. Refreshing an existing entry
    /// and rejecting an oversized one both return `false`.
    ///
    /// A target larger than the whole budget is not cached at all (the OS
    /// cannot hold it resident either). Re-inserting an existing target
    /// refreshes its recency and updates its size.
    pub fn insert(&mut self, target: K, size: u64) -> bool {
        self.insert_inner(target, size, None, None, None)
    }

    /// [`insert`](Self::insert) carrying the cached payload itself —
    /// the zero-copy serve path's entry point: the cache becomes the
    /// long-term owner of the body slice, and hits clone the refcount
    /// instead of the bytes. Refreshing an existing entry replaces its
    /// payload (same target ⇒ same content; the old slice drops).
    pub fn insert_valued(&mut self, target: K, size: u64, value: V) -> bool {
        self.insert_inner(target, size, None, None, Some(value))
    }

    /// [`insert_valued`](Self::insert_valued) plus a miss-delay
    /// observation (see [`insert_with_delay`](Self::insert_with_delay))
    /// and the target's current demand `weight` (see
    /// [`touch_weighted`](Self::touch_weighted)), which becomes the
    /// entry's GreedyDual-Size-Frequency weight, new or refreshed.
    pub fn insert_valued_weighted(
        &mut self,
        target: K,
        size: u64,
        value: V,
        agg_delay_us: u64,
        weight: u32,
    ) -> bool {
        self.insert_inner(target, size, Some(agg_delay_us), Some(weight), Some(value))
    }

    /// [`insert`](Self::insert) plus a miss-delay observation: `agg_delay_us`
    /// is the aggregate delay (µs) the miss that produced this insert cost —
    /// the fetch latency itself plus the wait of every coalesced request
    /// parked on the same in-flight fetch. The entry's score becomes an
    /// EWMA of these samples (`new = (old + sample) / 2` on refresh), which
    /// is the `cost` of [`EvictPolicy::GreedyDual`]. Under
    /// [`EvictPolicy::Lru`] the sample is recorded but never consulted, so
    /// the two entry points behave identically.
    pub fn insert_with_delay(&mut self, target: K, size: u64, agg_delay_us: u64) -> bool {
        self.insert_inner(target, size, Some(agg_delay_us), None, None)
    }

    fn insert_inner(
        &mut self,
        target: K,
        size: u64,
        delay_us: Option<u64>,
        weight: Option<u32>,
        value: Option<V>,
    ) -> bool {
        if let Some(&idx) = self.map.get(&target) {
            let e = &mut self.slab[idx];
            // Size update (static content rarely changes, but stay safe).
            self.used = self.used - e.size + size;
            e.size = size;
            if let Some(sample) = delay_us {
                e.score = ((e.score as u128 + sample as u128) / 2) as u64;
            }
            if let Some(w) = weight {
                e.freq = w.max(1);
            }
            if value.is_some() {
                // A metadata-only refresh keeps whatever payload the
                // entry already owns; a valued refresh replaces it.
                e.value = value;
            }
            // Its heap item goes stale here: the entry sits out the
            // eviction below and is queued again, re-stamped, after it.
            e.queued_tick = DEAD;
            self.unlink(idx);
            self.push_front(idx);
            self.settle(idx);
            return false;
        }
        if size > self.budget {
            return false;
        }
        self.used += size;
        let idx = self.alloc(Entry {
            target,
            size,
            score: delay_us.unwrap_or(0),
            freq: weight.unwrap_or(1).max(1),
            step: 0,
            h: 0,
            tick: 0,
            queued_tick: DEAD,
            value,
            prev: NIL,
            next: NIL,
        });
        self.map.insert(target, idx);
        self.push_front(idx);
        self.settle(idx)
    }

    /// Makes room for the just-inserted (or refreshed) entry `keep` and
    /// then — as GreedyDual-Size prescribes, *after* the evictions raised
    /// `L` — stamps it and gives it its heap item. Returns whether
    /// `keep` is still cached.
    fn settle(&mut self, keep: usize) -> bool {
        let kept = self.shrink_to_budget(keep);
        if self.is_gd() {
            if kept {
                let e = &mut self.slab[keep];
                e.step = gd_step(e.score, e.freq, e.size);
                self.stamp(keep);
                self.enqueue(keep);
            }
            self.maintain_heap();
        }
        kept
    }

    /// The entry's current cost estimate (EWMA aggregate miss delay, µs;
    /// 0 until a sample arrives), if cached. Diagnostic / test hook.
    pub fn mad_score(&self, target: K) -> Option<u64> {
        self.map.get(&target).map(|&idx| self.slab[idx].score)
    }

    /// The cached entries as `(target, size)` pairs in **admission
    /// order** (least recently used first, most recently used last).
    /// Replaying these through `insert` rebuilds an identical cache —
    /// the snapshot a warm-rejoining node sends in its `Join` handshake
    /// so front-ends can rebuild beliefs without re-learning. O(len);
    /// join granularity, not hot path.
    pub fn contents_lru_order(&self) -> Vec<(K, u64)> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut idx = self.tail;
        while idx != NIL {
            let e = &self.slab[idx];
            out.push((e.target, e.size));
            idx = e.prev;
        }
        out
    }

    /// Empties the cache — a node restarting with cold memory — while
    /// preserving its configuration (budget, policy, journal enablement).
    /// The wipe is the owner's own action, so nothing is journalled and
    /// any undrained journal entries are discarded with the contents
    /// they describe.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.used = 0;
        self.inflation = 0;
        self.clock = 0;
        self.heap.clear();
        if let Some(j) = self.journal.as_mut() {
            j.clear();
        }
    }

    /// Removes a target if present; returns whether it was cached.
    pub fn remove(&mut self, target: K) -> bool {
        match self.map.get(&target) {
            Some(&idx) => {
                self.detach(idx);
                // The entry's heap item is now stale; explicit removes
                // are the one way stale items pile up without a pop.
                self.maintain_heap();
                true
            }
            None => false,
        }
    }

    /// Drops the live entry in slot `idx` and frees the slot.
    fn detach(&mut self, idx: usize) {
        let e = &mut self.slab[idx];
        self.map.remove(&e.target);
        self.used -= e.size;
        // Drop the payload now, not when the slot is next reused —
        // an evicted body slice must release its refcount with the
        // eviction (the refcount-hygiene invariant).
        e.value = None;
        e.queued_tick = DEAD;
        self.unlink(idx);
        self.free.push(idx);
    }

    /// Evicts entries until within budget, never evicting `keep` (the entry
    /// just inserted) unless it is the only entry left, in which case it
    /// is dropped uncounted; returns whether `keep` survived. The victim
    /// each round is chosen by the active [`EvictPolicy`]; victims are
    /// counted and journalled in eviction order regardless of policy, so
    /// journal replay (the cache-feedback mirror) stays exact.
    fn shrink_to_budget(&mut self, keep: usize) -> bool {
        while self.used > self.budget {
            let victim = match self.policy {
                EvictPolicy::Lru => self.tail,
                // `keep` holds no heap item while room is made for it,
                // so an exhausted heap means it is alone.
                EvictPolicy::GreedyDual => self.pop_min().unwrap_or(keep),
            };
            debug_assert_ne!(victim, NIL, "over budget with empty cache");
            if victim == keep {
                // Only the just-inserted oversized entry remains; drop it.
                self.detach(keep);
                return false;
            }
            let e = &self.slab[victim];
            if self.is_gd() {
                self.inflation = e.h;
            }
            let target = e.target;
            self.detach(victim);
            self.evictions += 1;
            if let Some(journal) = self.journal.as_mut() {
                journal.push(target);
            }
        }
        true
    }

    /// Pops the live entry with the smallest `(H, tick)` off the lazy
    /// heap (see [`peek_min`](Self::peek_min)).
    fn pop_min(&mut self) -> Option<usize> {
        let idx = self.peek_min()?;
        self.heap.pop();
        #[cfg(test)]
        {
            self.heap_ops += 1;
        }
        Some(idx)
    }

    /// The live entry with the smallest `(H, tick)`, its item left on
    /// top of the lazy heap, repairing what it meets on the way: an item
    /// whose entry is gone (or was refreshed under a newer item) is
    /// dropped; an item whose entry was hit since the push — its `H` has
    /// moved up — is pushed back at the entry's current key. An item
    /// that matches its entry is the true minimum, because every other
    /// live entry's item sits at or below that entry's key and above
    /// this one.
    fn peek_min(&mut self) -> Option<usize> {
        while let Some(&Reverse((_, tick, idx))) = self.heap.peek() {
            let e = &self.slab[idx];
            let (live, current) = (e.queued_tick == tick, e.tick == tick);
            if live && current {
                return Some(idx);
            }
            self.heap.pop();
            #[cfg(test)]
            {
                self.heap_ops += 1;
            }
            if live {
                self.enqueue(idx);
            }
        }
        None
    }

    /// Pushes entry `idx`'s one valid heap item, at its current key;
    /// whatever item it had before is stale from here on.
    fn enqueue(&mut self, idx: usize) {
        let e = &mut self.slab[idx];
        e.queued_tick = e.tick;
        self.heap.push(Reverse((e.h, e.tick, idx)));
        #[cfg(test)]
        {
            self.heap_ops += 1;
        }
    }

    /// A hit: most recently used, and — GreedyDual — `H` re-stamped from
    /// the current `L`. No heap operation: the entry's queued item now
    /// undershoots its key, which [`pop_min`](Self::pop_min) repairs if
    /// and when that item surfaces.
    fn hit(&mut self, idx: usize) {
        self.unlink(idx);
        self.push_front(idx);
        if self.is_gd() {
            let floor = self.slab[idx].h;
            self.stamp(idx);
            // A lowered weight may not lower `H`: the queued item keeps
            // its key at or below the entry's. Unweighted, `L` only rose
            // since the last stamp and the step is the same, so this
            // never binds.
            let e = &mut self.slab[idx];
            e.h = e.h.max(floor);
        }
    }

    /// Sets entry `idx`'s demand weight (0 reads as 1), recomputing its
    /// step under GreedyDual only when the weight changed.
    fn reweigh(&mut self, idx: usize, weight: u32) {
        let (freq, gd) = (weight.max(1), self.is_gd());
        let e = &mut self.slab[idx];
        if e.freq != freq {
            e.freq = freq;
            if gd {
                e.step = gd_step(e.score, freq, e.size);
            }
        }
    }

    /// `H = L + step` at a fresh tick.
    fn stamp(&mut self, idx: usize) {
        let e = &mut self.slab[idx];
        e.h = self.inflation + e.step;
        e.tick = self.clock;
        self.clock += 1;
    }

    /// Keeps the two bounds, once per mutation. Width: past
    /// [`GD_REBASE_AT`], `L` is subtracted from itself, from every `H`
    /// and (by rebuilding) from every heap key — every live `H` is at
    /// least `L`, and a common shift preserves order. Length: past one
    /// stale item per live entry plus slack, the heap is rebuilt from
    /// the live entries.
    fn maintain_heap(&mut self) {
        if self.inflation >= GD_REBASE_AT {
            let base = self.inflation;
            self.inflation = 0;
            let mut idx = self.tail;
            while idx != NIL {
                let e = &mut self.slab[idx];
                e.h -= base;
                idx = e.prev;
            }
            self.rebuild_heap();
        } else if self.heap.len() > 2 * self.map.len() + GD_HEAP_SLACK {
            self.rebuild_heap();
        }
    }

    /// Replaces the heap with exactly one item per live entry at its
    /// current key (none under LRU).
    fn rebuild_heap(&mut self) {
        let mut items = Vec::with_capacity(self.map.len());
        if self.is_gd() {
            let mut idx = self.tail;
            while idx != NIL {
                let e = &mut self.slab[idx];
                e.queued_tick = e.tick;
                items.push(Reverse((e.h, e.tick, idx)));
                idx = e.prev;
            }
        }
        self.heap = BinaryHeap::from(items);
    }

    fn alloc(&mut self, e: Entry<K, V>) -> usize {
        if let Some(idx) = self.free.pop() {
            self.slab[idx] = e;
            idx
        } else {
            self.slab.push(e);
            self.slab.len() - 1
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.slab[idx].prev = NIL;
        self.slab[idx].next = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> u32 {
        i
    }

    #[test]
    fn insert_then_touch_hits() {
        let mut c: LruCache<u32> = LruCache::new(1000);
        c.insert(t(1), 100);
        assert!(c.touch(t(1)));
        assert!(!c.touch(t(2)));
        assert_eq!(c.used(), 100);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut c: LruCache<u32> = LruCache::new(300);
        c.insert(t(1), 100);
        c.insert(t(2), 100);
        c.insert(t(3), 100);
        // Touch 1 so 2 becomes LRU.
        assert!(c.touch(t(1)));
        c.insert(t(4), 100); // must evict 2
        assert!(c.contains(t(1)));
        assert!(!c.contains(t(2)));
        assert!(c.contains(t(3)));
        assert!(c.contains(t(4)));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn never_exceeds_budget() {
        let mut c: LruCache<u32> = LruCache::new(250);
        for i in 0..100 {
            c.insert(t(i), 40);
            assert!(c.used() <= 250, "used {} over budget", c.used());
        }
        assert_eq!(c.len(), 6); // 6 * 40 = 240 <= 250
    }

    #[test]
    fn oversized_target_is_not_cached() {
        let mut c: LruCache<u32> = LruCache::new(100);
        c.insert(t(1), 50);
        c.insert(t(2), 500);
        assert!(!c.contains(t(2)));
        assert!(c.contains(t(1)), "oversized insert must not nuke the cache");
        assert_eq!(c.used(), 50);
    }

    #[test]
    fn reinsert_updates_size_and_recency() {
        let mut c: LruCache<u32> = LruCache::new(300);
        c.insert(t(1), 100);
        c.insert(t(2), 100);
        c.insert(t(1), 150); // refresh + grow
        assert_eq!(c.used(), 250);
        c.insert(t(3), 100); // evicts t(2), the LRU
        assert!(!c.contains(t(2)));
        assert!(c.contains(t(1)));
    }

    #[test]
    fn remove_returns_presence() {
        let mut c: LruCache<u32> = LruCache::new(300);
        c.insert(t(1), 100);
        assert!(c.remove(t(1)));
        assert!(!c.remove(t(1)));
        assert_eq!(c.used(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn slab_reuse_after_removals() {
        let mut c: LruCache<u32> = LruCache::new(1_000);
        for round in 0..10 {
            for i in 0..10 {
                c.insert(t(round * 10 + i), 100);
            }
        }
        // Budget fits 10 entries; the slab must not have grown to 100.
        assert!(c.slab.len() <= 20, "slab leaked: {}", c.slab.len());
        assert_eq!(c.len(), 10);
    }

    #[test]
    fn insert_reports_new_admissions_only() {
        let mut c: LruCache<u32> = LruCache::new(300);
        assert!(c.insert(t(1), 100), "first insert is an admission");
        assert!(!c.insert(t(1), 100), "refresh is not an admission");
        assert!(
            !c.insert(t(2), 500),
            "rejected oversized is not an admission"
        );
        assert!(c.insert(t(3), 100));
    }

    #[test]
    fn journal_records_evictions_in_order() {
        let mut c: LruCache<u32> = LruCache::new(300);
        // Journal off by default: evictions are not recorded.
        c.insert(t(1), 100);
        c.insert(t(2), 100);
        c.insert(t(3), 100);
        c.insert(t(4), 200); // evicts 1 and 2
        assert_eq!(c.evictions(), 2);
        assert!(c.drain_evictions().is_empty());

        c.set_journal(true);
        c.insert(t(5), 100); // 100+200+100 > 300: evicts 3 (the LRU)
        c.insert(t(6), 200); // 200+100+200 > 300: evicts 4
        assert_eq!(
            c.drain_evictions(),
            vec![t(3), t(4)],
            "victims in eviction order"
        );
        assert!(c.drain_evictions().is_empty(), "drain empties the journal");

        // Explicit removes are the owner's own action: not journalled.
        assert!(c.remove(t(6)));
        assert!(c.drain_evictions().is_empty());
    }

    #[test]
    fn contents_enumerate_lru_to_mru_and_replay_identically() {
        let mut c: LruCache<u32> = LruCache::new(400);
        c.insert(t(1), 100);
        c.insert(t(2), 100);
        c.insert(t(3), 100);
        assert!(c.touch(t(1))); // recency now 2, 3, 1
        assert_eq!(
            c.contents_lru_order(),
            vec![(t(2), 100), (t(3), 100), (t(1), 100)]
        );
        // Replaying the snapshot into a fresh cache reproduces contents
        // AND recency: the same subsequent insert evicts the same victim.
        let mut replayed: LruCache<u32> = LruCache::new(400);
        for (k, size) in c.contents_lru_order() {
            replayed.insert(k, size);
        }
        for fresh in [&mut c, &mut replayed] {
            fresh.insert(t(4), 200); // over budget: evicts the LRU, t(2)
            assert!(!fresh.contains(t(2)));
            assert!(fresh.contains(t(1)));
            assert!(fresh.contains(t(3)));
        }
        assert!(LruCache::<u32>::new(10).contents_lru_order().is_empty());
    }

    #[test]
    fn clear_wipes_contents_but_keeps_configuration() {
        let mut c: LruCache<u32> = LruCache::new(250);
        c.set_policy(EvictPolicy::GreedyDual);
        c.set_journal(true);
        c.insert(t(1), 100);
        c.insert(t(2), 100);
        c.insert(t(3), 100); // evicts t(1) into the journal
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used(), 0);
        assert_eq!(c.budget(), 250);
        assert_eq!(c.policy(), EvictPolicy::GreedyDual);
        assert!(c.contents_lru_order().is_empty());
        assert!(
            c.drain_evictions().is_empty(),
            "a wipe discards undrained journal entries"
        );
        // Still fully usable, journal included.
        c.insert(t(4), 200);
        c.insert(t(5), 100); // evicts t(4)
        assert_eq!(c.drain_evictions(), vec![t(4)]);
    }

    #[test]
    fn zero_budget_caches_nothing() {
        let mut c: LruCache<u32> = LruCache::new(0);
        c.insert(t(1), 1);
        assert!(c.is_empty());
        assert!(!c.touch(t(1)));
    }

    #[test]
    fn mad_evicts_cheapest_delay_per_byte() {
        let mut c: LruCache<u32> = LruCache::new(300);
        c.set_policy(EvictPolicy::GreedyDual);
        // Same size, different miss cost: the cheap entry goes first even
        // though the expensive one is older (more LRU).
        c.insert_with_delay(t(1), 100, 50_000); // expensive to re-fetch
        c.insert_with_delay(t(2), 100, 1_000); // cheap to re-fetch
        c.insert_with_delay(t(3), 100, 20_000);
        c.insert_with_delay(t(4), 100, 20_000); // forces one eviction
        assert!(!c.contains(t(2)), "cheapest-delay entry must be the victim");
        assert!(c.contains(t(1)), "high-delay entry survives despite age");
        assert!(c.contains(t(3)));
        assert!(c.contains(t(4)));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn mad_uniform_scores_degrade_to_lru() {
        let mut lru: LruCache<u32> = LruCache::new(300);
        let mut mad: LruCache<u32> = LruCache::new(300);
        mad.set_policy(EvictPolicy::GreedyDual);
        for c in [&mut lru, &mut mad] {
            c.insert_with_delay(t(1), 100, 10_000);
            c.insert_with_delay(t(2), 100, 10_000);
            c.insert_with_delay(t(3), 100, 10_000);
            assert!(c.touch(t(1)));
            c.insert_with_delay(t(4), 100, 10_000);
        }
        for i in 1..=4 {
            assert_eq!(
                lru.contains(t(i)),
                mad.contains(t(i)),
                "uniform-cost GreedyDual must match LRU on t({i})"
            );
        }
        assert!(!mad.contains(t(2)), "t(2) is the LRU victim in both");
    }

    #[test]
    fn mad_normalizes_by_size() {
        let mut c: LruCache<u32> = LruCache::new(1_000);
        c.set_policy(EvictPolicy::GreedyDual);
        // The large entry costs more in absolute delay but much less per
        // byte — evicting it frees the most space per unit of future delay.
        c.insert_with_delay(t(1), 800, 20_000); // 25 µs/byte
        c.insert_with_delay(t(2), 100, 10_000); // 100 µs/byte
        c.insert_with_delay(t(3), 500, 15_000); // forces eviction
        assert!(!c.contains(t(1)), "large low-density entry is the victim");
        assert!(c.contains(t(2)));
        assert!(c.contains(t(3)));
    }

    #[test]
    fn mad_score_is_ewma_and_candidates_respect_recency() {
        let mut c: LruCache<u32> = LruCache::new(10_000);
        c.set_policy(EvictPolicy::GreedyDual);
        assert!(c.insert_with_delay(t(1), 100, 8_000));
        assert_eq!(c.mad_score(t(1)), Some(8_000));
        assert!(!c.insert_with_delay(t(1), 100, 2_000), "refresh");
        assert_eq!(c.mad_score(t(1)), Some(5_000), "(8000 + 2000) / 2");
        // Plain insert keeps the learned score on refresh.
        c.insert(t(1), 100);
        assert_eq!(c.mad_score(t(1)), Some(5_000));
        assert_eq!(c.mad_score(t(9)), None);

        // Recency is the inflation value: every eviction raises L to the
        // victim's H, so an expensive entry nobody hits is overtaken by
        // the cheap ones stamped after it and ages out — here exactly
        // when L reaches its H, the tie going to the older entry.
        let mut c: LruCache<u32> = LruCache::new(200);
        c.set_policy(EvictPolicy::GreedyDual);
        c.insert_with_delay(t(0), 100, 9_000); // H = 9 000/100, never hit again
        for i in 1..=9 {
            c.insert_with_delay(t(i), 100, 1_000); // evicts t(i-1) at H = (i-1)·10
            assert!(c.contains(t(0)), "still the costlier entry at round {i}");
        }
        c.insert_with_delay(t(10), 100, 1_000); // t(0) and t(9) tie at H = 90
        assert!(!c.contains(t(0)), "an idle entry ages out");
        assert!(c.contains(t(9)));
        // A hit re-stamps H from the risen L and buys the entry new life.
        c.insert_with_delay(t(11), 100, 9_000); // evicts t(9); L = 90, H = 180
        assert!(c.touch(t(10))); // H: 100 -> 90 + 10, unchanged; t(10) still goes next
        c.insert_with_delay(t(12), 100, 1_000); // evicts t(10); L = 100
        assert!(c.touch(t(11))); // H: 180 -> 100 + 90 = 190
        assert!(c.contains(t(11)) && c.contains(t(12)) && c.len() == 2);
        assert_eq!(c.evictions(), 11);
    }

    #[test]
    fn mad_oversized_keep_semantics_match_lru() {
        let mut c: LruCache<u32> = LruCache::new(100);
        c.set_policy(EvictPolicy::GreedyDual);
        c.insert_with_delay(t(1), 60, 1_000);
        // Refresh-grow beyond budget: the grown entry itself is dropped
        // once it is the only one left, exactly like strict LRU.
        c.insert_with_delay(t(1), 150, 1_000);
        assert!(!c.contains(t(1)));
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn valued_entries_hand_out_payloads_and_drop_on_eviction() {
        use std::rc::Rc;
        let mut c: LruCache<u32, Rc<Vec<u8>>> = LruCache::new(300);
        let body = Rc::new(vec![7u8; 100]);
        assert!(c.insert_valued(t(1), 100, body.clone()));
        assert_eq!(Rc::strong_count(&body), 2, "cache holds one owner");
        // A hit is a refcount clone of the cached payload, not a copy.
        let hit = c.touch_value(t(1)).expect("valued hit").clone();
        assert!(Rc::ptr_eq(&hit, &body));
        drop(hit);
        // get() reads without recency; metadata-only entries read None.
        assert!(c.get(t(1)).is_some());
        c.insert(t(2), 100);
        assert!(c.get(t(2)).is_none(), "plain insert carries no payload");
        assert!(c.touch_value(t(2)).is_none());
        assert!(c.touch(t(2)), "metadata-only entry still hits");
        // iter_values enumerates only valued entries.
        assert_eq!(c.iter_values().count(), 1);
        // Eviction releases the cache's ownership immediately.
        c.insert_valued(t(3), 150, Rc::new(vec![0u8; 150]));
        c.insert_valued(t(4), 100, Rc::new(vec![0u8; 100])); // evicts t(1)
        assert!(!c.contains(t(1)));
        assert_eq!(Rc::strong_count(&body), 1, "eviction dropped the payload");
        // Explicit remove too.
        let b3 = c.get(t(3)).unwrap().clone();
        assert_eq!(Rc::strong_count(&b3), 2);
        assert!(c.remove(t(3)));
        assert_eq!(Rc::strong_count(&b3), 1, "remove dropped the payload");
    }

    #[test]
    fn valued_refresh_replaces_but_metadata_refresh_keeps() {
        use std::rc::Rc;
        let mut c: LruCache<u32, Rc<u32>> = LruCache::new(1000);
        let v1 = Rc::new(11);
        c.insert_valued(t(1), 100, v1.clone());
        // Metadata-only refresh (the feedback path) keeps the payload.
        c.insert(t(1), 100);
        assert!(Rc::ptr_eq(c.get(t(1)).unwrap(), &v1));
        // Valued refresh replaces it and drops the old owner.
        c.insert_valued_weighted(t(1), 100, Rc::new(22), 5_000, 1);
        assert_eq!(Rc::strong_count(&v1), 1);
        assert_eq!(**c.get(t(1)).unwrap(), 22);
        assert_eq!(c.mad_score(t(1)), Some(2_500), "(0 + 5000) / 2");
        // clear() drops every payload with the contents.
        let v2 = c.get(t(1)).unwrap().clone();
        c.clear();
        assert_eq!(Rc::strong_count(&v2), 1);
    }

    #[test]
    fn peek_victim_names_the_next_victim_under_both_policies() {
        for policy in [EvictPolicy::Lru, EvictPolicy::GreedyDual] {
            let mut c: LruCache<u32> = LruCache::new(300);
            c.set_policy(policy);
            c.set_journal(true);
            assert_eq!(c.peek_victim(), None, "{policy:?}: empty");
            c.insert_with_delay(t(1), 100, 1_000);
            c.insert_with_delay(t(2), 100, 50_000);
            c.insert_with_delay(t(3), 100, 20_000);
            assert!(c.touch(t(1)));
            // LRU: t(2) is the tail. GreedyDual: t(1) is cheapest per
            // byte even after its hit (`L` is still 0).
            let next = match policy {
                EvictPolicy::Lru => t(2),
                EvictPolicy::GreedyDual => t(1),
            };
            let before = c.contents_lru_order();
            assert_eq!(c.peek_victim(), Some((next, 100)), "{policy:?}");
            assert_eq!(
                c.peek_victim(),
                Some((next, 100)),
                "{policy:?}: a peek is idempotent"
            );
            assert_eq!(
                c.contents_lru_order(),
                before,
                "{policy:?}: recency unchanged"
            );
            c.insert_with_delay(t(4), 100, 20_000);
            assert_eq!(c.drain_evictions(), vec![next], "{policy:?}");
        }
    }

    #[test]
    fn demand_weight_keeps_a_busy_small_entry_over_an_idle_large_one() {
        for weighted in [false, true] {
            let mut c: LruCache<u32> = LruCache::new(400);
            c.set_policy(EvictPolicy::GreedyDual);
            c.insert_with_delay(t(1), 200, 40_000); // 200 µs/byte, never hit
            c.insert_with_delay(t(2), 100, 10_000); // 100 µs/byte
            for demand in 2..=4 {
                if weighted {
                    assert!(c.touch_weighted(t(2), demand));
                } else {
                    assert!(c.touch(t(2)));
                }
            }
            // Room for 100 more bytes is needed. Plain GreedyDual keeps
            // the costlier byte, t(1); weighted by demand t(2) earns 4 ×
            // 100 µs/byte and the idle large entry goes instead.
            c.insert_with_delay(t(3), 200, 40_000);
            assert_eq!(c.contains(t(1)), !weighted, "weighted: {weighted}");
            assert_eq!(c.contains(t(2)), weighted, "weighted: {weighted}");
            assert!(c.contains(t(3)));
            assert_eq!(c.evictions(), 1);
        }
    }

    #[test]
    fn mad_journals_victims_in_eviction_order() {
        let mut c: LruCache<u32> = LruCache::new(300);
        c.set_policy(EvictPolicy::GreedyDual);
        c.set_journal(true);
        c.insert_with_delay(t(1), 100, 30_000);
        c.insert_with_delay(t(2), 100, 1_000);
        c.insert_with_delay(t(3), 100, 2_000);
        c.insert_with_delay(t(4), 200, 40_000); // evicts 2 then 3 (cheapest)
        assert_eq!(c.drain_evictions(), vec![t(2), t(3)]);
        assert!(c.contains(t(1)));
        assert!(c.contains(t(4)));
    }
}

#[cfg(test)]
#[path = "lru_props.rs"]
mod props;
