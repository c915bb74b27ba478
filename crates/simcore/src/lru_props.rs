//! Property tests for [`LruCache`] under [`EvictPolicy::GreedyDual`]:
//! the lazy-heap implementation against a naive reference, the LRU
//! degeneracy, and the bounds the heap and the fixed point must keep.

use proptest::prelude::*;

use super::*;

const BUDGET: u64 = 1_000;

/// GreedyDual-Size the obvious way: a flat list, every eviction a full
/// scan for the smallest `(H, tick)`, `H` wide enough never to need a
/// rebase.
struct Model {
    budget: u64,
    l: u128,
    clock: u64,
    entries: Vec<ModelEntry>,
    journal: Vec<u32>,
}

struct ModelEntry {
    key: u32,
    size: u64,
    score: u64,
    h: u128,
    tick: u64,
}

impl Model {
    fn new(budget: u64) -> Model {
        Model {
            budget,
            l: 0,
            clock: 0,
            entries: Vec::new(),
            journal: Vec::new(),
        }
    }

    fn used(&self) -> u64 {
        self.entries.iter().map(|e| e.size).sum()
    }

    fn pos(&self, key: u32) -> Option<usize> {
        self.entries.iter().position(|e| e.key == key)
    }

    fn stamp(&mut self, i: usize) {
        let e = &mut self.entries[i];
        let cost = e.score.clamp(1, (1 << 28) - 1) as u128;
        e.h = self.l + (cost << 32) / e.size.max(1) as u128;
        e.tick = self.clock;
        self.clock += 1;
    }

    fn touch(&mut self, key: u32) -> bool {
        match self.pos(key) {
            Some(i) => {
                self.stamp(i);
                true
            }
            None => false,
        }
    }

    fn remove(&mut self, key: u32) -> bool {
        self.pos(key).map(|i| self.entries.remove(i)).is_some()
    }

    fn insert(&mut self, key: u32, size: u64, delay: Option<u64>) -> bool {
        let fresh = match self.pos(key) {
            Some(i) => {
                let e = &mut self.entries[i];
                e.size = size;
                if let Some(d) = delay {
                    e.score = (e.score + d) / 2;
                }
                false
            }
            None if size > self.budget => return false,
            None => {
                self.entries.push(ModelEntry {
                    key,
                    size,
                    score: delay.unwrap_or(0),
                    h: 0,
                    tick: 0,
                });
                true
            }
        };
        while self.used() > self.budget {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.key != key)
                .min_by_key(|(_, e)| (e.h, e.tick))
                .map(|(i, _)| i);
            let Some(i) = victim else {
                self.remove(key);
                return false;
            };
            let gone = self.entries.remove(i);
            self.l = gone.h;
            self.journal.push(gone.key);
        }
        let i = self.pos(key).expect("kept");
        self.stamp(i);
        fresh
    }

    fn contents_lru_order(&self) -> Vec<(u32, u64)> {
        let mut v: Vec<&ModelEntry> = self.entries.iter().collect();
        v.sort_by_key(|e| e.tick);
        v.into_iter().map(|e| (e.key, e.size)).collect()
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u32, u64),
    InsertDelay(u32, u64, u64),
    Touch(u32),
    Remove(u32),
    Clear,
}

/// Mostly small entries, some near or over the whole budget, over few
/// enough keys that refreshes, hits and removes of live entries are
/// common.
fn arb_ops(len: usize) -> impl Strategy<Value = Vec<Op>> {
    let size = prop_oneof![1u64..400, 1u64..400, 800u64..1_200];
    let op =
        (0u8..40, 0u32..24, size, 0u64..50_000).prop_map(|(kind, key, size, delay)| match kind {
            0..=9 => Op::Insert(key, size),
            10..=21 => Op::InsertDelay(key, size, delay),
            22..=31 => Op::Touch(key),
            32..=38 => Op::Remove(key),
            _ => Op::Clear,
        });
    proptest::collection::vec(op, 1..len)
}

fn gd_cache() -> LruCache<u32> {
    let mut c = LruCache::new(BUDGET);
    c.set_policy(EvictPolicy::GreedyDual);
    c.set_journal(true);
    c
}

proptest! {
    /// (a) + (c) + (d): after every operation of an arbitrary sequence the
    /// cache agrees with the naive model — same return value, same
    /// victims in the same order, same `used`/`len`, same recency order
    /// — stays within budget, never evicts the entry being inserted
    /// while another is left, rejects oversized inserts without a
    /// journal entry, and keeps the heap within its length bound.
    #[test]
    fn greedy_dual_matches_naive_reference(ops in arb_ops(400)) {
        let mut cache = gd_cache();
        let mut model = Model::new(BUDGET);
        for op in ops {
            // What the insert must leave cached, and whether it was new.
            let mut inserted = None;
            match op {
                Op::Insert(k, size) | Op::InsertDelay(k, size, _) => {
                    let delay = match op {
                        Op::InsertDelay(_, _, d) => Some(d),
                        _ => None,
                    };
                    let was_cached = cache.contains(k);
                    let admitted = match delay {
                        Some(d) => cache.insert_with_delay(k, size, d),
                        None => cache.insert(k, size),
                    };
                    prop_assert_eq!(admitted, model.insert(k, size, delay), "{:?}", op);
                    inserted = Some((k, size, was_cached, admitted));
                }
                Op::Touch(k) => prop_assert_eq!(cache.touch(k), model.touch(k)),
                Op::Remove(k) => prop_assert_eq!(cache.remove(k), model.remove(k)),
                Op::Clear => {
                    cache.clear();
                    model = Model::new(BUDGET);
                    prop_assert_eq!(cache.heap.len(), 0);
                }
            }
            let victims = cache.drain_evictions();
            prop_assert_eq!(&victims, &std::mem::take(&mut model.journal), "{:?}", op);
            prop_assert_eq!(cache.used(), model.used());
            prop_assert_eq!(cache.len(), model.entries.len());
            prop_assert_eq!(cache.contents_lru_order(), model.contents_lru_order());
            prop_assert!(cache.used() <= BUDGET);
            if let Some((k, size, was_cached, admitted)) = inserted {
                prop_assert!(!victims.contains(&k), "{:?} evicted itself", op);
                prop_assert_eq!(cache.contains(k), size <= BUDGET);
                prop_assert_eq!(admitted, !was_cached && size <= BUDGET);
                if size > BUDGET && !was_cached {
                    prop_assert!(victims.is_empty(), "a rejection is not an eviction");
                }
            }
            prop_assert!(cache.heap.len() >= cache.len());
            prop_assert!(
                cache.heap.len() <= 2 * cache.len() + GD_HEAP_SLACK,
                "heap {} for {} entries", cache.heap.len(), cache.len()
            );
        }
    }

    /// (b) With cost proportional to size every `step` is the same, `H`
    /// is `L` at last use plus a constant, and ties go to the older
    /// tick: GreedyDual's victims are strict LRU's, one for one.
    #[test]
    fn cost_proportional_to_size_is_exactly_lru(
        ops in proptest::collection::vec((0u8..10, 0u32..40), 1..600),
        per_byte in 1u64..5_000,
    ) {
        let mut gd = gd_cache();
        let mut lru: LruCache<u32> = LruCache::new(BUDGET);
        lru.set_journal(true);
        // A key's size never changes, so a refresh's EWMA leaves its
        // cost at `per_byte · size`.
        let size_of = |k: u32| 20 + (k as u64 * 37) % 200;
        for (kind, k) in ops {
            for c in [&mut gd, &mut lru] {
                match kind {
                    0..=5 => {
                        c.insert_with_delay(k, size_of(k), per_byte * size_of(k));
                    }
                    6..=8 => {
                        c.touch(k);
                    }
                    _ => {
                        c.remove(k);
                    }
                }
            }
            prop_assert_eq!(gd.drain_evictions(), lru.drain_evictions());
            prop_assert_eq!(gd.contents_lru_order(), lru.contents_lru_order());
        }
    }
}

proptest! {
    /// (g) Under either policy, peeking changes nothing a caller can
    /// see — a twin that never peeks returns, evicts and orders exactly
    /// alike over the rest of the history — and the peeked entry is
    /// the first victim of the next insert that evicts.
    #[test]
    fn peek_victim_names_the_next_victim_and_changes_nothing(
        ops in arb_ops(200),
        gd in any::<bool>(),
    ) {
        let mut cache: LruCache<u32> = LruCache::new(BUDGET);
        if gd {
            cache.set_policy(EvictPolicy::GreedyDual);
        }
        cache.set_journal(true);
        let mut twin = cache.clone();
        for op in ops {
            let peeked = cache.peek_victim();
            prop_assert_eq!(peeked.is_none(), cache.is_empty());
            let fresh = match op {
                Op::Insert(k, _) | Op::InsertDelay(k, _, _) => !cache.contains(k),
                _ => false,
            };
            for c in [&mut cache, &mut twin] {
                match op {
                    Op::Insert(k, size) => {
                        c.insert(k, size);
                    }
                    Op::InsertDelay(k, size, d) => {
                        c.insert_with_delay(k, size, d);
                    }
                    Op::Touch(k) => {
                        c.touch(k);
                    }
                    Op::Remove(k) => {
                        c.remove(k);
                    }
                    Op::Clear => c.clear(),
                }
            }
            let victims = cache.drain_evictions();
            prop_assert_eq!(&victims, &twin.drain_evictions(), "{:?}", op);
            prop_assert_eq!(cache.contents_lru_order(), twin.contents_lru_order());
            if fresh && !victims.is_empty() {
                prop_assert_eq!(Some(victims[0]), peeked, "{:?}", op);
            }
        }
    }
}

/// (d) A remove-heavy history — the one way stale items accumulate with
/// no eviction to pop them — keeps the heap bounded at every step.
#[test]
fn removes_cannot_bloat_the_heap() {
    let mut c: LruCache<u32> = LruCache::new(u64::MAX);
    c.set_policy(EvictPolicy::GreedyDual);
    for round in 0..4u32 {
        for k in 0..1_000 {
            c.insert(round * 1_000 + k, 10);
            c.insert(round * 1_000 + k, 10); // a refresh strands an item too
            assert!(c.heap.len() <= 2 * c.len() + GD_HEAP_SLACK);
        }
        for k in 0..1_000 {
            assert!(c.remove(round * 1_000 + k));
            assert!(
                c.heap.len() <= 2 * c.len() + GD_HEAP_SLACK,
                "heap {} for {} entries",
                c.heap.len(),
                c.len()
            );
        }
        assert!(c.is_empty());
        assert!(c.heap.len() <= GD_HEAP_SLACK);
    }
    c.insert(1, 10);
    c.clear();
    assert_eq!(c.heap.len(), 0);
}

/// (e) The hit path does no heap work: on a cache that never evicts,
/// 10⁵ hits leave the push/pop counter where the inserts left it.
#[test]
fn hits_never_touch_the_heap() {
    let mut c: LruCache<u32> = LruCache::new(u64::MAX);
    c.set_policy(EvictPolicy::GreedyDual);
    for k in 0..1_000 {
        c.insert_with_delay(k, 100 + k as u64, 1_000);
    }
    let after_inserts = c.heap_ops;
    assert_eq!(after_inserts, 1_000, "one push per admission");
    for i in 0..100_000u32 {
        assert!(c.touch(i.wrapping_mul(2_654_435_761) % 1_000));
    }
    assert_eq!(c.heap_ops, after_inserts);
    assert_eq!(c.heap.len(), 1_000);
}

/// (f) `L` and `H` cannot wrap. 2³² evictions of 1-byte entries that
/// each cost 10 s do not fit 64 bits, so the cache rebases — checked
/// here across the boundary itself, against the model's 128-bit `H`.
#[test]
fn inflation_rebases_before_it_can_wrap() {
    let step = gd_step(10_000_000, 1);
    assert!(
        (step as u128) << 32 > u64::MAX as u128,
        "the chosen width alone would not hold this history"
    );
    assert!(gd_step(u64::MAX, 1) < 1 << 60, "no step reaches 2^60");

    let mut c: LruCache<u32> = LruCache::new(4);
    c.set_policy(EvictPolicy::GreedyDual);
    c.set_journal(true);
    let mut model = Model::new(4);
    let fill = |c: &mut LruCache<u32>, model: &mut Model, keys: std::ops::Range<u32>| {
        for k in keys {
            // Uneven costs and interleaved hits, so the order is not
            // simply first in, first out.
            let delay = 10_000_000 - (k as u64 % 3) * 1_000_000;
            c.insert_with_delay(k, 1, delay);
            model.insert(k, 1, Some(delay));
            let hit = k.saturating_sub(2);
            assert_eq!(c.touch(hit), model.touch(hit));
            assert_eq!(c.drain_evictions(), std::mem::take(&mut model.journal));
        }
    };
    fill(&mut c, &mut model, 0..8);
    // Age both to three steps short of the rebase threshold — `L` and
    // every `H` move up together, which changes no ordering...
    let by = GD_REBASE_AT - 3 * step - c.inflation;
    c.inflation += by;
    model.l += by as u128;
    for &idx in c.map.values() {
        c.slab[idx].h += by;
    }
    for e in &mut model.entries {
        e.h += by as u128;
    }
    c.rebuild_heap();
    let before = c.inflation;
    // ...and walk across it.
    fill(&mut c, &mut model, 8..40);
    assert!(c.inflation < before, "L was rebased");
    assert!(c.inflation < GD_REBASE_AT);
    assert_eq!(c.evictions(), 36);
}
