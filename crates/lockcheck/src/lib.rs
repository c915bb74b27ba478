//! Eraser-style lock-order checking for the workspace's synchronization
//! layer.
//!
//! The vendored `parking_lot` shim calls into this crate (under its
//! `lockcheck` cargo feature) on every `Mutex`/`RwLock` acquisition and
//! release, and across every `Condvar::wait`. Each lock is registered at
//! construction with a [`LockClass`] — a *class* of locks, not an
//! instance: `MappingShard(3)` names every dispatcher's mapping shard 3,
//! `Cache(1)` names node 1's cache lock, and so on. The checker keeps
//!
//! * a **thread-local held stack**: the classes this thread currently
//!   holds, in acquisition order, each with its acquisition site;
//! * a **global lock-order graph**: a directed edge `A → B` is recorded
//!   the first time any thread acquires a class-`B` lock while holding a
//!   class-`A` lock, together with a witness (both acquisition sites and
//!   the observing thread).
//!
//! On every blocking acquisition the checker enforces, in order:
//!
//! 1. **No recursive acquisition** of the same class (same group *and*
//!    index) — self-deadlock with non-reentrant locks.
//! 2. **Intra-group discipline**: index-ordered groups (the mapping
//!    shards) must be acquired strictly ascending; every other group
//!    forbids holding two of its locks at once (two threads nesting a
//!    group in opposite instance orders is a deadlock, and no code path
//!    in this workspace legitimately nests them).
//! 3. **The declared partial order** ([`DECLARED_ORDER`]): acquiring `B`
//!    while holding `A` panics if the declared order says `B` must come
//!    *before* `A` — even if the inverse nesting has never been observed.
//! 4. **Observed-graph acyclicity**: acquiring `B` while holding `A`
//!    panics if a path `B ⇒ A` already exists in the union of the
//!    observed graph and the declared order. This catches inversions
//!    between classes the declared order says nothing about, the moment
//!    the *second* ordering is observed — on any interleaving, not just
//!    one that happens to deadlock.
//!
//! A violation panics with a witness naming the acquiring site, the full
//! held set (classes + sites), the conflicting prior edge's two sites,
//! and both thread ids. `try_lock` acquisitions are recorded in the held
//! stack (so witnesses are complete) but checked against none of the
//! rules: a failed try has a non-blocking exit, so it cannot deadlock by
//! itself.
//!
//! This crate deliberately uses `std::sync` internally: it *implements*
//! the instrument-the-synchronization-layer analysis, so it cannot be a
//! client of the instrumented shim types (`phttp-lint` carves out this
//! one exemption from its no-`std::sync`-locks rule).

#![deny(missing_docs)]

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::panic::Location;
use std::sync::Mutex as StdMutex;

/// The lock groups of the workspace, one per family of locks that share
/// ordering semantics. The derived discriminant order is meaningless —
/// ordering constraints live in [`DECLARED_ORDER`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockGroup {
    /// A per-front-end admission link of the `Vip`'s blocking driver
    /// (both session ends, their sockets, the endpoint's `BeHandoff`).
    AdmitSession,
    /// The tier's shared Vip-side handoff state machine.
    VipMachine,
    /// A per-front-end gossip publish serializer.
    GossipPublish,
    /// A per-(origin, peer) gossip stream write half.
    GossipTx,
    /// The tier's consistent-hash ownership ring.
    Ring,
    /// A per-front-end gossip view (`TierView`).
    TierView,
    /// A dispatcher connection-state shard.
    ConnShard,
    /// A dispatcher mapping-table shard (index-ordered: multi-shard
    /// holders must acquire strictly ascending).
    MappingShard,
    /// A per-node cache-mirror set.
    Mirror,
    /// A per-node health-gate breaker.
    Health,
    /// A back-end node's cache lock.
    Cache,
    /// A back-end node's control-session transmit state.
    Control,
    /// A back-end node's emulated disk spindle.
    DiskSpindle,
    /// A back-end node's idle lateral-connection pool (per peer).
    PeerPool,
    /// An ad-hoc class named at registration (rules apply; the name is
    /// the graph key, so reuse the same literal for the same lock).
    Other(&'static str),
    /// A lock constructed without a class. Tracked in the held stack for
    /// witness completeness, exempt from every rule.
    Unclassed,
}

impl LockGroup {
    /// Stable graph key (content-hashed, so equal names from different
    /// crates collapse to one node).
    fn key(self) -> &'static str {
        match self {
            LockGroup::AdmitSession => "AdmitSession",
            LockGroup::VipMachine => "VipMachine",
            LockGroup::GossipPublish => "GossipPublish",
            LockGroup::GossipTx => "GossipTx",
            LockGroup::Ring => "Ring",
            LockGroup::TierView => "TierView",
            LockGroup::ConnShard => "ConnShard",
            LockGroup::MappingShard => "MappingShard",
            LockGroup::Mirror => "Mirror",
            LockGroup::Health => "Health",
            LockGroup::Cache => "Cache",
            LockGroup::Control => "Control",
            LockGroup::DiskSpindle => "DiskSpindle",
            LockGroup::PeerPool => "PeerPool",
            LockGroup::Other(name) => name,
            LockGroup::Unclassed => "Unclassed",
        }
    }

    /// Whether same-group nesting is legal when indices strictly ascend.
    fn index_ordered(self) -> bool {
        matches!(self, LockGroup::MappingShard)
    }
}

/// The class of a lock: its [`LockGroup`] plus an instance index (shard
/// index, node id, front-end id — whatever distinguishes instances whose
/// nesting the intra-group rule must reason about).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockClass {
    group: LockGroup,
    index: u32,
}

impl LockClass {
    /// The class of locks constructed without registration.
    pub const UNCLASSED: LockClass = LockClass {
        group: LockGroup::Unclassed,
        index: 0,
    };

    /// A class from raw parts.
    pub const fn new(group: LockGroup, index: u32) -> Self {
        LockClass { group, index }
    }

    /// Mapping-table shard `i` (index-ordered group).
    pub const fn mapping_shard(i: u32) -> Self {
        Self::new(LockGroup::MappingShard, i)
    }

    /// Connection-state shard `i`.
    pub const fn conn_shard(i: u32) -> Self {
        Self::new(LockGroup::ConnShard, i)
    }

    /// Node `n`'s cache lock.
    pub const fn cache(n: u32) -> Self {
        Self::new(LockGroup::Cache, n)
    }

    /// Node `n`'s control-session transmit lock.
    pub const fn control(n: u32) -> Self {
        Self::new(LockGroup::Control, n)
    }

    /// Node `n`'s emulated disk spindle.
    pub const fn disk_spindle(n: u32) -> Self {
        Self::new(LockGroup::DiskSpindle, n)
    }

    /// The idle lateral-connection pool toward peer `p`.
    pub const fn peer_pool(p: u32) -> Self {
        Self::new(LockGroup::PeerPool, p)
    }

    /// Node `n`'s cache-mirror set.
    pub const fn mirror(n: u32) -> Self {
        Self::new(LockGroup::Mirror, n)
    }

    /// Node `n`'s health breaker.
    pub const fn health(n: u32) -> Self {
        Self::new(LockGroup::Health, n)
    }

    /// The tier ownership ring.
    pub const fn ring() -> Self {
        Self::new(LockGroup::Ring, 0)
    }

    /// Front-end `f`'s gossip view.
    pub const fn tier_view(f: u32) -> Self {
        Self::new(LockGroup::TierView, f)
    }

    /// Front-end `f`'s gossip publish serializer.
    pub const fn gossip_publish(f: u32) -> Self {
        Self::new(LockGroup::GossipPublish, f)
    }

    /// The gossip stream write half toward peer `g`.
    pub const fn gossip_tx(g: u32) -> Self {
        Self::new(LockGroup::GossipTx, g)
    }

    /// Front-end `f`'s admission link (blocking driver).
    pub const fn admit_session(f: u32) -> Self {
        Self::new(LockGroup::AdmitSession, f)
    }

    /// The Vip handoff machine.
    pub const fn vip_machine() -> Self {
        Self::new(LockGroup::VipMachine, 0)
    }

    /// An ad-hoc class keyed by `name` (pass the same literal for the
    /// same logical lock).
    pub const fn other(name: &'static str) -> Self {
        Self::new(LockGroup::Other(name), 0)
    }

    /// The class's group.
    pub const fn group(self) -> LockGroup {
        self.group
    }

    /// The class's instance index.
    pub const fn index(self) -> u32 {
        self.index
    }

    fn is_unclassed(self) -> bool {
        matches!(self.group, LockGroup::Unclassed)
    }
}

impl Default for LockClass {
    fn default() -> Self {
        LockClass::UNCLASSED
    }
}

impl fmt::Display for LockClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.group.key(), self.index)
    }
}

/// The workspace's declared lock partial order, as `(outer, inner)`
/// pairs: a lock of the `outer` group may be held while acquiring one of
/// the `inner` group, never the reverse (transitively). Mirrors the
/// ARCHITECTURE.md "Concurrency invariants" table; change them together.
pub const DECLARED_ORDER: &[(LockGroup, LockGroup)] = &[
    // The dispatcher: a pipelined batch is decided under its connection
    // shard with one write acquisition per distinct mapping shard.
    (LockGroup::ConnShard, LockGroup::MappingShard),
    // Health gates and the cache mirror are consulted from inside
    // mapping-shard critical sections, never the other way around.
    (LockGroup::MappingShard, LockGroup::Health),
    (LockGroup::MappingShard, LockGroup::Mirror),
    // Gossip publish serializes, then reads ring ownership, then
    // drains the mapping's change journal shard by shard.
    (LockGroup::GossipPublish, LockGroup::Ring),
    (LockGroup::Ring, LockGroup::MappingShard),
    // Node data path: feedback events are appended (and the join
    // handshake installs its session) under cache→control.
    (LockGroup::Cache, LockGroup::Control),
    // Tier admission: a blocking exchange holds its link while the
    // link's two ends step the shared machine.
    (LockGroup::AdmitSession, LockGroup::VipMachine),
];

/// One entry of a thread's held stack.
#[derive(Clone, Copy)]
struct Held {
    class: LockClass,
    site: &'static Location<'static>,
}

/// First-observed witness of a lock-order graph edge.
#[derive(Clone)]
struct EdgeWitness {
    outer_site: &'static Location<'static>,
    inner_site: &'static Location<'static>,
    thread: String,
}

#[derive(Default)]
struct Graph {
    /// `edges[a]` holds every `b` such that `a → b` was observed, with
    /// the first witness.
    edges: HashMap<&'static str, HashMap<&'static str, EdgeWitness>>,
}

impl Graph {
    /// Whether a path `from ⇒ to` exists in the union of the observed
    /// edges and [`DECLARED_ORDER`].
    fn path_exists(&self, from: &'static str, to: &'static str) -> bool {
        let mut seen: HashSet<&'static str> = HashSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = self.edges.get(n) {
                stack.extend(next.keys().copied());
            }
            for &(a, b) in DECLARED_ORDER {
                if a.key() == n {
                    stack.push(b.key());
                }
            }
        }
        false
    }

    /// Some edge on a path `from ⇒ to`, for witness reporting (prefers
    /// the direct edge).
    fn witness_on_path(
        &self,
        from: &'static str,
        to: &'static str,
    ) -> Option<(String, EdgeWitness)> {
        if let Some(w) = self.edges.get(from).and_then(|m| m.get(to)) {
            return Some((format!("{from} -> {to}"), w.clone()));
        }
        // Indirect: report the first observed edge out of `from` that
        // still reaches `to`.
        if let Some(next) = self.edges.get(from) {
            for (&mid, w) in next {
                if self.path_exists(mid, to) {
                    return Some((format!("{from} -> {mid} -> ... -> {to}"), w.clone()));
                }
            }
        }
        None
    }
}

static GRAPH: StdMutex<Option<Graph>> = StdMutex::new(None);

thread_local! {
    static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    /// Edges this thread has already pushed through the global graph —
    /// repeat acquisitions of a known-good nesting skip the global lock.
    static SEEN_EDGES: RefCell<HashSet<(&'static str, &'static str)>> =
        RefCell::new(HashSet::new());
}

fn thread_label() -> String {
    let t = std::thread::current();
    match t.name() {
        Some(name) => format!("{:?} ({name})", t.id()),
        None => format!("{:?}", t.id()),
    }
}

fn held_description(held: &[Held]) -> String {
    if held.is_empty() {
        return "  held: (nothing)".to_string();
    }
    held.iter()
        .map(|h| format!("  held: {} acquired at {}", h.class, h.site))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Records a blocking acquisition of `class` at `site`, enforcing the
/// ordering rules first.
///
/// # Panics
///
/// Panics with a witness on recursive acquisition, intra-group
/// violations, declared-order violations, or an observed-graph cycle.
pub fn on_acquire(class: LockClass, site: &'static Location<'static>) {
    if class.is_unclassed() {
        HELD.with(|h| h.borrow_mut().push(Held { class, site }));
        return;
    }
    let violation = HELD.with(|h| {
        let held = h.borrow();
        check_rules(&held, class, site)
    });
    if let Some(msg) = violation {
        panic!("{msg}");
    }
    HELD.with(|h| h.borrow_mut().push(Held { class, site }));
}

/// Records a *successful* `try_lock` of `class` at `site`. Held-stack
/// bookkeeping only: a try acquisition has a non-blocking failure exit,
/// so it is exempt from the ordering rules (and records no graph edges).
pub fn on_acquire_try(class: LockClass, site: &'static Location<'static>) {
    HELD.with(|h| h.borrow_mut().push(Held { class, site }));
}

/// Records the release of `class` (guard drop). Removes the most recent
/// matching held entry; releases need not be LIFO.
pub fn on_release(class: LockClass) {
    HELD.with(|h| {
        let mut held = h.borrow_mut();
        if let Some(pos) = held.iter().rposition(|e| e.class == class) {
            held.remove(pos);
        }
    });
}

/// Records the atomic release half of a `Condvar::wait`: the guard's
/// class is popped from the held stack while the thread is parked.
pub fn on_wait_release(class: LockClass) {
    on_release(class);
}

/// Records the re-acquisition half of a `Condvar::wait` wake-up. The
/// full rule set applies: re-acquiring after a wait is a genuine
/// blocking acquisition and participates in ordering like any other.
pub fn on_wait_reacquire(class: LockClass, site: &'static Location<'static>) {
    on_acquire(class, site);
}

/// The current thread's held classes (acquisition order), rendered as
/// `Group(index)` strings. Test observability hook.
pub fn held_names() -> Vec<String> {
    HELD.with(|h| h.borrow().iter().map(|e| e.class.to_string()).collect())
}

/// Clears the global observed graph (and this thread's edge cache).
/// Tests that deliberately seed inversions call this so one test's
/// poisoned graph cannot fail an unrelated test in the same process.
pub fn reset_observed_graph() {
    *GRAPH.lock().unwrap_or_else(|e| e.into_inner()) = None;
    SEEN_EDGES.with(|s| s.borrow_mut().clear());
}

/// Rule engine: returns the violation message, if any, for acquiring
/// `class` with `held` on this thread. Pure with respect to the held
/// stack; records new edges into the global graph as a side effect.
fn check_rules(
    held: &[Held],
    class: LockClass,
    site: &'static Location<'static>,
) -> Option<String> {
    let me = thread_label();
    for h in held {
        if h.class.is_unclassed() {
            continue;
        }
        if h.class == class {
            return Some(format!(
                "lockcheck: recursive acquisition of {class} at {site} on thread {me}\n\
                 {}\n  (same class already held — self-deadlock with non-reentrant locks)",
                held_description(held)
            ));
        }
        if h.class.group == class.group {
            if class.group.index_ordered() {
                if class.index <= h.class.index {
                    return Some(format!(
                        "lockcheck: non-ascending {} acquisition: {class} at {site} while \
                         holding {} (acquired at {}) on thread {me}\n{}\n  \
                         ({} shards must be acquired in strictly ascending index order — \
                         the write_set discipline)",
                        class.group.key(),
                        h.class,
                        h.site,
                        held_description(held),
                        class.group.key()
                    ));
                }
            } else {
                return Some(format!(
                    "lockcheck: same-group nesting: acquiring {class} at {site} while holding \
                     {} (acquired at {}) on thread {me}\n{}\n  \
                     (no code path may hold two {} locks at once; instance order is undefined)",
                    h.class,
                    h.site,
                    held_description(held),
                    class.group.key()
                ));
            }
        }
    }

    // Graph pass: one global-lock visit covering declared + observed
    // paths and edge insertion, skipped entirely when every (held →
    // class) edge is already in this thread's seen cache.
    let new_edges: Vec<&Held> = held
        .iter()
        .filter(|h| !h.class.is_unclassed() && h.class.group != class.group)
        .collect();
    if new_edges.is_empty() {
        return None;
    }
    let all_seen = SEEN_EDGES.with(|s| {
        let seen = s.borrow();
        new_edges
            .iter()
            .all(|h| seen.contains(&(h.class.group.key(), class.group.key())))
    });
    if all_seen {
        return None;
    }
    let mut g = GRAPH.lock().unwrap_or_else(|e| e.into_inner());
    let graph = g.get_or_insert_with(Graph::default);
    let to = class.group.key();
    for h in &new_edges {
        let from = h.class.group.key();
        if graph.path_exists(to, from) {
            // `class` is ordered before `from` (declared or observed),
            // yet this thread is acquiring it after: inversion.
            let prior = graph.witness_on_path(to, from);
            let prior_txt = match &prior {
                Some((path, w)) => format!(
                    "  conflicting prior order {path}: {} acquired at {} then inner lock at {} \
                     on thread {}",
                    path.split(' ').next().unwrap_or(""),
                    w.outer_site,
                    w.inner_site,
                    w.thread
                ),
                None => format!(
                    "  conflicting order {to} -> {from} is declared (DECLARED_ORDER), not observed"
                ),
            };
            let msg = format!(
                "lockcheck: lock-order inversion: acquiring {class} at {site} while holding \
                 {} (acquired at {}) on thread {me}\n{}\n{prior_txt}",
                h.class,
                h.site,
                held_description(held),
            );
            drop(g);
            return Some(msg);
        }
        graph
            .edges
            .entry(from)
            .or_default()
            .entry(to)
            .or_insert_with(|| EdgeWitness {
                outer_site: h.site,
                inner_site: site,
                thread: me.clone(),
            });
    }
    drop(g);
    SEEN_EDGES.with(|s| {
        let mut seen = s.borrow_mut();
        for h in &new_edges {
            seen.insert((h.class.group.key(), class.group.key()));
        }
    });
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site() -> &'static Location<'static> {
        Location::caller()
    }

    /// Distinct ad-hoc groups per test keep the shared global graph from
    /// coupling tests run in one process.
    #[test]
    fn acquire_release_tracks_held_stack() {
        let a = LockClass::other("t1-a");
        let b = LockClass::other("t1-b");
        on_acquire(a, site());
        on_acquire(b, site());
        assert_eq!(held_names(), vec!["t1-a(0)", "t1-b(0)"]);
        on_release(a); // non-LIFO release is fine
        assert_eq!(held_names(), vec!["t1-b(0)"]);
        on_release(b);
        assert!(held_names().is_empty());
    }

    #[test]
    fn recursive_acquisition_panics() {
        let a = LockClass::other("t2-a");
        on_acquire(a, site());
        let err = std::panic::catch_unwind(|| on_acquire(a, site())).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("recursive acquisition"), "{msg}");
        on_release(a);
    }

    #[test]
    fn mapping_shards_enforce_ascending_order() {
        on_acquire(LockClass::mapping_shard(2), site());
        on_acquire(LockClass::mapping_shard(5), site()); // ascending: fine
        let err = std::panic::catch_unwind(|| on_acquire(LockClass::mapping_shard(3), site()))
            .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("non-ascending MappingShard"), "{msg}");
        on_release(LockClass::mapping_shard(5));
        on_release(LockClass::mapping_shard(2));
    }

    #[test]
    fn same_group_nesting_panics_for_unordered_groups() {
        on_acquire(LockClass::cache(0), site());
        let err = std::panic::catch_unwind(|| on_acquire(LockClass::cache(1), site())).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("same-group nesting"), "{msg}");
        on_release(LockClass::cache(0));
    }

    #[test]
    fn declared_order_violation_panics_without_prior_observation() {
        // Control → Cache inverts the declared Cache → Control, even
        // though no thread ever nested them the allowed way first.
        on_acquire(LockClass::control(0), site());
        let err = std::panic::catch_unwind(|| on_acquire(LockClass::cache(0), site())).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("lock-order inversion"), "{msg}");
        assert!(msg.contains("DECLARED_ORDER"), "{msg}");
        on_release(LockClass::control(0));
    }

    #[test]
    fn declared_order_violation_is_transitive() {
        // ConnShard → MappingShard → Health is declared; Health → ConnShard
        // inverts it through the transitive path.
        on_acquire(LockClass::health(0), site());
        let err =
            std::panic::catch_unwind(|| on_acquire(LockClass::conn_shard(0), site())).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("lock-order inversion"), "{msg}");
        on_release(LockClass::health(0));
    }

    #[test]
    fn observed_inversion_panics_with_both_sites() {
        let a = LockClass::other("t6-a");
        let b = LockClass::other("t6-b");
        // First ordering: a → b (legal, recorded).
        on_acquire(a, site());
        let inner = Location::caller();
        on_acquire(b, inner);
        on_release(b);
        on_release(a);
        // Second ordering: b → a. No deadlock is possible here (both
        // acquisitions succeed immediately) — the inversion is caught
        // from the graph alone.
        on_acquire(b, site());
        let err = std::panic::catch_unwind(|| on_acquire(a, site())).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("lock-order inversion"), "{msg}");
        assert!(msg.contains("conflicting prior order"), "{msg}");
        assert!(
            msg.contains(&inner.to_string()),
            "witness names the prior site: {msg}"
        );
        on_release(b);
    }

    #[test]
    fn try_acquisitions_are_exempt_but_tracked() {
        let a = LockClass::other("t7-a");
        let b = LockClass::other("t7-b");
        on_acquire(a, site());
        on_acquire(b, site());
        on_release(b);
        on_release(a);
        // The inverse nesting via try_lock records no edge and panics
        // nothing.
        on_acquire(b, site());
        on_acquire_try(a, site());
        assert_eq!(held_names(), vec!["t7-b(0)", "t7-a(0)"]);
        on_release(a);
        on_release(b);
    }

    #[test]
    fn unclassed_locks_are_exempt() {
        on_acquire(LockClass::UNCLASSED, site());
        on_acquire(LockClass::UNCLASSED, site()); // no recursion panic
        assert_eq!(held_names().len(), 2);
        on_release(LockClass::UNCLASSED);
        on_release(LockClass::UNCLASSED);
    }

    #[test]
    fn wait_pops_and_reacquire_pushes() {
        let a = LockClass::other("t9-a");
        on_acquire(a, site());
        assert_eq!(held_names(), vec!["t9-a(0)"]);
        on_wait_release(a);
        assert!(held_names().is_empty(), "held class popped across a wait");
        on_wait_reacquire(a, site());
        assert_eq!(held_names(), vec!["t9-a(0)"], "re-pushed exactly once");
        on_release(a);
    }
}
