//! The back-end node's main-memory file cache.
//!
//! A byte-budget cache over [`TargetId`]s — the simulator's model of
//! FreeBSD's unified buffer cache (the paper observed 70-85 MB of usable
//! cache on its 128 MB back-ends; the budget and the replacement policy,
//! strict LRU or GreedyDual-Size, are [`crate::SimConfig`] fields). The generic implementation lives in [`phttp_simcore::lru`] and
//! is shared with the live prototype.

use phttp_trace::TargetId;

/// Node cache keyed by target.
pub type LruCache = phttp_simcore::lru::LruCache<TargetId>;
