//! Content-based request distribution for cluster-based Web servers.
//!
//! This crate is the primary contribution of the reproduced paper —
//! *Efficient Support for P-HTTP in Cluster-Based Web Servers* (Aron,
//! Druschel, Zwaenepoel; USENIX 1999) — as a reusable library, organized
//! as three composable layers plus two façades:
//!
//! * the **policy layer** ([`policy`]): a [`Policy`] trait with
//!   weighted round-robin ([`policy::Wrr`]), basic LARD
//!   ([`policy::Lard`]), and the paper's extended LARD
//!   ([`policy::ExtLard`]) as pure decision logic over the LARD
//!   **cost metrics** ([`cost`], the paper's Figure 4);
//! * the **load layer** ([`load`]): per-node atomic fixed-point load
//!   counters, including the 1/N pipelined-batch accounting;
//! * the **mapping layer** ([`mapping`], [`shard`]): the front-end
//!   table that partitions (and, under extended LARD, selectively
//!   replicates) the working set, behind per-target lock shards;
//! * the **feedback layer** ([`feedback`]): control-plane cache
//!   reports from the back-ends ([`feedback::CacheEvent`] streams) that
//!   keep the mapping *belief* coherent with real cache contents, plus
//!   the divergence metric that quantifies the gap;
//! * the **health layer** ([`health`]): a per-node circuit breaker
//!   ([`HealthGate`], Closed/Open/HalfOpen with probationary traffic)
//!   that sits between every policy decision and the assignment it
//!   becomes, so a failed or still-warming node never wins a pick;
//! * the [`Dispatcher`] façade: the original single-threaded API,
//!   driving the trace-driven simulator (`phttp-sim`);
//! * the [`ConcurrentDispatcher`] façade: the same semantics behind
//!   `&self`, whose hot path takes only the one mapping shard and one
//!   connection shard it touches — the live prototype (`phttp-proto`)
//!   runs its connection-handler threads against this with no global
//!   lock, keeping the front-end's decision path off the critical
//!   path exactly as the paper's scalability argument requires;
//! * the **mechanism** taxonomy ([`mechanism`]): relaying front-end, TCP
//!   single/multiple handoff, back-end forwarding, and the zero-cost ideal;
//! * the **tier layer** ([`tier`]): the consistent-hash [`Ring`]
//!   partitioning target ownership across multiple front-ends, and the
//!   serializable, commutatively mergeable dispatcher state
//!   ([`StateDelta`], [`TierView`]) those front-ends gossip on the
//!   control plane — each round only what changed.
//!
//! See `ARCHITECTURE.md` at the repo root for the layering rationale and
//! which façade each crate consumes. Every public item in this crate is
//! documented and the crate denies `missing_docs` — it is the API other
//! crates (and the paper-reading reader) navigate first.
//!
//! # Examples
//!
//! ```
//! use phttp_core::{ConnId, Dispatcher, ForwardSemantics, LardParams, PolicyKind};
//! use phttp_trace::TargetId;
//!
//! // A 4-node cluster running extended LARD with back-end forwarding.
//! let mut d = Dispatcher::new(
//!     PolicyKind::ExtLard,
//!     ForwardSemantics::LateralFetch,
//!     4,
//!     LardParams::default(),
//! );
//! // First request of a persistent connection chooses the handling node...
//! let node = d.open_connection(ConnId(1), TargetId(10));
//! // ...and a later pipelined batch of two requests is assigned per-request.
//! d.begin_batch(ConnId(1), 2);
//! let a = d.assign_request(ConnId(1), TargetId(11));
//! let b = d.assign_request(ConnId(1), TargetId(12));
//! assert_eq!(a.serving_node(node), node); // disk idle: served locally
//! assert_eq!(b.serving_node(node), node);
//! d.close_connection(ConnId(1));
//! assert!(d.loads().iter().all(|&l| l == 0.0));
//! ```
//!
//! The concurrent façade has the same surface behind `&self`:
//!
//! ```
//! use std::sync::Arc;
//! use phttp_core::{
//!     ConcurrentDispatcher, ConnId, ForwardSemantics, LardParams, PolicyKind,
//! };
//! use phttp_trace::TargetId;
//!
//! let d = Arc::new(ConcurrentDispatcher::new(
//!     PolicyKind::ExtLard,
//!     ForwardSemantics::LateralFetch,
//!     4,
//!     LardParams::default(),
//! ));
//! let handles: Vec<_> = (0..4)
//!     .map(|k| {
//!         let d = d.clone();
//!         std::thread::spawn(move || {
//!             let conn = ConnId(k);
//!             d.open_connection(conn, TargetId(k as u32));
//!             d.close_connection(conn);
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! assert_eq!(d.active_connections(), 0);
//! assert!(d.loads().iter().all(|&l| l == 0.0));
//! ```

#![deny(missing_docs)]

pub mod concurrent;
pub mod cost;
pub mod costmodel;
pub mod dispatcher;
pub mod feedback;
pub mod health;
pub mod load;
pub mod mapping;
pub mod mechanism;
pub mod policy;
pub mod shard;
pub mod tier;
pub mod types;

pub use concurrent::{ConcurrentDispatcher, DispatcherConfig};
pub use cost::{aggregate_cost, cost_balancing, cost_locality, cost_replacement, LardParams};
pub use costmodel::{MechanismCosts, ServerCosts};
pub use dispatcher::Dispatcher;
pub use feedback::{CacheEvent, CacheMirror, CoherenceSnapshot, CoherenceStats};
pub use health::{HealthConfig, HealthGate, HealthState};
pub use load::{LoadTracker, LOAD_UNIT};
pub use mapping::MappingTable;
pub use mechanism::Mechanism;
pub use policy::{ForwardSemantics, MapEffect, Policy, PolicyKind};
pub use shard::{ShardSetMut, ShardedMappingTable};
pub use tier::{FeId, MergeOutcome, Ring, StateDelta, TierView};
pub use types::{Assignment, ConnId, NodeId};
