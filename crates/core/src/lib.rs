//! Content-based request distribution for cluster-based Web servers.
//!
//! This crate is the primary contribution of the reproduced paper —
//! *Efficient Support for P-HTTP in Cluster-Based Web Servers* (Aron,
//! Druschel, Zwaenepoel; USENIX 1999) — as a reusable library, organized
//! as composable layers behind one dispatcher:
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
//! * the [`ConcurrentDispatcher`] ([`concurrent`]): the paper's
//!   decision procedure and load accounting behind `&self`, whose hot
//!   path takes only the one mapping shard and one connection shard it
//!   touches. The live prototype (`phttp-proto`) runs its
//!   connection-handler threads against it with no global lock, keeping
//!   the front-end's decision path off the critical path exactly as the
//!   paper's scalability argument requires; the trace-driven simulator
//!   (`phttp-sim`) drives one instance per front-end from its event loop;
//! * the **mechanism** taxonomy ([`mechanism`]): relaying front-end, TCP
//!   single/multiple handoff, back-end forwarding, and the zero-cost ideal;
//! * the **tier layer** ([`tier`]): the consistent-hash [`Ring`]
//!   partitioning target ownership across multiple front-ends, and the
//!   serializable, commutatively mergeable dispatcher state
//!   ([`StateDelta`], [`TierView`]) those front-ends gossip on the
//!   control plane — each round only what changed.
//!
//! See `ARCHITECTURE.md` at the repo root for the layering rationale.
//! Every public item in this crate is documented and the crate denies
//! `missing_docs` — it is the API other crates (and the paper-reading
//! reader) navigate first.
//!
//! # Examples
//!
//! ```
//! use phttp_core::{ConcurrentDispatcher, ConnId, ForwardSemantics, LardParams, PolicyKind};
//! use phttp_trace::TargetId;
//!
//! // A 4-node cluster running extended LARD with back-end forwarding.
//! let d = ConcurrentDispatcher::new(
//!     PolicyKind::ExtLard,
//!     ForwardSemantics::LateralFetch,
//!     4,
//!     LardParams::default(),
//! );
//! // First request of a persistent connection chooses the handling node...
//! let node = d.open_connection(ConnId(1), TargetId(10));
//! // ...and a later pipelined batch of two requests is assigned per-request.
//! let batch = d.assign_batch(ConnId(1), &[TargetId(11), TargetId(12)]);
//! assert!(batch.iter().all(|a| a.serving_node(node) == node)); // disk idle: served locally
//! d.close_connection(ConnId(1));
//! assert!(d.loads().iter().all(|&l| l == 0.0));
//! ```
//!
//! Every method takes `&self`, so handler threads share one instance:
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
pub use feedback::{CacheEvent, CacheMirror, CoherenceSnapshot, CoherenceStats};
pub use health::{HealthConfig, HealthGate, HealthState};
pub use load::{LoadTracker, LOAD_UNIT};
pub use mechanism::Mechanism;
pub use policy::{ForwardSemantics, MapEffect, Policy, PolicyKind};
pub use shard::{ShardSetMut, ShardedMappingTable};
pub use tier::{FeId, MergeOutcome, Ring, StateDelta, TierView};
pub use types::{Assignment, ConnId, NodeId};

/// The paper's decision procedure and load accounting (see
/// [`concurrent`]), driven one call at a time as the simulator drives it.
#[cfg(test)]
mod dispatcher {
    mod tests {
        use phttp_trace::TargetId;

        use crate::{
            Assignment, ConcurrentDispatcher, ConnId, ForwardSemantics, LardParams, NodeId,
            PolicyKind,
        };

        fn t(i: u32) -> TargetId {
            TargetId(i)
        }

        fn ext_dispatcher(nodes: usize) -> ConcurrentDispatcher {
            ConcurrentDispatcher::new(
                PolicyKind::ExtLard,
                ForwardSemantics::LateralFetch,
                nodes,
                LardParams::default(),
            )
        }

        #[test]
        fn wrr_spreads_connections_evenly() {
            let d = ConcurrentDispatcher::new(
                PolicyKind::Wrr,
                ForwardSemantics::LateralFetch,
                4,
                LardParams::default(),
            );
            let mut counts = [0usize; 4];
            for i in 0..400 {
                let n = d.open_connection(ConnId(i), t(i as u32));
                counts[n.0] += 1;
            }
            assert_eq!(counts, [100, 100, 100, 100]);
        }

        #[test]
        fn wrr_prefers_less_loaded_after_closures() {
            let d = ConcurrentDispatcher::new(
                PolicyKind::Wrr,
                ForwardSemantics::LateralFetch,
                2,
                LardParams::default(),
            );
            let n0 = d.open_connection(ConnId(0), t(0));
            let _n1 = d.open_connection(ConnId(1), t(1));
            d.close_connection(ConnId(0));
            // Node n0 is now empty; the next connection must go there.
            let n2 = d.open_connection(ConnId(2), t(2));
            assert_eq!(n2, n0);
        }

        #[test]
        fn lard_is_sticky_for_a_mapped_target() {
            let d = ConcurrentDispatcher::new(
                PolicyKind::Lard,
                ForwardSemantics::LateralFetch,
                4,
                LardParams::default(),
            );
            let first = d.open_connection(ConnId(0), t(7));
            for i in 1..20 {
                let n = d.open_connection(ConnId(i), t(7));
                assert_eq!(n, first, "lightly loaded mapped node must keep its target");
            }
        }

        #[test]
        fn lard_moves_target_off_overloaded_node() {
            // With the defaults (l_idle = 25, miss_cost = 40), a mapped node at
            // load L wins over an idle unmapped node while L - 25 < 40, i.e.
            // through the 65th connection; the 66th (seeing load 65, a cost tie
            // broken toward the lower-loaded node) must move the target —
            // exactly ASPLOS LARD's T_high = 65 threshold.
            let d = ConcurrentDispatcher::new(
                PolicyKind::Lard,
                ForwardSemantics::LateralFetch,
                2,
                LardParams::default(),
            );
            let first = d.open_connection(ConnId(0), t(1));
            for i in 1..65 {
                assert_eq!(d.open_connection(ConnId(i), t(1)), first);
            }
            assert!((d.loads()[first.0] - 65.0).abs() < 1e-9);
            let n = d.open_connection(ConnId(65), t(1));
            assert_ne!(n, first, "node at T_high must shed the target");
            // And the mapping moved with it.
            assert!(d.mapping().is_mapped(t(1), n));
            assert!(!d.mapping().is_mapped(t(1), first));
        }

        #[test]
        fn lard_subsequent_requests_stay_local() {
            let d = ConcurrentDispatcher::new(
                PolicyKind::Lard,
                ForwardSemantics::LateralFetch,
                4,
                LardParams::default(),
            );
            let node = d.open_connection(ConnId(0), t(0));
            d.begin_batch(ConnId(0), 3);
            for target in [t(1), t(2), t(3)] {
                assert_eq!(d.assign_request(ConnId(0), target), Assignment::Local);
            }
            assert_eq!(d.connection_node(ConnId(0)), Some(node));
        }

        #[test]
        fn ext_lard_serves_locally_when_disk_idle_and_caches() {
            let d = ext_dispatcher(2);
            let node = d.open_connection(ConnId(0), t(0));
            d.begin_batch(ConnId(0), 1);
            // Disk queue is 0 (< threshold): local service plus replica mapping.
            assert_eq!(d.assign_request(ConnId(0), t(42)), Assignment::Local);
            assert!(d.mapping().is_mapped(t(42), node));
        }

        #[test]
        fn ext_lard_forwards_to_caching_node_when_disk_busy() {
            let d = ext_dispatcher(2);
            let conn_node = d.open_connection(ConnId(0), t(0));
            let other = NodeId(1 - conn_node.0);
            // The other node caches target 9, and this node's disk is busy.
            d.report_disk_queue(conn_node, 50);
            add_replica(&d, t(9), other);
            d.begin_batch(ConnId(0), 1);
            let a = d.assign_request(ConnId(0), t(9));
            assert_eq!(a, Assignment::Remote(other));
            // Remote fetch charges 1/N = 1 load unit to the remote node.
            assert!((d.loads()[other.0] - 1.0).abs() < 1e-9);
        }

        #[test]
        fn ext_lard_first_fetch_creates_mapping_even_with_busy_disk() {
            let d = ext_dispatcher(2);
            let conn_node = d.open_connection(ConnId(0), t(0));
            d.report_disk_queue(conn_node, 50);
            d.begin_batch(ConnId(0), 1);
            // No node caches target 5 yet: serve locally from disk. This first
            // fetch records the mapping (it is not replication), so the target
            // converges onto a home node.
            assert_eq!(d.assign_request(ConnId(0), t(5)), Assignment::Local);
            assert!(d.mapping().is_mapped(t(5), conn_node));
        }

        #[test]
        fn ext_lard_busy_disk_no_replication_when_mapped_elsewhere() {
            let d = ext_dispatcher(2);
            let conn_node = d.open_connection(ConnId(0), t(0));
            let other = NodeId(1 - conn_node.0);
            d.report_disk_queue(conn_node, 50);
            // Target 9 is cached on the other node, but that node is overloaded:
            // the cost metrics keep the request local — and the anti-thrashing
            // heuristic must NOT add a local replica mapping.
            add_replica(&d, t(9), other);
            d.load_tracker().set_load_for_tests(other, 200.0); // past l_overload: infinite cost
            d.begin_batch(ConnId(0), 1);
            assert_eq!(d.assign_request(ConnId(0), t(9)), Assignment::Local);
            assert!(!d.mapping().is_mapped(t(9), conn_node));
        }

        #[test]
        fn batch_fractions_are_cleared_on_next_batch() {
            let d = ext_dispatcher(2);
            let conn_node = d.open_connection(ConnId(0), t(0));
            let other = NodeId(1 - conn_node.0);
            d.report_disk_queue(conn_node, 50);
            add_replica(&d, t(1), other);
            add_replica(&d, t(2), other);

            d.begin_batch(ConnId(0), 2);
            assert!(d.assign_request(ConnId(0), t(1)).is_remote());
            assert!(d.assign_request(ConnId(0), t(2)).is_remote());
            // Two requests at 1/2 load each.
            assert!((d.loads()[other.0] - 1.0).abs() < 1e-9);

            // The next batch clears the previous fractional charges.
            d.begin_batch(ConnId(0), 1);
            assert!(d.loads()[other.0].abs() < 1e-9);
        }

        #[test]
        fn close_clears_connection_and_fractions() {
            let d = ext_dispatcher(2);
            let conn_node = d.open_connection(ConnId(0), t(0));
            let other = NodeId(1 - conn_node.0);
            d.report_disk_queue(conn_node, 50);
            add_replica(&d, t(1), other);
            d.begin_batch(ConnId(0), 1);
            let _ = d.assign_request(ConnId(0), t(1));
            d.close_connection(ConnId(0));
            assert!(d.loads().iter().all(|&l| l.abs() < 1e-9));
            assert_eq!(d.active_connections(), 0);
        }

        #[test]
        fn migrate_semantics_moves_the_load_unit() {
            let d = ConcurrentDispatcher::new(
                PolicyKind::ExtLard,
                ForwardSemantics::Migrate,
                2,
                LardParams::default(),
            );
            let conn_node = d.open_connection(ConnId(0), t(0));
            let other = NodeId(1 - conn_node.0);
            d.report_disk_queue(conn_node, 50);
            add_replica(&d, t(1), other);
            d.begin_batch(ConnId(0), 1);
            let a = d.assign_request(ConnId(0), t(1));
            assert_eq!(a, Assignment::Remote(other));
            // The whole connection moved.
            assert_eq!(d.connection_node(ConnId(0)), Some(other));
            assert!((d.loads()[other.0] - 1.0).abs() < 1e-9);
            assert!(d.loads()[conn_node.0].abs() < 1e-9);
            d.close_connection(ConnId(0));
            assert!(d.loads().iter().all(|&l| l.abs() < 1e-9));
        }

        #[test]
        #[should_panic(expected = "opened twice")]
        fn double_open_panics() {
            let d = ext_dispatcher(2);
            d.open_connection(ConnId(0), t(0));
            d.open_connection(ConnId(0), t(1));
        }

        #[test]
        #[should_panic(expected = "unknown connection")]
        fn assign_on_unknown_connection_panics() {
            let d = ext_dispatcher(2);
            let _ = d.assign_request(ConnId(99), t(0));
        }

        /// Puts `node` into `target`'s mapping set.
        fn add_replica(d: &ConcurrentDispatcher, target: TargetId, node: NodeId) {
            d.mapping().write(target, |m| m.add_replica(target, node));
        }
    }
}
