//! Simulation configuration: cluster shape, mechanism/policy combination,
//! and workload mode.

use phttp_core::{LardParams, Mechanism, PolicyKind};
use phttp_simcore::{EvictPolicy, SimDuration};
use serde::{Deserialize, Serialize};

use crate::costs::{DiskParams, MechanismCosts, ServerCosts};

/// Whether the clients speak HTTP/1.0 or HTTP/1.1 (P-HTTP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtocolMode {
    /// One request per TCP connection.
    Http10,
    /// Persistent connections with pipelined batches (reconstructed from
    /// the trace by the 15 s / 1 s heuristics).
    PHttp,
}

impl ProtocolMode {
    /// Suffix used in the paper's configuration labels.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolMode::Http10 => "",
            ProtocolMode::PHttp => "-PHTTP",
        }
    }
}

/// A scheduled cluster-membership change (the simulator twin of the
/// prototype's `Cluster::kill_node` / `rejoin_node_*` chaos API).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnAction {
    /// Decommission the node: every front-end instance drops its beliefs
    /// about it and trips its circuit breaker (the control-session EOF
    /// path). In-flight requests drain; the node's cache keeps its
    /// contents, but it stops reporting until it rejoins.
    Kill(usize),
    /// The node rejoins announcing its surviving cache contents — the
    /// dispatchers' beliefs are warmed from the snapshot before the node
    /// takes traffic.
    JoinWarm(usize),
    /// The node rejoins freshly wiped: its cache is cleared and the join
    /// carries an empty journal (a replacement machine, not a restart).
    JoinCold(usize),
}

impl ChurnAction {
    /// The node index the action applies to.
    pub fn node(self) -> usize {
        match self {
            ChurnAction::Kill(n) | ChurnAction::JoinWarm(n) | ChurnAction::JoinCold(n) => n,
        }
    }
}

/// One entry of a churn schedule: what happens, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// Simulated instant the change takes effect.
    pub at: SimDuration,
    /// The membership change.
    pub action: ChurnAction,
}

/// Full configuration of one simulated run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of back-end nodes.
    pub nodes: usize,
    /// Request-distribution policy.
    pub policy: PolicyKind,
    /// Request-distribution mechanism.
    pub mechanism: Mechanism,
    /// Client protocol mode.
    pub protocol: ProtocolMode,
    /// Back-end server software cost profile.
    pub server: ServerCosts,
    /// Mechanism cost profile.
    pub mech_costs: MechanismCosts,
    /// Disk model.
    pub disk: DiskParams,
    /// Per-node main-memory cache budget in bytes.
    pub cache_bytes: u64,
    /// LARD policy parameters.
    pub lard: LardParams,
    /// Closed-loop concurrency window per node: the simulator keeps
    /// `window_per_node * nodes` connections in flight (the paper matched
    /// the arrival rate to the aggregate server throughput).
    pub window_per_node: usize,
    /// Speed multiplier for the front-end CPU (>1 models an SMP front-end;
    /// the paper suggests SMP front-ends for larger clusters).
    pub fe_speedup: f64,
    /// Cache-coherent mapping feedback: when `true`, back-ends report
    /// their cache admissions/evictions to the dispatcher over the
    /// control sessions every [`feedback_interval`](Self::feedback_interval),
    /// so the mapping belief tracks real cache contents instead of only
    /// growing. Off by default — the paper's dispatcher runs open-loop,
    /// and the divergence between the two is exactly what the
    /// `mapping_coherence` bench measures.
    pub cache_feedback: bool,
    /// Reporting period of the cache-feedback control messages. Shorter
    /// intervals keep the belief fresher at more control traffic; longer
    /// intervals let more stale routing happen between reports (the
    /// staleness trade-off, see ARCHITECTURE.md "Mapping coherence").
    pub feedback_interval: SimDuration,
    /// Single-flight miss coalescing: when `true`, concurrent misses for
    /// the same (node, target) share one disk fetch — the first miss
    /// becomes the flight leader and schedules the read; later misses park
    /// as *delayed hits* and are released when the leader's read completes.
    /// Off by default: the paper's model fetches redundantly, and the
    /// off/on delta is the headline of the `miss_latency` bench.
    pub coalesce_misses: bool,
    /// Cache victim-selection policy: strict LRU (the default, which the
    /// figure binaries' shape checks were calibrated under) or
    /// GreedyDual-Size costed by aggregate miss delay — see [`EvictPolicy`].
    pub eviction: EvictPolicy,
    /// Number of front-end instances behind the VIP. With 1 (the default,
    /// the paper's configuration) the model is the classic single
    /// front-end. With more, connections are admitted round-robin across
    /// the instances, each instance runs its own dispatcher (its own CPU,
    /// mapping belief, and load view), and the instances exchange state
    /// by periodic gossip: each publishes the slice of its belief it owns
    /// on the tier's consistent-hash ring, peers adopt it, and everyone
    /// folds the others' reported loads into a remote-load bias — the
    /// simulator twin of the prototype's `ProtoConfig::front_ends`.
    pub front_ends: usize,
    /// Period of the tier gossip rounds (ignored when `front_ends == 1`).
    /// Longer intervals let instances act on staler peer state — the
    /// freshness/traffic trade-off the `fe_tier` bench measures.
    pub gossip_interval: SimDuration,
    /// Scheduled membership churn (kills and warm/cold rejoins), applied
    /// at the given simulated instants. Empty by default — the paper's
    /// cluster is static; churn is what the elasticity bench and the
    /// chaos conservation properties exercise.
    pub churn: Vec<ChurnEvent>,
}

impl SimConfig {
    /// The figure-legend names [`paper_config`](Self::paper_config)
    /// accepts.
    pub const PAPER_LABELS: [&'static str; 8] = [
        "WRR",
        "WRR-PHTTP",
        "simple-LARD",
        "simple-LARD-PHTTP",
        "multiHandoff-extLARD-PHTTP",
        "BEforward-extLARD-PHTTP",
        "zeroCost-extLARD-PHTTP",
        "relay-LARD-PHTTP",
    ];

    /// A named paper configuration on the Apache cost profile.
    ///
    /// `label` must be one of [`PAPER_LABELS`](Self::PAPER_LABELS).
    ///
    /// # Panics
    ///
    /// Panics on an unknown label.
    pub fn paper_config(label: &str, nodes: usize) -> SimConfig {
        let base = SimConfig {
            nodes,
            policy: PolicyKind::Lard,
            mechanism: Mechanism::SingleHandoff,
            protocol: ProtocolMode::Http10,
            server: ServerCosts::apache(),
            mech_costs: MechanismCosts::apache(),
            disk: DiskParams::default(),
            cache_bytes: 16 * 1024 * 1024,
            lard: LardParams::default(),
            window_per_node: 40,
            fe_speedup: 1.0,
            cache_feedback: false,
            feedback_interval: SimDuration::from_millis(100),
            coalesce_misses: false,
            eviction: EvictPolicy::Lru,
            front_ends: 1,
            gossip_interval: SimDuration::from_millis(10),
            churn: Vec::new(),
        };
        match label {
            "WRR" => SimConfig {
                policy: PolicyKind::Wrr,
                ..base
            },
            "WRR-PHTTP" => SimConfig {
                policy: PolicyKind::Wrr,
                protocol: ProtocolMode::PHttp,
                ..base
            },
            "simple-LARD" => base,
            "simple-LARD-PHTTP" => SimConfig {
                protocol: ProtocolMode::PHttp,
                ..base
            },
            "multiHandoff-extLARD-PHTTP" => SimConfig {
                policy: PolicyKind::ExtLard,
                mechanism: Mechanism::MultipleHandoff,
                protocol: ProtocolMode::PHttp,
                ..base
            },
            "BEforward-extLARD-PHTTP" => SimConfig {
                policy: PolicyKind::ExtLard,
                mechanism: Mechanism::BackendForwarding,
                protocol: ProtocolMode::PHttp,
                ..base
            },
            "zeroCost-extLARD-PHTTP" => SimConfig {
                policy: PolicyKind::ExtLard,
                mechanism: Mechanism::ZeroCost,
                protocol: ProtocolMode::PHttp,
                ..base
            },
            "relay-LARD-PHTTP" => SimConfig {
                policy: PolicyKind::Lard,
                mechanism: Mechanism::RelayingFrontend,
                protocol: ProtocolMode::PHttp,
                ..base
            },
            other => panic!("unknown paper configuration label: {other}"),
        }
    }

    /// Switches the server and mechanism cost profiles to Flash.
    pub fn with_flash(mut self) -> SimConfig {
        self.server = ServerCosts::flash();
        self.mech_costs = MechanismCosts::flash();
        self
    }

    /// Enables cache-coherent mapping feedback at the given reporting
    /// interval (builder style).
    pub fn with_feedback(mut self, interval: SimDuration) -> SimConfig {
        self.cache_feedback = true;
        self.feedback_interval = interval;
        self
    }

    /// Enables single-flight miss coalescing (builder style).
    pub fn with_coalescing(mut self) -> SimConfig {
        self.coalesce_misses = true;
        self
    }

    /// Selects the cache victim-selection policy (builder style).
    pub fn with_eviction(mut self, policy: EvictPolicy) -> SimConfig {
        self.eviction = policy;
        self
    }

    /// Schedules cluster-membership churn (builder style). Events apply
    /// at their simulated instants in the order given for equal times.
    pub fn with_churn(mut self, churn: Vec<ChurnEvent>) -> SimConfig {
        self.churn = churn;
        self
    }

    /// Runs a front-end tier of `front_ends` instances gossiping every
    /// `gossip_interval` (builder style).
    pub fn with_front_ends(mut self, front_ends: usize, gossip_interval: SimDuration) -> SimConfig {
        self.front_ends = front_ends;
        self.gossip_interval = gossip_interval;
        self
    }

    /// Total closed-loop window.
    pub fn window(&self) -> usize {
        self.window_per_node * self.nodes
    }

    /// Validates the mechanism/policy combination.
    ///
    /// Single handoff cannot move requests off the connection node, so it is
    /// incompatible with the extended-LARD policy (which exists to do
    /// exactly that); the relaying front-end re-assigns every request and is
    /// driven per-request, which the dispatcher models as per-request
    /// connections, so extended LARD's connection state is meaningless there.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("cluster needs at least one node".into());
        }
        if self.policy == PolicyKind::ExtLard && self.mechanism == Mechanism::SingleHandoff {
            return Err("extended LARD requires a request-granularity mechanism \
                 (multiple handoff, back-end forwarding, or zero-cost)"
                .into());
        }
        if self.mechanism == Mechanism::RelayingFrontend && self.policy == PolicyKind::ExtLard {
            return Err("the relaying front-end is driven per-request; use LARD or WRR".into());
        }
        if self.window_per_node == 0 {
            return Err("window_per_node must be positive".into());
        }
        if self.fe_speedup <= 0.0 {
            return Err("fe_speedup must be positive".into());
        }
        if self.cache_feedback && self.feedback_interval == SimDuration::ZERO {
            return Err("feedback_interval must be positive when cache_feedback is on".into());
        }
        if self.front_ends == 0 {
            return Err("front_ends must be at least 1".into());
        }
        if self.front_ends > 1 && self.gossip_interval == SimDuration::ZERO {
            return Err("gossip_interval must be positive when running a front-end tier".into());
        }
        for ev in &self.churn {
            if ev.action.node() >= self.nodes {
                return Err(format!(
                    "churn event targets node {} but the cluster has {} nodes",
                    ev.action.node(),
                    self.nodes
                ));
            }
        }
        self.lard.validate()
    }

    /// The paper-style label of this configuration.
    pub fn label(&self) -> String {
        let mech = match (self.mechanism, self.policy) {
            (Mechanism::SingleHandoff, PolicyKind::Wrr) => "WRR".to_string(),
            (Mechanism::SingleHandoff, PolicyKind::Lard) => "simple-LARD".to_string(),
            (m, p) => format!("{}-{}", m.label(), p.label()),
        };
        format!("{mech}{}", self.protocol.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_are_valid() {
        for label in SimConfig::PAPER_LABELS {
            let cfg = SimConfig::paper_config(label, 4);
            cfg.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
            let flash = cfg.with_flash();
            flash.validate().unwrap();
        }
    }

    #[test]
    fn labels_roundtrip() {
        assert_eq!(SimConfig::paper_config("WRR", 2).label(), "WRR");
        assert_eq!(
            SimConfig::paper_config("BEforward-extLARD-PHTTP", 2).label(),
            "BEforward-extLARD-PHTTP"
        );
        assert_eq!(
            SimConfig::paper_config("simple-LARD-PHTTP", 2).label(),
            "simple-LARD-PHTTP"
        );
        assert_eq!(
            SimConfig::paper_config("zeroCost-extLARD-PHTTP", 2).label(),
            "zeroCost-extLARD-PHTTP"
        );
    }

    #[test]
    #[should_panic(expected = "unknown paper configuration")]
    fn unknown_label_panics() {
        let _ = SimConfig::paper_config("nonsense", 2);
    }

    #[test]
    fn invalid_combinations_are_rejected() {
        let mut cfg = SimConfig::paper_config("simple-LARD", 2);
        cfg.policy = PolicyKind::ExtLard; // ext-LARD over single handoff
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::paper_config("relay-LARD-PHTTP", 2);
        cfg.policy = PolicyKind::ExtLard;
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::paper_config("WRR", 2);
        cfg.nodes = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn front_end_tier_builder_and_validation() {
        let cfg = SimConfig::paper_config("BEforward-extLARD-PHTTP", 2);
        assert_eq!(cfg.front_ends, 1, "single front-end by default");
        let cfg = cfg.with_front_ends(4, SimDuration::from_millis(5));
        assert_eq!(cfg.front_ends, 4);
        cfg.validate().unwrap();

        let mut bad = SimConfig::paper_config("WRR", 2);
        bad.front_ends = 0;
        assert!(bad.validate().is_err());

        let mut bad = SimConfig::paper_config("WRR", 2).with_front_ends(2, SimDuration::ZERO);
        assert!(bad.validate().is_err());
        bad.gossip_interval = SimDuration::from_millis(1);
        bad.validate().unwrap();
    }

    #[test]
    fn coalescing_and_eviction_builders() {
        let cfg = SimConfig::paper_config("WRR-PHTTP", 2);
        assert!(!cfg.coalesce_misses, "coalescing is off by default");
        assert_eq!(cfg.eviction, EvictPolicy::Lru, "strict LRU by default");
        let cfg = cfg.with_coalescing().with_eviction(EvictPolicy::GreedyDual);
        assert!(cfg.coalesce_misses);
        assert_eq!(cfg.eviction, EvictPolicy::GreedyDual);
        cfg.validate().unwrap();
    }

    #[test]
    fn churn_builder_and_validation() {
        use phttp_simcore::SimDuration;
        let cfg = SimConfig::paper_config("WRR", 2);
        assert!(cfg.churn.is_empty(), "static cluster by default");
        let cfg = cfg.with_churn(vec![
            ChurnEvent {
                at: SimDuration::from_millis(10),
                action: ChurnAction::Kill(1),
            },
            ChurnEvent {
                at: SimDuration::from_millis(20),
                action: ChurnAction::JoinWarm(1),
            },
        ]);
        cfg.validate().unwrap();

        let bad = SimConfig::paper_config("WRR", 2).with_churn(vec![ChurnEvent {
            at: SimDuration::from_millis(1),
            action: ChurnAction::JoinCold(2),
        }]);
        assert!(bad.validate().is_err(), "out-of-range churn node");
    }

    #[test]
    fn window_scales_with_nodes() {
        let cfg = SimConfig::paper_config("WRR", 4);
        assert_eq!(cfg.window(), 4 * cfg.window_per_node);
    }
}
