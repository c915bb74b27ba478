//! The chaos differential harness: deterministic, seed-driven
//! membership churn — kills, warm restarts, cold replacements, and a
//! standby slot joining fresh — injected *under live verifying load*,
//! across both tier shapes (1 and 2 front-ends).
//!
//! What must survive arbitrary churn:
//!
//! * **Zero lost requests.** Every load run completes every request
//!   with byte-exact responses (`run_load` verifies each body against
//!   the store). A kill is the failure detector's view — the node's
//!   listeners keep serving while decommissioned — so conservation is
//!   the prototype's drain guarantee, not an accident of timing.
//! * **Breaker convergence.** Once every slot has rejoined and traffic
//!   has settled, every front-end's circuit breaker is Closed for every
//!   slot.
//! * **Belief convergence.** `mapping_divergence → 0` on every
//!   front-end after the post-churn quiescent flush: joins warm the
//!   belief from the node's journal, feedback repairs the rest.
//!
//! The schedule derives from `PHTTP_CHAOS_SEED` (decimal u64; pinned
//! default below, echoed in every assertion so failures are one
//! environment variable away from a local repro).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use phttp_core::{HealthState, NodeId, PolicyKind};
use phttp_proto::{run_load, ClientProtocol, Cluster, DiskEmu, LoadConfig, ProtoConfig};
use phttp_trace::{generate, reconstruct, SessionConfig, SynthConfig};

/// Pinned default schedule seed (override with `PHTTP_CHAOS_SEED`).
const DEFAULT_SEED: u64 = 0xC1A0_5EED_0808_2026;

/// Serving slots at start; one more is a standby that joins mid-run.
const SERVING: usize = 3;
const STANDBY: usize = 1;
const TOTAL: usize = SERVING + STANDBY;

/// Seed-driven churn operations per matrix cell (the first is always
/// the standby join, so cold-start admission runs under load in every
/// cell).
const OPS: usize = 8;

fn seed() -> u64 {
    std::env::var("PHTTP_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// SplitMix64: tiny, seedable, and good enough to scatter a schedule.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn chaos_trace() -> phttp_trace::Trace {
    let mut synth = SynthConfig::small();
    synth.num_page_views = 250;
    synth.num_pages = 80;
    generate(&synth)
}

fn config(front_ends: usize) -> ProtoConfig {
    ProtoConfig {
        nodes: SERVING,
        standby_nodes: STANDBY,
        // Heterogeneous capacities: slot 0 advertises twice the
        // baseline, so weighted tie-breaks run throughout the churn.
        node_weights: vec![2, 1, 1, 1],
        policy: PolicyKind::ExtLard,
        cache_bytes: 1024 * 1024,
        disk: DiskEmu {
            seek: Duration::from_micros(300),
            bytes_per_sec: 200.0 * 1024.0 * 1024.0,
        },
        cache_feedback: true,
        feedback_interval: Duration::from_millis(10),
        health_tick_interval: Duration::from_millis(10),
        read_timeout: Duration::from_secs(5),
        front_ends,
        ..ProtoConfig::default()
    }
}

/// One matrix cell: start the cluster, run verifying load continuously,
/// churn against it, then prove conservation + convergence.
fn chaos_cell(front_ends: usize, seed: u64) {
    let cell = format!("fe{front_ends}/seed={seed}");
    let trace = chaos_trace();
    let workload = reconstruct(&trace, SessionConfig::default());
    let expected = trace.len() as u64;
    let cluster = Cluster::start(config(front_ends), &trace).expect("start cluster");

    let stop = AtomicBool::new(false);
    let errors = AtomicU64::new(0);
    let short_runs = AtomicU64::new(0);
    let runs = AtomicU64::new(0);

    // Slot i's rng stream is decorrelated from the op sequence.
    let mut rng = Rng(seed);
    std::thread::scope(|scope| {
        // Continuous verifying load for the whole churn window: each
        // pass replays the full workload and checks every response
        // byte-exact against the store.
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let report = run_load(
                    cluster.frontend_addrs(),
                    cluster.store(),
                    &workload,
                    &LoadConfig {
                        clients: 8,
                        protocol: ClientProtocol::PHttp,
                        ..LoadConfig::default()
                    },
                );
                runs.fetch_add(1, Ordering::Relaxed);
                errors.fetch_add(report.errors, Ordering::Relaxed);
                if report.requests != expected {
                    short_runs.fetch_add(1, Ordering::Relaxed);
                }
            }
        });

        // The churn schedule. `up[i]` tracks whether slot i is in the
        // serving set from the dispatchers' point of view.
        let mut up = vec![true; SERVING];
        up.resize(TOTAL, false);
        for op in 0..OPS {
            std::thread::sleep(Duration::from_millis(5 + rng.below(20)));
            let killable: Vec<usize> = (0..TOTAL).filter(|&i| up[i]).collect();
            let joinable: Vec<usize> = (0..TOTAL).filter(|&i| !up[i]).collect();
            // First op: the standby always joins under load. After
            // that: join when someone is out and the coin says so (or
            // when killing would empty the serving set).
            let join =
                op == 0 || (!joinable.is_empty() && (killable.len() <= 1 || rng.below(2) == 0));
            if join {
                let slot = joinable[rng.below(joinable.len() as u64) as usize];
                let ok = if rng.below(2) == 0 {
                    cluster.rejoin_node_warm(slot)
                } else {
                    cluster.rejoin_node_cold(slot)
                };
                assert!(ok, "{cell}: op {op} join of slot {slot} failed");
                up[slot] = true;
            } else {
                let slot = killable[rng.below(killable.len() as u64) as usize];
                assert!(
                    cluster.kill_node(slot),
                    "{cell}: op {op} kill of slot {slot} never tripped every breaker"
                );
                up[slot] = false;
            }
        }
        // Quiesce the membership: every slot rejoins (warm) so the
        // convergence asserts below have a fixed target.
        for (slot, up) in up.iter().enumerate() {
            if !up {
                assert!(
                    cluster.rejoin_node_warm(slot),
                    "{cell}: final rejoin of slot {slot} failed"
                );
            }
        }
        // Let at least one full load run see the settled cluster.
        std::thread::sleep(Duration::from_millis(30));
        stop.store(true, Ordering::Relaxed);
    });

    // Conservation: every pass of the verifying load completed every
    // request, byte-exact, across every kill/join in the schedule.
    assert_eq!(
        errors.load(Ordering::Relaxed),
        0,
        "{cell}: a client saw a transport error or a corrupt body"
    );
    assert_eq!(
        short_runs.load(Ordering::Relaxed),
        0,
        "{cell}: a load pass lost requests"
    );
    assert!(runs.load(Ordering::Relaxed) > 0, "{cell}: load never ran");
    assert!(
        cluster.quiesce(Duration::from_secs(10)),
        "{cell}: connections leaked after churn"
    );

    // Belief convergence: force flushes and poll until every
    // front-end's mirror-tracked divergence reaches zero.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        cluster.flush_feedback();
        let worst = cluster
            .front_ends()
            .iter()
            .map(|fe| fe.coherence().divergence)
            .max()
            .unwrap();
        if worst == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{cell}: mapping divergence stuck at {worst} after churn"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // Breaker convergence + churn actually happened.
    for (f, fe) in cluster.front_ends().iter().enumerate() {
        for i in 0..TOTAL {
            assert_eq!(
                fe.health().state(NodeId(i)),
                HealthState::Closed,
                "{cell}: fe {f} breaker for slot {i} not Closed post-churn"
            );
        }
        assert!(
            fe.node_joins() > 0,
            "{cell}: fe {f} never applied a Join handshake"
        );
        assert!(
            fe.node_evictions() > 0,
            "{cell}: fe {f} never evicted a killed node"
        );
        let snap = fe.coherence();
        assert!(snap.believed_pairs > 0, "{cell}: fe {f} formed no beliefs");
    }

    // Final verification traffic against the fully rejoined cluster.
    let report = run_load(
        cluster.frontend_addrs(),
        cluster.store(),
        &workload,
        &LoadConfig {
            clients: 4,
            protocol: ClientProtocol::PHttp,
            ..LoadConfig::default()
        },
    );
    assert_eq!(report.errors, 0, "{cell}: post-churn cluster is broken");
    assert_eq!(
        report.requests, expected,
        "{cell}: post-churn run lost requests"
    );
    cluster.shutdown();
}

#[test]
fn chaos_churn_conserves_requests_and_converges() {
    let seed = seed();
    for front_ends in [1usize, 2] {
        chaos_cell(front_ends, seed ^ (front_ends as u64));
    }
}

/// The warm-up differential, isolated from scheduling noise: a warm
/// rejoin must seed the dispatchers' beliefs with the node's surviving
/// cache contents *before* traffic resumes, a cold rejoin must not.
#[test]
fn warm_join_seeds_beliefs_cold_join_does_not() {
    let seed = seed();
    let trace = chaos_trace();
    let workload = reconstruct(&trace, SessionConfig::default());
    let cell = format!("seed={seed}");
    let cluster = Cluster::start(config(1), &trace).expect("start cluster");
    let report = run_load(
        cluster.frontend_addrs(),
        cluster.store(),
        &workload,
        &LoadConfig {
            clients: 8,
            protocol: ClientProtocol::PHttp,
            ..LoadConfig::default()
        },
    );
    assert_eq!(report.errors, 0, "{cell}");
    assert!(cluster.quiesce(Duration::from_secs(10)), "{cell}");

    let victim = 1usize;
    let believed = |cluster: &Cluster| {
        let mut count = 0usize;
        cluster.frontend().mapping().for_each_pair(|_, n| {
            if n == NodeId(victim) {
                count += 1;
            }
        });
        count
    };
    assert!(cluster.kill_node(victim), "{cell}: kill failed");
    assert_eq!(believed(&cluster), 0, "{cell}: eviction left beliefs");

    // Warm: the journal replay re-seeds the belief immediately —
    // before any request has touched the rejoined node.
    assert!(cluster.rejoin_node_warm(victim), "{cell}");
    let deadline = Instant::now() + Duration::from_secs(5);
    while believed(&cluster) == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let warm_pairs = believed(&cluster);
    assert!(
        warm_pairs > 0,
        "{cell}: warm join seeded no beliefs for the rejoined node"
    );

    // Cold: wiped cache, empty journal — the belief stays empty
    // until traffic refills it.
    assert!(cluster.kill_node(victim), "{cell}: second kill failed");
    assert!(cluster.rejoin_node_cold(victim), "{cell}");
    // The Join frame is ordered before any feedback on the fresh
    // session; give it the same window the warm path got.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        believed(&cluster),
        0,
        "{cell}: cold join must start from a blank belief"
    );
    assert_eq!(
        cluster.frontend().health().state(NodeId(victim)),
        HealthState::Closed,
        "{cell}: cold join must still close the breaker"
    );
    cluster.shutdown();
}
