//! Trace-driven cluster Web-server simulator.
//!
//! Reimplements (from the paper's description) the simulator used in §6 of
//! *Efficient Support for P-HTTP in Cluster-Based Web Servers*: a
//! closed-loop, discrete-event model of a front-end plus N back-end nodes,
//! each with a CPU, a disk, and an LRU main-memory cache, driven by
//! reconstructed persistent-connection workloads and parameterized by
//! Apache- or Flash-like cost profiles.
//!
//! The pieces:
//!
//! * [`costs`] — server, mechanism, and disk cost models (DESIGN.md §6.6);
//! * [`cache`] — the byte-budget file cache (LRU or GreedyDual-Size);
//! * [`config`] — run configuration incl. the paper's named configurations;
//! * [`engine`] — the event loop;
//! * [`report`] — output statistics.
//!
//! # Examples
//!
//! ```
//! use phttp_sim::{build_workload, ProtocolMode, SimConfig, Simulator};
//! use phttp_trace::{generate, SessionConfig, SynthConfig};
//!
//! let trace = generate(&SynthConfig::small());
//! let cfg = SimConfig::paper_config("BEforward-extLARD-PHTTP", 4);
//! let workload = build_workload(&trace, cfg.protocol, SessionConfig::default());
//! let report = Simulator::new(cfg, &trace, &workload).run();
//! assert_eq!(report.requests, trace.len() as u64);
//! println!("{}", report.summary());
//! ```

#![deny(missing_docs)]

pub mod cache;
pub mod config;
pub mod costs;
pub mod engine;
pub mod report;

pub use cache::LruCache;
pub use config::{ChurnAction, ChurnEvent, ProtocolMode, SimConfig};
pub use costs::{DiskParams, MechanismCosts, ServerCosts};
pub use engine::{build_workload, Simulator};
pub use phttp_simcore::EvictPolicy;
pub use report::{NodeReport, Report};
