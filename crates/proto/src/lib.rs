//! Runnable loopback-TCP prototype of the paper's cluster (its §7 system).
//!
//! One front-end and N back-end "nodes" run as threads in one process,
//! talking real TCP over loopback: clients connect to the front-end, the
//! first request drives a content-based handoff, responses flow from the
//! back-end directly, subsequent requests are dispatched per-request with
//! URL tagging, and remote assignments are served by lateral fetches over
//! persistent back-end-to-back-end connections (the NFS stand-in). See
//! DESIGN.md §6.2-§6.4 for the substitution table versus the paper's
//! FreeBSD kernel implementation.
//!
//! The front-end serves client connections on epoll-style event loops
//! (the [`reactor`] module, [`ProtoConfig::reactor_shards`] of them)
//! that drive every connection, lateral fetch, and emulated disk
//! without blocking, making policy decisions inline via the batched
//! dispatcher path. Responses are a pure function of target and HTTP
//! version, so the test suites check every transcript against the
//! [`ContentStore`] itself.
//!
//! # Examples
//!
//! ```
//! use phttp_proto::{run_load, ClientProtocol, Cluster, LoadConfig, ProtoConfig};
//! use phttp_trace::{generate, reconstruct, SessionConfig, SynthConfig};
//!
//! let mut synth = SynthConfig::small();
//! synth.num_page_views = 60; // keep the doctest fast
//! let trace = generate(&synth);
//! let workload = reconstruct(&trace, SessionConfig::default());
//!
//! let cluster = Cluster::start(ProtoConfig::default(), &trace).expect("supported mechanism");
//! let report = run_load(
//!     cluster.frontend_addrs(),
//!     cluster.store(),
//!     &workload,
//!     &LoadConfig { clients: 4, protocol: ClientProtocol::PHttp, ..Default::default() },
//! );
//! assert_eq!(report.errors, 0);
//! assert_eq!(report.requests as usize, trace.len());
//! cluster.shutdown();
//! ```

#![deny(missing_docs)]

pub mod client;
pub mod cluster;
pub mod control;
pub mod frontend;
pub mod node;
pub mod reactor;
pub mod store;
pub mod tier;

pub use client::{run_load, ClientProtocol, LoadConfig, LoadReport};
pub use cluster::{Cluster, IoModel, ProtoConfig};
pub use control::{ControlMsg, FrameDecoder};
pub use frontend::{ConfigError, FrontEnd, DEFAULT_DISK_REPORT_INTERVAL};
pub use node::{DiskEmu, FeedbackConfig, NodeState, NodeStatsSnapshot};
pub use phttp_simcore::EvictPolicy;
pub use reactor::ReactorStats;
pub use store::ContentStore;
pub use tier::Vip;
