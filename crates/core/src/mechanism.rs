//! The request-distribution mechanisms of the paper's §3, as a descriptor
//! type shared by the simulator, the prototype, and the figure harness.
//!
//! The *mechanism* is how a chosen back-end gets to serve a request on a
//! front-end-established client connection; the *policy*
//! ([`crate::policy::PolicyKind`]) is how the back-end is chosen. The
//! paper evaluates five mechanisms:

use std::fmt;

/// A client-transparent request-distribution mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// The front-end relays request and response bytes both ways over
    /// per-back-end persistent connections. Simple, distributes at request
    /// granularity, but every response byte crosses the front-end.
    RelayingFrontend,
    /// TCP single handoff (ASPLOS '98): the connection is handed to one
    /// back-end once; responses bypass the front-end; every request on the
    /// connection is served by that back-end.
    SingleHandoff,
    /// TCP multiple handoff: the connection can migrate between back-ends,
    /// enabling request-granularity distribution at a per-migration cost.
    MultipleHandoff,
    /// Back-end request forwarding (this paper's implemented mechanism):
    /// single handoff plus lateral fetch — the connection-handling node
    /// requests the content from the node that caches it and forwards the
    /// response on its client connection.
    BackendForwarding,
    /// An idealized mechanism that reassigns connections at zero cost; a
    /// ceiling for what any practical mechanism can achieve (the paper's
    /// `zeroCost` configuration).
    ZeroCost,
}

impl Mechanism {
    /// All mechanisms, in the order the paper introduces them.
    pub const ALL: [Mechanism; 5] = [
        Mechanism::RelayingFrontend,
        Mechanism::SingleHandoff,
        Mechanism::MultipleHandoff,
        Mechanism::BackendForwarding,
        Mechanism::ZeroCost,
    ];

    /// The label used in the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Mechanism::RelayingFrontend => "relay",
            Mechanism::SingleHandoff => "simple",
            Mechanism::MultipleHandoff => "multiHandoff",
            Mechanism::BackendForwarding => "BEforward",
            Mechanism::ZeroCost => "zeroCost",
        }
    }

    /// Whether the mechanism can serve different requests of one persistent
    /// connection on different nodes.
    pub fn supports_request_granularity(self) -> bool {
        !matches!(self, Mechanism::SingleHandoff)
    }

    /// Whether response bytes flow through the front-end.
    pub fn responses_cross_frontend(self) -> bool {
        matches!(self, Mechanism::RelayingFrontend)
    }
}

impl fmt::Display for Mechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(Mechanism::BackendForwarding.to_string(), "BEforward");
        assert_eq!(Mechanism::MultipleHandoff.to_string(), "multiHandoff");
        assert_eq!(Mechanism::ZeroCost.to_string(), "zeroCost");
    }

    #[test]
    fn granularity_classification() {
        assert!(!Mechanism::SingleHandoff.supports_request_granularity());
        assert!(Mechanism::BackendForwarding.supports_request_granularity());
        assert!(Mechanism::MultipleHandoff.supports_request_granularity());
        assert!(Mechanism::RelayingFrontend.supports_request_granularity());
    }

    #[test]
    fn only_relaying_routes_responses_through_frontend() {
        for m in Mechanism::ALL {
            assert_eq!(
                m.responses_cross_frontend(),
                m == Mechanism::RelayingFrontend
            );
        }
    }
}
