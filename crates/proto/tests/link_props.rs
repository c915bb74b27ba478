//! Property tests for the tier's sans-IO admission link: whatever the
//! order of `begin`s and `release`s, and however the two byte streams
//! between a link's ends are cut up or run together on the way, every
//! handshake is acknowledged exactly once under its own ticket, the
//! admitted set is the one an unfragmented wire yields, and once every
//! ticket is released nothing is left at either end — the shared
//! machine tracks no connection and no endpoint owns one.

use std::collections::{BTreeSet, VecDeque};

use phttp_core::ConnId;
use phttp_handoff::ClientKey;
use phttp_proto::tier::{Ack, AdmissionLink, VipMachine};
use proptest::prelude::*;

/// Links under test, all on one shared machine.
const LINKS: usize = 2;

/// One step of a driver's life.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A client connects from this port; hand it to link `0`.
    Begin(usize, u16),
    /// The `1`-th connection admitted on link `0` (modulo how many are
    /// open; none: no-op) ends.
    Release(usize, usize),
    /// The Vip end's socket takes up to this many queued bytes.
    SendVip(usize, usize),
    /// The endpoint end's socket takes up to this many queued bytes.
    SendEndpoint(usize, usize),
    /// The endpoint end reads up to this many bytes off the wire.
    ReadEndpoint(usize, usize),
    /// The Vip end reads up to this many bytes off the wire.
    ReadVip(usize, usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Cut sizes straddle the ~40-byte frames: mid-header, mid-payload,
    // and several frames in one go.
    let cut = || prop_oneof![1usize..8, 8usize..64, 64usize..400];
    prop_oneof![
        (0..LINKS, 1024u16..60_000).prop_map(|(l, p)| Op::Begin(l, p)),
        (0..LINKS, 0usize..16).prop_map(|(l, k)| Op::Release(l, k)),
        (0..LINKS, cut()).prop_map(|(l, n)| Op::SendVip(l, n)),
        (0..LINKS, cut()).prop_map(|(l, n)| Op::SendEndpoint(l, n)),
        (0..LINKS, cut()).prop_map(|(l, n)| Op::ReadEndpoint(l, n)),
        (0..LINKS, cut()).prop_map(|(l, n)| Op::ReadVip(l, n)),
    ]
}

/// A link plus the two byte pipes standing in for its socket pair.
struct Harness {
    link: AdmissionLink,
    to_endpoint: VecDeque<u8>,
    to_vip: VecDeque<u8>,
    /// Tickets begun and not yet acknowledged.
    pending: BTreeSet<ConnId>,
    /// Tickets acknowledged and not yet released, in ack order.
    open: Vec<ConnId>,
    /// Every ticket ever acknowledged as accepted.
    admitted: BTreeSet<ConnId>,
}

impl Harness {
    fn new(f: usize, machine: &std::sync::Arc<VipMachine>) -> Harness {
        Harness {
            link: AdmissionLink::new(f, machine.clone()),
            to_endpoint: VecDeque::new(),
            to_vip: VecDeque::new(),
            pending: BTreeSet::new(),
            open: Vec::new(),
            admitted: BTreeSet::new(),
        }
    }

    fn send_vip(&mut self, n: usize) {
        let n = n.min(self.link.vip_out().len());
        self.to_endpoint.extend(&self.link.vip_out()[..n]);
        self.link.vip_sent(n);
    }

    fn send_endpoint(&mut self, n: usize) {
        let n = n.min(self.link.endpoint_out().len());
        self.to_vip.extend(&self.link.endpoint_out()[..n]);
        self.link.endpoint_sent(n);
    }

    fn read_endpoint(&mut self, n: usize) {
        let n = n.min(self.to_endpoint.len());
        let bytes: Vec<u8> = self.to_endpoint.drain(..n).collect();
        self.link
            .on_endpoint_bytes(&bytes)
            .expect("the link's own frames decode");
    }

    fn read_vip(&mut self, n: usize) {
        let n = n.min(self.to_vip.len());
        let bytes: Vec<u8> = self.to_vip.drain(..n).collect();
        let mut acks = Vec::new();
        self.link
            .on_vip_bytes(&bytes, &mut acks)
            .expect("the link's own frames decode");
        for Ack { conn, accepted } in acks {
            assert!(
                self.pending.remove(&conn),
                "{conn:?} acknowledged twice, or never begun on this link"
            );
            assert!(accepted, "an uncapped endpoint refuses nothing");
            self.open.push(conn);
            self.admitted.insert(conn);
        }
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Begin(_, port) => {
                let conn = self.link.begin(ClientKey {
                    ip: 0x7F00_0001,
                    port,
                });
                assert!(self.pending.insert(conn), "ticket {conn:?} issued twice");
            }
            Op::Release(_, k) => {
                if !self.open.is_empty() {
                    let conn = self.open.remove(k % self.open.len());
                    self.link.release(conn);
                }
            }
            Op::SendVip(_, n) => self.send_vip(n),
            Op::SendEndpoint(_, n) => self.send_endpoint(n),
            Op::ReadEndpoint(_, n) => self.read_endpoint(n),
            Op::ReadVip(_, n) => self.read_vip(n),
        }
    }

    /// Moves everything, whole, until the link has nothing left to do.
    fn settle(&mut self) {
        while !self.link.quiet() {
            self.send_vip(usize::MAX);
            self.read_endpoint(usize::MAX);
            self.send_endpoint(usize::MAX);
            self.read_vip(usize::MAX);
        }
    }
}

fn link_of(op: Op) -> usize {
    match op {
        Op::Begin(l, _)
        | Op::Release(l, _)
        | Op::SendVip(l, _)
        | Op::SendEndpoint(l, _)
        | Op::ReadEndpoint(l, _)
        | Op::ReadVip(l, _) => l,
    }
}

/// Plays `ops`; with `whole_wire` every op is followed by a full
/// settle, i.e. the wire never fragments, coalesces, or lags.
fn play(ops: &[Op], whole_wire: bool) -> (std::sync::Arc<VipMachine>, Vec<Harness>) {
    let machine = VipMachine::new();
    let mut links: Vec<Harness> = (0..LINKS).map(|f| Harness::new(f, &machine)).collect();
    for &op in ops {
        let h = &mut links[link_of(op)];
        match (whole_wire, op) {
            // The reference wire moves bytes itself, after every op.
            (true, Op::Begin(..) | Op::Release(..)) => {
                h.apply(op);
                h.settle();
            }
            (true, _) => {}
            (false, _) => h.apply(op),
        }
    }
    (machine, links)
}

proptest! {
    #[test]
    fn any_interleaving_and_any_cuts_admit_the_same_set_and_unwind_to_nothing(
        ops in proptest::collection::vec(arb_op(), 1..120),
    ) {
        let (machine, mut links) = play(&ops, false);
        for h in &mut links {
            h.settle();
            prop_assert!(h.pending.is_empty(), "handshakes left unanswered: {:?}", h.pending);
        }

        // Releases pick "the k-th open connection", and which are open
        // when depends on how far the wire has got — so the reference
        // is compared on what cannot depend on it: who was admitted.
        let (_, reference) = play(&ops, true);
        for (h, r) in links.iter().zip(&reference) {
            prop_assert_eq!(&h.admitted, &r.admitted);
        }

        let open: usize = links.iter().map(|h| h.open.len()).sum();
        prop_assert_eq!(machine.tracked(), open, "the machine tracks exactly the open tickets");

        for h in &mut links {
            for conn in std::mem::take(&mut h.open) {
                h.link.release(conn);
            }
            h.settle();
            prop_assert!(h.link.endpoint_is_empty(), "the endpoint still owns a connection");
            prop_assert!(h.to_endpoint.is_empty() && h.to_vip.is_empty());
        }
        prop_assert_eq!(machine.tracked(), 0, "routes outlived their tickets");
    }
}
