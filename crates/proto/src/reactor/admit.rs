//! The readiness driver of the tier's admission links.
//!
//! Under a front-end tier every accepted client connection crosses a
//! real handoff handshake before it is served
//! ([`crate::tier::AdmissionLink`]). The blocking driver
//! ([`crate::tier::Vip::admit`]) runs one handshake to completion on
//! its caller's thread; an event loop cannot wait like that, so each
//! shard owns one link per front-end — both loopback stream ends
//! registered on the shard's own poller — and an [`Admitter`] that
//! advances them as readiness allows:
//!
//! * a new connection queues its handoff request and parks, FIFO,
//!   behind the link's earlier requests (acks return in request order);
//! * the endpoint end turning readable answers every request it holds,
//!   the Vip end turning readable decodes every ack and close, and each
//!   decided ack resolves the connection at the queue's front — to the
//!   front-end that acknowledged it, or onward to the next live
//!   front-end if it refused, lost a race with `kill_frontend`, the
//!   link died, or [`ADMIT_TIMEOUT`] ran out; a connection nobody takes
//!   is served untracked on any live front-end, never dropped;
//! * closes are queued, not written; [`flush`](Admitter::flush) runs
//!   once per loop turn and sends everything the turn produced for one
//!   direction of one link in a single non-blocking write. What the
//!   socket does not take stays queued with `WRITABLE` armed: the shard
//!   is the only reader of the other end, so it must never wait on the
//!   write.

use std::collections::VecDeque;
use std::io;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mio::{Registry, Token};
use phttp_core::ConnId;
use phttp_handoff::ClientKey;

use super::{End, SlotRef};
use crate::tier::{loopback_pair, Ack, AdmissionLink, Cursor, Vip, ADMIT_TIMEOUT};

/// How an admission ended: serve `slot` on front-end `fe_idx`, holding
/// `ticket` (`None`: untracked — no front-end acknowledged it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Admitted {
    pub slot: SlotRef,
    pub fe_idx: usize,
    pub ticket: Option<ConnId>,
}

/// A connection parked behind its handoff request.
struct Waiting {
    ticket: ConnId,
    deadline: Instant,
    slot: SlotRef,
    client: ClientKey,
    /// Where its walk over the tier continues if this front-end fails.
    cursor: Cursor,
}

/// One front-end's link as this shard drives it.
struct ShardLink {
    link: AdmissionLink,
    vip_end: End,
    endpoint_end: End,
    /// Handshakes awaiting their ack, oldest first.
    waiting: VecDeque<Waiting>,
}

/// Drives one shard's admission links (see the module docs).
pub(crate) struct Admitter {
    vip: Arc<Vip>,
    links: Vec<ShardLink>,
}

impl Admitter {
    /// Connects one link per front-end and registers both ends of each
    /// under tokens `base..base + self.tokens()`: the Vip ends first,
    /// in front-end order, then the endpoint ends.
    pub fn new(vip: Arc<Vip>, registry: &Registry, base: usize) -> io::Result<Admitter> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let m = vip.front_ends();
        let mut links = Vec::with_capacity(m);
        for f in 0..m {
            let (vip_end, endpoint_end) = loopback_pair(&listener)?;
            links.push(ShardLink {
                link: AdmissionLink::new(f, vip.machine()),
                vip_end: End::register(vip_end, Token(base + f), registry)?,
                endpoint_end: End::register(endpoint_end, Token(base + m + f), registry)?,
                waiting: VecDeque::new(),
            });
        }
        Ok(Admitter { vip, links })
    }

    /// Tokens this driver occupies from its base.
    pub fn tokens(&self) -> usize {
        2 * self.links.len()
    }

    /// Starts admitting the connection parked in `slot`. It resolves
    /// through `out` — now if no live link can take it, otherwise when
    /// its ack is decoded.
    pub fn admit(&mut self, slot: SlotRef, client: ClientKey, out: &mut Vec<Admitted>) {
        self.offer(slot, client, self.vip.cursor(), out);
    }

    /// `slot` served on any live front-end, holding no ticket.
    fn untracked(&self, slot: SlotRef) -> Admitted {
        Admitted {
            slot,
            fe_idx: self.vip.any_alive(),
            ticket: None,
        }
    }

    /// Queues the handshake on the next front-end `cursor` yields, or
    /// resolves the connection untracked once there is none left.
    fn offer(
        &mut self,
        slot: SlotRef,
        client: ClientKey,
        mut cursor: Cursor,
        out: &mut Vec<Admitted>,
    ) {
        while let Some(f) = self.vip.next_candidate(&mut cursor) {
            let l = &mut self.links[f];
            if l.link.is_dead() {
                continue;
            }
            l.waiting.push_back(Waiting {
                ticket: l.link.begin(client),
                deadline: Instant::now() + ADMIT_TIMEOUT,
                slot,
                client,
                cursor,
            });
            return;
        }
        out.push(self.untracked(slot));
    }

    /// The connection admitted to `fe_idx` as `ticket` has ended; its
    /// close notification leaves with the turn's flush.
    pub fn release(&mut self, fe_idx: usize, ticket: ConnId) {
        self.links[fe_idx].link.release(ticket);
    }

    /// Readiness on the link end registered as token `base + off`.
    /// Only reading acts here: an armed `WRITABLE` firing just means
    /// the turn's flush will get further.
    pub fn on_event(&mut self, off: usize, registry: &Registry, out: &mut Vec<Admitted>) {
        let m = self.links.len();
        let f = off % m;
        // A dead link's ends are deregistered; an event of the batch
        // that killed it can still name them.
        if !self.links[f].link.is_dead() && self.pull(f, off < m, out).is_err() {
            self.fail(f, registry, out);
        }
    }

    /// Reads one end dry and applies what arrived.
    fn pull(&mut self, f: usize, vip_end: bool, out: &mut Vec<Admitted>) -> io::Result<()> {
        let mut buf = [0u8; 4096];
        let mut acks = Vec::new();
        loop {
            let l = &mut self.links[f];
            let end = if vip_end {
                &mut l.vip_end
            } else {
                &mut l.endpoint_end
            };
            let n = end.recv(&mut buf)?;
            if n == 0 {
                break;
            }
            if vip_end {
                l.link.on_vip_bytes(&buf[..n], &mut acks)?;
            } else {
                l.link.on_endpoint_bytes(&buf[..n])?;
            }
            // A short read emptied the socket; level-triggered
            // readiness reports whatever lands after it.
            if n < buf.len() {
                break;
            }
        }
        for ack in acks {
            self.decide(f, ack, out);
        }
        Ok(())
    }

    /// Resolves the handshake `ack` answers.
    fn decide(&mut self, f: usize, ack: Ack, out: &mut Vec<Admitted>) {
        let l = &mut self.links[f];
        // Acks return in request order and a handshake leaves the queue
        // when it is abandoned, so this finds the front entry.
        let Some(pos) = l.waiting.iter().position(|w| w.ticket == ack.conn) else {
            return;
        };
        let w = l.waiting.remove(pos).expect("position is in range");
        if self.vip.settle(&mut l.link, ack) {
            out.push(Admitted {
                slot: w.slot,
                fe_idx: f,
                ticket: Some(w.ticket),
            });
        } else {
            self.offer(w.slot, w.client, w.cursor, out);
        }
    }

    /// Sends what this turn queued: one write per direction per link.
    pub fn flush(&mut self, registry: &Registry, out: &mut Vec<Admitted>) {
        // A link that fails here re-offers its parked handshakes to the
        // others, possibly behind their write of this pass — go round
        // again until a pass loses no link, so nothing queued waits for
        // an unrelated event to be sent.
        loop {
            let mut lost = false;
            for f in 0..self.links.len() {
                if !self.links[f].link.is_dead() && self.push(f, registry).is_err() {
                    self.fail(f, registry, out);
                    lost = true;
                }
            }
            if !lost {
                return;
            }
        }
    }

    fn push(&mut self, f: usize, registry: &Registry) -> io::Result<()> {
        let l = &mut self.links[f];
        let n = l.vip_end.send(l.link.vip_out(), registry)?;
        l.link.vip_sent(n);
        let n = l.endpoint_end.send(l.link.endpoint_out(), registry)?;
        l.link.endpoint_sent(n);
        Ok(())
    }

    /// The session is unusable: the link fails (unwinding the closes
    /// lost with the wire), its ends leave the poller — level-triggered,
    /// it would report their EOF or unread residue every turn — and
    /// every handshake parked on it moves on to the next front-end.
    fn fail(&mut self, f: usize, registry: &Registry, out: &mut Vec<Admitted>) {
        let l = &mut self.links[f];
        l.link.fail();
        for end in [&mut l.vip_end, &mut l.endpoint_end] {
            let _ = registry.deregister(&mut end.stream);
        }
        for w in std::mem::take(&mut l.waiting) {
            self.links[f].link.abandon(w.ticket);
            self.offer(w.slot, w.client, w.cursor, out);
        }
    }

    /// The earliest ack deadline outstanding, for the poll timeout.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.links
            .iter()
            .filter_map(|l| l.waiting.front().map(|w| w.deadline))
            .min()
    }

    /// Abandons every handshake whose ack is overdue at `now` and moves
    /// its connection on.
    pub fn expire(&mut self, now: Instant, out: &mut Vec<Admitted>) {
        for f in 0..self.links.len() {
            while self.links[f]
                .waiting
                .front()
                .is_some_and(|w| w.deadline <= now)
            {
                let w = self.links[f].waiting.pop_front().expect("checked above");
                self.links[f].link.abandon(w.ticket);
                self.offer(w.slot, w.client, w.cursor, out);
            }
        }
    }

    /// The loop is exiting: parked handshakes are abandoned (their
    /// connections die with the shard) and every close already queued
    /// or on the wire is carried to the machine — or, on a session that
    /// will not carry it, unwound by failing the link — so the tier
    /// tracks nothing of this shard afterwards.
    pub fn teardown(&mut self, registry: &Registry) {
        let mut unused = Vec::new();
        for l in &mut self.links {
            for w in std::mem::take(&mut l.waiting) {
                l.link.abandon(w.ticket);
            }
        }
        // Both ends are ours and loopback delivers promptly; the bound
        // only keeps a broken kernel path from wedging shutdown.
        let give_up = Instant::now() + Duration::from_secs(1);
        for f in 0..self.links.len() {
            // A failed link is quiet.
            while !self.links[f].link.quiet() {
                let step = self
                    .push(f, registry)
                    .and_then(|()| self.pull(f, false, &mut unused))
                    .and_then(|_| self.pull(f, true, &mut unused));
                if step.is_err() || Instant::now() >= give_up {
                    self.fail(f, registry, &mut unused);
                }
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::tests::{key, tier};
    use mio::{Events, Interest, Poll};
    use std::io::Read;

    /// An [`Admitter`] on a poller of its own, turned by hand.
    struct Shard {
        poll: Poll,
        admitter: Admitter,
        vip: Arc<Vip>,
        out: Vec<Admitted>,
    }

    const BASE: usize = 7;

    fn shard(front_ends: usize) -> Shard {
        let (vip, _fes) = tier(front_ends, 2);
        let poll = Poll::new().unwrap();
        let admitter = Admitter::new(vip.clone(), poll.registry(), BASE).unwrap();
        Shard {
            poll,
            admitter,
            vip,
            out: Vec::new(),
        }
    }

    fn slot(idx: usize) -> SlotRef {
        SlotRef { idx, gen: 0 }
    }

    impl Shard {
        /// A client from `port` connects and parks in slot `idx`.
        fn admit(&mut self, idx: usize, port: u16) {
            self.admitter.admit(slot(idx), key(port), &mut self.out);
        }

        /// One loop turn: flush what is queued, wait for readiness,
        /// dispatch it.
        fn turn(&mut self) {
            self.admitter.flush(self.poll.registry(), &mut self.out);
            let mut events = Events::with_capacity(16);
            self.poll
                .poll(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            for ev in events.iter() {
                self.admitter
                    .on_event(ev.token().0 - BASE, self.poll.registry(), &mut self.out);
            }
        }

        /// Turns until `n` admissions have resolved.
        fn resolve(&mut self, n: usize) -> Vec<Admitted> {
            let give_up = Instant::now() + Duration::from_secs(5);
            while self.out.len() < n {
                assert!(Instant::now() < give_up, "admissions never resolved");
                self.turn();
            }
            let mut got = std::mem::take(&mut self.out);
            got.sort_by_key(|a| a.slot.idx);
            got
        }

        /// Turns until the tier tracks `n` connections.
        fn settle_to(&mut self, n: usize) {
            let give_up = Instant::now() + Duration::from_secs(5);
            while self.vip.tracked() != n {
                assert!(
                    Instant::now() < give_up,
                    "tracked() stuck at {} (want {n})",
                    self.vip.tracked()
                );
                self.turn();
            }
        }

        /// Breaks session `f`: one of its ends becomes a socket whose
        /// peer has hung up, and whatever the old socket held is lost.
        fn hang_up(&mut self, f: usize, vip_end: bool) {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let (orphan, hung_up) = loopback_pair(&listener).unwrap();
            drop(hung_up);
            let l = &mut self.admitter.links[f];
            let end = if vip_end {
                &mut l.vip_end
            } else {
                &mut l.endpoint_end
            };
            self.poll.registry().deregister(&mut end.stream).unwrap();
            end.stream = mio::net::TcpStream::from_std(orphan);
            self.poll
                .registry()
                .register(&mut end.stream, end.token, Interest::READABLE)
                .unwrap();
        }

        fn endpoints_empty(&self) -> bool {
            self.admitter
                .links
                .iter()
                .all(|l| l.link.endpoint_is_empty())
        }
    }

    #[test]
    fn a_burst_round_robins_coalesces_and_unwinds() {
        let mut s = shard(2);
        for i in 0..8 {
            s.admit(i, 50_000 + i as u16);
        }
        assert!(s.out.is_empty(), "nothing resolves before its ack");
        // The whole burst is one pending write per link, not eight.
        for l in &s.admitter.links {
            assert_eq!(l.waiting.len(), 4);
            assert!(!l.link.vip_out().is_empty());
        }
        let got = s.resolve(8);
        for (i, a) in got.iter().enumerate() {
            assert_eq!(a.slot, slot(i));
            assert_eq!(a.fe_idx, i % 2, "round robin over live front-ends");
            assert!(a.ticket.is_some(), "every handshake was acknowledged");
        }
        assert_eq!(s.vip.handoffs(), 8);
        assert_eq!((s.vip.admitted(0), s.vip.admitted(1)), (4, 4));
        assert_eq!(s.vip.tracked(), 8);
        for a in got {
            s.admitter.release(a.fe_idx, a.ticket.unwrap());
        }
        assert_eq!(s.vip.tracked(), 8, "closes wait for the turn's flush");
        s.settle_to(0);
        assert!(s.endpoints_empty());
        assert!(s.admitter.next_deadline().is_none());
    }

    /// More bytes than the session's socket takes in one write: `send`
    /// reports the part that went, arms `WRITABLE` for the residue,
    /// and never waits — in the shard, the reader of the other end is
    /// the same thread. Draining the peer lets later sends finish, and
    /// the last one disarms.
    #[test]
    fn a_write_the_socket_will_not_take_leaves_an_armed_residue() {
        let poll = Poll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (ours, mut peer) = loopback_pair(&listener).unwrap();
        let mut end = End::register(ours, Token(1), poll.registry()).unwrap();
        // Larger than any socket buffer pair a host is configured with.
        let out = vec![0xA5u8; 64 << 20];
        let mut sent = end.send(&out, poll.registry()).unwrap();
        assert!(sent > 0 && sent < out.len(), "one write took {sent} bytes");
        assert!(end.armed);
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut sink = vec![0u8; 1 << 20];
        let mut received = 0;
        while received < out.len() {
            received += peer.read(&mut sink).expect("the residue never arrived");
            sent += end.send(&out[sent..], poll.registry()).unwrap();
        }
        assert_eq!(sent, out.len());
        assert!(!end.armed, "nothing left to send, still armed");
    }

    #[test]
    fn refusal_moves_on_and_a_full_tier_serves_untracked() {
        let mut s = shard(2);
        for l in &mut s.admitter.links {
            l.link.set_endpoint_capacity(1);
        }
        for i in 0..3 {
            s.admit(i, 50_100 + i as u16);
        }
        let got = s.resolve(3);
        assert_eq!((got[0].fe_idx, got[1].fe_idx), (0, 1));
        assert!(got[0].ticket.is_some() && got[1].ticket.is_some());
        // Refused by 0, then by 1: served anyway, on any live
        // front-end, holding no ticket.
        assert_eq!(got[2].ticket, None);
        assert_eq!(got[2].fe_idx, s.vip.any_alive());
        assert_eq!(s.vip.handoffs(), 2);
        assert_eq!(s.vip.tracked(), 2, "a refused handshake left a route");
        // Room on 1 only: the next walk starts at 1... and one starting
        // at 0 is refused there and lands on 1.
        s.admitter.release(1, got[1].ticket.unwrap());
        s.settle_to(1);
        s.admit(3, 50_103); // walk starts at 1
        let a = s.resolve(1)[0];
        assert_eq!((a.fe_idx, a.ticket.is_some()), (1, true));
        s.admitter.release(1, a.ticket.unwrap());
        s.settle_to(1);
        s.admit(4, 50_104); // walk starts at 0
        let b = s.resolve(1)[0];
        assert_eq!((b.fe_idx, b.ticket.is_some()), (1, true));
    }

    #[test]
    fn an_ack_that_loses_to_kill_frontend_is_unwound_and_retried() {
        let mut s = shard(2);
        s.admit(0, 50_200); // to front-end 0
        assert!(s.vip.kill_frontend(0));
        let a = s.resolve(1)[0];
        assert_eq!(a.fe_idx, 1, "admitted to a decommissioned front-end");
        assert!(a.ticket.is_some());
        assert_eq!((s.vip.admitted(0), s.vip.admitted(1)), (0, 1));
        assert_eq!(s.vip.tracked(), 1, "the unwound route leaked");
        s.admitter.release(a.fe_idx, a.ticket.unwrap());
        s.settle_to(0);
        assert!(s.endpoints_empty());
    }

    #[test]
    fn an_overdue_ack_moves_the_connection_on_and_is_ignored_when_it_lands() {
        let mut s = shard(2);
        s.admit(0, 50_300); // to front-end 0
        let due = s.admitter.next_deadline().expect("one handshake is out");
        s.admitter
            .expire(due - Duration::from_millis(1), &mut s.out);
        assert_eq!(s.admitter.links[0].waiting.len(), 1, "expired early");
        // Nothing has been flushed yet: the ack cannot have arrived.
        s.admitter.expire(due, &mut s.out);
        assert_eq!(s.vip.tracked(), 1, "only the retry is tracked");
        let a = s.resolve(1)[0];
        assert_eq!((a.fe_idx, a.ticket.is_some()), (1, true));
        // The abandoned request still crosses link 0 and is acked; the
        // stale ack resolves nothing and the endpoint drops what it
        // accepted.
        for _ in 0..4 {
            s.turn();
        }
        assert!(s.out.is_empty());
        assert!(s.admitter.links[0].link.endpoint_is_empty());
        assert_eq!(s.vip.tracked(), 1);
        assert_eq!(s.vip.handoffs(), 1);
    }

    #[test]
    fn a_broken_session_hands_its_queue_to_the_next_front_end() {
        let mut s = shard(2);
        let first = {
            s.admit(0, 50_400);
            s.resolve(1)[0]
        };
        assert_eq!(first.fe_idx, 0);
        s.admit(1, 50_401); // to 1
        s.admit(2, 50_402); // to 0
        s.hang_up(0, false); // session 0 breaks under them
        let got = s.resolve(2);
        assert!(got.iter().all(|a| a.fe_idx == 1 && a.ticket.is_some()));
        assert!(s.admitter.links[0].link.is_dead());
        // New work avoids the dead session; its old ticket still goes.
        s.admit(3, 50_403);
        s.admit(4, 50_404);
        let more = s.resolve(2);
        assert!(more.iter().all(|a| a.fe_idx == 1));
        assert_eq!(s.vip.tracked(), 5);
        s.admitter.release(first.fe_idx, first.ticket.unwrap());
        for a in got.iter().chain(&more) {
            s.admitter.release(a.fe_idx, a.ticket.unwrap());
        }
        s.settle_to(0);
    }

    /// A session that breaks with one close on the wire and another
    /// queued: the endpoint has let go of both connections already, so
    /// failing the link must unwind their routes itself — and take its
    /// ends off the level-triggered poller, which would otherwise
    /// report the hung-up socket on every turn.
    #[test]
    fn a_session_breaking_under_its_closes_leaks_no_route_and_leaves_the_poller() {
        let mut s = shard(2);
        for i in 0..4 {
            s.admit(i, 50_600 + i as u16);
        }
        let got = s.resolve(4);
        let ticket = |i: usize| got[i].ticket.unwrap();
        assert_eq!((got[0].fe_idx, got[2].fe_idx), (0, 0));
        s.admitter.release(0, ticket(0));
        s.admitter.flush(s.poll.registry(), &mut s.out); // on the wire
        s.admitter.release(0, ticket(2)); // queued
        assert_eq!(s.vip.tracked(), 4);
        s.hang_up(0, true); // the close in flight goes with the socket
        let give_up = Instant::now() + Duration::from_secs(5);
        while !s.admitter.links[0].link.is_dead() {
            assert!(Instant::now() < give_up, "the hang-up went unnoticed");
            s.turn();
        }
        assert_eq!(s.vip.tracked(), 2, "the lost closes left their routes");
        s.admitter.release(1, ticket(1));
        s.admitter.release(1, ticket(3));
        s.settle_to(0);
        // Nothing is outstanding, so nothing may be ready.
        let mut events = Events::with_capacity(16);
        s.poll
            .poll(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "a dead link's end is still polled");
    }

    #[test]
    fn teardown_leaves_the_tier_tracking_nothing() {
        let mut s = shard(2);
        for i in 0..4 {
            s.admit(i, 50_500 + i as u16);
        }
        let got = s.resolve(4);
        // Two closes queued and unflushed, two connections still open,
        // three handshakes parked at every stage of the exchange.
        s.admitter.release(got[0].fe_idx, got[0].ticket.unwrap());
        s.admitter.release(got[1].fe_idx, got[1].ticket.unwrap());
        s.admit(4, 50_504);
        s.turn();
        s.admit(5, 50_505);
        s.admit(6, 50_506);
        // The loop's teardown releases what is still open, then drains.
        let parked: Vec<Admitted> = std::mem::take(&mut s.out);
        for a in got[2..].iter().chain(&parked) {
            if let Some(t) = a.ticket {
                s.admitter.release(a.fe_idx, t);
            }
        }
        s.admitter.teardown(s.poll.registry());
        assert_eq!(s.vip.tracked(), 0);
        assert!(s.endpoints_empty());
    }
}
