//! Shard 0's driver of the tier's gossip mesh (`crate::tier`, "Gossip").
//!
//! Each unordered pair of front-ends has one duplex loopback session.
//! Shard 0 owns both ends of every session, registered on its own
//! poller, so gossip runs on no thread of its own:
//!
//! * once per [`GOSSIP_INTERVAL`] — a deadline the poll timeout
//!   honours, not a timer-heap entry — [`round`](Gossiper::round)
//!   queues every live origin's [`Vip::make_delta_frame`] on its end of
//!   each session whose peer is live;
//! * [`flush`](Gossiper::flush) runs once per loop turn: one
//!   non-blocking write per end, with `WRITABLE` armed while a residue
//!   remains — the shard is the only reader of the other end, so it
//!   must never wait on the write;
//! * a readable end decodes its peer's frames into
//!   [`Vip::apply_delta`] for the end's front-end. EOF, a read error or
//!   a framing error takes the whole session off the poller.

use std::io;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;

use mio::{Registry, Token};

use super::End;
use crate::control::{ControlMsg, FrameDecoder};
use crate::tier::{loopback_pair, Vip, GOSSIP_INTERVAL};

/// Front-end `fe`'s end of its session with `peer`. Sides `2i` and
/// `2i + 1` are the two ends of session `i`: what one sends, the other
/// reads.
struct Side {
    fe: usize,
    peer: usize,
    end: End,
    /// Frames queued here and not yet taken by the socket.
    out: Vec<u8>,
    rx: FrameDecoder,
    dead: bool,
}

/// Drives the tier's gossip sessions (see the module docs).
pub(crate) struct Gossiper {
    vip: Arc<Vip>,
    sides: Vec<Side>,
    next_round: Instant,
}

impl Gossiper {
    /// Connects one session per unordered pair of front-ends and
    /// registers side `k` as token `base + k`.
    pub fn new(vip: Arc<Vip>, registry: &Registry, base: usize) -> io::Result<Gossiper> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let m = vip.front_ends();
        let mut sides = Vec::with_capacity(m * (m - 1));
        for f in 0..m {
            for g in (f + 1)..m {
                let (end_f, end_g) = loopback_pair(&listener)?;
                for (fe, peer, stream) in [(f, g, end_f), (g, f, end_g)] {
                    sides.push(Side {
                        fe,
                        peer,
                        end: End::register(stream, Token(base + sides.len()), registry)?,
                        out: Vec::new(),
                        rx: FrameDecoder::new(),
                        dead: false,
                    });
                }
            }
        }
        Ok(Gossiper {
            vip,
            sides,
            next_round: Instant::now() + GOSSIP_INTERVAL,
        })
    }

    /// Tokens this driver occupies from its base.
    pub fn tokens(&self) -> usize {
        self.sides.len()
    }

    /// When the next round is due, for the poll timeout.
    pub fn next_deadline(&self) -> Instant {
        self.next_round
    }

    /// Queues a round once one is due at `now`. Its frames leave with
    /// the turn's [`flush`](Self::flush).
    pub fn round(&mut self, now: Instant) {
        if now < self.next_round {
            return;
        }
        self.next_round = now + GOSSIP_INTERVAL;
        for f in 0..self.vip.front_ends() {
            let Some(frame) = self.vip.make_delta_frame(f) else {
                continue;
            };
            for s in &mut self.sides {
                if s.fe == f && !s.dead && self.vip.is_alive(s.peer) {
                    s.out.extend_from_slice(&frame);
                }
            }
        }
    }

    /// Readiness on side `k`. Only reading acts here: an armed
    /// `WRITABLE` firing just means the turn's flush will get further.
    /// (A closed session's sides are deregistered, but an event of the
    /// batch that closed it can still name them.)
    pub fn on_event(&mut self, k: usize, registry: &Registry) {
        if !self.sides[k].dead && self.pull(k).is_err() {
            self.close(k, registry);
        }
    }

    /// Reads side `k` dry and applies every delta that arrived.
    fn pull(&mut self, k: usize) -> io::Result<()> {
        let mut buf = [0u8; 4096];
        let s = &mut self.sides[k];
        loop {
            let n = s.end.recv(&mut buf)?;
            s.rx.feed(&buf[..n]);
            while let Some(msg) = s.rx.next()? {
                if let ControlMsg::StateDelta(delta) = msg {
                    self.vip.apply_delta(s.fe, &delta);
                }
            }
            // A short read emptied the socket; level-triggered
            // readiness reports whatever lands after it.
            if n < buf.len() {
                return Ok(());
            }
        }
    }

    /// Sends what this turn queued: one write per side.
    pub fn flush(&mut self, registry: &Registry) {
        for k in 0..self.sides.len() {
            let s = &mut self.sides[k];
            if s.dead {
                continue;
            }
            match s.end.send(&s.out, registry) {
                Ok(n) => {
                    s.out.drain(..n);
                    self.vip.count_gossip_bytes(n);
                }
                Err(_) => self.close(k, registry),
            }
        }
    }

    /// Side `k`'s session is unusable: whatever it still holds is
    /// dropped and both its ends leave the poller — level-triggered, it
    /// would report their EOF or unread residue every turn.
    fn close(&mut self, k: usize, registry: &Registry) {
        for s in &mut self.sides[k & !1..=k | 1] {
            s.dead = true;
            s.out = Vec::new();
            let _ = registry.deregister(&mut s.end.stream);
        }
    }
}
