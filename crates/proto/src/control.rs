//! The control-plane session: framed messages from the back-ends to the
//! front-end.
//!
//! The paper's §7.1 gives every back-end a persistent *control session*
//! to the front-end, carrying the cluster state the dispatcher decides
//! on (disk queue lengths). This module is that wire: a length-framed
//! binary protocol over the per-node loopback control connection, with
//! two message types —
//!
//! * [`ControlMsg::DiskQueue`] — the paper's original payload, a node's
//!   current disk-queue depth;
//! * [`ControlMsg::CacheFeedback`] — the coherence extension: the node's
//!   ordered cache admission/eviction delta since its previous report,
//!   which the front-end folds into its mapping belief via
//!   [`phttp_core::ConcurrentDispatcher::apply_cache_feedback`].
//!
//! The front-end *tier* (multiple front-ends behind one VIP) reuses the
//! same framing for its peer-to-peer traffic:
//!
//! * [`ControlMsg::Handoff`] — one `phttp-handoff` control message
//!   ([`phttp_handoff::CtrlMsg`], carried in its own versioned wire
//!   encoding) — the VIP↔front-end admission/close protocol;
//! * [`ControlMsg::StateDelta`] — one front-end's gossiped share of
//!   dispatcher state ([`phttp_core::StateDelta`]), merged into the
//!   receiver's [`phttp_core::TierView`].
//!
//! Cluster elasticity adds one more back-end→front-end message:
//!
//! * [`ControlMsg::Join`] — a node announcing itself (or rejoining after
//!   a restart), carrying its relative capacity weight and a replay of
//!   its cache-admission journal so the dispatcher can warm its mapping
//!   beliefs before routing traffic at the newcomer.
//!
//! Framing is `[tag: u8][len: u32 LE][payload]`, with `len` bounded by
//! [`MAX_FRAME`] so a corrupt peer cannot make the receiver buffer
//! unboundedly. The [`FrameDecoder`] is incremental: feed it whatever
//! bytes arrived, pop complete messages — the same parser shape as the
//! HTTP side, so it works identically as a registered readiness source
//! on a reactor shard's poller and on the blocking reader thread that
//! drains a node joined after start.

use phttp_core::{CacheEvent, NodeId, StateDelta};
use phttp_trace::TargetId;

/// Largest accepted frame payload. A feedback event costs 5 bytes, so
/// this bounds one report to ~200k events — far beyond any real batch,
/// while keeping a garbage length prefix from looking like a request to
/// buffer gigabytes.
pub const MAX_FRAME: usize = 1 << 20;

const TAG_DISK_QUEUE: u8 = 1;
const TAG_CACHE_FEEDBACK: u8 = 2;
const TAG_HANDOFF: u8 = 3;
const TAG_STATE_DELTA: u8 = 4;
const TAG_JOIN: u8 = 5;
const EV_ADMIT: u8 = 0;
const EV_EVICT: u8 = 1;
/// Frame header: tag byte plus little-endian payload length.
const HEADER: usize = 5;

/// One control-session message from a back-end to the front-end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlMsg {
    /// Current disk-queue depth of `node` (the paper's §7.1 payload).
    DiskQueue {
        /// Reporting node.
        node: NodeId,
        /// Requests queued on or holding the node's disk.
        depth: u32,
    },
    /// Ordered cache admission/eviction delta of `node` since its
    /// previous report.
    CacheFeedback {
        /// Reporting node.
        node: NodeId,
        /// The delta, in the order it happened.
        events: Vec<CacheEvent>,
    },
    /// One `phttp-handoff` control message, carried in its own versioned
    /// wire encoding as the payload. Spoken on the VIP↔front-end
    /// admission sessions of a front-end tier.
    Handoff(phttp_handoff::CtrlMsg),
    /// One front-end's gossiped dispatcher-state share, merged into the
    /// receiving peer's [`phttp_core::TierView`].
    StateDelta(StateDelta),
    /// A node announcing itself on a fresh control session: its slot,
    /// capacity weight, and a journal replay of its current cache
    /// contents (oldest first) for dispatcher warm-up.
    Join {
        /// Joining node.
        node: NodeId,
        /// Relative serving capacity (≥ 1; 1 = baseline).
        weight: u32,
        /// Cache journal to warm the mapping belief from. Empty for a
        /// cold (freshly wiped) join.
        events: Vec<CacheEvent>,
    },
}

/// Appends `[count: u32 LE]` followed by 5 bytes per event — the shared
/// journal encoding of [`ControlMsg::CacheFeedback`] and
/// [`ControlMsg::Join`].
fn encode_events(events: &[CacheEvent], payload: &mut Vec<u8>) {
    payload.extend_from_slice(&(events.len() as u32).to_le_bytes());
    for ev in events {
        let (t, target) = match ev {
            CacheEvent::Admit(t) => (EV_ADMIT, t),
            CacheEvent::Evict(t) => (EV_EVICT, t),
        };
        payload.push(t);
        payload.extend_from_slice(&target.0.to_le_bytes());
    }
}

/// Serializes one message into its wire frame.
pub fn encode(msg: &ControlMsg) -> Vec<u8> {
    let mut payload = Vec::new();
    let tag = match msg {
        ControlMsg::DiskQueue { node, depth } => {
            payload.extend_from_slice(&(node.0 as u32).to_le_bytes());
            payload.extend_from_slice(&depth.to_le_bytes());
            TAG_DISK_QUEUE
        }
        ControlMsg::CacheFeedback { node, events } => {
            payload.extend_from_slice(&(node.0 as u32).to_le_bytes());
            encode_events(events, &mut payload);
            TAG_CACHE_FEEDBACK
        }
        ControlMsg::Join {
            node,
            weight,
            events,
        } => {
            payload.extend_from_slice(&(node.0 as u32).to_le_bytes());
            payload.extend_from_slice(&weight.to_le_bytes());
            encode_events(events, &mut payload);
            TAG_JOIN
        }
        ControlMsg::Handoff(msg) => {
            phttp_handoff::wire::encode(msg, &mut payload);
            TAG_HANDOFF
        }
        ControlMsg::StateDelta(delta) => {
            payload = delta.encode();
            TAG_STATE_DELTA
        }
    };
    debug_assert!(payload.len() <= MAX_FRAME, "control frame over MAX_FRAME");
    let mut wire = Vec::with_capacity(HEADER + payload.len());
    wire.push(tag);
    wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wire.extend_from_slice(&payload);
    wire
}

/// Why a control stream's bytes could not be decoded. Any error poisons
/// the stream: framing has no resynchronization point, so the session
/// must be dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Unknown frame tag.
    BadTag(u8),
    /// Declared payload length exceeds [`MAX_FRAME`].
    Oversize(u32),
    /// Payload shorter or longer than its message requires.
    Malformed,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadTag(t) => write!(f, "unknown control frame tag {t}"),
            DecodeError::Oversize(n) => write!(f, "control frame of {n} bytes exceeds MAX_FRAME"),
            DecodeError::Malformed => write!(f, "malformed control frame payload"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for std::io::Error {
    fn from(e: DecodeError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Incremental frame parser for one control stream.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted opportunistically).
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `pos` is consumed.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pops the next complete message, `Ok(None)` if more bytes are
    /// needed, or an error that poisons the stream.
    #[allow(clippy::should_implement_trait)] // same shape as the HTTP parsers
    pub fn next(&mut self) -> Result<Option<ControlMsg>, DecodeError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < HEADER {
            return Ok(None);
        }
        let tag = avail[0];
        let len = u32::from_le_bytes([avail[1], avail[2], avail[3], avail[4]]);
        if len as usize > MAX_FRAME {
            return Err(DecodeError::Oversize(len));
        }
        if avail.len() < HEADER + len as usize {
            return Ok(None);
        }
        let payload = &avail[HEADER..HEADER + len as usize];
        let msg = Self::decode_payload(tag, payload)?;
        self.pos += HEADER + len as usize;
        Ok(Some(msg))
    }

    fn decode_payload(tag: u8, p: &[u8]) -> Result<ControlMsg, DecodeError> {
        let u32_at = |i: usize| -> Result<u32, DecodeError> {
            p.get(i..i + 4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .ok_or(DecodeError::Malformed)
        };
        match tag {
            TAG_DISK_QUEUE => {
                if p.len() != 8 {
                    return Err(DecodeError::Malformed);
                }
                Ok(ControlMsg::DiskQueue {
                    node: NodeId(u32_at(0)? as usize),
                    depth: u32_at(4)?,
                })
            }
            TAG_CACHE_FEEDBACK => {
                let node = NodeId(u32_at(0)? as usize);
                let events = Self::decode_events(p, 4)?;
                Ok(ControlMsg::CacheFeedback { node, events })
            }
            TAG_JOIN => {
                let node = NodeId(u32_at(0)? as usize);
                let weight = u32_at(4)?;
                if weight == 0 {
                    return Err(DecodeError::Malformed);
                }
                let events = Self::decode_events(p, 8)?;
                Ok(ControlMsg::Join {
                    node,
                    weight,
                    events,
                })
            }
            TAG_HANDOFF => match phttp_handoff::wire::decode(p) {
                Ok((msg, used)) if used == p.len() => Ok(ControlMsg::Handoff(msg)),
                _ => Err(DecodeError::Malformed),
            },
            TAG_STATE_DELTA => StateDelta::decode(p)
                .map(ControlMsg::StateDelta)
                .map_err(|_| DecodeError::Malformed),
            other => Err(DecodeError::BadTag(other)),
        }
    }

    /// Parses the shared `[count][5 bytes per event]` journal encoding
    /// starting at byte `off`, requiring it to consume the payload
    /// exactly.
    fn decode_events(p: &[u8], off: usize) -> Result<Vec<CacheEvent>, DecodeError> {
        let count_bytes = p.get(off..off + 4).ok_or(DecodeError::Malformed)?;
        let count = u32::from_le_bytes([
            count_bytes[0],
            count_bytes[1],
            count_bytes[2],
            count_bytes[3],
        ]) as usize;
        if p.len() != off + 4 + count * 5 {
            return Err(DecodeError::Malformed);
        }
        let mut events = Vec::with_capacity(count);
        for i in 0..count {
            let at = off + 4 + i * 5;
            let t = p.get(at + 1..at + 5).ok_or(DecodeError::Malformed)?;
            let target = TargetId(u32::from_le_bytes([t[0], t[1], t[2], t[3]]));
            events.push(match p[at] {
                EV_ADMIT => CacheEvent::Admit(target),
                EV_EVICT => CacheEvent::Evict(target),
                _ => return Err(DecodeError::Malformed),
            });
        }
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TargetId {
        TargetId(i)
    }

    #[test]
    fn roundtrip_disk_queue() {
        let msg = ControlMsg::DiskQueue {
            node: NodeId(3),
            depth: 17,
        };
        let mut dec = FrameDecoder::new();
        dec.feed(&encode(&msg));
        assert_eq!(dec.next().unwrap(), Some(msg));
        assert_eq!(dec.next().unwrap(), None);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn roundtrip_cache_feedback() {
        let msg = ControlMsg::CacheFeedback {
            node: NodeId(1),
            events: vec![
                CacheEvent::Admit(t(5)),
                CacheEvent::Evict(t(5)),
                CacheEvent::Admit(t(9)),
            ],
        };
        let mut dec = FrameDecoder::new();
        dec.feed(&encode(&msg));
        assert_eq!(dec.next().unwrap(), Some(msg));
    }

    #[test]
    fn roundtrip_join() {
        let msg = ControlMsg::Join {
            node: NodeId(2),
            weight: 4,
            events: vec![CacheEvent::Admit(t(3)), CacheEvent::Admit(t(8))],
        };
        let cold = ControlMsg::Join {
            node: NodeId(0),
            weight: 1,
            events: vec![],
        };
        let mut dec = FrameDecoder::new();
        dec.feed(&encode(&msg));
        dec.feed(&encode(&cold));
        assert_eq!(dec.next().unwrap(), Some(msg));
        assert_eq!(dec.next().unwrap(), Some(cold));
        assert_eq!(dec.next().unwrap(), None);

        // A zero weight is meaningless (division by capacity) and
        // poisons the stream.
        let mut dec = FrameDecoder::new();
        let mut wire = vec![TAG_JOIN, 12, 0, 0, 0];
        wire.extend_from_slice(&1u32.to_le_bytes()); // node
        wire.extend_from_slice(&0u32.to_le_bytes()); // weight 0
        wire.extend_from_slice(&0u32.to_le_bytes()); // no events
        dec.feed(&wire);
        assert_eq!(dec.next(), Err(DecodeError::Malformed));
    }

    #[test]
    fn roundtrip_handoff_and_state_delta() {
        use phttp_core::{FeId, StateDelta};
        let handoff = ControlMsg::Handoff(phttp_handoff::CtrlMsg::ConnClosed {
            conn: phttp_core::ConnId(42),
        });
        let delta = ControlMsg::StateDelta(StateDelta {
            origin: FeId(1),
            seq: 7,
            full: false,
            loads: vec![3, -1],
            mapping: vec![(t(9), vec![NodeId(0), NodeId(1)])],
        });
        let mut dec = FrameDecoder::new();
        dec.feed(&encode(&handoff));
        dec.feed(&encode(&delta));
        assert_eq!(dec.next().unwrap(), Some(handoff));
        assert_eq!(dec.next().unwrap(), Some(delta));
        assert_eq!(dec.next().unwrap(), None);

        // Truncated inner payloads poison the stream, same as any
        // other malformed frame.
        for tag in [TAG_HANDOFF, TAG_STATE_DELTA] {
            let mut dec = FrameDecoder::new();
            let mut wire = vec![tag];
            wire.extend_from_slice(&2u32.to_le_bytes());
            wire.extend_from_slice(&[0, 0]);
            dec.feed(&wire);
            assert_eq!(dec.next(), Err(DecodeError::Malformed));
        }
    }

    #[test]
    fn incremental_and_pipelined_frames() {
        let a = ControlMsg::DiskQueue {
            node: NodeId(0),
            depth: 1,
        };
        let b = ControlMsg::CacheFeedback {
            node: NodeId(2),
            events: vec![CacheEvent::Evict(t(7))],
        };
        let mut wire = encode(&a);
        wire.extend_from_slice(&encode(&b));
        let mut dec = FrameDecoder::new();
        // Byte-at-a-time delivery must produce the same messages.
        let mut got = Vec::new();
        for byte in wire {
            dec.feed(&[byte]);
            while let Some(m) = dec.next().unwrap() {
                got.push(m);
            }
        }
        assert_eq!(got, vec![a, b]);
    }

    #[test]
    fn garbage_is_rejected_not_buffered() {
        let mut dec = FrameDecoder::new();
        dec.feed(&[99, 1, 0, 0, 0, 0]);
        assert_eq!(dec.next(), Err(DecodeError::BadTag(99)));

        let mut dec = FrameDecoder::new();
        let mut wire = vec![TAG_CACHE_FEEDBACK];
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        dec.feed(&wire);
        assert_eq!(dec.next(), Err(DecodeError::Oversize(u32::MAX)));

        // Truncated payload length vs event count.
        let mut dec = FrameDecoder::new();
        let mut wire = vec![TAG_CACHE_FEEDBACK, 9, 0, 0, 0];
        wire.extend_from_slice(&1u32.to_le_bytes()); // node
        wire.extend_from_slice(&7u32.to_le_bytes()); // claims 7 events
        wire.push(0); // but one byte of payload follows
        dec.feed(&wire);
        assert_eq!(dec.next(), Err(DecodeError::Malformed));
    }

    #[test]
    fn decoder_compacts_consumed_bytes() {
        let msg = ControlMsg::DiskQueue {
            node: NodeId(0),
            depth: 0,
        };
        let wire = encode(&msg);
        let mut dec = FrameDecoder::new();
        for _ in 0..2000 {
            dec.feed(&wire);
            assert!(dec.next().unwrap().is_some());
        }
        assert!(
            dec.buf.len() < 3 * 4096,
            "decoder buffer leaked: {}",
            dec.buf.len()
        );
    }
}
