//! Property tests for the control-plane framing: a [`FrameDecoder`]
//! must be transparent to arbitrary re-fragmentation or coalescing of a
//! valid multi-frame stream, and must reject garbage (bad tags,
//! oversize lengths, corrupted payloads) with an error — never a panic
//! and never unbounded buffering.

use phttp_core::{CacheEvent, ConnId, FeId, NodeId, StateDelta};
use phttp_proto::control::{encode, ControlMsg, DecodeError, FrameDecoder, MAX_FRAME};
use phttp_trace::TargetId;
use proptest::prelude::*;

/// A journal fragment: tag bit picks admit/evict, the rest the target.
fn arb_events() -> impl Strategy<Value = Vec<CacheEvent>> {
    proptest::collection::vec(
        (any::<bool>(), 0u32..200).prop_map(|(admit, t)| {
            if admit {
                CacheEvent::Admit(TargetId(t))
            } else {
                CacheEvent::Evict(TargetId(t))
            }
        }),
        0..24,
    )
}

/// Any valid control message, covering every frame tag.
fn arb_msg() -> impl Strategy<Value = ControlMsg> {
    prop_oneof![
        (0usize..8, 0u32..1000).prop_map(|(n, d)| ControlMsg::DiskQueue {
            node: NodeId(n),
            depth: d,
        }),
        (0usize..8, arb_events()).prop_map(|(n, events)| ControlMsg::CacheFeedback {
            node: NodeId(n),
            events,
        }),
        (0usize..8, 1u32..16, arb_events()).prop_map(|(n, weight, events)| ControlMsg::Join {
            node: NodeId(n),
            weight,
            events,
        }),
        (0u64..500).prop_map(|c| ControlMsg::Handoff(phttp_handoff::CtrlMsg::ConnClosed {
            conn: ConnId(c),
        })),
        // Node indices must stay below loads.len() — the delta decoder
        // rejects out-of-range nodes — so loads is fixed at 4 entries.
        (
            0usize..4,
            1u64..50,
            proptest::collection::vec(-5i64..50, 4..5),
            proptest::collection::vec((0u32..50, proptest::collection::vec(0usize..4, 0..3)), 0..5),
        )
            .prop_map(|(origin, seq, loads, mapping)| {
                ControlMsg::StateDelta(StateDelta {
                    origin: FeId(origin),
                    seq,
                    full: seq % 2 == 0,
                    loads,
                    mapping: mapping
                        .into_iter()
                        .map(|(t, ns)| (TargetId(t), ns.into_iter().map(NodeId).collect()))
                        .collect(),
                })
            }),
    ]
}

/// Drains every currently complete frame, asserting no error.
fn drain(dec: &mut FrameDecoder, out: &mut Vec<ControlMsg>) {
    while let Some(m) = dec.next().expect("valid stream must decode") {
        out.push(m);
    }
}

proptest! {
    /// Chopping a valid multi-frame stream into arbitrary chunks — from
    /// byte-at-a-time up to coalescing many frames per read — yields
    /// exactly the original message sequence, with nothing left over.
    #[test]
    fn refragmentation_is_transparent(
        msgs in proptest::collection::vec(arb_msg(), 1..10),
        cuts in proptest::collection::vec(1usize..96, 0..48),
    ) {
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&encode(m));
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        let mut at = 0;
        let mut ci = 0;
        while at < wire.len() {
            // Cycle the proptest-chosen chunk sizes; an empty list
            // degenerates to a fixed odd stride (still exercises
            // header/payload splits).
            let n = if cuts.is_empty() { 7 } else { cuts[ci % cuts.len()] };
            ci += 1;
            let end = (at + n).min(wire.len());
            dec.feed(&wire[at..end]);
            at = end;
            drain(&mut dec, &mut got);
        }
        prop_assert_eq!(got, msgs);
        prop_assert_eq!(dec.buffered(), 0);
    }

    /// Feeding the whole stream at once (maximal coalescing) and
    /// feeding it frame-by-frame agree.
    #[test]
    fn coalescing_equals_frame_at_a_time(msgs in proptest::collection::vec(arb_msg(), 1..10)) {
        let mut coalesced = FrameDecoder::new();
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&encode(m));
        }
        coalesced.feed(&wire);
        let mut a = Vec::new();
        drain(&mut coalesced, &mut a);

        let mut framed = FrameDecoder::new();
        let mut b = Vec::new();
        for m in &msgs {
            framed.feed(&encode(m));
            drain(&mut framed, &mut b);
        }
        prop_assert_eq!(&a, &msgs);
        prop_assert_eq!(&b, &msgs);
    }

    /// Arbitrary garbage bytes, delivered in arbitrary chunks, never
    /// panic the decoder: every outcome is a decoded message, a request
    /// for more bytes, or a poisoning error.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        chunk in 1usize..48,
    ) {
        let mut dec = FrameDecoder::new();
        for c in bytes.chunks(chunk) {
            dec.feed(c);
            loop {
                match dec.next() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    // Poisoned: a real session would drop the stream here.
                    Err(_) => return Ok(()),
                }
            }
        }
    }

    /// Flipping one byte of a valid stream never panics, and the frames
    /// before the corruption still decode intact.
    #[test]
    fn single_byte_corruption_never_panics(
        msgs in proptest::collection::vec(arb_msg(), 1..6),
        pick in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut wire = Vec::new();
        let mut boundaries = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&encode(m));
            boundaries.push(wire.len());
        }
        let at = (pick % wire.len() as u64) as usize;
        wire[at] ^= flip;
        let intact = boundaries.iter().filter(|&&b| b <= at).count();

        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let mut got = 0usize;
        loop {
            match dec.next() {
                Ok(Some(_)) => got += 1,
                Ok(None) => break,
                Err(_) => break,
            }
        }
        prop_assert!(
            got >= intact,
            "corruption at byte {} lost {} already-complete frames",
            at,
            intact - got
        );
    }

    /// A declared length above [`MAX_FRAME`] is rejected from the header
    /// alone — before any payload is buffered.
    #[test]
    fn oversize_is_rejected_from_the_header(
        tag in 0u8..=255,
        len in (MAX_FRAME as u32 + 1)..=u32::MAX,
    ) {
        let mut dec = FrameDecoder::new();
        let mut wire = vec![tag];
        wire.extend_from_slice(&len.to_le_bytes());
        dec.feed(&wire);
        prop_assert_eq!(dec.next(), Err(DecodeError::Oversize(len)));
        prop_assert!(dec.buffered() <= wire.len());
    }
}
