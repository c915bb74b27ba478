//! The outside-in layer trace: with the cluster warm and idle, replay
//! the seeded request stream *inline*, on the benchmark's own thread,
//! through the public functions of the live objects, one span per call.
//!
//! This is what a request costs in every layer that can be called from
//! outside. What cannot — the reactor's event loop, the kernel's TCP
//! path — is whatever is left of `cpu_us_per_req` once these are
//! subtracted (`io.residual_us_per_req`).
//!
//! The functions named here are the benchmark's contract with the rest
//! of the repo (README, "API the replay names"): a change to one of
//! them needs a `benchmark` issue first.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use phttp_core::{Assignment, CacheEvent, ConnId, NodeId};
use phttp_handoff::{BeHandoff, ClientKey, CtrlMsg, FeHandoff, TcpHandoffState};
use phttp_http::{RequestParser, Response, Version};
use phttp_proto::tier::client_key;
use phttp_proto::{control, Cluster, ControlMsg, FrameDecoder, FrontEnd};
use phttp_simcore::LruCache;
use phttp_trace::TargetId;

use crate::loadgen::{encode_batch, parse_verify_buffered, Plan, ReadBuf};
use crate::pin::Rusage;
use crate::trace::{SpanId, Tracer};
use crate::workload::{Phase, Protocol};

/// Explicit lateral fetches timed (see [`time_codecs`]).
const LATERAL_PROBES: usize = 256;

/// Messages each codec/machine timing covers at least (short derived
/// streams are cycled up to this).
const MIN_MESSAGES: usize = 512;

/// Cache operations the LRU timing plays.
const LRU_OPS: usize = 20_000;

/// Cache events per feedback frame (the cluster's default
/// `feedback_batch`).
const EVENTS_PER_FRAME: usize = 64;

/// Counts the replay took alongside its spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCounts {
    /// Requests replayed.
    pub requests: u64,
    /// Batches replayed.
    pub batches: u64,
    /// Connections opened and closed.
    pub connections: u64,
    /// Requests the dispatcher assigned to a node other than the
    /// connection's.
    pub remote: u64,
    /// Local serves that read the emulated disk.
    pub misses: u64,
    /// CPU time the replaying thread spent inside those misses, µs
    /// (thread rusage around each call: the miss's wall time is the
    /// emulated disk's sleep plus however late the kernel woke the
    /// thread, neither of which is the node's cost).
    pub miss_cpu_us: u64,
    /// Responses that failed the generator's parse-and-verify.
    pub unverified: u64,
}

/// One connection being replayed.
struct ReplayConn<'a> {
    fe: &'a FrontEnd,
    conn: ConnId,
    handler: usize,
    /// Tier ticket to release when the connection closes.
    ticket: Option<(usize, ConnId)>,
}

/// Replays up to `max_batches` batches of generator thread 0's
/// closed-phase stream, stopping early once `budget` is spent.
pub fn replay_requests(
    cluster: &Cluster,
    plan: &Plan,
    tracer: &mut Tracer,
    max_batches: usize,
    budget: Duration,
) -> ReplayCounts {
    let started = Instant::now();
    let mut counts = ReplayCounts::default();
    let mut stream = plan.stream(0, Phase::Closed);
    let version = match plan.spec.protocol {
        Protocol::PHttp { .. } => Version::Http11,
        Protocol::Http10 => Version::Http10,
    };
    let pipeline = plan.spec.protocol.pipeline();
    let per_conn = plan.spec.protocol.batches_per_conn();
    let mut wire = Vec::new();
    let mut rbuf = ReadBuf::new(plan.largest_body);
    let mut seen = 0u64;
    let mut parser = RequestParser::new();
    let mut open: Option<ReplayConn> = None;
    let mut batches_on_conn = 0;

    while (counts.batches as usize) < max_batches && started.elapsed() < budget {
        let rid = counts.requests;
        let targets: Vec<TargetId> = (0..pipeline).map(|_| stream.next_target()).collect();
        let batch = tracer.open("replay.batch", None, rid);
        let parent = Some(batch);

        tracer.leaf("loadgen.encode", parent, rid, || {
            encode_batch(plan, &targets, &mut wire)
        });
        if open.is_none() {
            parser = RequestParser::new();
        }
        tracer.leaf("http.parse", parent, rid, || parser.feed(&wire));
        let mut looked_up = Vec::with_capacity(pipeline);
        for i in 0..pipeline as u64 {
            let req = tracer
                .leaf("http.parse", parent, rid + i, || parser.next())
                .expect("the benchmark's own request parses")
                .expect("one request per encoded GET");
            let target = tracer
                .leaf("store.lookup", parent, rid + i, || {
                    plan.store.lookup(&req.uri)
                })
                .expect("the stream only names corpus targets");
            looked_up.push(target);
        }

        // First request of a connection: admission (tier only), then
        // the content-based handoff decision. It is always served by
        // the chosen node.
        let mut assignments = Vec::with_capacity(pipeline);
        let rest = if open.is_none() {
            open = Some(open_conn(
                cluster,
                tracer,
                parent,
                rid,
                looked_up[0],
                &mut counts,
            ));
            batches_on_conn = 0;
            assignments.push(Assignment::Local);
            &looked_up[1..]
        } else {
            &looked_up[..]
        };
        let c = open.as_ref().expect("opened above");
        if !rest.is_empty() {
            assignments.extend(tracer.leaf("core.assign_batch", parent, rid, || {
                c.fe.assign_batch(c.conn, rest)
            }));
        }

        let nodes = c.fe.nodes();
        for (i, (&target, assignment)) in looked_up.iter().zip(&assignments).enumerate() {
            let rid = rid + i as u64;
            let handler = &nodes[c.handler];
            let mut respond = |tracer: &mut Tracer, body: &[u8]| {
                let head = tracer.leaf("http.encode_head", parent, rid, || {
                    Response::ok_head(version, body.len())
                });
                rbuf.push(&head);
                rbuf.push(body);
                tracer.leaf("loadgen.parse_verify", parent, rid, || {
                    parse_verify_buffered(plan, &mut rbuf, &mut seen, target)
                })
            };
            let lateral = match *assignment {
                Assignment::Local => None,
                Assignment::Remote(k) => {
                    counts.remote += 1;
                    tracer
                        .leaf("node.lateral", parent, rid, || {
                            handler.lateral_fetch(k, target)
                        })
                        .ok()
                }
            };
            let ok = match lateral {
                Some(body) => respond(tracer, &body),
                // Local, or the cluster's own failover from a failed
                // lateral fetch.
                None => {
                    let body = serve_local(tracer, parent, rid, handler, target, &mut counts);
                    respond(tracer, &body)
                }
            };
            counts.unverified += u64::from(!ok);
        }

        counts.requests += pipeline as u64;
        counts.batches += 1;
        batches_on_conn += 1;
        if batches_on_conn >= per_conn {
            let c = open.take().expect("a connection is open");
            close_conn(cluster, tracer, parent, rid, c);
        }
        tracer.close(batch);
    }
    if let Some(c) = open.take() {
        let rid = counts.requests;
        close_conn(cluster, tracer, None, rid, c);
    }
    counts
}

/// `Vip::admit` (tier clusters) then `FrontEnd::open_connection`.
fn open_conn<'a>(
    cluster: &'a Cluster,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    rid: u64,
    first: TargetId,
    counts: &mut ReplayCounts,
) -> ReplayConn<'a> {
    let mut fe_idx = 0;
    let mut ticket = None;
    if let Some(vip) = cluster.vip() {
        // A distinct client 4-tuple per connection, as real clients have.
        let port = 1024 + (counts.connections % 60_000) as u16;
        let key = client_key(SocketAddr::from(([127, 0, 0, 1], port)));
        match tracer.leaf("tier.admit", parent, rid, || vip.admit(key)) {
            Some((f, conn)) => {
                fe_idx = f;
                ticket = Some((f, conn));
            }
            None => fe_idx = vip.any_alive(),
        }
    }
    let fe: &FrontEnd = &cluster.front_ends()[fe_idx];
    let (conn, node) = tracer.leaf("core.open_connection", parent, rid, || {
        let conn = fe.alloc_conn();
        (conn, fe.open_connection(conn, first))
    });
    counts.connections += 1;
    ReplayConn {
        fe,
        conn,
        handler: node.0,
        ticket,
    }
}

/// `FrontEnd::close_connection`, then `Vip::release` (tier clusters).
fn close_conn(
    cluster: &Cluster,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    rid: u64,
    c: ReplayConn,
) {
    tracer.leaf("core.close_connection", parent, rid, || {
        c.fe.close_connection(c.conn)
    });
    if let (Some(vip), Some((f, conn))) = (cluster.vip(), c.ticket) {
        tracer.leaf("tier.release", parent, rid, || vip.release(f, conn));
    }
}

/// `NodeState::serve_local`, named for how it went.
fn serve_local(
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    rid: u64,
    node: &phttp_proto::NodeState,
    target: TargetId,
    counts: &mut ReplayCounts,
) -> impl std::ops::Deref<Target = [u8]> {
    let hits_before = node.stats.snapshot().hits;
    let cpu_before = Rusage::thread_now().cpu_us();
    let body = tracer.leaf("node.serve_hit", parent, rid, || node.serve_local(target));
    if node.stats.snapshot().hits == hits_before {
        tracer.rename_last("node.serve_miss");
        counts.misses += 1;
        counts.miss_cpu_us += Rusage::thread_now().cpu_us() - cpu_before;
    }
    body
}

/// Times the layers the replayed requests do not reach, over streams
/// derived from the workload: `NodeState::lateral_fetch` of targets the
/// peer has cached (extended LARD forwards only when the connection's
/// own disk is busy, which an idle cluster's never is, so the replay's
/// assignments are all local); `simcore`'s LRU over the workload's key
/// stream; the control codec and `FrontEnd::apply_control` over the
/// feedback frames that LRU's admissions and evictions make (one frame
/// per 64 events); and the handoff codec and machines over one
/// handshake per connection.
///
/// Call it last: `apply_control` feeds a synthetic node's cache events
/// to the live dispatcher, whose beliefs are worthless afterwards.
pub fn time_codecs(cluster: &Cluster, plan: &Plan, tracer: &mut Tracer) {
    // node: lateral fetches, each from a peer that holds the target.
    let nodes = cluster.frontend().nodes();
    let mut stream = plan.stream(0, Phase::Closed);
    let mut probes = 0;
    for _ in 0..LATERAL_PROBES * 8 {
        if probes == LATERAL_PROBES {
            break;
        }
        let target = stream.next_target();
        let Some(peer) = (0..nodes.len()).find(|&n| nodes[n].cached_body(target).is_some()) else {
            continue;
        };
        let handler = &nodes[(peer + 1) % nodes.len()];
        let fetched = tracer.leaf("node.lateral_probe", None, probes as u64, || {
            handler.lateral_fetch(NodeId(peer), target)
        });
        probes += usize::from(fetched.is_ok());
    }

    // simcore: an LruCache sized as one node's cache.
    let sizes: Vec<u64> = (0..plan.store.len() as u32)
        .map(|t| plan.store.size(TargetId(t)))
        .collect();
    let mut cache: LruCache<u32> = LruCache::new(plan.spec.cache_bytes);
    cache.set_journal(true);
    let mut stream = plan.stream(0, Phase::Closed);
    let mut events = Vec::new();
    for op in 0..LRU_OPS as u64 {
        let t = stream.next_target();
        let admitted = tracer.leaf("simcore.lru", None, op, || {
            !cache.touch(t.0) && cache.insert(t.0, sizes[t.0 as usize])
        });
        events.extend(
            cache
                .drain_evictions()
                .into_iter()
                .map(|e| CacheEvent::Evict(TargetId(e))),
        );
        if admitted {
            events.push(CacheEvent::Admit(t));
        }
    }

    // control: encode + decode each frame, then apply it.
    let frames: Vec<ControlMsg> = events
        .chunks(EVENTS_PER_FRAME)
        .map(|c| ControlMsg::CacheFeedback {
            node: NodeId(0),
            events: c.to_vec(),
        })
        .collect();
    let fe = cluster.frontend();
    let mut decoder = FrameDecoder::new();
    for (i, frame) in frames
        .iter()
        .cycle()
        .take(MIN_MESSAGES.max(frames.len()))
        .enumerate()
    {
        let decoded = tracer
            .leaf("control.codec", None, i as u64, || {
                decoder.feed(&control::encode(frame));
                decoder.next()
            })
            .expect("the benchmark's own frame decodes")
            .expect("one frame per encode");
        tracer.leaf("control.apply", None, i as u64, || {
            fe.apply_control(decoded)
        });
    }

    // handoff: one handshake per connection — request, ack, close.
    let mut fe_machine = FeHandoff::new();
    let mut be_machine = BeHandoff::new(NodeId(0), 0);
    let mut wire_decoder = phttp_handoff::FrameDecoder::new();
    let first_request = plan.requests[0].clone();
    for i in 0..MIN_MESSAGES as u64 {
        let conn = ConnId(i);
        let client = ClientKey {
            ip: 0x7f00_0001,
            port: 1024 + (i % 60_000) as u16,
        };
        let tcp = TcpHandoffState {
            client_ip: client.ip,
            client_port: client.port,
            local_port: 80,
            snd_nxt: 1,
            rcv_nxt: 1,
            snd_wnd: 65_535,
            mss: 1460,
        };
        let request = |first_request: Vec<u8>| CtrlMsg::HandoffRequest {
            conn,
            tcp,
            first_request,
        };
        let shake = tracer.open("handoff.handshake", None, i);
        let actions = fe_machine.start_handoff(conn, client, NodeId(0), tcp, first_request.clone());
        let Some(phttp_handoff::Action::SendCtrl { msg, .. }) = actions.into_iter().next() else {
            unreachable!("start_handoff emits the handoff request");
        };
        let ack = be_machine.on_ctrl(msg).expect("a handoff request is acked");
        fe_machine
            .on_ctrl(NodeId(0), ack)
            .expect("the ack fits the phase");
        tracer.close(shake);
        // Unwind, so neither machine's tables grow (untimed).
        let closed = be_machine
            .release(conn, true)
            .unwrap_or(CtrlMsg::ConnClosed { conn });
        let _ = fe_machine.on_ctrl(NodeId(0), closed.clone());
        let ack = CtrlMsg::HandoffAck {
            conn,
            accepted: true,
        };
        for msg in [request(first_request.clone()), ack, closed] {
            tracer
                .leaf("handoff.codec", None, i, || {
                    let mut wire = Vec::new();
                    phttp_handoff::wire::encode(&msg, &mut wire);
                    wire_decoder.feed(&wire);
                    wire_decoder.next()
                })
                .expect("the benchmark's own message decodes");
        }
    }
}
