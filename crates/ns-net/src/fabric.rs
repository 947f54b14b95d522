//! The real message fabric connecting worker threads.
//!
//! Workers exchange actual tensor payloads over a full mesh of
//! `std::sync::mpsc` channels — one channel per ordered `(src, dst)` pair so
//! per-pair FIFO order holds and `recv_from(src)` never interleaves senders. The
//! simulator decides how long these messages *would* take on a modeled
//! network; the fabric makes the training numerically real.
//!
//! Failure semantics: fabric operations never panic in production paths.
//! A peer whose endpoint has been dropped (crashed worker) surfaces as
//! [`NetError::PeerDisconnected`] on both the send and the receive side; a
//! wedged or slow peer surfaces as [`NetError::RecvTimeout`] from
//! [`Endpoint::recv_from_timeout`]; a protocol desync surfaces as
//! [`NetError::UnexpectedKind`] (raised by callers that demand a specific
//! message kind). Deterministic faults from a
//! [`FaultPlan`] are applied on the send side:
//! drops become retransmission delays (`deliver_at` in the future),
//! duplicates become a second physical delivery that receivers suppress by
//! sequence number, flapped links hold messages until their next
//! up-window, and an active partition black-holes the send entirely — the
//! call still succeeds, so only the receiver's deadline
//! can surface the outage, exactly like a real network partition.
//!
//! Integrity: every message carries the CRC32 of its compact wire
//! serialization (see [`wire`]), stamped at send time.
//! Receivers verify the checksum *before* admitting a message. A mismatch
//! (injected by a `corrupt` fault) is counted and dropped like a duplicate,
//! without advancing the duplicate-suppression watermark, so the clean
//! retransmission shipped under the same sequence number is admitted inside
//! the same receive. Frame-header overhead is not metered in `sent_bytes` —
//! that counter stays the payload ground truth.
//! An event loop reading many links polls them without waiting, then
//! sleeps in [`Endpoint::wait_until`] until anything lands.

use std::cell::{Cell, RefCell};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::fault::FaultPlan;
use crate::wire;

/// Failures surfaced by fabric operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The peer's endpoint was dropped — its worker crashed or exited.
    PeerDisconnected {
        /// The dead peer.
        peer: usize,
    },
    /// No message arrived from the peer within the receive window.
    RecvTimeout {
        /// The silent peer.
        peer: usize,
        /// Total time waited, milliseconds.
        waited_ms: u64,
    },
    /// A message of the wrong kind arrived (protocol desync).
    UnexpectedKind {
        /// The offending peer.
        peer: usize,
        /// Kind the protocol demanded.
        expected: &'static str,
        /// Kind that actually arrived.
        got: &'static str,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::PeerDisconnected { peer } => {
                write!(f, "peer {peer} disconnected")
            }
            NetError::RecvTimeout { peer, waited_ms } => {
                write!(f, "no message from peer {peer} after {waited_ms} ms")
            }
            NetError::UnexpectedKind { peer, expected, got } => {
                write!(f, "peer {peer} sent {got}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Fixed header bytes of a compact `Rows` / `Grads` serialization:
/// kind tag (1) + layer (4) + cols (4) + row count (4).
pub const ROWS_HEADER_BYTES: u64 = 13;
/// Fixed header bytes of an `AllReduce` chunk: kind tag (1) + round (4) +
/// chunk length (4).
pub const ALLREDUCE_HEADER_BYTES: u64 = 9;
/// Fixed bytes of a `Control` message: kind tag (1) + value (8).
pub const CONTROL_BYTES: u64 = 9;
/// Fixed header bytes of a `Query` serialization: kind tag (1) + query
/// count (4) + vertex count (4).
pub const QUERY_HEADER_BYTES: u64 = 9;
/// Fixed header bytes of a `Reply` serialization: kind tag (1) + query
/// count (4).
pub const REPLY_HEADER_BYTES: u64 = 5;

/// What a message carries.
#[derive(Debug, Clone)]
pub enum MessageKind {
    /// Vertex-representation rows: forward-phase master→mirror sync
    /// (`GetFromDepNbr` in DepComm mode).
    Rows {
        /// GNN layer index the rows belong to.
        layer: u32,
        /// Global vertex ids, one per row.
        ids: Vec<u32>,
        /// Row width.
        cols: u32,
        /// Row-major payload, `ids.len() * cols` long.
        data: Vec<f32>,
    },
    /// Gradient rows: backward-phase mirror→master sync (`PostToDepNbr`).
    Grads {
        /// GNN layer index the gradients belong to.
        layer: u32,
        /// Global vertex ids, one per row.
        ids: Vec<u32>,
        /// Row width.
        cols: u32,
        /// Row-major payload.
        data: Vec<f32>,
    },
    /// A slice of flattened parameter gradients for ring all-reduce.
    AllReduce {
        /// Reduction round (for debugging / assertions).
        round: u32,
        /// Payload chunk.
        data: Vec<f32>,
    },
    /// Scalar control value (loss terms, counters, handshakes).
    Control(f64),
    /// Inference-path request. Frontend → shard: `qids[i]` is the query
    /// id whose seed vertex is `verts[i]` (parallel arrays). Shard →
    /// shard: `qids` is empty and `verts` lists the feature rows the
    /// sender wants (answered with a layer-0 [`MessageKind::Rows`]).
    Query {
        /// Query ids, parallel to `verts` (empty for feature fetches).
        qids: Vec<u32>,
        /// Seed vertices (frontend→shard) or wanted rows (shard→shard).
        verts: Vec<u32>,
    },
    /// Inference-path answer, shard → frontend: the predicted class for
    /// each answered query id.
    Reply {
        /// Query ids answered, parallel to `classes`.
        qids: Vec<u32>,
        /// Argmax class per query.
        classes: Vec<u32>,
    },
}

impl MessageKind {
    /// Wire size in bytes of a compact serialization: the fixed
    /// per-message header (kind tag plus the layer/cols/round metadata
    /// fields) plus per-row ids and the `f32` payload. Used to meter the
    /// simulator.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            MessageKind::Rows { ids, data, .. } | MessageKind::Grads { ids, data, .. } => {
                ROWS_HEADER_BYTES
                    + (ids.len() * std::mem::size_of::<u32>()
                        + data.len() * std::mem::size_of::<f32>()) as u64
            }
            MessageKind::AllReduce { data, .. } => {
                ALLREDUCE_HEADER_BYTES + (data.len() * std::mem::size_of::<f32>()) as u64
            }
            MessageKind::Control(_) => CONTROL_BYTES,
            MessageKind::Query { qids, verts } => {
                QUERY_HEADER_BYTES
                    + ((qids.len() + verts.len()) * std::mem::size_of::<u32>()) as u64
            }
            MessageKind::Reply { qids, classes } => {
                REPLY_HEADER_BYTES
                    + ((qids.len() + classes.len()) * std::mem::size_of::<u32>()) as u64
            }
        }
    }

    /// Variant name, for [`NetError::UnexpectedKind`] diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            MessageKind::Rows { .. } => "Rows",
            MessageKind::Grads { .. } => "Grads",
            MessageKind::AllReduce { .. } => "AllReduce",
            MessageKind::Control(_) => "Control",
            MessageKind::Query { .. } => "Query",
            MessageKind::Reply { .. } => "Reply",
        }
    }

    /// Stable index of this kind into the per-kind [`NetStats`] arrays;
    /// parallel to [`KIND_NAMES`].
    pub fn kind_index(&self) -> usize {
        match self {
            MessageKind::Rows { .. } => 0,
            MessageKind::Grads { .. } => 1,
            MessageKind::AllReduce { .. } => 2,
            MessageKind::Control(_) => 3,
            MessageKind::Query { .. } => 4,
            MessageKind::Reply { .. } => 5,
        }
    }
}

/// Snake-case kind names, parallel to [`MessageKind::kind_index`]. Used to
/// name per-kind metric counters.
pub const KIND_NAMES: [&str; 6] = ["rows", "grads", "allreduce", "control", "query", "reply"];

/// Always-on traffic counters metered by one [`Endpoint`].
///
/// Send-side counters meter *logical* sends: one message counted once, at its
/// [`MessageKind::payload_bytes`] wire size, regardless of fault-injected
/// physical duplicates (those are tallied separately in `dups_injected`).
/// This makes `sent_bytes` the ground truth the metrics layer exposes as
/// `net.sent.bytes` — exactly the bytes the training protocol put on the wire.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Logical messages sent, all kinds and peers.
    pub sent_msgs: u64,
    /// Logical bytes sent ([`MessageKind::payload_bytes`] sum).
    pub sent_bytes: u64,
    /// Messages sent, indexed by [`MessageKind::kind_index`].
    pub sent_msgs_by_kind: [u64; 6],
    /// Bytes sent, indexed by [`MessageKind::kind_index`].
    pub sent_bytes_by_kind: [u64; 6],
    /// Messages sent to each destination worker (self-sends included).
    pub sent_msgs_by_peer: Vec<u64>,
    /// Bytes sent to each destination worker.
    pub sent_bytes_by_peer: Vec<u64>,
    /// Sends the fault plan delayed (the fabric's model of drop+retransmit).
    pub delays_injected: u64,
    /// Sends black-holed by an active link partition: the send succeeded
    /// from the caller's point of view but nothing was ever delivered.
    pub severed_msgs: u64,
    /// Sends the fault plan physically duplicated.
    pub dups_injected: u64,
    /// Received duplicates this endpoint suppressed by sequence number.
    pub dups_suppressed: u64,
    /// Sends the fault plan bit-flipped in flight (a clean retransmission
    /// follows each one).
    pub corrupts_injected: u64,
    /// Received frames this endpoint rejected on CRC mismatch.
    pub crc_failures: u64,
    /// Clean retransmissions admitted after a CRC rejection of the same
    /// sequence number.
    pub rereads: u64,
    /// Messages the send path CRC-stamped (one per non-severed send).
    pub encode_frames: u64,
    /// Size of the NSF1 frames those messages stand for: header + the
    /// payload bytes the stamp checksums.
    pub encode_bytes: u64,
}

impl NetStats {
    fn for_world(workers: usize) -> Self {
        NetStats {
            sent_msgs_by_peer: vec![0; workers],
            sent_bytes_by_peer: vec![0; workers],
            ..NetStats::default()
        }
    }
}

/// An addressed message.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sending worker.
    pub src: usize,
    /// Per-`(src, dst)` sequence number, starting at 1. Receivers drop
    /// messages whose sequence number they have already seen (duplicate
    /// suppression).
    pub seq: u64,
    /// When the sender handed the message to the fabric.
    pub sent_at: Instant,
    /// Earliest delivery time injected by the fault plan; `None` delivers
    /// immediately.
    pub deliver_at: Option<Instant>,
    /// Frame checksum: CRC32 of the compact payload serialization (see
    /// [`wire::payload_crc`]), stamped by the sender and verified by the
    /// receiver before the message is admitted.
    pub crc: u32,
    /// Payload.
    pub kind: MessageKind,
}

impl Message {
    /// How much of a receive that began at `since` the *link* is
    /// answerable for: the time this message spent in flight (handed to
    /// the fabric, not yet deliverable) while the receiver was already
    /// blocked. Time the receiver spent blocked before the send is the
    /// sender's lateness — its compute, or a stall behind someone else —
    /// and time after delivery is the receiver's own (wake-up, CRC
    /// verification); neither says anything about the link.
    pub fn link_wait(&self, since: Instant) -> Duration {
        let arrived = self.deliver_at.unwrap_or(self.sent_at);
        arrived.saturating_duration_since(self.sent_at.max(since))
    }
}

/// A sticky wake flag one endpoint sleeps on in [`Endpoint::wait_until`],
/// rung by every send to it, by a dropped peer and by any clone's holder.
#[derive(Clone, Default)]
pub struct Doorbell(Arc<(Mutex<bool>, Condvar)>);

impl Doorbell {
    /// Rings the bell, waking the sleeper after the unlock so it need not block on it.
    pub fn ring(&self) {
        *self.0 .0.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.0 .1.notify_one();
    }
}

/// One endpoint's bookkeeping for one peer.
#[derive(Default)]
struct Peer {
    /// Sequence number of the last message sent to the peer.
    next_seq: u64,
    /// Highest sequence number admitted from the peer (dedup watermark).
    last_seen: u64,
    /// Last CRC-rejected sequence number (0 = none): its clean copy is a re-read.
    last_corrupt: u64,
    /// A received message not yet due, kept for the next receive.
    pending: Option<Message>,
}

/// One worker's handle onto the mesh.
///
/// The endpoint carries its per-peer bookkeeping (sequence counters,
/// duplicate watermarks, one not-yet-due message) in a `RefCell`: an
/// endpoint is owned by exactly one worker thread and is not `Sync`.
pub struct Endpoint {
    me: usize,
    txs: Vec<Sender<Message>>,
    rxs: Vec<Receiver<Message>>,
    /// Every endpoint's doorbell, by id.
    bells: Vec<Doorbell>,
    /// When the last [`Endpoint::wait_until`] returned.
    woke: Cell<Instant>,
    faults: Arc<FaultPlan>,
    // Link-layer clock origin shared by every endpoint of the fabric, so
    // time-dependent link faults (flaps) evaluate consistently mesh-wide.
    origin: Instant,
    epoch: Cell<usize>,
    peers: RefCell<Vec<Peer>>,
    stats: RefCell<NetStats>,
}

impl Endpoint {
    /// This worker's id.
    pub fn id(&self) -> usize {
        self.me
    }

    /// Number of workers in the mesh.
    pub fn world(&self) -> usize {
        self.txs.len()
    }

    /// The fault plan the fabric was built with.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Sets the epoch stamped onto outgoing messages, so `(epoch, src,
    /// dst)`-scoped faults hit the right sends.
    pub fn set_epoch(&self, epoch: usize) {
        self.epoch.set(epoch);
    }

    /// The epoch currently stamped onto outgoing messages.
    pub fn epoch(&self) -> usize {
        self.epoch.get()
    }

    /// Milliseconds on the fabric-wide link-layer clock (time since the
    /// mesh came up). Every endpoint of one fabric reads the same clock;
    /// it decides where inside a flap period a send lands, and callers
    /// use it with [`FaultPlan::link_severed`] for breaker heal checks.
    pub fn link_now_ms(&self) -> u64 {
        self.origin.elapsed().as_millis() as u64
    }

    /// Sends `kind` to `dst` (self-sends are allowed and loop back).
    /// Returns the metered payload size, or `PeerDisconnected` when `dst`'s
    /// endpoint has been dropped. A send over a partitioned link still
    /// returns `Ok` — it is silently black-holed (metered in
    /// [`NetStats::severed_msgs`]), because a real sender cannot tell a
    /// severed link from a slow one at the moment of the send.
    pub fn send(&self, dst: usize, kind: MessageKind) -> Result<u64, NetError> {
        let bytes = kind.payload_bytes();
        let kidx = kind.kind_index();
        let seq = {
            let peer = &mut self.peers.borrow_mut()[dst];
            peer.next_seq += 1;
            peer.next_seq
        };
        let fate = self.faults.send_fate(
            self.epoch.get(),
            self.me,
            dst,
            &kind,
            seq,
            self.link_now_ms(),
        );
        let sent_at = Instant::now();
        let deliver_at =
            (fate.delay_ms > 0).then(|| sent_at + Duration::from_millis(fate.delay_ms));
        {
            let mut st = self.stats.borrow_mut();
            st.sent_msgs += 1;
            st.sent_bytes += bytes;
            st.sent_msgs_by_kind[kidx] += 1;
            st.sent_bytes_by_kind[kidx] += bytes;
            st.sent_msgs_by_peer[dst] += 1;
            st.sent_bytes_by_peer[dst] += bytes;
            if fate.severed {
                st.severed_msgs += 1;
            } else {
                st.encode_frames += 1;
                st.encode_bytes += wire::FRAME_HEADER_BYTES + bytes;
                if deliver_at.is_some() {
                    st.delays_injected += 1;
                }
                if fate.duplicate {
                    st.dups_injected += 1;
                }
                if fate.corrupt {
                    st.corrupts_injected += 1;
                }
            }
        }
        if fate.severed {
            // Black hole: the sequence number is consumed (the transport
            // believes it transmitted), nothing reaches the receiver, and
            // the caller sees success. Receive timeouts are the only
            // symptom — the honest partition failure mode.
            return Ok(bytes);
        }
        // The in-process fabric ships the struct, not a frame: the CRC is
        // folded over the message's own tensors (the canonical payload
        // bytes, never materialized) and travels in `Message::crc`.
        let crc = wire::payload_crc(&kind);
        let mut msg = Message { src: self.me, seq, sent_at, deliver_at, crc, kind };
        if fate.corrupt {
            // Ship a bit-flipped physical copy now (stamped with the clean
            // CRC, so the receiver's verification fails) and push the clean
            // copy out behind the modeled retransmission delay — the
            // fabric's view of "corruption detected, re-requested".
            let bit_seed = seq
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(((self.me as u64) << 32) | dst as u64);
            let corrupted = Message {
                kind: wire::flip_payload_bit(&msg.kind, bit_seed),
                ..msg.clone()
            };
            // Best-effort like duplicates: the receiver may already have
            // exited; the corrupt copy would have been rejected anyway.
            let _ = self.txs[dst].send(corrupted);
            msg.deliver_at = Some(
                Instant::now()
                    + Duration::from_millis(fate.delay_ms + self.faults.retransmit_ms),
            );
        }
        let dup = fate.duplicate.then(|| msg.clone());
        self.txs[dst]
            .send(msg)
            .map_err(|_| NetError::PeerDisconnected { peer: dst })?;
        if let Some(copy) = dup {
            // Best-effort: the duplicate is an injected artifact riding on
            // a send that already succeeded. The receiver may legitimately
            // exit right after consuming the original (e.g. it was the last
            // message of its run), so a dead channel here is not a send
            // failure — the copy would have been suppressed anyway.
            let _ = self.txs[dst].send(copy);
        }
        self.bells[dst].ring();
        Ok(bytes)
    }

    /// This endpoint's doorbell, for a source outside the fabric to ring.
    pub fn doorbell(&self) -> Doorbell {
        self.bells[self.me].clone()
    }

    /// Sleeps until the doorbell rings (a ring since the last wait counts,
    /// so polling every link first misses nothing), `deadline` passes, or
    /// a held not-yet-due message falls due after the last wait returned
    /// (so one on a link the caller does not read cannot make it spin).
    pub fn wait_until(&self, deadline: Option<Instant>) {
        let woke = self.woke.get();
        let held = |p: &Peer| p.pending.as_ref()?.deliver_at.filter(|&at| at > woke);
        let due = self.peers.borrow().iter().filter_map(held).min();
        let until = deadline.into_iter().chain(due).min();
        let (lock, cv) = &*self.bells[self.me].0;
        let mut rung = lock.lock().unwrap_or_else(PoisonError::into_inner);
        while !*rung {
            let left = until.map_or(Duration::MAX, |t| {
                t.saturating_duration_since(Instant::now())
            });
            if left.is_zero() {
                break;
            }
            rung = cv
                .wait_timeout(rung, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        *rung = false;
        self.woke.set(Instant::now());
    }

    /// Snapshot of this endpoint's traffic counters.
    pub fn stats(&self) -> NetStats {
        self.stats.borrow().clone()
    }

    /// Surfaces `msg` unless it is a duplicate or fails CRC verification;
    /// either is counted and dropped. A rejected frame leaves the dedup
    /// watermark where it was, so its clean retransmission (same sequence
    /// number) is still admitted, and metered as a re-read.
    fn admit(&self, src: usize, msg: Message) -> Option<Message> {
        let peer = &mut self.peers.borrow_mut()[src];
        let mut st = self.stats.borrow_mut();
        if msg.seq <= peer.last_seen {
            st.dups_suppressed += 1;
            return None;
        }
        if wire::payload_crc(&msg.kind) != msg.crc {
            st.crc_failures += 1;
            peer.last_corrupt = msg.seq;
            return None;
        }
        if peer.last_corrupt == msg.seq {
            peer.last_corrupt = 0;
            st.rereads += 1;
        }
        peer.last_seen = msg.seq;
        Some(msg)
    }

    /// The one receive loop: the next verified message from `src`, or
    /// `Ok(None)` once `deadline` passes (`None` blocks; a past deadline
    /// polls). Between reads it sleeps on the doorbell. A message not yet
    /// due (an injected delay) is held for this or a later receive, so a
    /// dropped-and-retransmitted message lands inside the caller's
    /// deadline or not at all. Duplicates and corrupt frames are dropped in the loop: a clean
    /// copy arriving before the deadline is admitted by the same call.
    fn recv_until(
        &self,
        src: usize,
        deadline: Option<Instant>,
    ) -> Result<Option<Message>, NetError> {
        loop {
            let pending = self.peers.borrow_mut()[src].pending.take();
            match pending.map_or_else(|| self.rxs[src].try_recv(), Ok) {
                Ok(msg) if msg.deliver_at.is_some_and(|at| at > Instant::now()) => {
                    self.peers.borrow_mut()[src].pending = Some(msg);
                }
                Ok(msg) => match self.admit(src, msg) {
                    Some(m) => return Ok(Some(m)),
                    None => continue,
                },
                Err(TryRecvError::Empty) => {}
                Err(TryRecvError::Disconnected) => {
                    return Err(NetError::PeerDisconnected { peer: src })
                }
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Ok(None);
            }
            self.wait_until(deadline);
        }
    }

    /// Blocks until a verified message from `src` arrives, or the peer
    /// disconnects (without a deadline the loop never returns `Ok(None)`).
    pub fn recv_from(&self, src: usize) -> Result<Message, NetError> {
        let disconnected = NetError::PeerDisconnected { peer: src };
        self.recv_until(src, None)?.ok_or(disconnected)
    }

    /// Like [`recv_from`](Self::recv_from) but gives up with
    /// [`NetError::RecvTimeout`] after `timeout`.
    pub fn recv_from_timeout(&self, src: usize, timeout: Duration) -> Result<Message, NetError> {
        let waited_ms = timeout.as_millis() as u64;
        self.recv_until(src, Some(Instant::now() + timeout))?
            .ok_or(NetError::RecvTimeout { peer: src, waited_ms })
    }

    /// Non-blocking receive from `src`: `None` while no verified message is
    /// due (or the peer is gone).
    pub fn try_recv_from(&self, src: usize) -> Option<Message> {
        self.recv_until(src, Some(Instant::now())).ok().flatten()
    }
}

impl Drop for Endpoint {
    /// Closes this endpoint's links, then rings every peer, so one asleep
    /// in [`Endpoint::wait_until`] wakes to find it disconnected.
    fn drop(&mut self) {
        self.txs.clear();
        self.bells.iter().for_each(Doorbell::ring);
    }
}

/// A full mesh of `m x m` channels.
pub struct Fabric {
    endpoints: Vec<Endpoint>,
}

impl Fabric {
    /// Builds a fault-free mesh for `workers` nodes.
    pub fn new(workers: usize) -> Self {
        Self::with_faults(workers, FaultPlan::default())
    }

    /// Builds the mesh with an injected fault plan shared by every
    /// endpoint.
    pub fn with_faults(workers: usize, faults: FaultPlan) -> Self {
        assert!(workers >= 1, "fabric needs at least one worker");
        let faults = Arc::new(faults);
        // One clock origin for the whole mesh: flap windows must open and
        // close at the same wall moments for every endpoint.
        let origin = Instant::now();
        let bells: Vec<Doorbell> = (0..workers).map(|_| Doorbell::default()).collect();
        // channel[src][dst], built dst-major so each src's tx vector is
        // already in dst order (no placeholder/unwrap shuffling needed).
        let mut txs_by_src: Vec<Vec<Sender<Message>>> =
            (0..workers).map(|_| Vec::with_capacity(workers)).collect();
        let mut rxs_by_dst: Vec<Vec<Receiver<Message>>> = Vec::with_capacity(workers);
        for _dst in 0..workers {
            let mut rxs = Vec::with_capacity(workers);
            for txs in txs_by_src.iter_mut() {
                let (tx, rx) = channel();
                txs.push(tx);
                rxs.push(rx);
            }
            rxs_by_dst.push(rxs);
        }
        let endpoints = txs_by_src
            .into_iter()
            .zip(rxs_by_dst)
            .enumerate()
            .map(|(me, (txs, rxs))| Endpoint {
                me,
                txs,
                rxs,
                bells: bells.clone(),
                woke: Cell::new(origin),
                faults: Arc::clone(&faults),
                origin,
                epoch: Cell::new(0),
                peers: RefCell::new((0..workers).map(|_| Peer::default()).collect()),
                stats: RefCell::new(NetStats::for_world(workers)),
            })
            .collect();
        Self { endpoints }
    }

    /// Consumes the fabric into its per-worker endpoints (index = worker
    /// id), ready to be moved into worker threads.
    pub fn into_endpoints(self) -> Vec<Endpoint> {
        self.endpoints
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{parse_fault, Fault, MsgSel};

    #[test]
    fn point_to_point_delivery() {
        let eps = Fabric::new(2).into_endpoints();
        let bytes = eps[0]
            .send(
                1,
                MessageKind::Rows { layer: 0, ids: vec![7], cols: 2, data: vec![1.0, 2.0] },
            )
            .unwrap();
        assert_eq!(bytes, ROWS_HEADER_BYTES + 4 + 8);
        // One message stamped; metered at the size of the frame it stands for.
        let st = eps[0].stats();
        assert_eq!((st.encode_frames, st.encode_bytes), (1, wire::FRAME_HEADER_BYTES + bytes));
        let msg = eps[1].recv_from(0).unwrap();
        assert_eq!(msg.src, 0);
        assert_eq!(msg.crc, wire::frame_crc(&wire::encode_frame(&msg.kind)));
        match msg.kind {
            MessageKind::Rows { ids, data, .. } => {
                assert_eq!(ids, vec![7]);
                assert_eq!(data, vec![1.0, 2.0]);
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn per_pair_fifo_order() {
        let eps = Fabric::new(2).into_endpoints();
        for i in 0..10 {
            eps[0].send(1, MessageKind::Control(i as f64)).unwrap();
        }
        for i in 0..10 {
            match eps[1].recv_from(0).unwrap().kind {
                MessageKind::Control(v) => assert_eq!(v, i as f64),
                _ => panic!(),
            }
        }
    }

    #[test]
    fn self_send_loops_back() {
        let eps = Fabric::new(1).into_endpoints();
        eps[0].send(0, MessageKind::Control(42.0)).unwrap();
        match eps[0].recv_from(0).unwrap().kind {
            MessageKind::Control(v) => assert_eq!(v, 42.0),
            _ => panic!(),
        }
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let eps = Fabric::new(2).into_endpoints();
        assert!(eps[1].try_recv_from(0).is_none());
        eps[0].send(1, MessageKind::Control(1.0)).unwrap();
        assert!(eps[1].try_recv_from(0).is_some());
    }

    #[test]
    fn cross_thread_exchange() {
        let mut eps = Fabric::new(2).into_endpoints();
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        // `move` closures: the endpoint's seen/pending bookkeeping makes
        // it Send but not Sync, so each thread must own its endpoint.
        std::thread::scope(|s| {
            s.spawn(move || {
                e0.send(1, MessageKind::Control(3.0)).unwrap();
                match e0.recv_from(1).unwrap().kind {
                    MessageKind::Control(v) => assert_eq!(v, 4.0),
                    _ => panic!(),
                }
            });
            s.spawn(move || {
                match e1.recv_from(0).unwrap().kind {
                    MessageKind::Control(v) => assert_eq!(v, 3.0),
                    _ => panic!(),
                }
                e1.send(0, MessageKind::Control(4.0)).unwrap();
            });
        });
    }

    #[test]
    fn payload_bytes_metering() {
        let k = MessageKind::AllReduce { round: 0, data: vec![0.0; 100] };
        assert_eq!(k.payload_bytes(), ALLREDUCE_HEADER_BYTES + 400);
        assert_eq!(MessageKind::Control(0.0).payload_bytes(), CONTROL_BYTES);
        let r = MessageKind::Rows { layer: 0, ids: vec![1, 2], cols: 3, data: vec![0.0; 6] };
        assert_eq!(r.payload_bytes(), ROWS_HEADER_BYTES + 2 * 4 + 6 * 4);
        let q = MessageKind::Query { qids: vec![1, 2], verts: vec![9, 10] };
        assert_eq!(q.payload_bytes(), QUERY_HEADER_BYTES + 4 * 4);
        let rep = MessageKind::Reply { qids: vec![1], classes: vec![3] };
        assert_eq!(rep.payload_bytes(), REPLY_HEADER_BYTES + 2 * 4);
    }

    #[test]
    fn query_reply_roundtrip_over_fabric() {
        let eps = Fabric::new(2).into_endpoints();
        eps[0]
            .send(1, MessageKind::Query { qids: vec![7, 8], verts: vec![100, 200] })
            .unwrap();
        match eps[1].recv_from(0).unwrap().kind {
            MessageKind::Query { qids, verts } => {
                assert_eq!(qids, vec![7, 8]);
                assert_eq!(verts, vec![100, 200]);
            }
            other => panic!("wrong kind {}", other.name()),
        }
        eps[1].send(0, MessageKind::Reply { qids: vec![7, 8], classes: vec![2, 5] }).unwrap();
        match eps[0].recv_from(1).unwrap().kind {
            MessageKind::Reply { qids, classes } => {
                assert_eq!(qids, vec![7, 8]);
                assert_eq!(classes, vec![2, 5]);
            }
            other => panic!("wrong kind {}", other.name()),
        }
        let st = eps[0].stats();
        assert_eq!(st.sent_msgs_by_kind[4], 1);
        assert_eq!(eps[1].stats().sent_msgs_by_kind[5], 1);
    }

    #[test]
    fn dropped_peer_surfaces_on_send_and_recv() {
        let mut eps = Fabric::new(2).into_endpoints();
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        drop(e1);
        assert_eq!(
            e0.send(1, MessageKind::Control(1.0)),
            Err(NetError::PeerDisconnected { peer: 1 })
        );
        // `Message` carries float payloads and no PartialEq; compare the
        // error side only.
        assert_eq!(
            e0.recv_from(1).unwrap_err(),
            NetError::PeerDisconnected { peer: 1 }
        );
        assert_eq!(
            e0.recv_from_timeout(1, Duration::from_millis(50)).unwrap_err(),
            NetError::PeerDisconnected { peer: 1 }
        );
    }

    #[test]
    fn recv_timeout_on_silent_peer() {
        let eps = Fabric::new(2).into_endpoints();
        let t0 = Instant::now();
        let err = eps[1].recv_from_timeout(0, Duration::from_millis(30)).unwrap_err();
        assert!(t0.elapsed() >= Duration::from_millis(30));
        assert_eq!(err, NetError::RecvTimeout { peer: 0, waited_ms: 30 });
    }

    #[test]
    fn stats_meter_logical_sends_by_kind_and_peer() {
        let eps = Fabric::new(3).into_endpoints();
        let b0 = eps[0]
            .send(
                1,
                MessageKind::Rows { layer: 0, ids: vec![1, 2], cols: 4, data: vec![0.0; 8] },
            )
            .unwrap();
        let b1 = eps[0]
            .send(2, MessageKind::AllReduce { round: 1, data: vec![0.0; 5] })
            .unwrap();
        eps[0].send(1, MessageKind::Control(7.0)).unwrap();
        let st = eps[0].stats();
        assert_eq!(st.sent_msgs, 3);
        assert_eq!(st.sent_bytes, b0 + b1 + CONTROL_BYTES);
        assert_eq!(st.sent_msgs_by_kind, [1, 0, 1, 1, 0, 0]);
        assert_eq!(st.sent_bytes_by_kind[0], b0);
        assert_eq!(st.sent_bytes_by_kind[2], b1);
        assert_eq!(st.sent_msgs_by_peer, vec![0, 2, 1]);
        assert_eq!(st.sent_bytes_by_peer.iter().sum::<u64>(), st.sent_bytes);
        assert_eq!(
            st.sent_bytes_by_kind.iter().sum::<u64>(),
            st.sent_bytes,
            "per-kind bytes partition the total"
        );
        // Receivers meter nothing on the send side.
        assert_eq!(eps[1].stats().sent_msgs, 0);
    }

    #[test]
    fn stats_count_injected_faults_and_suppressed_dups() {
        let plan = FaultPlan::default()
            .with_fault(Fault::Duplicate { sel: MsgSel::any(), p: 1.0 });
        let eps = Fabric::with_faults(2, plan).into_endpoints();
        eps[0].send(1, MessageKind::Control(1.0)).unwrap();
        let st = eps[0].stats();
        assert_eq!(st.sent_msgs, 1, "logical send counted once");
        assert_eq!(st.dups_injected, 1);
        // Receiver drains both physical copies; one is suppressed.
        let _ = eps[1].recv_from(0).unwrap();
        assert!(eps[1].try_recv_from(0).is_none());
        assert_eq!(eps[1].stats().dups_suppressed, 1);
    }

    #[test]
    fn duplicates_are_suppressed_by_seq() {
        let plan = FaultPlan::default()
            .with_fault(Fault::Duplicate { sel: MsgSel::any(), p: 1.0 });
        let eps = Fabric::with_faults(2, plan).into_endpoints();
        eps[0].send(1, MessageKind::Control(1.0)).unwrap();
        eps[0].send(1, MessageKind::Control(2.0)).unwrap();
        // Both messages were physically sent twice; the receiver sees each
        // exactly once, in order.
        for expect in [1.0, 2.0] {
            match eps[1].recv_from(0).unwrap().kind {
                MessageKind::Control(v) => assert_eq!(v, expect),
                _ => panic!(),
            }
        }
        assert!(eps[1].try_recv_from(0).is_none());
    }

    #[test]
    fn injected_delay_postpones_delivery() {
        let plan = FaultPlan::default()
            .with_fault(Fault::Delay { sel: MsgSel::any(), delay_ms: 40 });
        let eps = Fabric::with_faults(2, plan).into_endpoints();
        eps[0].send(1, MessageKind::Control(5.0)).unwrap();
        // Not visible before the delay elapses...
        assert!(eps[1].try_recv_from(0).is_none());
        let t0 = Instant::now();
        let msg = eps[1].recv_from(0).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(25));
        assert!(matches!(msg.kind, MessageKind::Control(v) if v == 5.0));
    }

    #[test]
    fn delayed_message_times_out_then_arrives_on_retry() {
        // A "dropped" message is delayed past the first receive window;
        // the retry (longer window) picks it up — the fabric-level view of
        // drop + retransmission.
        let plan = FaultPlan::default()
            .with_fault(Fault::Delay { sel: MsgSel::any(), delay_ms: 60 });
        let eps = Fabric::with_faults(2, plan).into_endpoints();
        eps[0].send(1, MessageKind::Control(9.0)).unwrap();
        let err = eps[1].recv_from_timeout(0, Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, NetError::RecvTimeout { peer: 0, .. }));
        let msg = eps[1].recv_from_timeout(0, Duration::from_millis(500)).unwrap();
        assert!(matches!(msg.kind, MessageKind::Control(v) if v == 9.0));
    }

    #[test]
    fn every_receive_rereads_a_corrupt_frame_within_one_call() {
        // Every send ships a bit-flipped copy after the delay, then its
        // clean copy and a duplicate of that `retransmit_ms` later.
        let script = FaultPlan::default()
            .with_fault(Fault::Corrupt { sel: MsgSel::any(), p: 1.0 })
            .with_fault(Fault::Duplicate { sel: MsgSel::any(), p: 1.0 })
            .with_fault(Fault::Delay { sel: MsgSel::any(), delay_ms: 5 });
        let run = |recv: &dyn Fn(&Endpoint) -> Message| {
            let eps = Fabric::with_faults(2, script.clone()).into_endpoints();
            for i in 0..4 {
                eps[0].send(1, MessageKind::Control(i as f64)).unwrap();
            }
            let got: Vec<(u64, f64)> = (0..4)
                .map(|_| match recv(&eps[1]) {
                    Message { seq, kind: MessageKind::Control(v), .. } => (seq, v),
                    other => panic!("wrong kind {}", other.kind.name()),
                })
                .collect();
            // Drains the last clean copy's duplicate.
            assert!(eps[1].try_recv_from(0).is_none());
            let st = eps[1].stats();
            (got, st.crc_failures, st.rereads, st.dups_suppressed)
        };
        let blocking = run(&|ep| ep.recv_from(0).unwrap());
        let timed = run(&|ep| ep.recv_from_timeout(0, Duration::from_millis(500)).unwrap());
        let polled = run(&|ep| loop {
            if let Some(m) = ep.try_recv_from(0) {
                break m;
            }
            std::thread::sleep(Duration::from_millis(1));
        });
        assert_eq!(blocking, (vec![(1, 0.0), (2, 1.0), (3, 2.0), (4, 3.0)], 4, 4, 4));
        assert_eq!(timed, blocking);
        assert_eq!(polled, blocking);
    }

    #[test]
    fn blocking_recv_skips_corrupt_copy_transparently() {
        let plan =
            FaultPlan::default().with_fault(Fault::Corrupt { sel: MsgSel::any(), p: 1.0 });
        let eps = Fabric::with_faults(2, plan).into_endpoints();
        let payload = MessageKind::Rows {
            layer: 1,
            ids: vec![3, 4],
            cols: 2,
            data: vec![1.0, 2.0, 3.0, 4.0],
        };
        eps[0].send(1, payload).unwrap();
        let msg = eps[1].recv_from(0).unwrap();
        match msg.kind {
            MessageKind::Rows { ids, data, .. } => {
                assert_eq!(ids, vec![3, 4]);
                assert_eq!(data, vec![1.0, 2.0, 3.0, 4.0], "admitted payload is clean");
            }
            _ => panic!("wrong kind"),
        }
        assert_eq!(eps[1].stats().crc_failures, 1);
        assert_eq!(eps[1].stats().rereads, 1);
    }

    #[test]
    fn corrupt_faults_preserve_fifo_and_content_across_a_stream() {
        let plan = FaultPlan::default()
            .with_seed(5)
            .with_fault(Fault::Corrupt { sel: MsgSel::any(), p: 0.5 });
        let eps = Fabric::with_faults(2, plan).into_endpoints();
        for i in 0..20 {
            eps[0].send(1, MessageKind::Control(i as f64)).unwrap();
        }
        for i in 0..20 {
            match eps[1].recv_from(0).unwrap().kind {
                MessageKind::Control(v) => assert_eq!(v, i as f64),
                _ => panic!(),
            }
        }
        let st = eps[1].stats();
        assert!(st.crc_failures > 0, "p=0.5 over 20 sends must corrupt something");
        assert_eq!(st.crc_failures, st.rereads, "every rejection was re-read");
        assert_eq!(st.crc_failures, eps[0].stats().corrupts_injected);
    }

    #[test]
    fn partitioned_send_succeeds_but_never_arrives() {
        let plan = FaultPlan::default()
            .with_fault(parse_fault("partition:w0-w1@e0-e2").unwrap());
        let eps = Fabric::with_faults(3, plan).into_endpoints();
        // Both directions of the severed link black-hole: the send call
        // succeeds, the receiver only ever times out.
        assert!(eps[0].send(1, MessageKind::Control(1.0)).is_ok());
        assert!(eps[1].send(0, MessageKind::Control(2.0)).is_ok());
        assert!(matches!(
            eps[1].recv_from_timeout(0, Duration::from_millis(30)).unwrap_err(),
            NetError::RecvTimeout { peer: 0, .. }
        ));
        assert!(matches!(
            eps[0].recv_from_timeout(1, Duration::from_millis(30)).unwrap_err(),
            NetError::RecvTimeout { peer: 1, .. }
        ));
        assert_eq!(eps[0].stats().severed_msgs, 1);
        assert_eq!(eps[1].stats().severed_msgs, 1);
        // Links not named by the partition are untouched.
        eps[0].send(2, MessageKind::Control(3.0)).unwrap();
        assert!(eps[2].try_recv_from(0).is_some());
        // Past heal_epoch the link carries traffic again.
        eps[0].set_epoch(2);
        eps[0].send(1, MessageKind::Control(4.0)).unwrap();
        let msg = eps[1].recv_from_timeout(0, Duration::from_millis(500)).unwrap();
        assert!(matches!(msg.kind, MessageKind::Control(v) if v == 4.0));
    }

    #[test]
    fn asym_partition_severs_only_the_named_direction() {
        let plan =
            FaultPlan::default().with_fault(parse_fault("partition:w0->w1@e0-e10").unwrap());
        let eps = Fabric::with_faults(2, plan).into_endpoints();
        assert!(eps[0].send(1, MessageKind::Control(1.0)).is_ok());
        assert!(eps[1].try_recv_from(0).is_none(), "0->1 is black-holed");
        // The reverse direction still delivers.
        eps[1].send(0, MessageKind::Control(2.0)).unwrap();
        let msg = eps[0].recv_from_timeout(1, Duration::from_millis(500)).unwrap();
        assert!(matches!(msg.kind, MessageKind::Control(v) if v == 2.0));
        assert_eq!(eps[0].stats().severed_msgs, 1);
        assert_eq!(eps[1].stats().severed_msgs, 0);
    }

    #[test]
    fn flapped_link_delays_but_delivers_intact() {
        // duty 1.0 keeps the link down for (almost) the whole period, so a
        // send at any instant is held until the next period boundary —
        // deterministically delayed, never lost.
        let plan = FaultPlan::default()
            .with_fault(parse_fault("flap:w0-w1:50ms:1").unwrap());
        let eps = Fabric::with_faults(2, plan).into_endpoints();
        eps[0].send(1, MessageKind::Control(8.0)).unwrap();
        let st = eps[0].stats();
        assert_eq!(st.severed_msgs, 0, "flap holds, it does not sever");
        assert_eq!(st.delays_injected, 1);
        let msg = eps[1].recv_from_timeout(0, Duration::from_millis(1000)).unwrap();
        assert!(matches!(msg.kind, MessageKind::Control(v) if v == 8.0));
    }

    /// How long `ep.wait_until` sleeps with a deadline `far` away.
    fn timed_wait(ep: &Endpoint, far: Duration) -> Duration {
        let t0 = Instant::now();
        ep.wait_until(Some(t0 + far));
        t0.elapsed()
    }

    #[test]
    fn a_send_wakes_a_waiter_whose_deadline_is_far_away() {
        let mut eps = Fabric::new(2).into_endpoints();
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(move || {
                let waited = timed_wait(&e1, Duration::from_secs(30));
                (waited, e1.try_recv_from(0).is_some())
            });
            std::thread::sleep(Duration::from_millis(20));
            e0.send(1, MessageKind::Control(1.0)).unwrap();
            let (waited, got) = waiter.join().unwrap();
            assert!(
                waited < Duration::from_secs(10),
                "the send did not wake it: {waited:?}"
            );
            assert!(got, "the ring's message is there to read");
        });
    }

    #[test]
    fn a_dropped_peer_wakes_a_waiter_and_reads_as_disconnected() {
        let mut eps = Fabric::new(2).into_endpoints();
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(move || {
                let waited = timed_wait(&e0, Duration::from_secs(30));
                (waited, e0.recv_from_timeout(1, Duration::ZERO).unwrap_err())
            });
            std::thread::sleep(Duration::from_millis(20));
            drop(e1);
            let (waited, err) = waiter.join().unwrap();
            assert!(
                waited < Duration::from_secs(10),
                "the drop did not wake it: {waited:?}"
            );
            assert_eq!(err, NetError::PeerDisconnected { peer: 1 });
        });
    }

    #[test]
    fn a_ring_before_the_wait_is_not_lost_and_is_taken_once() {
        let eps = Fabric::new(2).into_endpoints();
        eps[0].send(1, MessageKind::Control(1.0)).unwrap();
        assert!(timed_wait(&eps[1], Duration::from_secs(30)) < Duration::from_secs(10));
        eps[1].doorbell().ring();
        assert!(timed_wait(&eps[1], Duration::from_secs(30)) < Duration::from_secs(10));
        // Both rings are taken: the next wait runs to its deadline.
        assert!(timed_wait(&eps[1], Duration::from_millis(30)) >= Duration::from_millis(30));
    }

    #[test]
    fn a_held_delayed_message_bounds_the_wait_to_its_due_time() {
        let plan = FaultPlan::default()
            .with_fault(Fault::Delay { sel: MsgSel::any(), delay_ms: 40 });
        let eps = Fabric::with_faults(2, plan).into_endpoints();
        eps[0].send(1, MessageKind::Control(5.0)).unwrap();
        // Takes the send's ring.
        eps[1].wait_until(Some(Instant::now()));
        assert!(eps[1].try_recv_from(0).is_none(), "held, not yet due");
        let waited = timed_wait(&eps[1], Duration::from_secs(30));
        assert!(
            waited >= Duration::from_millis(25),
            "woke before the due time: {waited:?}"
        );
        assert!(
            waited < Duration::from_secs(10),
            "slept past the due time: {waited:?}"
        );
        assert!(eps[1].try_recv_from(0).is_some());
    }

    #[test]
    fn a_due_message_on_an_unread_link_does_not_cut_the_next_wait_short() {
        let plan = FaultPlan::default()
            .with_fault(Fault::Delay { sel: MsgSel::any(), delay_ms: 10 });
        let eps = Fabric::with_faults(2, plan).into_endpoints();
        eps[0].send(1, MessageKind::Control(5.0)).unwrap();
        assert!(eps[1].try_recv_from(0).is_none(), "held, not yet due");
        // The send's ring, then the due time.
        timed_wait(&eps[1], Duration::from_millis(100));
        timed_wait(&eps[1], Duration::from_millis(100));
        // Due and unread: a caller not reading that link sleeps on.
        assert!(timed_wait(&eps[1], Duration::from_millis(50)) >= Duration::from_millis(50));
        assert!(eps[1].try_recv_from(0).is_some());
    }

    #[test]
    fn epoch_scoped_fault_only_hits_its_epoch() {
        let sel = MsgSel { epoch: Some(1), ..MsgSel::any() };
        let plan = FaultPlan::default().with_fault(Fault::Delay { sel, delay_ms: 50 });
        let eps = Fabric::with_faults(2, plan).into_endpoints();
        // Epoch 0: immediate.
        eps[0].send(1, MessageKind::Control(0.0)).unwrap();
        assert!(eps[1].try_recv_from(0).is_some());
        // Epoch 1: delayed.
        eps[0].set_epoch(1);
        eps[0].send(1, MessageKind::Control(1.0)).unwrap();
        assert!(eps[1].try_recv_from(0).is_none());
    }
}
