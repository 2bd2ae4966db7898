//! SRUDP — SNIPE's selective re-send UDP protocol (paper §6).
//!
//! A reliable, fragmenting, FIFO-per-peer datagram protocol:
//!
//! * messages are split into numbered fragments sent under a sliding
//!   window;
//! * the receiver returns **selective acknowledgements** (a bitmap per
//!   message), so only genuinely missing fragments are re-sent — the
//!   "selective re-send" the paper names;
//! * RTO with RTT estimation (Karn-style: no samples from retransmits)
//!   and exponential backoff recovers from total loss;
//! * peers are identified by a stable **node key**, not by endpoint:
//!   when a process migrates (§5.6) the key→endpoint mapping changes
//!   and retransmissions flow to the new location, which is how SNIPE
//!   guarantees "no loss of data while migration is in progress".
//!
//! The implementation is sans-IO: [`Srudp::send_message`],
//! [`Srudp::on_packet`] and [`Srudp::on_timer`] mutate the state
//! machine and queue [`Out`] actions retrieved with
//! [`Srudp::drain_into`]; each DATA
//! and SACK is sealed as it is written ([`frame::seal_with`]).

use std::collections::{BTreeMap, HashMap, VecDeque};

use bytes::Bytes;

use snipe_netsim::topology::Endpoint;
use snipe_netsim::trace::{self, TraceKind};
use snipe_util::codec::{Encoder, WireDecode, WireEncode};
use snipe_util::deadlines::Deadlines;
use snipe_util::error::{SnipeError, SnipeResult};
use snipe_util::time::{SimDuration, SimTime};
use snipe_util::wire_codec;

use crate::fec::{self, Blocks, FragStrategy};
use crate::frag::{split, Reassembly, ReassemblySet, MAX_FRAGMENTS};
use crate::frame::{self, split_head, Proto};
use crate::recovery::{Flight, Rtt, Sent};
use crate::Out;

/// A receiver sends a SACK after this many DATA packets of a message.
const ACK_EVERY: usize = 8;
/// A receiver flushes a SACK at most this long after the first
/// unacknowledged DATA of a message (delayed-ACK bound; keeps small
/// sender windows from stalling until [`ACK_EVERY`] accumulates).
const ACK_DELAY: SimDuration = SimDuration::from_millis(5);

/// Stable logical identity of a wire peer (a SNIPE process or daemon).
pub type NodeKey = u64;

/// What a scheduled deadline means for a peer. Declaration order is
/// firing order among deadlines due together: sweeps, then SACK
/// flushes, then RTO escalations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum TimerKind {
    /// Stale partial-reassembly sweep (bounded receiver memory).
    Evict,
    /// Delayed-ACK flush for the pending unsacked message.
    Sack,
    /// Retransmission timeout: the earliest in-flight fragment's RTO.
    Rto,
}

/// SRUDP tuning knobs.
#[derive(Clone, Debug)]
pub struct SrudpConfig {
    /// Payload bytes per DATA packet.
    pub frag_size: usize,
    /// Maximum unacknowledged DATA packets in flight per peer.
    pub window: usize,
    /// Initial retransmission timeout.
    pub rto_initial: SimDuration,
    /// RTO clamp floor.
    pub rto_min: SimDuration,
    /// RTO clamp ceiling.
    pub rto_max: SimDuration,
    /// Give up on a fragment after this many retransmissions.
    pub max_retries: u32,
    /// How multi-fragment messages go on the wire: plain numbered
    /// fragments, or `2b-1` Reed-Solomon shares of which any `b`
    /// reconstruct ([`crate::fec`]). Per-driver: flipping this changes
    /// nothing for [`Srudp::send_message`] callers.
    pub frag_strategy: FragStrategy,
}

impl Default for SrudpConfig {
    fn default() -> Self {
        SrudpConfig {
            frag_size: 1400,
            window: 64,
            rto_initial: SimDuration::from_millis(100),
            rto_min: SimDuration::from_millis(2),
            rto_max: SimDuration::from_secs(4),
            max_retries: 12,
            frag_strategy: FragStrategy::Plain,
        }
    }
}

/// How long a partial reassembly may sit with no fresh fragment before
/// the sweep evicts it. Longer than any in-contract sender keeps
/// retrying (`max_retries` × `rto_max` ≈ 48 s with defaults), so only
/// genuinely abandoned transfers — a crashed sender, a never-completing
/// chaos plan — are dropped.
const REASM_TTL: SimDuration = SimDuration::from_secs(60);

/// What identifies a DATA packet in flight: `(message, fragment)`.
type Seq = (u64, u32);

/// Does a SACK bitmap report fragment `idx` as received? Fragments
/// beyond the bitmap's end are not.
fn sack_bit(bitmap: &[u8], idx: usize) -> bool {
    bitmap.get(idx / 8).is_some_and(|byte| byte & (1 << (idx % 8)) != 0)
}

/// What a SACK says of its message.
enum Report<'a> {
    /// All of it arrived: `done`, and an empty bitmap.
    Done,
    /// A coded message was rebuilt from `held` (message-wide share
    /// indices, ascending) of its `count` shares: `done`, and the bitmap
    /// of those shares, so that the sender times only shares that
    /// arrived.
    Rebuilt { count: usize, held: &'a [(u32, Bytes)] },
    /// What of the partial has arrived.
    Partial(&'a Reassembly),
}

/// Write a SACK bitmap of `count` fragments as a length-prefixed blob:
/// bit `i % 8` of byte `i / 8` set when `has(i)`, and the padding bits
/// of the last byte set. Written straight into the datagram, so a SACK
/// builds no bitmap of its own.
fn put_sack_bitmap(enc: &mut Encoder, count: usize, has: impl Fn(usize) -> bool) {
    let len = count.div_ceil(8);
    enc.put_blob(len, |enc| {
        for byte in 0..len {
            let mut bits = 0xFFu8;
            for bit in 0..8 {
                let idx = byte * 8 + bit;
                if idx < count && !has(idx) {
                    bits &= !(1 << bit);
                }
            }
            enc.put_u8(bits);
        }
    });
}

/// Does partial `r` of a coded message hold `b` shares of every block?
fn has_quorum(r: &Reassembly, blocks: Blocks) -> bool {
    r.received() >= blocks.data()
        && (0..blocks.count()).all(|k| blocks.held(k, |g| r.has(g)) >= blocks.b(k))
}

/// Erasure-coding parameters of one FEC-framed share, carried in every
/// share header so any quorum of shares is self-describing: the
/// message's `n = ⌈msg_len / share length⌉` data shares are cut into
/// [`Blocks`] of at most `b`, and the share belongs to block `block`.
/// Every share of a message agrees on all but `block`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct FecMeta {
    /// Most data shares in one block (the sender's [`fec::BLOCK`]).
    b: u8,
    /// The block this share belongs to (0 where a whole message is
    /// meant: in queue and partial snapshots).
    block: u16,
    /// Original message length (strips the last chunk's padding).
    msg_len: u32,
    /// [`fec::msg_checksum`] of the original message, verified after
    /// reconstruction.
    checksum: u32,
}

wire_codec!(struct FecMeta { b, block, msg_len, checksum });

impl FecMeta {
    /// What every share of the message agrees on.
    fn message(self) -> FecMeta {
        FecMeta { block: 0, ..self }
    }

    /// The block layout of the message, given its share length.
    /// Anything no sender emits is a `Protocol` error.
    fn blocks(self, share_len: usize) -> SnipeResult<Blocks> {
        let b = usize::from(self.b);
        if !(2..=fec::MAX_B).contains(&b) {
            return Err(SnipeError::Protocol(format!("unacceptable FEC block size {b}")));
        }
        if self.msg_len == 0 || share_len == 0 {
            return Err(SnipeError::Protocol("empty FEC message or share".into()));
        }
        let n = (self.msg_len as usize).div_ceil(share_len);
        if !(2..=MAX_FRAGMENTS).contains(&n) {
            return Err(SnipeError::Protocol(format!("FEC message of {n} data shares")));
        }
        Blocks::new(n, b)
    }
}

/// An SRUDP datagram's header. The fragment (DATA, FEC) or the SACK
/// bitmap follows it as a length-prefixed blob, written and read
/// outside the listing so that it stays a zero-copy slice.
#[derive(Clone, Copy, Debug)]
enum SrudpHead {
    /// Plain fragment `idx` of a `count`-fragment message.
    Data { src_key: NodeKey, msg_id: u64, idx: u32, count: u32 },
    /// What of message `msg_id` has arrived: the bitmap, or `done`
    /// (and an empty bitmap) once all of it has.
    Sack { src_key: NodeKey, msg_id: u64, done: bool },
    /// Reed-Solomon share `idx`; the share count follows from `meta`.
    Fec { src_key: NodeKey, msg_id: u64, idx: u32, meta: FecMeta },
}

wire_codec!(enum SrudpHead {
    1 => Data { src_key, msg_id, idx, count },
    2 => Sack { src_key, msg_id, done },
    3 => Fec { src_key, msg_id, idx, meta },
});

/// A migration snapshot of a whole endpoint ([`Srudp::export_state`]),
/// peers in key order.
struct SrudpSnapshot {
    my_key: NodeKey,
    peers: Vec<PeerSnapshot>,
}

wire_codec!(struct SrudpSnapshot { my_key, peers });

/// One peer's sender queue and receiver state.
struct PeerSnapshot {
    key: NodeKey,
    location: Option<Endpoint>,
    next_msg_id: u64,
    queue: Vec<QueuedSnapshot>,
    next_deliver: u64,
    held: BTreeMap<u64, Bytes>,
    partials: Vec<PartialSnapshot>,
}

wire_codec!(struct PeerSnapshot { key, location, next_msg_id, queue, next_deliver, held, partials });

/// An unfinished outgoing message: each fragment with its acked flag.
struct QueuedSnapshot {
    msg_id: u64,
    fec: Option<FecMeta>,
    frags: Vec<(bool, Bytes)>,
}

wire_codec!(struct QueuedSnapshot { msg_id, fec, frags });

/// A partial reassembly.
struct PartialSnapshot {
    msg_id: u64,
    fec: Option<FecMeta>,
    frags: Vec<Option<Bytes>>,
}

wire_codec!(struct PartialSnapshot { msg_id, fec, frags });

struct OutMsg {
    msg_id: u64,
    /// Plain fragments, or every block's shares in message-wide order
    /// when `fec` is set (the window / SACK / RTO machinery treats both
    /// alike).
    frags: Vec<Bytes>,
    /// Settled fragments: acknowledged, or shares of a block the
    /// receiver already holds a quorum of. A settled fragment is never
    /// sent again.
    acked: Vec<bool>,
    acked_count: usize,
    /// Next fragment index never yet transmitted.
    next_tx: usize,
    /// Set when `frags` are Reed-Solomon shares: the message's
    /// parameters and its block layout.
    fec: Option<(FecMeta, Blocks)>,
}

impl OutMsg {
    /// Payload bytes not yet settled.
    fn unacked_bytes(&self) -> usize {
        self.frags.iter().zip(&self.acked).filter(|(_, acked)| !**acked).map(|(f, _)| f.len()).sum()
    }

    /// Is `idx` a share of a block that still has unsent shares? Such a
    /// share is not sent again while they remain: any of them serves
    /// the block as well.
    fn block_unsent(&self, idx: usize) -> bool {
        self.fec.is_some_and(|(_, blocks)| blocks.last(blocks.locate(idx).0) >= self.next_tx)
    }

    /// Settled shares of block `k` of a coded message.
    fn block_settled(&self, k: usize) -> usize {
        self.fec.map_or(0, |(_, blocks)| blocks.held(k, |g| self.acked[g]))
    }

    /// Settle fragment `idx`; its length if it was not settled yet.
    fn settle(&mut self, idx: usize) -> Option<usize> {
        if self.acked[idx] {
            return None;
        }
        self.acked[idx] = true;
        self.acked_count += 1;
        Some(self.frags[idx].len())
    }
}

/// What the receiver remembers about a message in progress, kept with
/// its partial reassembly.
#[derive(Default)]
struct InMsg {
    /// DATA packets received since the last SACK.
    unsacked: usize,
    /// FEC parameters of a coded message ([`FecMeta::message`]),
    /// pinned by the first share (later shares must agree — a forged or
    /// corrupt divergent header is a counted protocol error).
    fec: Option<FecMeta>,
}

/// Per-peer protocol state.
struct Peer {
    // --- sender side ---
    queue: VecDeque<OutMsg>,
    /// Every transmitted, unacknowledged fragment.
    flight: Flight<Seq>,
    /// Index into `queue` of the first message that may still have
    /// untransmitted fragments (pump never rescans earlier entries).
    pump_hint: usize,
    /// Running count of unacked payload bytes in `queue`.
    backlog_bytes: usize,
    next_msg_id: u64,
    rtt: Rtt,
    consecutive_timeouts: u32,
    // --- receiver side ---
    reasm: ReassemblySet<InMsg>,
    /// Next msg id to deliver (FIFO per peer).
    next_deliver: u64,
    /// Completed-but-early messages awaiting FIFO order.
    held: BTreeMap<u64, Bytes>,
    /// Message id awaiting a delayed-ACK flush; the deadline itself
    /// is the driver's `(Sack, peer)` entry in `Srudp::timers`.
    pending_sack: Option<u64>,
    /// Consecutive duplicate DATA packets received — a sign our SACKs
    /// are not reaching the sender (path trouble on our return route).
    dup_streak: u32,
    /// When the last *fresh* (non-duplicate) DATA fragment was
    /// accepted. Duplicates arriving while fresh data still flows are
    /// retransmission noise, not return-route evidence; the stack only
    /// acts on `dup_streak` once fresh progress has stalled.
    last_fresh: Option<SimTime>,
}

impl Peer {
    fn new(cfg: &SrudpConfig) -> Peer {
        Peer {
            queue: VecDeque::new(),
            flight: Flight::new(),
            pump_hint: 0,
            backlog_bytes: 0,
            next_msg_id: 0,
            rtt: Rtt::new(cfg.rto_initial, cfg.rto_min, cfg.rto_max),
            consecutive_timeouts: 0,
            reasm: ReassemblySet::default(),
            next_deliver: 0,
            held: BTreeMap::new(),
            pending_sack: None,
            dup_streak: 0,
            last_fresh: None,
        }
    }

    /// Where in `queue` message `msg_id` sits, while it is unfinished.
    fn position(&self, msg_id: u64) -> Option<usize> {
        self.queue.iter().position(|m| m.msg_id == msg_id)
    }

    /// Message `queue[pos]` is finished, delivered or abandoned: drop
    /// it and whatever of it is still in flight.
    fn finish(&mut self, pos: usize) {
        let Some(m) = self.queue.remove(pos) else {
            return;
        };
        self.backlog_bytes = self.backlog_bytes.saturating_sub(m.unacked_bytes());
        self.flight.forget((m.msg_id, 0)..=(m.msg_id, u32::MAX));
        if pos < self.pump_hint {
            self.pump_hint -= 1;
        }
    }

    /// Drop a partial reassembly (its note goes with it) and the
    /// delayed SACK that may be pending for it.
    fn forget_partial(&mut self, msg_id: u64) {
        self.reasm.forget(msg_id);
        if self.pending_sack == Some(msg_id) {
            self.pending_sack = None;
        }
    }
}

/// Counters exposed for benchmarks and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SrudpStats {
    /// DATA packets first-transmitted.
    pub data_sent: u64,
    /// DATA packets retransmitted.
    pub retransmits: u64,
    /// SACK packets sent.
    pub sacks_sent: u64,
    /// Messages fully delivered to the application.
    pub delivered: u64,
    /// Messages abandoned after `max_retries`.
    pub failed: u64,
    /// FEC-framed messages reconstructed from a share quorum and
    /// delivered.
    pub fec_delivered: u64,
    /// FEC reconstructions whose message checksum failed — corrupt or
    /// forged shares; the message was dropped, never delivered.
    pub fec_corrupt: u64,
    /// Partial reassemblies evicted (stale-sweep or per-peer cap never
    /// fires for in-contract senders; see the boundedness tests).
    pub reasm_evicted: u64,
}

/// The SRUDP endpoint state machine.
pub struct Srudp {
    my_key: NodeKey,
    cfg: SrudpConfig,
    peers: HashMap<NodeKey, Peer>,
    /// Current location of each peer.
    locations: HashMap<NodeKey, Endpoint>,
    /// All deadlines (per-peer RTO, delayed-ACK and reassembly sweep);
    /// the only timer source in this driver. Due together, they fire
    /// in key order: by kind, then by peer key.
    timers: Deadlines<(TimerKind, NodeKey)>,
    out: Vec<Out>,
    stats: SrudpStats,
    /// Reused scratch: the holes one SACK re-sends.
    holes: Vec<u32>,
}

impl Srudp {
    /// New endpoint with the given stable node key.
    pub fn new(my_key: NodeKey, cfg: SrudpConfig) -> Srudp {
        Srudp {
            my_key,
            cfg,
            peers: HashMap::new(),
            locations: HashMap::new(),
            timers: Deadlines::new(),
            out: Vec::new(),
            stats: SrudpStats::default(),
            holes: Vec::new(),
        }
    }

    /// Our node key.
    pub fn key(&self) -> NodeKey {
        self.my_key
    }

    /// Protocol counters.
    pub fn stats(&self) -> SrudpStats {
        self.stats
    }

    /// Record (or update) where a peer currently lives. Called by the
    /// stack from RC metadata lookups and on migration notifications.
    pub fn set_peer_endpoint(&mut self, key: NodeKey, ep: Endpoint) {
        self.locations.insert(key, ep);
    }

    /// Transmit any queued fragments toward a peer (call after its
    /// location becomes known).
    pub fn pump_peer(&mut self, now: SimTime, key: NodeKey) {
        self.pump(now, key);
    }

    /// The current known location of a peer.
    pub fn peer_endpoint(&self, key: NodeKey) -> Option<Endpoint> {
        self.locations.get(&key).copied()
    }

    /// Consecutive whole-RTO expiries against this peer with nothing
    /// acked — the stack's signal to try another route (§6 failover).
    pub fn peer_timeouts(&self, key: NodeKey) -> u32 {
        self.peers.get(&key).map_or(0, |p| p.consecutive_timeouts)
    }

    /// Consecutive duplicate DATA packets from a peer — evidence that
    /// our SACKs are being lost on the return path.
    pub fn peer_dup_streak(&self, key: NodeKey) -> u32 {
        self.peers.get(&key).map_or(0, |p| p.dup_streak)
    }

    /// Reset the duplicate streak (after acting on it).
    pub fn reset_dup_streak(&mut self, key: NodeKey) {
        if let Some(p) = self.peers.get_mut(&key) {
            p.dup_streak = 0;
        }
    }

    /// When the last fresh (non-duplicate) DATA fragment arrived from
    /// `key`, if any has. Duplicates seen while this is recent are
    /// retransmission noise, not evidence against the return route.
    pub fn peer_last_fresh(&self, key: NodeKey) -> Option<SimTime> {
        self.peers.get(&key).and_then(|p| p.last_fresh)
    }

    /// All peer keys with protocol state.
    pub fn peer_keys(&self) -> Vec<NodeKey> {
        let mut v = Vec::new();
        self.peer_keys_into(&mut v);
        v
    }

    /// Append all peer keys (sorted) to `into` without allocating when
    /// `into` has capacity — the scratch-buffer form of
    /// [`Self::peer_keys`] for steady-state callers.
    #[allow(clippy::disallowed_methods, reason = "the keys are sorted")]
    pub fn peer_keys_into(&self, into: &mut Vec<NodeKey>) {
        let start = into.len();
        into.extend(self.peers.keys().copied());
        into[start..].sort_unstable();
    }

    /// The smoothed RTT estimate toward a peer, once measured. Feeds
    /// the stack's [`PathSelector`](crate::path::PathSelector) scoring.
    pub fn peer_srtt(&self, key: NodeKey) -> Option<SimDuration> {
        self.peers.get(&key).and_then(|p| p.rtt.srtt())
    }

    /// Unsent + unacked payload bytes queued toward a peer.
    pub fn backlog(&self, key: NodeKey) -> usize {
        self.peers.get(&key).map_or(0, |p| p.backlog_bytes)
    }

    /// Unsent + unacked payload bytes across all peers.
    #[allow(clippy::disallowed_methods, reason = "a sum is order-free")]
    pub fn backlog_total(&self) -> usize {
        self.peers.values().map(|p| p.backlog_bytes).sum()
    }

    /// True when nothing is queued or in flight anywhere.
    #[allow(clippy::disallowed_methods, reason = "`all` is order-free")]
    pub fn quiescent(&self) -> bool {
        self.peers.values().all(|p| p.queue.is_empty() && p.flight.is_empty())
    }

    /// Move the queued actions onto the end of `into`, keeping this
    /// endpoint's queue capacity. `Send` bytes are sealed datagrams.
    pub fn drain_into(&mut self, into: &mut Vec<Out>) {
        into.append(&mut self.out);
    }

    /// Queue a message for reliable FIFO delivery to `to`.
    ///
    /// The peer's endpoint must be known (via [`Self::set_peer_endpoint`])
    /// by the time packets are emitted, or sends silently wait.
    ///
    /// Errors on a zero `frag_size` (hostile or misconfigured MTU
    /// state must be a counted error, not a panic), and on a message
    /// that would take more than [`MAX_FRAGMENTS`] datagrams, the most
    /// a receiver accepts (under [`FragStrategy::Fec`], shares: about
    /// half the plain limit); nothing is queued.
    pub fn send_message(&mut self, now: SimTime, to: NodeKey, msg: Bytes) -> SnipeResult<()> {
        let frag_size = self.cfg.frag_size;
        if frag_size == 0 {
            return Err(SnipeError::Protocol("zero fragment size".into()));
        }
        // FEC engages for multi-fragment messages, coded in blocks of
        // at most `fec::BLOCK`; one-fragment messages gain nothing from
        // parity.
        let n = msg.len().div_ceil(frag_size);
        let blocks = match self.cfg.frag_strategy {
            FragStrategy::Fec if n >= 2 => Some(Blocks::new(n, fec::BLOCK)?),
            _ => None,
        };
        let count = blocks.map_or(n, Blocks::shares);
        if count > MAX_FRAGMENTS {
            return Err(SnipeError::Protocol(format!(
                "fragment count {count} exceeds limit {MAX_FRAGMENTS}"
            )));
        }
        let (frags, fec) = match blocks {
            Some(blocks) => {
                let meta = FecMeta {
                    b: fec::BLOCK as u8,
                    block: 0,
                    msg_len: msg.len() as u32,
                    checksum: fec::msg_checksum(&msg),
                };
                (fec::encode_blocks(&msg, blocks)?, Some((meta, blocks)))
            }
            None => (split(&msg, frag_size)?, None),
        };
        let peer = self.peers.entry(to).or_insert_with(|| Peer::new(&self.cfg));
        let msg_id = peer.next_msg_id;
        peer.next_msg_id += 1;
        // Backlog counts wire payload: for FEC that includes parity
        // (the true cost of the transfer), and it matches the per-
        // fragment subtraction on SACK exactly.
        peer.backlog_bytes += frags.iter().map(|f| f.len()).sum::<usize>();
        peer.queue.push_back(OutMsg {
            msg_id,
            acked: vec![false; frags.len()],
            frags,
            acked_count: 0,
            next_tx: 0,
            fec,
        });
        self.pump(now, to);
        Ok(())
    }

    /// Earliest instant at which [`Self::on_timer`] needs to run.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.timers.next_deadline()
    }

    /// Put fragment `idx` of `m` on the wire.
    fn emit_data(out: &mut Vec<Out>, my_key: NodeKey, to: Endpoint, m: &OutMsg, idx: usize) {
        let (src_key, msg_id, payload) = (my_key, m.msg_id, &m.frags[idx]);
        let head = match m.fec {
            None => {
                SrudpHead::Data { src_key, msg_id, idx: idx as u32, count: m.frags.len() as u32 }
            }
            Some((meta, blocks)) => {
                let (block, i) = blocks.locate(idx);
                let meta = FecMeta { block: block as u16, ..meta };
                SrudpHead::Fec { src_key, msg_id, idx: i as u32, meta }
            }
        };
        // Shares advertise their message-wide index so the stack can
        // spray them across distinct routes; plain fragments route
        // normally.
        let spray = m.fec.map(|_| idx as u32);
        let bytes = frame::seal_with(Proto::Srudp, |enc| {
            head.encode(enc);
            enc.put_bytes(payload);
        });
        out.push(Out::Send { to, via: None, spray, bytes });
    }

    /// Fill the window toward a peer with untransmitted fragments.
    fn pump(&mut self, now: SimTime, key: NodeKey) {
        let Some(&ep) = self.locations.get(&key) else {
            return; // location unknown; stack will pump after resolving
        };
        let Some(peer) = self.peers.get_mut(&key) else {
            return;
        };
        while peer.flight.len() < self.cfg.window {
            // Advance the cursor past fully-transmitted messages, then
            // take the next untransmitted fragment (skipping fragments
            // already acknowledged, e.g. after an imported checkpoint
            // reset the cursor).
            let m = loop {
                let Some(m) = peer.queue.get_mut(peer.pump_hint) else {
                    return;
                };
                while m.next_tx < m.frags.len() && m.acked[m.next_tx] {
                    m.next_tx += 1;
                }
                if m.next_tx < m.frags.len() {
                    break m;
                }
                peer.pump_hint += 1;
            };
            let idx = m.next_tx;
            m.next_tx += 1;
            peer.flight.file((m.msg_id, idx as u32), now, Sent::default());
            self.timers.insert_earlier((TimerKind::Rto, key), now + peer.rtt.rto(), ());
            self.stats.data_sent += 1;
            Self::emit_data(&mut self.out, self.my_key, ep, m, idx);
        }
    }

    /// Re-send one fragment: the only way a fragment goes out twice,
    /// for the SACK-driven and the RTO-driven path alike. `expired` is
    /// the fragment's entry if an expiry just took it off the board,
    /// and only that charges the retry budget: a budget counts
    /// timeouts, not the SACKs that happened to report a hole.
    fn retransmit(
        &mut self,
        now: SimTime,
        key: NodeKey,
        ep: Endpoint,
        seq: Seq,
        expired: Option<Sent>,
    ) {
        let Some(peer) = self.peers.get_mut(&key) else {
            return;
        };
        let (msg_id, idx) = (seq.0, seq.1 as usize);
        let Some(m) = peer.position(msg_id).map(|pos| &peer.queue[pos]) else {
            return;
        };
        if m.acked[idx] {
            return;
        }
        let retries = match expired {
            Some(sent) => sent.retries + 1,
            None => peer.flight.get(&seq).map_or(0, |sent| sent.retries),
        };
        peer.flight.file(seq, now, Sent { retries, retransmitted: true });
        self.timers.insert_earlier((TimerKind::Rto, key), now + peer.rtt.rto(), ());
        self.stats.retransmits += 1;
        if trace::enabled() {
            trace::record(now, TraceKind::Retransmit { peer: key, len: m.frags[idx].len() as u32 });
        }
        Self::emit_data(&mut self.out, self.my_key, ep, m, idx);
    }

    /// Handle an incoming SRUDP body (after the envelope is opened).
    pub fn on_packet(&mut self, now: SimTime, from_ep: Endpoint, body: Bytes) -> SnipeResult<()> {
        let (head, rest) = split_head(body)?;
        let blob = Bytes::decode_from_bytes(rest)?;
        match head {
            SrudpHead::Data { src_key, msg_id, idx, count } => {
                self.on_data(now, src_key, from_ep, msg_id, idx, count, blob, None)
            }
            // A share's place and count follow from its coding
            // parameters and its length.
            SrudpHead::Fec { src_key, msg_id, idx, meta } => {
                let blocks = meta.blocks(blob.len())?;
                let block = usize::from(meta.block);
                if block >= blocks.count() {
                    return Err(SnipeError::Protocol(format!(
                        "FEC block {block} out of range ({} blocks)",
                        blocks.count()
                    )));
                }
                let b = blocks.b(block);
                if idx as usize >= 2 * b - 1 {
                    return Err(SnipeError::Protocol(format!(
                        "FEC share {idx} beyond block {block} of b {b}"
                    )));
                }
                let idx = blocks.share(block, idx as usize) as u32;
                let count = blocks.shares() as u32;
                let fec = Some((meta.message(), blocks));
                self.on_data(now, src_key, from_ep, msg_id, idx, count, blob, fec)
            }
            SrudpHead::Sack { src_key, msg_id, done } => {
                self.on_sack(now, src_key, from_ep, msg_id, done, &blob);
                Ok(())
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_data(
        &mut self,
        now: SimTime,
        src_key: NodeKey,
        from_ep: Endpoint,
        msg_id: u64,
        frag_idx: u32,
        frag_count: u32,
        payload: Bytes,
        fec: Option<(FecMeta, Blocks)>,
    ) -> SnipeResult<()> {
        if frag_count == 0 || frag_count as usize > MAX_FRAGMENTS {
            return Err(SnipeError::Protocol(format!("unacceptable fragment count {frag_count}")));
        }
        // Reject before any per-message state exists: a bogus index
        // must not leave side-table entries behind (state poisoning).
        if frag_idx >= frag_count {
            return Err(SnipeError::Protocol(format!(
                "fragment index {frag_idx} out of range (count {frag_count})"
            )));
        }
        // Learn / refresh the peer's location from live traffic.
        self.locations.insert(src_key, from_ep);
        let peer = self.peers.entry(src_key).or_insert_with(|| Peer::new(&self.cfg));
        // Already delivered? Re-SACK "done" so the sender frees state.
        if msg_id < peer.next_deliver || peer.held.contains_key(&msg_id) {
            peer.dup_streak += 1;
            Self::emit_sack(
                &mut self.out,
                &mut self.stats,
                self.my_key,
                from_ep,
                msg_id,
                Report::Done,
            );
            return Ok(());
        }
        // Per-peer cap: creating one more partial beyond the cap
        // evicts the stalest entry *with* its side tables, so memory
        // stays bounded against a sender that never completes anything.
        if peer.reasm.received(msg_id) == 0
            && peer.reasm.in_progress() >= crate::frag::MAX_PARTIAL_MSGS
        {
            if let Some(victim) = peer.reasm.evict_stalest() {
                peer.forget_partial(victim);
                self.stats.reasm_evicted += 1;
            }
        }
        // Every fragment of a message must be framed as its first one
        // was, an FEC share with the same coding parameters; divergence
        // is corruption made visible.
        let meta = fec.map(|(meta, _)| meta);
        if peer.reasm.note(msg_id).is_some_and(|note| note.fec != meta) {
            return Err(SnipeError::Protocol(format!(
                "framing of msg {msg_id} diverges from its first fragment"
            )));
        }
        let was_present = peer.reasm.has(msg_id, frag_idx as usize);
        if was_present {
            peer.dup_streak += 1;
        } else {
            peer.dup_streak = 0;
            peer.last_fresh = Some(now);
        }
        let completed =
            peer.reasm.insert(now, msg_id, frag_idx as usize, frag_count as usize, payload)?;
        // First partial arms the stale sweep (schedule_min keeps the
        // earliest pending deadline).
        if peer.reasm.in_progress() > 0 {
            self.timers.insert_earlier((TimerKind::Evict, src_key), now + REASM_TTL, ());
        }
        // A plain message is ready when every fragment arrived; an
        // FEC-framed one as soon as every block has `b` distinct shares.
        let mut quorum: Option<Vec<(u32, Bytes)>> = None;
        let ready: Option<Bytes> = match fec {
            None => completed,
            Some((meta, blocks)) => {
                quorum = match completed {
                    // All 2b-1 shares piled up without the quorum path
                    // firing (reachable via an imported checkpoint that
                    // restored a near-complete partial). The buffer is
                    // the shares concatenated in index order: slice
                    // them back apart and decode as usual.
                    Some(full) => {
                        let slen = full.len() / frag_count as usize;
                        let share = |i: u32| full.slice(i as usize * slen..(i as usize + 1) * slen);
                        Some((0..frag_count).map(|i| (i, share(i))).collect())
                    }
                    None if peer.reasm.partial(msg_id).is_some_and(|r| has_quorum(r, blocks)) => {
                        peer.reasm.take(msg_id)
                    }
                    None => None,
                };
                let decode =
                    |shares: &[_]| Self::fec_reconstruct(&mut self.stats, meta, blocks, shares);
                match quorum.as_deref().map(decode) {
                    Some(Ok(msg)) => Some(msg),
                    Some(Err(e)) => {
                        // Drop the poisoned partial entirely; honest
                        // retransmissions rebuild it from scratch.
                        peer.forget_partial(msg_id);
                        return Err(e);
                    }
                    None => None,
                }
            }
        };
        match ready {
            Some(full_msg) => {
                peer.pending_sack = None;
                self.timers.remove(&(TimerKind::Sack, src_key));
                let report = match &quorum {
                    Some(held) => Report::Rebuilt { count: frag_count as usize, held },
                    None => Report::Done,
                };
                Self::emit_sack(
                    &mut self.out,
                    &mut self.stats,
                    self.my_key,
                    from_ep,
                    msg_id,
                    report,
                );
                peer.held.insert(msg_id, full_msg);
                // FIFO delivery of any now-in-order messages.
                while let Some(m) = peer.held.remove(&peer.next_deliver) {
                    let deliver =
                        Out::Deliver { proto: Proto::Srudp, from_key: src_key, from_ep, msg: m };
                    self.out.push(deliver);
                    self.stats.delivered += 1;
                    peer.next_deliver += 1;
                }
            }
            None => {
                // Not ready, so the partial (and its note) exists.
                let Some(note) = peer.reasm.note_mut(msg_id) else {
                    return Ok(());
                };
                note.fec = meta;
                note.unsacked += 1;
                if note.unsacked >= ACK_EVERY {
                    note.unsacked = 0;
                    peer.pending_sack = None;
                    self.timers.remove(&(TimerKind::Sack, src_key));
                    if let Some(r) = peer.reasm.partial(msg_id) {
                        let report = Report::Partial(r);
                        Self::emit_sack(
                            &mut self.out,
                            &mut self.stats,
                            self.my_key,
                            from_ep,
                            msg_id,
                            report,
                        );
                    }
                } else if peer.pending_sack.is_none() {
                    peer.pending_sack = Some(msg_id);
                    self.timers.insert((TimerKind::Sack, src_key), now + ACK_DELAY, ());
                }
            }
        }
        Ok(())
    }

    /// Reconstruct, integrity-check and account an FEC share quorum.
    /// A reconstruction that fails the message checksum is counted and
    /// surfaced as a `Protocol` error — it is *never* delivered.
    fn fec_reconstruct(
        stats: &mut SrudpStats,
        meta: FecMeta,
        blocks: Blocks,
        shares: &[(u32, Bytes)],
    ) -> SnipeResult<Bytes> {
        let decoded = fec::decode_blocks(blocks, meta.msg_len as usize, shares)?;
        if fec::msg_checksum(&decoded) != meta.checksum {
            stats.fec_corrupt += 1;
            return Err(SnipeError::Protocol(format!(
                "FEC reconstruction failed message checksum ({} blocks)",
                blocks.count()
            )));
        }
        stats.fec_delivered += 1;
        Ok(Bytes::from(decoded))
    }

    /// SACK message `msg_id` as `report` says.
    fn emit_sack(
        out: &mut Vec<Out>,
        stats: &mut SrudpStats,
        my_key: NodeKey,
        to: Endpoint,
        msg_id: u64,
        report: Report,
    ) {
        stats.sacks_sent += 1;
        let done = !matches!(report, Report::Partial(_));
        let bytes = frame::seal_with(Proto::Srudp, |enc| {
            SrudpHead::Sack { src_key: my_key, msg_id, done }.encode(enc);
            match report {
                Report::Done => enc.put_bytes(&[]),
                Report::Rebuilt { count, held } => put_sack_bitmap(enc, count, |idx| {
                    held.binary_search_by_key(&(idx as u32), |&(i, _)| i).is_ok()
                }),
                Report::Partial(r) => put_sack_bitmap(enc, r.expected(), |idx| r.has(idx)),
            }
        });
        out.push(Out::Send { to, via: None, spray: None, bytes });
    }

    fn on_sack(
        &mut self,
        now: SimTime,
        src_key: NodeKey,
        from_ep: Endpoint,
        msg_id: u64,
        done: bool,
        bitmap: &[u8],
    ) {
        self.locations.insert(src_key, from_ep);
        let Some(peer) = self.peers.get_mut(&src_key) else {
            return;
        };
        peer.consecutive_timeouts = 0;
        let Some(pos) = peer.position(msg_id) else {
            return; // already freed
        };
        let m = &mut peer.queue[pos];
        // RTT sample from the newest acked, never-retransmitted fragment
        // the receiver reported. A coded message's `done` carries the
        // bitmap of the shares it was rebuilt from: only those are timed
        // (the newest share sent may never have arrived), the others
        // settle untimed.
        let timed_done = done && m.fec.is_none();
        let mut rtt_sample = None;
        for idx in 0..m.frags.len() {
            let reported = sack_bit(bitmap, idx);
            if !(done || reported) {
                continue;
            }
            let Some(len) = m.settle(idx) else { continue };
            peer.backlog_bytes = peer.backlog_bytes.saturating_sub(len);
            let seq = (msg_id, idx as u32);
            if reported || timed_done {
                if let Some(sample) = peer.flight.ack(seq, now) {
                    rtt_sample = Some(sample);
                }
            } else {
                peer.flight.forget(seq..=seq);
            }
        }
        // A block the receiver holds a quorum of needs nothing more:
        // its other shares are settled unsent, and its holes are never
        // sent again.
        if let Some((_, blocks)) = m.fec {
            for k in 0..blocks.count() {
                let shares = 2 * blocks.b(k) - 1;
                let settled = m.block_settled(k);
                if settled < blocks.b(k) || settled == shares {
                    continue;
                }
                for i in 0..shares {
                    let idx = blocks.share(k, i);
                    if let Some(len) = m.settle(idx) {
                        peer.backlog_bytes = peer.backlog_bytes.saturating_sub(len);
                        peer.flight.forget((msg_id, idx as u32)..=(msg_id, idx as u32));
                    }
                }
            }
        }
        // Selective resend with gap semantics: a fragment is presumed
        // lost only if the receiver already holds one sent *after* it
        // (otherwise it may simply still be in flight), and only once
        // its last copy has been out for a whole hold-off, so a hole
        // goes out at most once per hold-off however many SACKs report
        // it. Sprayed shares come by routes of different delay, whose
        // spread widens the hold-off. A coded block also waits while it
        // has unsent shares, and then re-sends only as many holes as it
        // is short of a quorum, counting the shares still within their
        // hold-off as on their way.
        let finished = m.acked_count == m.frags.len();
        let mut holes = std::mem::take(&mut self.holes);
        holes.clear();
        if !finished {
            let highest = (0..m.frags.len()).rev().find(|&idx| sack_bit(bitmap, idx));
            let below = highest.map_or(0, |highest| highest.min(m.next_tx));
            let holdoff = peer.rtt.holdoff(m.fec.is_some());
            let flight = &peer.flight;
            let on_its_way = |idx: usize| {
                flight.sent_at(&(msg_id, idx as u32)).is_some_and(|at| now < at + holdoff)
            };
            match m.fec {
                None => {
                    let lost = (0..below).filter(|&idx| !m.acked[idx] && !on_its_way(idx));
                    holes.extend(lost.map(|i| i as u32));
                }
                Some((_, blocks)) => {
                    for k in (0..blocks.count()).filter(|&k| blocks.last(k) < m.next_tx) {
                        let b = blocks.b(k);
                        let open =
                            (0..2 * b - 1).map(|i| blocks.share(k, i)).filter(|&g| !m.acked[g]);
                        let have = m.block_settled(k);
                        let coming = open.clone().filter(|&g| on_its_way(g)).count();
                        let short = b.saturating_sub(have + coming);
                        let lost = open.filter(|&g| g < below && !on_its_way(g));
                        holes.extend(lost.take(short).map(|g| g as u32));
                    }
                    holes.sort_unstable();
                }
            }
        }
        if finished {
            peer.finish(pos);
        }
        if let Some(sample) = rtt_sample {
            peer.rtt.sample(sample);
        }
        for &idx in &holes {
            self.retransmit(now, src_key, from_ep, (msg_id, idx), None);
        }
        self.holes = holes;
        self.pump(now, src_key);
        // Fully drained flight: drop the RTO token so the deadline
        // report goes quiet with the peer.
        if self.peers.get(&src_key).is_some_and(|p| p.flight.is_empty()) {
            self.timers.remove(&(TimerKind::Rto, src_key));
        }
    }

    /// Serialize the complete protocol state (sender queues + receiver
    /// reassembly) for migration. In-flight bookkeeping is dropped: on
    /// import every unacked fragment is eligible for retransmission,
    /// and receivers deduplicate, so nothing is lost (§5.6).
    pub fn export_state(&self) -> Bytes {
        let peers = self.peer_keys().into_iter().map(|key| {
            let p = &self.peers[&key];
            let queue = p.queue.iter().map(|m| QueuedSnapshot {
                msg_id: m.msg_id,
                fec: m.fec.map(|(meta, _)| meta),
                frags: m.acked.iter().copied().zip(m.frags.iter().cloned()).collect(),
            });
            let partials = p.reasm.export().into_iter().map(|(msg_id, frags)| PartialSnapshot {
                msg_id,
                fec: p.reasm.note(msg_id).and_then(|note| note.fec),
                frags,
            });
            PeerSnapshot {
                key,
                location: self.locations.get(&key).copied(),
                next_msg_id: p.next_msg_id,
                queue: queue.collect(),
                next_deliver: p.next_deliver,
                held: p.held.clone(),
                partials: partials.collect(),
            }
        });
        SrudpSnapshot { my_key: self.my_key, peers: peers.collect() }.encode_to_bytes()
    }

    /// Restore exported state into a fresh endpoint with the given
    /// configuration, as of `now` (restored partials get a fresh
    /// eviction TTL on the new host). The transmit cursors are reset
    /// so every unacked fragment is retransmitted.
    pub fn import_state(bytes: Bytes, cfg: SrudpConfig, now: SimTime) -> SnipeResult<Srudp> {
        let snapshot = SrudpSnapshot::decode_from_bytes(bytes)?;
        let mut s = Srudp::new(snapshot.my_key, cfg);
        for p in snapshot.peers {
            if let Some(ep) = p.location {
                s.locations.insert(p.key, ep);
            }
            let mut peer = Peer::new(&s.cfg);
            peer.next_msg_id = p.next_msg_id;
            for q in p.queue {
                let (acked, frags): (Vec<bool>, Vec<Bytes>) = q.frags.into_iter().unzip();
                let acked_count = acked.iter().filter(|&&a| a).count();
                let fec = match q.fec {
                    Some(meta) => {
                        let blocks = meta.blocks(frags.first().map_or(0, Bytes::len))?;
                        if blocks.shares() != frags.len() {
                            return Err(SnipeError::Protocol(format!(
                                "queued FEC message of {} shares, its layout has {}",
                                frags.len(),
                                blocks.shares()
                            )));
                        }
                        Some((meta, blocks))
                    }
                    None => None,
                };
                let m = OutMsg { msg_id: q.msg_id, frags, acked, acked_count, next_tx: 0, fec };
                peer.backlog_bytes += m.unacked_bytes();
                peer.queue.push_back(m);
            }
            peer.next_deliver = p.next_deliver;
            peer.held = p.held;
            for part in p.partials {
                let note = InMsg { unsacked: 0, fec: part.fec };
                peer.reasm.import(now, part.msg_id, part.frags, note);
            }
            if peer.reasm.in_progress() > 0 {
                s.timers.insert((TimerKind::Evict, p.key), now + REASM_TTL, ());
            }
            s.peers.insert(p.key, peer);
        }
        Ok(s)
    }

    /// Kick retransmission of everything unacked toward every peer
    /// (used right after an import, once locations are refreshed).
    pub fn retransmit_all(&mut self, now: SimTime) {
        // Sorted: pump order decides wire order, and wire order must
        // be a function of the seed, not of hash iteration.
        let keys = self.peer_keys();
        for k in keys {
            self.pump(now, k);
        }
    }

    /// Fire due deadlines: retransmit fragments whose RTO expired
    /// (escalating backoff) and flush due delayed SACKs. Safe to call
    /// early or spuriously — a token whose work turns out not to be
    /// due is re-armed at its true deadline without escalation.
    pub fn on_timer(&mut self, now: SimTime) {
        for ((kind, key), ()) in self.timers.take_due(now) {
            match kind {
                TimerKind::Evict => self.fire_evict(now, key),
                TimerKind::Sack => self.fire_sack(now, key),
                TimerKind::Rto => self.fire_rto(now, key),
            }
        }
    }

    /// Stale partial-reassembly sweep: evict entries idle longer than
    /// [`REASM_TTL`] and re-arm while partial state remains.
    /// Virtual-time driven, so fully deterministic.
    fn fire_evict(&mut self, now: SimTime, key: NodeKey) {
        let Some(peer) = self.peers.get_mut(&key) else {
            return;
        };
        for id in peer.reasm.evict_stale(now, REASM_TTL) {
            peer.forget_partial(id);
            self.stats.reasm_evicted += 1;
        }
        if peer.reasm.in_progress() > 0 {
            self.timers.insert((TimerKind::Evict, key), now + REASM_TTL, ());
        }
    }

    /// Delayed-ACK flush for a peer's pending unsacked message.
    fn fire_sack(&mut self, now: SimTime, key: NodeKey) {
        let Some(&ep) = self.locations.get(&key) else {
            // Location unknown (cannot happen for a peer we received
            // DATA from, but keep the deadline alive rather than lose
            // the flush).
            if self.peers.get(&key).is_some_and(|p| p.pending_sack.is_some()) {
                self.timers.insert((TimerKind::Sack, key), now + ACK_DELAY, ());
            }
            return;
        };
        let Some(peer) = self.peers.get_mut(&key) else {
            return;
        };
        let Some(msg_id) = peer.pending_sack.take() else {
            return; // already flushed by ACK_EVERY; stale fire
        };
        if let Some(note) = peer.reasm.note_mut(msg_id) {
            note.unsacked = 0;
        }
        if let Some(r) = peer.reasm.partial(msg_id) {
            let report = Report::Partial(r);
            Self::emit_sack(&mut self.out, &mut self.stats, self.my_key, ep, msg_id, report);
        }
    }

    /// RTO expiry against a peer: retransmit everything due, escalate
    /// backoff once per firing, re-arm for whatever remains in flight.
    fn fire_rto(&mut self, now: SimTime, key: NodeKey) {
        let Some(peer) = self.peers.get_mut(&key) else {
            return;
        };
        let Some(&ep) = self.locations.get(&key) else {
            // Can't retransmit anywhere yet; retry after one RTO so
            // the flight isn't orphaned when the location resolves.
            if !peer.flight.is_empty() {
                self.timers.insert((TimerKind::Rto, key), now + peer.rtt.rto(), ());
            }
            return;
        };
        // Nothing expired is an early fire (the flight shrank since
        // arming): no escalation, just the exact re-arm below. Expired
        // shares of a coded block leave the flight unsent while the
        // block has unsent shares (those serve it as well and take their
        // place in the window), and otherwise go out again only as far
        // as the block is short of a quorum: at least one, so every
        // block still short keeps a share in flight.
        let mut expired = peer.flight.take_expired(now, peer.rtt.rto());
        let queue = &peer.queue;
        let before = expired.len();
        // (message, block, shares it may still re-send in this firing)
        let mut quota: Vec<(u64, usize, usize)> = Vec::new();
        expired.retain(|&(seq, _)| {
            let Some(m) = queue.iter().find(|m| m.msg_id == seq.0) else { return true };
            let Some((_, blocks)) = m.fec else { return true };
            let idx = seq.1 as usize;
            if m.block_unsent(idx) {
                return false;
            }
            let k = blocks.locate(idx).0;
            let at = quota.iter().position(|q| (q.0, q.1) == (seq.0, k)).unwrap_or_else(|| {
                let short = blocks.b(k).saturating_sub(m.block_settled(k));
                quota.push((seq.0, k, short.max(1)));
                quota.len() - 1
            });
            let left = &mut quota[at].2;
            let resend = *left > 0;
            *left = left.saturating_sub(1);
            resend
        });
        let written_off = expired.len() < before;
        if !expired.is_empty() {
            peer.consecutive_timeouts += 1;
            peer.rtt.on_timeout();
        }
        let mut gave_up: Vec<u64> = Vec::new();
        for (seq, sent) in expired {
            if sent.retries >= self.cfg.max_retries {
                gave_up.push(seq.0);
            } else {
                self.retransmit(now, key, ep, seq, Some(sent));
            }
        }
        let Some(peer) = self.peers.get_mut(&key) else {
            return;
        };
        for msg_id in gave_up {
            if let Some(pos) = peer.position(msg_id) {
                peer.finish(pos);
                self.stats.failed += 1;
            }
        }
        if written_off {
            self.pump(now, key);
        }
        let Some(peer) = self.peers.get_mut(&key) else {
            return;
        };
        // Re-arm for the earliest surviving in-flight fragment.
        match peer.flight.rto_deadline(peer.rtt.rto()) {
            Some(at) => self.timers.insert((TimerKind::Rto, key), at, ()),
            None => drop(self.timers.remove(&(TimerKind::Rto, key))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snipe_util::id::HostId;

    /// Everything `s` queued, each datagram opened.
    pub(super) fn drain_opened(s: &mut Srudp) -> Vec<Out> {
        frame::open_sends(std::mem::take(&mut s.out), Proto::Srudp)
    }

    fn ep(h: u32, p: u16) -> Endpoint {
        Endpoint::new(HostId(h), p)
    }

    /// Shuttle packets between two endpoints with an optional drop
    /// filter; returns delivered messages per side.
    pub(super) fn shuttle(
        a: &mut Srudp,
        b: &mut Srudp,
        a_ep: Endpoint,
        b_ep: Endpoint,
        mut now: SimTime,
        mut drop: impl FnMut(usize) -> bool,
        steps: usize,
    ) -> (Vec<Bytes>, Vec<Bytes>, SimTime) {
        let mut got_a = Vec::new();
        let mut got_b = Vec::new();
        let mut n = 0usize;
        for _ in 0..steps {
            let mut moved = false;
            for o in drain_opened(a) {
                match o {
                    Out::Send { to, bytes, .. } => {
                        moved = true;
                        n += 1;
                        if drop(n) {
                            continue;
                        }
                        assert_eq!(to, b_ep, "packet to unexpected endpoint");
                        b.on_packet(now, a_ep, bytes).unwrap();
                    }
                    Out::Deliver { msg, .. } => got_a.push(msg),
                    Out::Wake { .. } => {}
                }
            }
            for o in drain_opened(b) {
                match o {
                    Out::Send { to, bytes, .. } => {
                        moved = true;
                        n += 1;
                        if drop(n) {
                            continue;
                        }
                        assert_eq!(to, a_ep, "packet to unexpected endpoint");
                        a.on_packet(now, b_ep, bytes).unwrap();
                    }
                    Out::Deliver { msg, .. } => got_b.push(msg),
                    Out::Wake { .. } => {}
                }
            }
            if !moved {
                now += SimDuration::from_millis(30);
                a.on_timer(now);
                b.on_timer(now);
            }
            now += SimDuration::from_micros(100);
        }
        // Collect any remaining delivers.
        for o in drain_opened(a) {
            if let Out::Deliver { msg, .. } = o {
                got_a.push(msg);
            }
        }
        for o in drain_opened(b) {
            if let Out::Deliver { msg, .. } = o {
                got_b.push(msg);
            }
        }
        (got_a, got_b, now)
    }

    /// Move everything `from` queued into `to`, dropping every third
    /// datagram of the run; did anything move?
    fn hop(from: &mut Srudp, to: &mut Srudp, from_ep: Endpoint, now: SimTime, n: &mut u32) -> bool {
        let mut moved = false;
        for o in drain_opened(from) {
            if let Out::Send { bytes, .. } = o {
                moved = true;
                *n += 1;
                if !(*n).is_multiple_of(3) {
                    let _ = to.on_packet(now, from_ep, bytes);
                }
            }
        }
        moved
    }

    /// The no-spin contract through a lossy two-way exchange of
    /// multi-fragment messages: RTOs, delayed SACKs and reassembly
    /// sweeps each fire at their deadline and leave a later one.
    #[test]
    fn woken_at_its_deadline_it_leaves_a_later_one() {
        let mut a = Srudp::new(1, SrudpConfig::default());
        let mut b = Srudp::new(2, SrudpConfig::default());
        a.set_peer_endpoint(2, ep(1, 5));
        b.set_peer_endpoint(1, ep(0, 5));
        for i in 0..4u8 {
            a.send_message(SimTime::ZERO, 2, Bytes::from(vec![i; 6000])).unwrap();
            b.send_message(SimTime::ZERO, 1, Bytes::from(vec![i; 3000])).unwrap();
        }
        let mut n = 0;
        let exchange = |a: &mut Srudp, b: &mut Srudp, now| {
            let moved = hop(a, b, ep(0, 5), now, &mut n);
            hop(b, a, ep(1, 5), now, &mut n) || moved
        };
        let fired =
            crate::assert_no_spin(&mut a, &mut b, exchange, Srudp::next_deadline, Srudp::on_timer);
        assert!(fired > 3, "only {fired} firings");
    }

    #[test]
    fn small_message_delivered() {
        let mut a = Srudp::new(1, SrudpConfig::default());
        let mut b = Srudp::new(2, SrudpConfig::default());
        a.set_peer_endpoint(2, ep(1, 5));
        a.send_message(SimTime::ZERO, 2, Bytes::from_static(b"hello")).unwrap();
        let (_, got_b, _) =
            shuttle(&mut a, &mut b, ep(0, 5), ep(1, 5), SimTime::ZERO, |_| false, 50);
        assert_eq!(got_b.len(), 1);
        assert_eq!(&got_b[0][..], b"hello");
        assert!(a.quiescent());
    }

    #[test]
    fn large_message_fragments_and_reassembles() {
        let mut a = Srudp::new(1, SrudpConfig::default());
        let mut b = Srudp::new(2, SrudpConfig::default());
        a.set_peer_endpoint(2, ep(1, 5));
        let payload = Bytes::from((0..100_000u32).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
        a.send_message(SimTime::ZERO, 2, payload.clone()).unwrap();
        let (_, got_b, _) =
            shuttle(&mut a, &mut b, ep(0, 5), ep(1, 5), SimTime::ZERO, |_| false, 500);
        assert_eq!(got_b.len(), 1);
        assert_eq!(got_b[0], payload);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut a = Srudp::new(1, SrudpConfig::default());
        let mut b = Srudp::new(2, SrudpConfig::default());
        a.set_peer_endpoint(2, ep(1, 5));
        for i in 0..20u8 {
            a.send_message(SimTime::ZERO, 2, Bytes::from(vec![i; 10])).unwrap();
        }
        let (_, got_b, _) =
            shuttle(&mut a, &mut b, ep(0, 5), ep(1, 5), SimTime::ZERO, |_| false, 200);
        assert_eq!(got_b.len(), 20);
        for (i, m) in got_b.iter().enumerate() {
            assert_eq!(m[0] as usize, i);
        }
    }

    #[test]
    fn survives_heavy_loss() {
        let cfg =
            SrudpConfig { rto_initial: SimDuration::from_millis(10), ..SrudpConfig::default() };
        let mut a = Srudp::new(1, cfg.clone());
        let mut b = Srudp::new(2, cfg);
        a.set_peer_endpoint(2, ep(1, 5));
        let payload = Bytes::from(vec![9u8; 50_000]);
        a.send_message(SimTime::ZERO, 2, payload.clone()).unwrap();
        // Drop every 3rd packet.
        let (_, got_b, _) =
            shuttle(&mut a, &mut b, ep(0, 5), ep(1, 5), SimTime::ZERO, |n| n % 3 == 0, 3000);
        assert_eq!(got_b.len(), 1, "stats: {:?} / {:?}", a.stats(), b.stats());
        assert_eq!(got_b[0], payload);
        assert!(a.stats().retransmits > 0, "loss must trigger selective resends");
    }

    #[test]
    fn bidirectional_traffic() {
        let mut a = Srudp::new(1, SrudpConfig::default());
        let mut b = Srudp::new(2, SrudpConfig::default());
        a.set_peer_endpoint(2, ep(1, 5));
        b.set_peer_endpoint(1, ep(0, 5));
        a.send_message(SimTime::ZERO, 2, Bytes::from_static(b"ping")).unwrap();
        b.send_message(SimTime::ZERO, 1, Bytes::from_static(b"pong")).unwrap();
        let (got_a, got_b, _) =
            shuttle(&mut a, &mut b, ep(0, 5), ep(1, 5), SimTime::ZERO, |_| false, 100);
        assert_eq!(&got_b[0][..], b"ping");
        assert_eq!(&got_a[0][..], b"pong");
    }

    #[test]
    fn duplicate_data_reacked_not_redelivered() {
        let mut a = Srudp::new(1, SrudpConfig::default());
        let mut b = Srudp::new(2, SrudpConfig::default());
        a.set_peer_endpoint(2, ep(1, 5));
        a.send_message(SimTime::ZERO, 2, Bytes::from_static(b"once")).unwrap();
        // Capture the DATA packet and play it twice.
        let outs = drain_opened(&mut a);
        let Out::Send { bytes, .. } = &outs[0] else { panic!("expected send") };
        b.on_packet(SimTime::ZERO, ep(0, 5), bytes.clone()).unwrap();
        b.on_packet(SimTime::ZERO, ep(0, 5), bytes.clone()).unwrap();
        let delivers =
            drain_opened(&mut b).into_iter().filter(|o| matches!(o, Out::Deliver { .. })).count();
        assert_eq!(delivers, 1);
        assert_eq!(b.stats().delivered, 1);
        assert!(b.stats().sacks_sent >= 2, "duplicate must be re-SACKed");
    }

    #[test]
    fn migration_retargets_retransmissions() {
        let cfg =
            SrudpConfig { rto_initial: SimDuration::from_millis(10), ..SrudpConfig::default() };
        let mut a = Srudp::new(1, cfg.clone());
        let mut b = Srudp::new(2, cfg);
        a.set_peer_endpoint(2, ep(1, 5));
        a.send_message(SimTime::ZERO, 2, Bytes::from_static(b"follow me")).unwrap();
        // Drop everything sent to the old endpoint.
        for o in drain_opened(&mut a) {
            let Out::Send { to, .. } = o else { continue };
            assert_eq!(to, ep(1, 5));
        }
        // Peer migrates to a new host; location updated (as the core
        // layer would after an RC lookup).
        a.set_peer_endpoint(2, ep(7, 9));
        let now = SimTime::ZERO + SimDuration::from_millis(20);
        a.on_timer(now);
        let outs = drain_opened(&mut a);
        assert!(!outs.is_empty(), "RTO must retransmit");
        for o in &outs {
            if let Out::Send { to, bytes, .. } = o {
                assert_eq!(*to, ep(7, 9), "retransmit must go to the new location");
                b.on_packet(now, ep(0, 5), bytes.clone()).unwrap();
            }
        }
        let msgs: Vec<_> = drain_opened(&mut b)
            .into_iter()
            .filter_map(|o| match o {
                Out::Deliver { msg, .. } => Some(msg),
                _ => None,
            })
            .collect();
        assert_eq!(msgs.len(), 1);
        assert_eq!(&msgs[0][..], b"follow me");
    }

    #[test]
    fn gives_up_after_max_retries() {
        let cfg = SrudpConfig {
            rto_initial: SimDuration::from_millis(1),
            rto_min: SimDuration::from_millis(1),
            rto_max: SimDuration::from_millis(1),
            max_retries: 3,
            ..SrudpConfig::default()
        };
        let mut a = Srudp::new(1, cfg);
        a.set_peer_endpoint(2, ep(1, 5));
        a.send_message(SimTime::ZERO, 2, Bytes::from_static(b"void")).unwrap();
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            now += SimDuration::from_millis(2);
            a.on_timer(now);
            drain_opened(&mut a);
        }
        assert_eq!(a.stats().failed, 1);
        assert!(a.quiescent());
        assert!(a.peer_timeouts(2) >= 3);
    }

    #[test]
    fn rtt_estimation_tightens_rto() {
        let mut a = Srudp::new(1, SrudpConfig::default());
        let mut b = Srudp::new(2, SrudpConfig::default());
        a.set_peer_endpoint(2, ep(1, 5));
        // Several message exchanges with ~1ms RTT.
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            a.send_message(now, 2, Bytes::from(vec![0u8; 100])).unwrap();
            for o in drain_opened(&mut a) {
                if let Out::Send { bytes, .. } = o {
                    b.on_packet(now + SimDuration::from_micros(500), ep(0, 5), bytes).unwrap();
                }
            }
            now += SimDuration::from_millis(1);
            for o in drain_opened(&mut b) {
                if let Out::Send { bytes, .. } = o {
                    a.on_packet(now, ep(1, 5), bytes).unwrap();
                }
            }
        }
        let peer = a.peers.get(&2).unwrap();
        assert!(peer.rtt.srtt().is_some());
        assert!(peer.rtt.rto() < SimDuration::from_millis(50), "rto {}", peer.rtt.rto());
    }

    #[test]
    fn malformed_packet_rejected() {
        let mut a = Srudp::new(1, SrudpConfig::default());
        let err = a.on_packet(SimTime::ZERO, ep(1, 5), Bytes::from_static(&[42])).unwrap_err();
        assert!(err.to_string().contains("unknown SrudpHead tag 42"), "{err}");
        assert!(a.on_packet(SimTime::ZERO, ep(1, 5), Bytes::new()).is_err());
    }

    #[test]
    fn backlog_and_deadline_reporting() {
        let mut a = Srudp::new(1, SrudpConfig::default());
        assert!(a.next_deadline().is_none());
        a.set_peer_endpoint(2, ep(1, 5));
        a.send_message(SimTime::ZERO, 2, Bytes::from(vec![0u8; 5000])).unwrap();
        assert!(a.backlog(2) > 0);
        assert!(a.next_deadline().is_some());
    }

    #[test]
    fn empty_message_delivered() {
        let mut a = Srudp::new(1, SrudpConfig::default());
        let mut b = Srudp::new(2, SrudpConfig::default());
        a.set_peer_endpoint(2, ep(1, 5));
        a.send_message(SimTime::ZERO, 2, Bytes::new()).unwrap();
        let (_, got_b, _) =
            shuttle(&mut a, &mut b, ep(0, 5), ep(1, 5), SimTime::ZERO, |_| false, 50);
        assert_eq!(got_b.len(), 1);
        assert!(got_b[0].is_empty());
    }

    #[test]
    fn timeout_bookkeeping_resets_on_peer_recovery() {
        let cfg = SrudpConfig::default();
        let a_ep = ep(0, 5);
        let b_ep = ep(1, 5);
        let mut a = Srudp::new(1, cfg.clone());
        let mut b = Srudp::new(2, cfg.clone());
        a.set_peer_endpoint(2, b_ep);
        let mut now = SimTime::ZERO;
        a.send_message(now, 2, Bytes::from(vec![9u8; 500])).unwrap();
        // Black-hole the peer: fire timers until escalation piles up.
        let mut blackholed = 0u32;
        while a.peer_timeouts(2) < 5 {
            for o in drain_opened(&mut a) {
                if matches!(o, Out::Send { .. }) {
                    blackholed += 1;
                }
            }
            now += SimDuration::from_millis(5000);
            a.on_timer(now);
        }
        assert!(blackholed > 0);
        let backed_off = a.peers[&2].rtt.rto();
        assert!(backed_off > cfg.rto_initial, "RTO backed off");
        // Peer comes back: shuttle traffic until delivery completes.
        let (_, got_b, _) = shuttle(&mut a, &mut b, a_ep, b_ep, now, |_| false, 200);
        assert_eq!(got_b.len(), 1, "message survives the outage");
        let peer = a.peers.get(&2).expect("peer");
        assert_eq!(peer.consecutive_timeouts, 0, "timeouts reset by SACK");
        // Karn: the fragment was retransmitted, so its acknowledgement
        // is no sample and the backed-off RTO stands until one arrives.
        assert_eq!((peer.rtt.srtt(), peer.rtt.rto()), (None, backed_off));
        assert_eq!(a.peer_timeouts(2), 0);
    }

    #[test]
    fn rto_stays_clamped_through_repeated_escalation() {
        let cfg = SrudpConfig::default();
        let mut a = Srudp::new(1, cfg.clone());
        a.set_peer_endpoint(2, ep(1, 5));
        let mut now = SimTime::ZERO;
        a.send_message(now, 2, Bytes::from(vec![9u8; 100])).unwrap();
        let _ = drain_opened(&mut a);
        // 40 unanswered timer rounds: rto doubles each round but must
        // never leave [rto_min, rto_max].
        for _ in 0..40 {
            now += SimDuration::from_millis(5000);
            a.on_timer(now);
            let _ = drain_opened(&mut a);
            let rto = a.peers[&2].rtt.rto();
            assert!(rto >= cfg.rto_min, "rto {rto} below floor");
            assert!(rto <= cfg.rto_max, "rto {rto} above ceiling");
        }
        assert_eq!(a.peers[&2].rtt.rto(), cfg.rto_max, "escalation saturates at rto_max");
    }
}

#[cfg(test)]
mod migration_tests {
    use super::tests::{drain_opened, shuttle};
    use super::*;
    use snipe_util::id::HostId;

    fn ep(h: u32, p: u16) -> Endpoint {
        Endpoint::new(HostId(h), p)
    }

    /// Full migration drill: receiver checkpointed mid-message and
    /// resurrected elsewhere; nothing is lost, FIFO holds.
    #[test]
    fn export_import_preserves_in_flight_traffic() {
        let cfg =
            SrudpConfig { rto_initial: SimDuration::from_millis(5), ..SrudpConfig::default() };
        let mut a = Srudp::new(1, cfg.clone());
        let mut b = Srudp::new(2, cfg.clone());
        a.set_peer_endpoint(2, ep(1, 5));
        // Queue three multi-fragment messages.
        for i in 0..3u8 {
            a.send_message(SimTime::ZERO, 2, Bytes::from(vec![i; 4000])).unwrap();
        }
        // Deliver only the first few packets to b, drop the rest.
        let mut delivered_packets = 0;
        for o in drain_opened(&mut a) {
            if let Out::Send { bytes, .. } = o {
                if delivered_packets < 2 {
                    b.on_packet(SimTime::ZERO, ep(0, 5), bytes).unwrap();
                    delivered_packets += 1;
                }
            }
        }
        drain_opened(&mut b);
        // "Migrate" BOTH endpoints: checkpoint and restore.
        let a2_state = a.export_state();
        let b2_state = b.export_state();
        let mut a2 = Srudp::import_state(a2_state, cfg.clone(), SimTime::ZERO).unwrap();
        let mut b2 = Srudp::import_state(b2_state, cfg.clone(), SimTime::ZERO).unwrap();
        // b now lives at a new endpoint; a2 learns it.
        a2.set_peer_endpoint(2, ep(9, 5));
        let now = SimTime::ZERO + SimDuration::from_millis(10);
        a2.retransmit_all(now);
        // Shuttle to completion.
        let mut got = Vec::new();
        let mut t = now;
        for _ in 0..500 {
            let mut moved = false;
            for o in drain_opened(&mut a2) {
                if let Out::Send { bytes, .. } = o {
                    moved = true;
                    b2.on_packet(t, ep(0, 5), bytes).unwrap();
                }
            }
            for o in drain_opened(&mut b2) {
                match o {
                    Out::Send { bytes, .. } => {
                        moved = true;
                        a2.on_packet(t, ep(9, 5), bytes).unwrap();
                    }
                    Out::Deliver { msg, .. } => got.push(msg),
                    Out::Wake { .. } => {}
                }
            }
            if !moved {
                t += SimDuration::from_millis(10);
                a2.on_timer(t);
                b2.on_timer(t);
            }
        }
        assert_eq!(got.len(), 3, "all messages must survive migration");
        for (i, m) in got.iter().enumerate() {
            assert_eq!(m[0] as usize, i, "FIFO order preserved");
            assert_eq!(m.len(), 4000);
        }
        assert!(a2.quiescent());
    }

    #[test]
    fn export_of_fresh_endpoint_is_importable() {
        let a = Srudp::new(7, SrudpConfig::default());
        let b =
            Srudp::import_state(a.export_state(), SrudpConfig::default(), SimTime::ZERO).unwrap();
        assert_eq!(b.key(), 7);
        assert!(b.quiescent());
    }

    #[test]
    fn import_rejects_garbage() {
        assert!(Srudp::import_state(
            Bytes::from_static(b"junk"),
            SrudpConfig::default(),
            SimTime::ZERO
        )
        .is_err());
    }

    /// A datagram body: `head`, then `blob` (fragment or SACK bitmap).
    fn datagram(head: SrudpHead, blob: &[u8]) -> Bytes {
        let mut e = Encoder::new();
        head.encode(&mut e);
        e.put_bytes(blob);
        e.finish()
    }

    /// Plain fragment `idx` of `count` of message `msg_id` from key 1.
    fn data(msg_id: u64, idx: u32, count: u32, payload: &[u8]) -> Bytes {
        datagram(SrudpHead::Data { src_key: 1, msg_id, idx, count }, payload)
    }

    #[test]
    fn hostile_frag_count_rejected_without_allocating() {
        let mut b = Srudp::new(2, SrudpConfig::default());
        // A DATA header claiming u32::MAX fragments; accepting it would
        // size a multi-gigabyte reassembly buffer.
        let err = b.on_packet(SimTime::ZERO, ep(0, 5), data(0, 0, u32::MAX, b"x")).unwrap_err();
        assert_eq!(err.kind(), "protocol");
        // Zero is equally corrupt (every message has ≥ 1 fragment).
        assert!(b.on_packet(SimTime::ZERO, ep(0, 5), data(0, 0, 0, b"x")).is_err());
    }

    /// The most datagrams a receiver takes bounds what a sender
    /// queues. Under FEC a message of `n` fragments is `2n - ⌈n / 9⌉`
    /// shares, so 34 696 one-byte fragments are the most that fit: one
    /// more is refused with nothing queued, and what fits is accepted.
    #[test]
    fn a_message_past_the_fragment_limit_is_refused() {
        for (frag_strategy, most) in
            [(FragStrategy::Plain, MAX_FRAGMENTS), (FragStrategy::Fec, 34_696)]
        {
            let cfg = SrudpConfig { frag_size: 1, frag_strategy, ..SrudpConfig::default() };
            let mut a = Srudp::new(1, cfg.clone());
            let mut b = Srudp::new(2, cfg);
            a.set_peer_endpoint(2, ep(1, 5));
            let err = a.send_message(SimTime::ZERO, 2, patterned(most + 1)).unwrap_err();
            assert!(err.to_string().contains("exceeds limit"), "{frag_strategy:?}: {err}");
            assert!(a.quiescent() && a.backlog_total() == 0, "{frag_strategy:?}: queued");
            a.send_message(SimTime::ZERO, 2, patterned(most)).unwrap();
            let sent = drain_opened(&mut a);
            assert!(!sent.is_empty());
            for o in sent {
                let Out::Send { bytes, .. } = o else { continue };
                b.on_packet(SimTime::ZERO, ep(0, 5), bytes).expect("the receiver takes it");
            }
        }
    }

    #[test]
    fn import_rejects_hostile_counts() {
        // A checkpoint claiming a huge fragment vector but carrying no
        // bytes must error out, not preallocate.
        let mut e = Encoder::new();
        e.put_u64(7); // my key
        e.put_u32(1); // one peer
        e.put_u64(3); // peer key
        e.put_bool(false); // no location
        e.put_u64(0); // next_msg_id
        e.put_u32(1); // one queued message
        e.put_u64(0); // msg id
        e.put_bool(false); // no FEC parameters
        e.put_u32(u32::MAX); // fragment count: hostile
        let err = match Srudp::import_state(e.finish(), SrudpConfig::default(), SimTime::ZERO) {
            Ok(_) => panic!("hostile checkpoint accepted"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("count 4294967295 exceeds"), "{err}");
    }

    fn fec_cfg() -> SrudpConfig {
        SrudpConfig { frag_strategy: FragStrategy::Fec, ..SrudpConfig::default() }
    }

    fn patterned(len: usize) -> Bytes {
        Bytes::from((0..len).map(|i| (i % 249) as u8).collect::<Vec<u8>>())
    }

    #[test]
    fn fec_round_trips_multi_fragment_messages() {
        let mut a = Srudp::new(1, fec_cfg());
        let mut b = Srudp::new(2, fec_cfg());
        a.set_peer_endpoint(2, ep(1, 5));
        let payload = patterned(5 * 1400);
        a.send_message(SimTime::ZERO, 2, payload.clone()).unwrap();
        let (_, got_b, _) =
            shuttle(&mut a, &mut b, ep(0, 5), ep(1, 5), SimTime::ZERO, |_| false, 200);
        assert_eq!(got_b.len(), 1);
        assert_eq!(got_b[0], payload);
        assert_eq!(b.stats().fec_delivered, 1);
        assert_eq!(b.stats().fec_corrupt, 0);
        assert!(a.quiescent(), "done-SACK must clear the sender");
    }

    #[test]
    fn fec_completes_in_one_flight_despite_share_loss() {
        // b = 5 data shares + 4 parity = 9 on the wire; any 5 suffice.
        // Drop 4 of the 9 first-flight shares: the message must still
        // deliver with no RTO round (the whole point of FEC).
        let mut a = Srudp::new(1, fec_cfg());
        let mut b = Srudp::new(2, fec_cfg());
        a.set_peer_endpoint(2, ep(1, 5));
        let payload = patterned(5 * 1400);
        a.send_message(SimTime::ZERO, 2, payload.clone()).unwrap();
        let mut got = Vec::new();
        for (i, o) in drain_opened(&mut a).into_iter().enumerate() {
            if let Out::Send { bytes, .. } = o {
                if [1usize, 3, 5, 7].contains(&i) {
                    continue; // lost shares
                }
                b.on_packet(SimTime::ZERO, ep(0, 5), bytes).unwrap();
            }
        }
        for o in drain_opened(&mut b) {
            if let Out::Deliver { msg, .. } = o {
                got.push(msg);
            }
        }
        assert_eq!(got.len(), 1, "quorum of b shares must reconstruct immediately");
        assert_eq!(got[0], payload);
        assert_eq!(b.stats().fec_delivered, 1);
    }

    #[test]
    fn fec_plain_interop_is_per_driver_config() {
        // A plain-strategy sender talking to an FEC-capable receiver
        // (and vice versa) must still deliver: strategy only changes
        // what the sender emits, the receiver handles both kinds.
        let mut a = Srudp::new(1, SrudpConfig::default());
        let mut b = Srudp::new(2, fec_cfg());
        a.set_peer_endpoint(2, ep(1, 5));
        let payload = patterned(4 * 1400);
        a.send_message(SimTime::ZERO, 2, payload.clone()).unwrap();
        let (_, got_b, _) =
            shuttle(&mut a, &mut b, ep(0, 5), ep(1, 5), SimTime::ZERO, |_| false, 200);
        assert_eq!(got_b.len(), 1);
        assert_eq!(got_b[0], payload);
        assert_eq!(b.stats().fec_delivered, 0, "plain path must not count as FEC");
    }

    #[test]
    fn fec_corrupted_share_is_caught_never_misdelivered() {
        let mut a = Srudp::new(1, fec_cfg());
        let mut b = Srudp::new(2, fec_cfg());
        a.set_peer_endpoint(2, ep(1, 5));
        let payload = patterned(5 * 1400);
        a.send_message(SimTime::ZERO, 2, payload.clone()).unwrap();
        let mut now = SimTime::ZERO;
        let mut got = Vec::new();
        let mut corrupted = false;
        for _ in 0..400 {
            let mut moved = false;
            for o in drain_opened(&mut a) {
                if let Out::Send { bytes, .. } = o {
                    moved = true;
                    let wire = if !corrupted {
                        corrupted = true;
                        // Flip a byte deep in the first share's payload
                        // (headers intact, so only FEC can notice).
                        let mut v = bytes.to_vec();
                        let at = v.len() - 3;
                        v[at] ^= 0xFF;
                        Bytes::from(v)
                    } else {
                        bytes
                    };
                    // The corrupted quorum decode is a counted error.
                    let _ = b.on_packet(now, ep(0, 5), wire);
                }
            }
            for o in drain_opened(&mut b) {
                match o {
                    Out::Send { bytes, .. } => {
                        moved = true;
                        a.on_packet(now, ep(1, 5), bytes).unwrap();
                    }
                    Out::Deliver { msg, .. } => got.push(msg),
                    Out::Wake { .. } => {}
                }
            }
            if got.len() == 1 {
                break;
            }
            if !moved {
                now += SimDuration::from_millis(120);
                a.on_timer(now);
                b.on_timer(now);
            }
        }
        assert!(corrupted);
        assert_eq!(b.stats().fec_corrupt, 1, "corruption must be detected exactly once");
        assert_eq!(got.len(), 1, "retransmissions must recover the message");
        assert_eq!(got[0], payload, "a corrupted reconstruction must never reach the app");
    }

    #[test]
    fn fec_meta_mismatch_is_a_protocol_error() {
        let mut b = Srudp::new(2, SrudpConfig::default());
        let share = |checksum: u32| {
            let meta = FecMeta { b: 3, block: 0, msg_len: 100, checksum };
            datagram(SrudpHead::Fec { src_key: 1, msg_id: 0, idx: 0, meta }, b"abc")
        };
        b.on_packet(SimTime::ZERO, ep(0, 5), share(7)).unwrap();
        // Same message, contradictory metadata: hostile or corrupted.
        let err = b.on_packet(SimTime::ZERO, ep(0, 5), share(8)).unwrap_err();
        assert_eq!(err.kind(), "protocol");
    }

    /// One datagram on a scripted pipe: when it lands, and where.
    struct InFlight {
        at: SimTime,
        to_b: bool,
        bytes: Bytes,
    }

    /// From `start` on, drive `a` (key 1) and `b` (key 2) over a pipe
    /// that delays every datagram sent at `now` by `delay(now, head)`,
    /// or loses it where that is `None`, and
    /// fires each endpoint's timers at its own deadline, until nothing
    /// is in flight or pending. Returns what `b` delivered and, for
    /// every datagram `a` sent, its send instant and header.
    fn scripted(
        a: &mut Srudp,
        b: &mut Srudp,
        start: SimTime,
        mut delay: impl FnMut(SimTime, &SrudpHead) -> Option<SimDuration>,
    ) -> (Vec<Bytes>, Vec<(SimTime, SrudpHead)>) {
        let (a_ep, b_ep) = (ep(0, 5), ep(1, 5));
        let (mut now, mut pipe, mut got, mut sent) = (start, Vec::new(), Vec::new(), Vec::new());
        for _ in 0..100_000 {
            for (to_b, end) in [(true, &mut *a), (false, &mut *b)] {
                for o in drain_opened(end) {
                    match o {
                        Out::Send { bytes, .. } => {
                            let (head, _) = split_head::<SrudpHead>(bytes.clone()).unwrap();
                            if to_b {
                                sent.push((now, head));
                            }
                            if let Some(d) = delay(now, &head) {
                                pipe.push(InFlight { at: now + d, to_b, bytes });
                            }
                        }
                        Out::Deliver { msg, .. } => got.push(msg),
                        Out::Wake { .. } => {}
                    }
                }
            }
            let next_arrival = pipe.iter().map(|d| d.at).min();
            let next_timer = [a.next_deadline(), b.next_deadline()].into_iter().flatten().min();
            match (next_arrival, next_timer) {
                (None, None) => return (got, sent),
                (Some(at), t) if t.is_none_or(|t| at <= t) => {
                    now = at;
                    let i = pipe.iter().position(|d| d.at == at).expect("earliest");
                    let d = pipe.remove(i);
                    match d.to_b {
                        true => b.on_packet(now, a_ep, d.bytes).unwrap(),
                        false => a.on_packet(now, b_ep, d.bytes).unwrap(),
                    }
                }
                (_, Some(t)) => {
                    now = t;
                    a.on_timer(now);
                    b.on_timer(now);
                }
                (Some(_), None) => unreachable!("covered by the guard above"),
            }
        }
        panic!("the exchange never went quiet");
    }

    const HOP: SimDuration = SimDuration::from_micros(200);

    /// Fragment 0 of a 40-fragment message is lost three times, and
    /// so is every `done` SACK sent at the instant of the first. With a
    /// budget of three retries, the SACKs that report the hole must not
    /// spend it: only timeouts do, and the receiver's answer to the
    /// timeout's copy settles the message before any budget runs out.
    #[test]
    fn a_delivered_message_is_never_written_off() {
        let cfg = SrudpConfig { frag_size: 100, max_retries: 3, ..SrudpConfig::default() };
        let mut a = Srudp::new(1, cfg.clone());
        let mut b = Srudp::new(2, cfg);
        a.set_peer_endpoint(2, ep(1, 5));
        let payload = patterned(4000);
        a.send_message(SimTime::ZERO, 2, payload.clone()).unwrap();
        let (mut lost_frag0, mut first_done) = (0, None);
        let (got, _) = scripted(&mut a, &mut b, SimTime::ZERO, |now, head| match *head {
            SrudpHead::Data { idx: 0, .. } if lost_frag0 < 3 => {
                lost_frag0 += 1;
                None
            }
            SrudpHead::Sack { done: true, .. } if *first_done.get_or_insert(now) == now => None,
            _ => Some(HOP),
        });
        assert_eq!(got, vec![payload], "the receiver delivers");
        assert_eq!(lost_frag0, 3, "the script ran");
        assert_eq!(a.stats().failed, 0, "a delivered message was written off");
        assert!(a.quiescent());
    }

    /// A hole the SACKs keep reporting goes out again only once its
    /// last copy has been out for the hold-off: never once per SACK.
    #[test]
    fn a_hole_goes_out_once_per_hold_off() {
        let cfg = SrudpConfig { frag_size: 100, ..SrudpConfig::default() };
        let mut a = Srudp::new(1, cfg.clone());
        let mut b = Srudp::new(2, cfg);
        a.set_peer_endpoint(2, ep(1, 5));
        // Warm the estimator so the hold-off is a measured one.
        a.send_message(SimTime::ZERO, 2, patterned(200)).unwrap();
        let (got, _) = scripted(&mut a, &mut b, SimTime::ZERO, |_, _| Some(HOP));
        assert_eq!(got.len(), 1);
        let holdoff = a.peers[&2].rtt.holdoff(false);
        assert!(holdoff >= HOP * 2, "hold-off {holdoff} below one round trip");
        // Then 60 fragments, fragment 3 lost on its first two flights.
        let start = SimTime::ZERO + SimDuration::from_millis(50);
        a.send_message(start, 2, patterned(6000)).unwrap();
        let mut lost = 0;
        let (got, sent) = scripted(&mut a, &mut b, start, |_, head| match *head {
            SrudpHead::Data { msg_id: 1, idx: 3, .. } if lost < 2 => {
                lost += 1;
                None
            }
            _ => Some(HOP),
        });
        assert_eq!(got.len(), 1);
        let copies: Vec<SimTime> = sent
            .iter()
            .filter(|(_, h)| matches!(h, SrudpHead::Data { msg_id: 1, idx: 3, .. }))
            .map(|&(at, _)| at)
            .collect();
        assert_eq!(copies.len(), 3, "two losses, then one copy that lands: {copies:?}");
        assert!(copies[2] >= copies[1] + holdoff, "re-sent within the hold-off: {copies:?}");
    }

    /// Shares sprayed over two lossless routes, one five times slower:
    /// the slow route's shares arrive after later fast ones, which is
    /// reordering, not loss, and nothing is sent twice.
    #[test]
    fn fec_over_unequal_lossless_routes_resends_nothing() {
        let mut a = Srudp::new(1, fec_cfg());
        let mut b = Srudp::new(2, fec_cfg());
        a.set_peer_endpoint(2, ep(1, 5));
        let msgs: Vec<Bytes> = (0..4).map(|i| patterned(30 * 1400 - 7 * i)).collect();
        for m in &msgs {
            a.send_message(SimTime::ZERO, 2, m.clone()).unwrap();
        }
        // Every other share takes the slow route, as the stack sprays
        // them over two; SACKs return on the fast one.
        let mut shares = 0;
        let (got, sent) = scripted(&mut a, &mut b, SimTime::ZERO, |_, head| match head {
            SrudpHead::Fec { .. } => {
                shares += 1;
                Some(if shares % 2 == 0 { HOP * 5 } else { HOP })
            }
            _ => Some(HOP),
        });
        assert_eq!(got, msgs);
        assert_eq!(b.stats().fec_delivered, 4);
        assert!(sent.len() > 4 * 30, "shares went out");
        assert_eq!(a.stats().retransmits, 0, "a lossless pipe re-sends nothing");
    }

    #[test]
    fn partial_reassembly_state_is_bounded() {
        // A sender that opens partials forever (fragment 0 of 2, new
        // msg id each time) must not grow receiver state without bound.
        let mut b = Srudp::new(2, SrudpConfig::default());
        let total = 3 * crate::frag::MAX_PARTIAL_MSGS as u64;
        for id in 0..total {
            b.on_packet(SimTime::from_nanos(id), ep(0, 5), data(id, 0, 2, b"never completes"))
                .unwrap();
        }
        let peer = &b.peers[&1];
        assert!(peer.reasm.in_progress() <= crate::frag::MAX_PARTIAL_MSGS);
        assert_eq!(b.stats().reasm_evicted, 2 * crate::frag::MAX_PARTIAL_MSGS as u64);
    }

    #[test]
    fn stale_partials_are_swept_by_virtual_time() {
        let mut b = Srudp::new(2, SrudpConfig::default());
        b.on_packet(SimTime::ZERO, ep(0, 5), data(0, 0, 2, b"half")).unwrap();
        drain_opened(&mut b);
        assert_eq!(b.peers[&1].reasm.in_progress(), 1);
        assert!(b.next_deadline().is_some(), "evict sweep must be armed");
        // Walk time past the TTL in sweep-sized steps.
        let mut now = SimTime::ZERO;
        for _ in 0..3 {
            now += REASM_TTL;
            b.on_timer(now);
        }
        assert_eq!(b.peers[&1].reasm.in_progress(), 0);
        assert_eq!(b.stats().reasm_evicted, 1);
    }
}
