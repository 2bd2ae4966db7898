//! RSTREAM — the reliable byte-stream protocol (TCP substitute).
//!
//! The paper's communications module "supported a selective re-send UDP
//! protocol as well as TCP/IP" (§6). The authors used the kernel's TCP;
//! our substrate has no kernel, so this module re-implements a minimal
//! TCP-shaped protocol from scratch: three-way handshake, cumulative
//! ACKs over byte offsets, a fixed flow-control window, RTO and fast
//! retransmit on triple duplicate ACKs, plus 4-byte length framing so
//! the stream carries discrete messages.
//!
//! Connections are endpoint-addressed and — deliberately, unlike
//! [`crate::srudp`] — do **not** survive process migration; experiment
//! E5 uses that contrast.

use std::collections::{BTreeMap, HashMap, VecDeque};

use bytes::Bytes;

use snipe_netsim::topology::Endpoint;
use snipe_netsim::trace::{self, TraceKind};
use snipe_util::codec::{WireDecode, WireEncode};
use snipe_util::deadlines::Deadlines;
use snipe_util::error::{SnipeError, SnipeResult};
use snipe_util::time::{SimDuration, SimTime};
use snipe_util::wire_codec;

use crate::frame::{self, split_head, Proto};
use crate::recovery::{Flight, Rtt, Sent};
use crate::Out;

/// Maximum segment size (payload bytes per DATA packet).
const MSS: usize = 1400;
/// Flow-control window in bytes.
const WINDOW: usize = 64 * MSS;

/// RSTREAM tuning knobs.
#[derive(Clone, Debug)]
pub struct RstreamConfig {
    /// Initial retransmission timeout.
    pub rto_initial: SimDuration,
    /// RTO clamp floor / ceiling.
    pub rto_min: SimDuration,
    /// RTO clamp ceiling.
    pub rto_max: SimDuration,
    /// Abort the connection after this many consecutive RTO expiries.
    pub max_timeouts: u32,
}

impl Default for RstreamConfig {
    fn default() -> Self {
        RstreamConfig {
            rto_initial: SimDuration::from_millis(100),
            rto_min: SimDuration::from_millis(2),
            rto_max: SimDuration::from_secs(4),
            max_timeouts: 10,
        }
    }
}

/// Connection identifier (chosen by the initiator, shared by both ends).
pub type ConnId = u64;

/// An RSTREAM datagram: the header of connection `id`. DATA's segment
/// follows it as a length-prefixed blob, outside the listing.
enum RstreamHead {
    /// Open the connection.
    Syn(ConnId),
    /// Accept it.
    SynAck(ConnId),
    /// A segment at stream offset `offset`.
    Data { id: ConnId, offset: u64 },
    /// Everything below stream offset `cum` has arrived.
    Ack { id: ConnId, cum: u64 },
    /// Close it.
    Fin(ConnId),
}

wire_codec!(enum RstreamHead {
    1 => Syn(id),
    2 => SynAck(id),
    3 => Data { id, offset },
    4 => Ack { id, cum },
    5 => Fin(id),
});

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    SynSent,
    Established,
    Closed,
}

struct Conn {
    peer: Endpoint,
    state: State,
    // Sender.
    snd_buf: VecDeque<u8>,
    /// Stream offset of snd_buf[0] (== lowest unacked byte).
    snd_una: u64,
    /// Next offset to transmit.
    snd_nxt: u64,
    /// Every transmitted, unacknowledged segment, by its start offset.
    flight: Flight<u64>,
    dup_acks: u32,
    rtt: Rtt,
    timeouts: u32,
    /// Loss-recovery horizon (NewReno): after an RTO, ACKs below this
    /// offset are partial — the hole extends further, so the next
    /// unacked segment is retransmitted immediately instead of waiting
    /// out another full (escalated) RTO per segment.
    recover: u64,
    // Receiver.
    rcv_nxt: u64,
    ooo: BTreeMap<u64, Bytes>,
    rcv_buf: Vec<u8>,
}

impl Conn {
    fn new(peer: Endpoint, state: State, cfg: &RstreamConfig) -> Conn {
        Conn {
            peer,
            state,
            snd_buf: VecDeque::new(),
            snd_una: 0,
            snd_nxt: 0,
            flight: Flight::new(),
            dup_acks: 0,
            rtt: Rtt::new(cfg.rto_initial, cfg.rto_min, cfg.rto_max),
            timeouts: 0,
            recover: 0,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            rcv_buf: Vec::new(),
        }
    }
}

/// Counters for benches and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RstreamStats {
    /// DATA segments first-transmitted.
    pub segments_sent: u64,
    /// Retransmitted segments (RTO + fast retransmit).
    pub retransmits: u64,
    /// Fast retransmits triggered by triple duplicate ACKs.
    pub fast_retransmits: u64,
    /// Messages delivered to the application.
    pub delivered: u64,
    /// Connections aborted.
    pub aborted: u64,
}

/// The RSTREAM endpoint: many connections, client and server roles.
pub struct Rstream {
    cfg: RstreamConfig,
    conns: HashMap<ConnId, Conn>,
    /// Per-connection RTO deadlines; the only timer source in this
    /// driver. Due together, they fire in connection-id order.
    timers: Deadlines<ConnId>,
    out: Vec<Out>,
    stats: RstreamStats,
    next_conn_seed: u64,
}

impl Rstream {
    /// New endpoint. `seed` randomizes connection ids.
    pub fn new(cfg: RstreamConfig, seed: u64) -> Rstream {
        Rstream {
            cfg,
            conns: HashMap::new(),
            timers: Deadlines::new(),
            out: Vec::new(),
            stats: RstreamStats::default(),
            next_conn_seed: seed,
        }
    }

    /// Counters.
    pub fn stats(&self) -> RstreamStats {
        self.stats
    }

    /// Open a connection to `peer`. Data may be queued immediately; it
    /// flows once the handshake completes.
    pub fn connect(&mut self, now: SimTime, peer: Endpoint) -> ConnId {
        // Deterministic but distinct ids.
        self.next_conn_seed =
            self.next_conn_seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let id = self.next_conn_seed | 1;
        let conn = Conn::new(peer, State::SynSent, &self.cfg);
        // The handshake has no ACK clock: arm the RTO so a lost SYN
        // is retransmitted instead of wedging the connection.
        self.timers.insert(id, now + conn.rtt.rto(), ());
        self.conns.insert(id, conn);
        Self::emit_control(&mut self.out, peer, RstreamHead::Syn(id));
        id
    }

    /// A packet with no payload: SYN, SYNACK, ACK or FIN.
    fn emit_control(out: &mut Vec<Out>, to: Endpoint, head: RstreamHead) {
        let bytes = frame::seal_with(Proto::Rstream, |enc| head.encode(enc));
        out.push(Out::Send { to, via: None, spray: None, bytes });
    }

    /// Is the connection established?
    pub fn is_established(&self, id: ConnId) -> bool {
        self.conns.get(&id).is_some_and(|c| c.state == State::Established)
    }

    /// Is the connection closed/aborted (or unknown)?
    pub fn is_closed(&self, id: ConnId) -> bool {
        self.conns.get(&id).is_none_or(|c| c.state == State::Closed)
    }

    /// Bytes not yet acknowledged by the peer.
    pub fn unacked_bytes(&self, id: ConnId) -> usize {
        self.conns.get(&id).map_or(0, |c| c.snd_buf.len())
    }

    /// Queue a framed message on the stream.
    pub fn send_message(&mut self, now: SimTime, id: ConnId, msg: &[u8]) -> SnipeResult<()> {
        let conn = self
            .conns
            .get_mut(&id)
            .ok_or_else(|| SnipeError::WrongState(format!("unknown connection {id:#x}")))?;
        if conn.state == State::Closed {
            return Err(SnipeError::WrongState("connection closed".into()));
        }
        conn.snd_buf.extend((msg.len() as u32).to_be_bytes());
        conn.snd_buf.extend(msg.iter().copied());
        self.pump(now, id);
        Ok(())
    }

    /// Close a connection gracefully (FIN); queued data is flushed first
    /// by the peer's ACK progress, but this simple FIN is immediate.
    pub fn close(&mut self, id: ConnId) {
        if let Some(c) = self.conns.get_mut(&id) {
            if c.state != State::Closed {
                Self::emit_control(&mut self.out, c.peer, RstreamHead::Fin(id));
                c.state = State::Closed;
                self.timers.remove(&id);
            }
        }
    }

    /// Abort every connection to a peer (e.g. the peer host died).
    #[allow(
        clippy::disallowed_methods,
        clippy::iter_over_hash_type,
        reason = "closing each connection and dropping its timer commute"
    )]
    pub fn abort_peer(&mut self, peer: Endpoint) {
        for (id, c) in self.conns.iter_mut() {
            if c.peer == peer && c.state != State::Closed {
                c.state = State::Closed;
                self.stats.aborted += 1;
                self.timers.remove(id);
            }
        }
    }

    /// Earliest RTO deadline across connections.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.timers.next_deadline()
    }

    /// Put the `len` bytes of `conn`'s send buffer that start at stream
    /// offset `offset` on the wire as one DATA segment, copied straight
    /// out of the ring buffer's two halves into the datagram.
    fn emit_data(out: &mut Vec<Out>, conn: &Conn, id: ConnId, offset: u64, len: usize) {
        let skip = (offset - conn.snd_una) as usize;
        let (front, back) = conn.snd_buf.as_slices();
        let end = (skip + len).min(conn.snd_buf.len());
        let start = skip.min(end);
        let split = front.len();
        let head_part = &front[start.min(split)..end.min(split)];
        let tail_part = &back[start.max(split) - split..end.max(split) - split];
        let bytes = frame::seal_with(Proto::Rstream, |enc| {
            RstreamHead::Data { id, offset }.encode(enc);
            enc.put_blob(end - start, |enc| {
                enc.put_raw(head_part);
                enc.put_raw(tail_part);
            });
        });
        out.push(Out::Send { to: conn.peer, via: None, spray: None, bytes });
    }

    fn pump(&mut self, now: SimTime, id: ConnId) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.state != State::Established {
            return;
        }
        while (conn.snd_nxt - conn.snd_una) < WINDOW as u64 {
            let offset_in_buf = (conn.snd_nxt - conn.snd_una) as usize;
            if offset_in_buf >= conn.snd_buf.len() {
                break;
            }
            let take = MSS.min(conn.snd_buf.len() - offset_in_buf).min(WINDOW - offset_in_buf);
            let offset = conn.snd_nxt;
            conn.snd_nxt += take as u64;
            conn.flight.file(offset, now, Sent::default());
            self.stats.segments_sent += 1;
            Self::emit_data(&mut self.out, conn, id, offset, take);
            if self.timers.get(&id).is_none() {
                self.timers.insert(id, now + conn.rtt.rto(), ());
            }
        }
    }

    /// Re-send the first unacknowledged segment: the only way a segment
    /// goes out twice, for a partial ACK, a fast retransmit and an RTO
    /// alike. The caller has checked that something is outstanding.
    fn retransmit(
        out: &mut Vec<Out>,
        stats: &mut RstreamStats,
        now: SimTime,
        conn: &mut Conn,
        id: ConnId,
    ) {
        let (offset, len) = (conn.snd_una, MSS.min(conn.snd_buf.len()));
        let retries = conn.flight.get(&offset).map_or(0, |sent| sent.retries);
        conn.flight.file(offset, now, Sent { retries: retries + 1, retransmitted: true });
        stats.retransmits += 1;
        if trace::enabled() {
            // RSTREAM peers are endpoints, not keyed nodes: the
            // connection id stands in as the peer discriminator.
            trace::record(now, TraceKind::Retransmit { peer: id, len: len as u32 });
        }
        Self::emit_data(out, conn, id, offset, len);
    }

    /// Handle an incoming RSTREAM body.
    pub fn on_packet(&mut self, now: SimTime, from: Endpoint, body: Bytes) -> SnipeResult<()> {
        let (head, rest) = split_head(body)?;
        match head {
            RstreamHead::Syn(id) => {
                // Passive open (every Rstream listens).
                let cfg = &self.cfg;
                self.conns.entry(id).or_insert_with(|| Conn::new(from, State::Established, cfg));
                Self::emit_control(&mut self.out, from, RstreamHead::SynAck(id));
                Ok(())
            }
            RstreamHead::SynAck(id) => {
                if let Some(c) = self.conns.get_mut(&id) {
                    if c.state == State::SynSent {
                        c.state = State::Established;
                        // Handshake retries must not count against the
                        // established connection's abort budget.
                        c.timeouts = 0;
                        c.rtt.reset();
                        self.timers.remove(&id);
                        self.pump(now, id);
                    }
                }
                Ok(())
            }
            RstreamHead::Data { id, offset } => {
                self.on_data(now, id, offset, Bytes::decode_from_bytes(rest)?);
                Ok(())
            }
            RstreamHead::Ack { id, cum } => self.on_ack(now, id, cum),
            RstreamHead::Fin(id) => {
                if let Some(c) = self.conns.get_mut(&id) {
                    c.state = State::Closed;
                    self.timers.remove(&id);
                }
                Ok(())
            }
        }
    }

    fn on_data(&mut self, _now: SimTime, id: ConnId, offset: u64, payload: Bytes) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.state == State::Closed {
            return;
        }
        if offset >= conn.rcv_nxt {
            conn.ooo.insert(offset, payload);
            // Absorb in-order prefix.
            while let Some(entry) = conn.ooo.first_entry() {
                let seg_off = *entry.key();
                if seg_off > conn.rcv_nxt {
                    break;
                }
                let seg = entry.remove();
                if seg_off + seg.len() as u64 > conn.rcv_nxt {
                    let skip = (conn.rcv_nxt - seg_off) as usize;
                    conn.rcv_buf.extend_from_slice(&seg[skip..]);
                    conn.rcv_nxt = seg_off + seg.len() as u64;
                }
            }
        }
        // Cumulative ACK on every DATA.
        Self::emit_control(&mut self.out, conn.peer, RstreamHead::Ack { id, cum: conn.rcv_nxt });
        // Extract length-framed messages.
        let peer = conn.peer;
        loop {
            if conn.rcv_buf.len() < 4 {
                break;
            }
            let len = u32::from_be_bytes([
                conn.rcv_buf[0],
                conn.rcv_buf[1],
                conn.rcv_buf[2],
                conn.rcv_buf[3],
            ]) as usize;
            if conn.rcv_buf.len() < 4 + len {
                break;
            }
            let msg = Bytes::copy_from_slice(&conn.rcv_buf[4..4 + len]);
            conn.rcv_buf.drain(..4 + len);
            self.stats.delivered += 1;
            self.out.push(Out::Deliver { proto: Proto::Rstream, from_key: id, from_ep: peer, msg });
        }
    }

    fn on_ack(&mut self, now: SimTime, id: ConnId, cum: u64) -> SnipeResult<()> {
        let Some(conn) = self.conns.get_mut(&id) else {
            return Ok(());
        };
        // Bytes never transmitted cannot have arrived: a hostile peer,
        // or a restarted one re-using the connection id. Taking the
        // ACK would leave `snd_una` above `snd_nxt` for good.
        if cum > conn.snd_nxt {
            return Err(SnipeError::Protocol(format!(
                "ACK of {cum} beyond the {} bytes sent",
                conn.snd_nxt
            )));
        }
        if cum > conn.snd_una {
            // New data acked: RTT sample from the oldest acked segment
            // that was never retransmitted.
            let sample = conn.flight.ack_range(..cum, now);
            let advance = (cum - conn.snd_una) as usize;
            conn.snd_buf.drain(..advance.min(conn.snd_buf.len()));
            conn.snd_una = cum;
            conn.dup_acks = 0;
            conn.timeouts = 0;
            if let Some(sample) = sample {
                conn.rtt.sample(sample);
            }
            if conn.snd_una < conn.recover && conn.snd_una < conn.snd_nxt {
                // Partial ACK: the RTO-era hole extends past this
                // segment. Retransmit the next unacked segment now —
                // one segment per ACK keeps recovery self-clocked at
                // RTT pace rather than one segment per escalated RTO.
                Self::retransmit(&mut self.out, &mut self.stats, now, conn, id);
            }
            if conn.snd_una == conn.snd_nxt {
                conn.recover = 0;
                self.timers.remove(&id);
            } else {
                self.timers.insert(id, now + conn.rtt.rto(), ());
            }
            self.pump(now, id);
        } else if cum == conn.snd_una && conn.snd_nxt > conn.snd_una {
            conn.dup_acks += 1;
            if conn.dup_acks == 3 {
                conn.dup_acks = 0;
                // Fast retransmit the first unacked segment.
                self.stats.fast_retransmits += 1;
                Self::retransmit(&mut self.out, &mut self.stats, now, conn, id);
            }
        }
        Ok(())
    }

    /// Fire due RTO deadlines. Safe to call early or spuriously —
    /// a connection whose oldest outstanding segment has not actually
    /// outlived its RTO is re-armed without escalation.
    pub fn on_timer(&mut self, now: SimTime) {
        for (id, ()) in self.timers.take_due(now) {
            self.fire_rto(now, id);
        }
    }

    fn fire_rto(&mut self, now: SimTime, id: ConnId) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        match conn.state {
            State::Closed => return,
            State::SynSent => {}
            State::Established => {
                if conn.snd_una == conn.snd_nxt {
                    return; // fully acked: nothing outstanding
                }
                // Early/spurious fire: escalate only when the oldest
                // outstanding segment has genuinely outlived the RTO.
                if let Some(at) = conn.flight.rto_deadline(conn.rtt.rto()).filter(|&at| at > now) {
                    self.timers.insert(id, at, ());
                    return;
                }
            }
        }
        conn.timeouts += 1;
        if conn.timeouts >= self.cfg.max_timeouts {
            conn.state = State::Closed;
            self.stats.aborted += 1;
            return;
        }
        conn.rtt.on_timeout();
        if conn.state == State::SynSent {
            self.stats.retransmits += 1;
            Self::emit_control(&mut self.out, conn.peer, RstreamHead::Syn(id));
        } else {
            conn.recover = conn.snd_nxt;
            Self::retransmit(&mut self.out, &mut self.stats, now, conn, id);
        }
        self.timers.insert(id, now + conn.rtt.rto(), ());
    }
}

impl crate::driver::Driver for Rstream {
    fn proto(&self) -> crate::frame::Proto {
        crate::frame::Proto::Rstream
    }

    fn on_datagram(&mut self, now: SimTime, from: Endpoint, body: Bytes) -> SnipeResult<()> {
        self.on_packet(now, from, body)
    }

    fn on_timer(&mut self, now: SimTime) {
        Rstream::on_timer(self, now);
    }

    fn next_deadline(&self) -> Option<SimTime> {
        Rstream::next_deadline(self)
    }

    fn drain_into(&mut self, into: &mut Vec<Out>) {
        into.append(&mut self.out);
    }

    /// Connections are endpoint-addressed and deliberately die with
    /// the process (the E5 contrast case): the snapshot is an empty
    /// marker.
    fn export_state(&self) -> Bytes {
        Bytes::new()
    }

    /// Restores nothing, by design — see [`Driver::export_state`].
    ///
    /// [`Driver::export_state`]: crate::driver::Driver::export_state
    fn import_state(&mut self, _bytes: Bytes, _now: SimTime) -> SnipeResult<()> {
        Ok(())
    }

    #[allow(clippy::disallowed_methods, reason = "`all` is order-free")]
    fn quiescent(&self) -> bool {
        self.out.is_empty()
            && self.conns.values().all(|c| c.state != State::Established || c.snd_buf.is_empty())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::drain_opened;
    use snipe_util::id::HostId;

    fn ep(h: u32, p: u16) -> Endpoint {
        Endpoint::new(HostId(h), p)
    }

    /// Shuttle packets between the two endpoints with an optional
    /// drop filter, firing timers whenever traffic stalls.
    fn run(
        a: &mut Rstream,
        b: &mut Rstream,
        a_ep: Endpoint,
        b_ep: Endpoint,
        drop: &mut dyn FnMut(usize) -> bool,
        steps: usize,
    ) -> (Vec<Bytes>, Vec<Bytes>) {
        let mut got_a = Vec::new();
        let mut got_b = Vec::new();
        let mut now = SimTime::ZERO;
        let mut n = 0usize;
        for _ in 0..steps {
            let mut moved = false;
            for o in drain_opened(a) {
                match o {
                    Out::Send { bytes, .. } => {
                        n += 1;
                        moved = true;
                        if !drop(n) {
                            b.on_packet(now, a_ep, bytes).unwrap();
                        }
                    }
                    Out::Deliver { msg, .. } => got_a.push(msg),
                    Out::Wake { .. } => {}
                }
            }
            for o in drain_opened(b) {
                match o {
                    Out::Send { bytes, .. } => {
                        n += 1;
                        moved = true;
                        if !drop(n) {
                            a.on_packet(now, b_ep, bytes).unwrap();
                        }
                    }
                    Out::Deliver { msg, .. } => got_b.push(msg),
                    Out::Wake { .. } => {}
                }
            }
            if !moved {
                now += SimDuration::from_millis(50);
                a.on_timer(now);
                b.on_timer(now);
            }
            now += SimDuration::from_micros(100);
        }
        (got_a, got_b)
    }

    #[test]
    fn handshake_and_message() {
        let mut a = Rstream::new(RstreamConfig::default(), 1);
        let mut b = Rstream::new(RstreamConfig::default(), 2);
        let id = a.connect(SimTime::ZERO, ep(1, 5));
        a.send_message(SimTime::ZERO, id, b"hello stream").unwrap();
        let (_, got_b) = run(&mut a, &mut b, ep(0, 5), ep(1, 5), &mut |_| false, 50);
        assert!(a.is_established(id));
        assert!(b.is_established(id));
        assert_eq!(got_b.len(), 1);
        assert_eq!(&got_b[0][..], b"hello stream");
    }

    #[test]
    fn large_transfer_segments() {
        let mut a = Rstream::new(RstreamConfig::default(), 1);
        let mut b = Rstream::new(RstreamConfig::default(), 2);
        let id = a.connect(SimTime::ZERO, ep(1, 5));
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 253) as u8).collect();
        a.send_message(SimTime::ZERO, id, &payload).unwrap();
        let (_, got_b) = run(&mut a, &mut b, ep(0, 5), ep(1, 5), &mut |_| false, 2000);
        assert_eq!(got_b.len(), 1);
        assert_eq!(&got_b[0][..], &payload[..]);
        assert!(a.stats().segments_sent as usize >= payload.len() / 1400);
    }

    #[test]
    fn multiple_messages_in_order() {
        let mut a = Rstream::new(RstreamConfig::default(), 1);
        let mut b = Rstream::new(RstreamConfig::default(), 2);
        let id = a.connect(SimTime::ZERO, ep(1, 5));
        for i in 0..10u8 {
            a.send_message(SimTime::ZERO, id, &[i; 100]).unwrap();
        }
        let (_, got_b) = run(&mut a, &mut b, ep(0, 5), ep(1, 5), &mut |_| false, 200);
        assert_eq!(got_b.len(), 10);
        for (i, m) in got_b.iter().enumerate() {
            assert_eq!(m[0] as usize, i);
        }
    }

    #[test]
    fn recovers_from_loss() {
        let mut a = Rstream::new(RstreamConfig::default(), 1);
        let mut b = Rstream::new(RstreamConfig::default(), 2);
        let id = a.connect(SimTime::ZERO, ep(1, 5));
        let payload = vec![7u8; 50_000];
        a.send_message(SimTime::ZERO, id, &payload).unwrap();
        let (_, got_b) = run(&mut a, &mut b, ep(0, 5), ep(1, 5), &mut |n| n % 7 == 3, 5000);
        assert_eq!(got_b.len(), 1, "stats {:?}", a.stats());
        assert_eq!(&got_b[0][..], &payload[..]);
        assert!(a.stats().retransmits > 0);
    }

    #[test]
    fn bidirectional_streams() {
        let mut a = Rstream::new(RstreamConfig::default(), 1);
        let mut b = Rstream::new(RstreamConfig::default(), 2);
        let id_ab = a.connect(SimTime::ZERO, ep(1, 5));
        let id_ba = b.connect(SimTime::ZERO, ep(0, 5));
        a.send_message(SimTime::ZERO, id_ab, b"ping").unwrap();
        b.send_message(SimTime::ZERO, id_ba, b"pong").unwrap();
        let (got_a, got_b) = run(&mut a, &mut b, ep(0, 5), ep(1, 5), &mut |_| false, 100);
        assert_eq!(&got_b[0][..], b"ping");
        assert_eq!(&got_a[0][..], b"pong");
    }

    #[test]
    fn send_on_unknown_or_closed_conn_errors() {
        let mut a = Rstream::new(RstreamConfig::default(), 1);
        assert_eq!(a.send_message(SimTime::ZERO, 42, b"x").unwrap_err().kind(), "wrong-state");
        let id = a.connect(SimTime::ZERO, ep(1, 5));
        a.close(id);
        assert!(a.is_closed(id));
        assert!(a.send_message(SimTime::ZERO, id, b"x").is_err());
    }

    #[test]
    fn fin_closes_peer() {
        let mut a = Rstream::new(RstreamConfig::default(), 1);
        let mut b = Rstream::new(RstreamConfig::default(), 2);
        let id = a.connect(SimTime::ZERO, ep(1, 5));
        let (_, _) = run(&mut a, &mut b, ep(0, 5), ep(1, 5), &mut |_| false, 20);
        a.close(id);
        for o in drain_opened(&mut a) {
            if let Out::Send { bytes, .. } = o {
                b.on_packet(SimTime::ZERO, ep(0, 5), bytes).unwrap();
            }
        }
        assert!(b.is_closed(id));
    }

    #[test]
    fn connection_aborts_after_repeated_timeouts() {
        let cfg = RstreamConfig {
            rto_initial: SimDuration::from_millis(1),
            rto_min: SimDuration::from_millis(1),
            rto_max: SimDuration::from_millis(1),
            max_timeouts: 3,
        };
        let mut a = Rstream::new(cfg, 1);
        let id = a.connect(SimTime::ZERO, ep(1, 5));
        // SYN+SYNACK never happen; force establishment to test data path.
        a.on_packet(SimTime::ZERO, ep(1, 5), RstreamHead::SynAck(id).encode_to_bytes()).unwrap();
        a.send_message(SimTime::ZERO, id, b"into the void").unwrap();
        drain_opened(&mut a);
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            now += SimDuration::from_millis(2);
            a.on_timer(now);
            drain_opened(&mut a);
        }
        assert!(a.is_closed(id));
        assert_eq!(a.stats().aborted, 1);
    }

    #[test]
    fn abort_peer_kills_connections() {
        let mut a = Rstream::new(RstreamConfig::default(), 1);
        let id = a.connect(SimTime::ZERO, ep(1, 5));
        a.abort_peer(ep(1, 5));
        assert!(a.is_closed(id));
    }

    #[test]
    fn distinct_connection_ids() {
        let mut a = Rstream::new(RstreamConfig::default(), 1);
        let i1 = a.connect(SimTime::ZERO, ep(1, 5));
        let i2 = a.connect(SimTime::ZERO, ep(1, 5));
        assert_ne!(i1, i2);
    }

    #[test]
    fn malformed_rejected() {
        let mut a = Rstream::new(RstreamConfig::default(), 1);
        assert!(a.on_packet(SimTime::ZERO, ep(1, 5), Bytes::new()).is_err());
        let err =
            a.on_packet(SimTime::ZERO, ep(1, 5), Bytes::from_static(&[99, 0, 0, 0, 0, 0, 0, 0, 1]));
        assert!(err.unwrap_err().to_string().contains("unknown RstreamHead tag 99"));
    }

    #[test]
    fn ack_beyond_what_was_sent_is_a_protocol_error() {
        let mut a = Rstream::new(RstreamConfig::default(), 1);
        let id = a.connect(SimTime::ZERO, ep(1, 5));
        a.on_packet(SimTime::ZERO, ep(1, 5), RstreamHead::SynAck(id).encode_to_bytes()).unwrap();
        a.send_message(SimTime::ZERO, id, b"thirteen bytes").unwrap();
        let sent = a.unacked_bytes(id);
        // A well-formed ACK for bytes never transmitted (a hostile peer,
        // or a restarted one re-using the connection id).
        let err = a.on_packet(
            SimTime::ZERO,
            ep(1, 5),
            RstreamHead::Ack { id, cum: 1 << 40 }.encode_to_bytes(),
        );
        assert_eq!(err.unwrap_err().kind(), "protocol");
        assert_eq!(a.unacked_bytes(id), sent, "nothing was acknowledged");
        // The connection still works: the window arithmetic is intact
        // and the genuine ACK is taken.
        a.send_message(SimTime::ZERO, id, b"more").unwrap();
        let all = a.unacked_bytes(id) as u64;
        a.on_packet(SimTime::ZERO, ep(1, 5), RstreamHead::Ack { id, cum: all }.encode_to_bytes())
            .unwrap();
        assert_eq!(a.unacked_bytes(id), 0);
    }
}
