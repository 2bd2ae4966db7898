//! The benchmark's wrappers around calls into each layer.
//!
//! Every call a workload makes into a crate's public function goes
//! through one of these, so that one place (a) records the span,
//! (b) counts the call and (c) can inject `selftest`'s calibrated
//! busy-wait. The injection is zero outside the `selftest` subcommand,
//! where it costs one relaxed load per call.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

use bytes::Bytes;
use snipe_netsim::actor::{PortableActor, SimCtx};
use snipe_netsim::topology::{Endpoint, Topology};
use snipe_rcds::assertion::Assertion;
use snipe_rcds::client::{Completion, RcClient};
use snipe_rcds::uri::Uri;
use snipe_util::error::SnipeResult;
use snipe_util::id::{HostId, NetId};
use snipe_util::rng::Xoshiro256;
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::stack::{Incoming, WireStack};
use snipe_wire::Out;

use crate::probe::busy_wait_ns;
use crate::trace::{span, Sp};

/// The layers `selftest` can slow down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Netsim = 0,
    Wire = 1,
    Rcds = 2,
}

static INJECT_NS: [AtomicU64; 3] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

/// Host ns actually spent in injected waits and how many there were,
/// one cache line per engine thread parity so two workers never bounce
/// one line between them.
#[repr(align(64))]
struct Waited(AtomicU64, AtomicU64);
static INJECTED_NS: [Waited; 2] =
    [Waited(AtomicU64::new(0), AtomicU64::new(0)), Waited(AtomicU64::new(0), AtomicU64::new(0))];
static NEXT_WAITER: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static MY_WAITER: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// Set the busy-wait added to every wrapped call into `layer`
/// (`selftest` only; 0 turns it off).
pub fn set_injection(layer: Layer, ns: u64) {
    INJECT_NS[layer as usize].store(ns, Relaxed);
}

/// `(host ns inside injected waits, number of waits)` over all threads
/// since the last call.
pub fn take_injected() -> (u64, u64) {
    INJECTED_NS
        .iter()
        .fold((0, 0), |(ns, n), w| (ns + w.0.swap(0, Relaxed), n + w.1.swap(0, Relaxed)))
}

/// What one injected wait costs beyond the time it reports: the call,
/// the clock reads around the loop, the bookkeeping. Measured by timing
/// a burst of waits from outside.
pub fn injection_overhead_ns() -> f64 {
    const N: u64 = 100_000;
    set_injection(Layer::Wire, 200);
    take_injected();
    let t0 = Instant::now();
    for _ in 0..N {
        inject(Layer::Wire);
    }
    let wall = t0.elapsed().as_nanos() as f64;
    set_injection(Layer::Wire, 0);
    let (inside, _) = take_injected();
    ((wall - inside as f64) / N as f64).max(0.0)
}

/// Spin for the layer's injected delay, if any.
#[inline]
pub fn inject(layer: Layer) {
    let ns = INJECT_NS[layer as usize].load(Relaxed);
    if ns != 0 {
        let waited = busy_wait_ns(ns);
        let slot = MY_WAITER.with(|c| {
            if c.get() == usize::MAX {
                c.set(NEXT_WAITER.fetch_add(1, Relaxed) as usize % INJECTED_NS.len());
            }
            c.get()
        });
        INJECTED_NS[slot].0.fetch_add(waited, Relaxed);
        INJECTED_NS[slot].1.fetch_add(1, Relaxed);
    }
}

// --- wire -----------------------------------------------------------------

pub fn wire_send(s: &mut WireStack, now: SimTime, to: u64, msg: Bytes) -> SnipeResult<()> {
    let _g = span(Sp::WireSend);
    inject(Layer::Wire);
    s.send(now, to, msg)
}

pub fn wire_rstream_send(
    s: &mut WireStack,
    now: SimTime,
    conn: u64,
    msg: &[u8],
) -> SnipeResult<()> {
    let _g = span(Sp::WireRstreamSend);
    inject(Layer::Wire);
    s.rstream_mut().expect("RSTREAM driver registered").send_message(now, conn, msg)
}

pub fn wire_on_datagram(
    s: &mut WireStack,
    now: SimTime,
    from: Endpoint,
    datagram: Bytes,
) -> SnipeResult<Option<Incoming>> {
    let _g = span(Sp::WireOnDatagram);
    inject(Layer::Wire);
    s.on_datagram(now, from, datagram)
}

pub fn wire_on_timer(s: &mut WireStack, now: SimTime) {
    let _g = span(Sp::WireOnTimer);
    inject(Layer::Wire);
    s.on_timer(now)
}

pub fn wire_drain(s: &mut WireStack) -> Vec<Out> {
    let _g = span(Sp::WireDrain);
    s.drain()
}

// --- rcds -----------------------------------------------------------------

pub fn rc_get(c: &mut RcClient, now: SimTime, uri: &Uri) -> u64 {
    let _g = span(Sp::RcGet);
    inject(Layer::Rcds);
    c.get(now, uri)
}

pub fn rc_put(c: &mut RcClient, now: SimTime, uri: &Uri, a: Vec<Assertion>) -> u64 {
    let _g = span(Sp::RcPut);
    inject(Layer::Rcds);
    c.put(now, uri, a)
}

pub fn rc_on_packet(c: &mut RcClient, now: SimTime, from: Endpoint, body: Bytes) {
    let _g = span(Sp::RcOnPacket);
    inject(Layer::Rcds);
    c.on_packet(now, from, body)
}

pub fn rc_on_timer(c: &mut RcClient, now: SimTime) {
    let _g = span(Sp::RcOnTimer);
    c.on_timer(now)
}

pub fn rc_drain(c: &mut RcClient) -> (Vec<(Endpoint, Bytes)>, Vec<Completion>) {
    let _g = span(Sp::RcDrain);
    (c.drain_sends(), c.drain_done())
}

// --- netsim: the contexts handed to wrapped actors --------------------------

/// Cost of one `Instant::now()` + `elapsed()` pair on this machine, ns
/// (measured once). [`TimedCtx`] users subtract it from what they time.
pub fn clock_pair_ns() -> f64 {
    static COST: OnceLock<f64> = OnceLock::new();
    *COST.get_or_init(|| {
        const N: u32 = 200_000;
        let t0 = Instant::now();
        let mut sink = 0u128;
        for _ in 0..N {
            sink += std::hint::black_box(Instant::now()).elapsed().as_nanos();
        }
        std::hint::black_box(sink);
        t0.elapsed().as_nanos() as f64 / N as f64
    })
}

/// A [`SimCtx`] that host-times the calls doing engine work (`send`,
/// `send_via`, `set_timer`), so a wrapped actor's own time is its
/// callback time minus `ctx_ns`. Works on engine worker threads, where
/// the span tracer is off; on the traced thread the totals are handed
/// to the tracer with [`crate::trace::note_children`].
pub struct TimedCtx<'a> {
    inner: &'a mut dyn SimCtx,
    /// Host ns spent inside `send`/`send_via`/`set_timer`.
    pub ctx_ns: u64,
    /// How many such calls were timed.
    pub calls: u64,
}

impl<'a> TimedCtx<'a> {
    pub fn new(inner: &'a mut dyn SimCtx) -> TimedCtx<'a> {
        TimedCtx { inner, ctx_ns: 0, calls: 0 }
    }

    #[inline]
    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn SimCtx) -> R) -> R {
        let t0 = Instant::now();
        let r = f(self.inner);
        self.ctx_ns += t0.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }
}

impl SimCtx for TimedCtx<'_> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn me(&self) -> Endpoint {
        self.inner.me()
    }
    fn host(&self) -> HostId {
        self.inner.host()
    }
    fn send(&mut self, to: Endpoint, payload: Bytes) {
        self.timed(|c| c.send(to, payload))
    }
    fn send_via(&mut self, to: Endpoint, payload: Bytes, via: NetId) {
        self.timed(|c| c.send_via(to, payload, via))
    }
    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.timed(|c| c.set_timer(delay, token))
    }
    fn spawn_portable(
        &mut self,
        host: HostId,
        port: u16,
        actor: Box<dyn PortableActor>,
    ) -> Option<Endpoint> {
        self.inner.spawn_portable(host, port, actor)
    }
    fn alloc_port(&mut self, host: HostId) -> u16 {
        self.inner.alloc_port(host)
    }
    fn is_bound(&self, ep: Endpoint) -> bool {
        self.inner.is_bound(ep)
    }
    fn kill(&mut self, ep: Endpoint) {
        self.inner.kill(ep)
    }
    fn signal(&mut self, to: Endpoint, signum: u32) {
        self.inner.signal(to, signum)
    }
    fn rng(&mut self) -> &mut Xoshiro256 {
        self.inner.rng()
    }
    fn topology(&self) -> &Topology {
        self.inner.topology()
    }
    fn host_up(&self, h: HostId) -> bool {
        self.inner.host_up(h)
    }
}
