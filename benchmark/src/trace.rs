//! The benchmark's own span tracer.
//!
//! One span is recorded per call from the benchmark into a layer's
//! public function (and per callback from an engine into a
//! benchmark-wrapped actor). Spans nest on a per-thread stack, so a
//! span's *self time* is its duration minus the part its child spans
//! cover. Everything is kept in memory; [`finish`] hands the aggregate
//! table and the retained span log back for writing after timing ends.
//!
//! Tracing is per thread and off by default: worker threads of the
//! sharded engine never trace (their actors keep plain counters
//! instead), and with tracing off [`span`] is a thread-local flag test.
//!
//! The tracer also measures its own cost ([`calibrate`]): the part of a
//! span's bookkeeping that falls inside its own interval (`c_in`) and
//! the part that falls in its parent's (`c_out`). [`Report`] subtracts
//! both, so `ns_per_call` figures are the layer's time, not the
//! tracer's.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use crate::json::Json;

macro_rules! span_names {
    ($($id:ident => $name:literal),* $(,)?) => {
        /// Every boundary the benchmark records a span at.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u16)]
        pub enum Sp { $($id),* }
        /// Span names, indexed by `Sp as usize`.
        pub const SPAN_NAMES: &[&str] = &[$($name),*];
    };
}

span_names! {
    BenchPass => "bench.pass",
    BenchActor => "bench.actor.on_event",
    BenchCalib => "bench.calibrate",
    ShardRunFor => "netsim.ShardedWorld.run_for",
    WorldRunFor => "netsim.World.run_for",
    Ctx => "netsim.ctx.send+set_timer",
    WireSend => "wire.WireStack.send",
    WireRstreamSend => "wire.Rstream.send_message",
    WireOnDatagram => "wire.WireStack.on_datagram",
    WireOnTimer => "wire.WireStack.on_timer",
    WireDrain => "wire.WireStack.drain",
    FecEncode => "wire.fec.encode",
    FecDecode => "wire.fec.decode",
    FragSplit => "wire.frag.split",
    FragReassemble => "wire.frag.reassemble",
    CodecEncode => "util.codec.encode",
    CodecDecode => "util.codec.decode",
    RcGet => "rcds.RcClient.get",
    RcPut => "rcds.RcClient.put",
    RcOnPacket => "rcds.RcClient.on_packet",
    RcOnTimer => "rcds.RcClient.on_timer",
    RcDrain => "rcds.RcClient.drain",
    RcServerOnEvent => "rcds.RcServerActor.on_event",
    StoreGet => "rcds.RcStore.get",
    StorePut => "rcds.RcStore.put",
    ShardOf => "rcds.ShardMap.shard_of",
    Sha256 => "crypto.sha256",
    Chacha20 => "crypto.chacha20_xor",
    Sign => "crypto.KeyPair.sign",
    Verify => "crypto.PublicKey.verify",
}

/// One retained span. Times are nanoseconds since tracing started.
#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    pub name: Sp,
    /// Index of the parent span in the log, or `u32::MAX`.
    pub parent: u32,
    /// The operation that caused the span (workload-defined id).
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals over *every* span, retained or not.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub calls: u64,
    /// Σ raw durations.
    pub total_ns: u64,
    /// Σ raw (duration − child durations).
    pub self_ns: u64,
    /// Σ direct child spans.
    pub children: u64,
    /// Σ descendant spans (children, their children, …).
    pub descendants: u64,
    /// Calls accounted by [`note_children`], already overhead-corrected.
    pub noted: u64,
    /// Σ allocations made inside the spans, children excluded.
    pub self_allocs: u64,
}

/// Tags a workload can attribute spans to (flow classes, op kinds).
pub const MAX_TAGS: usize = 8;

struct Open {
    name: Sp,
    start_ns: u64,
    start_allocs: u64,
    child_ns: u64,
    child_allocs: u64,
    children: u64,
    descendants: u64,
    log_idx: u32,
}

struct Tracer {
    epoch: Instant,
    stack: Vec<Open>,
    agg: Vec<Agg>,
    /// The same totals split by the tag current when the span closed,
    /// indexed `tag * SPAN_NAMES.len() + name`.
    by_tag: Vec<Agg>,
    log: Vec<SpanRec>,
    log_cap: usize,
    op: u64,
    tag: usize,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Is tracing on for the calling thread?
#[inline]
pub fn on() -> bool {
    ON.with(|c| c.get())
}

/// Start tracing on this thread, retaining at most `log_cap` spans in
/// the log (aggregates always cover every span).
pub fn start(log_cap: usize) {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            stack: Vec::with_capacity(16),
            agg: vec![Agg::default(); SPAN_NAMES.len()],
            by_tag: vec![Agg::default(); SPAN_NAMES.len() * MAX_TAGS],
            log: Vec::with_capacity(log_cap),
            log_cap,
            op: 0,
            tag: 0,
        });
    });
    ON.with(|c| c.set(true));
}

/// Attribute the spans that follow to operation `op` of class `tag`
/// (`tag < MAX_TAGS`; workloads define what their tags mean).
#[inline]
pub fn set_op(op: u64, tag: usize) {
    if on() {
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.op = op;
                t.tag = tag;
            }
        });
    }
}

/// Closes its span when dropped.
pub struct Guard(bool);

/// Open a span; it closes when the returned guard drops.
#[inline]
pub fn span(name: Sp) -> Guard {
    if !on() {
        return Guard(false);
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("tracer present while on");
        let parent = t.stack.last().map_or(u32::MAX, |o| o.log_idx);
        let log_idx = if t.log.len() < t.log_cap {
            t.log.push(SpanRec { name, parent, op: t.op, start_ns: 0, end_ns: 0 });
            (t.log.len() - 1) as u32
        } else {
            u32::MAX
        };
        let start_allocs = crate::probe::alloc_totals().0;
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        t.stack.push(Open {
            name,
            start_ns,
            start_allocs,
            child_ns: 0,
            child_allocs: 0,
            children: 0,
            descendants: 0,
            log_idx,
        });
    });
    Guard(true)
}

impl Drop for Guard {
    #[inline]
    fn drop(&mut self) {
        if !self.0 {
            return;
        }
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let t = t.as_mut().expect("tracer present while on");
            let end_ns = t.epoch.elapsed().as_nanos() as u64;
            let allocs =
                crate::probe::alloc_totals().0 - t.stack.last().expect("open span").start_allocs;
            let o = t.stack.pop().expect("span stack underflow");
            let dur = end_ns - o.start_ns;
            let tagged = t.tag * SPAN_NAMES.len() + o.name as usize;
            for a in [&mut t.agg[o.name as usize], &mut t.by_tag[tagged]] {
                a.calls += 1;
                a.total_ns += dur;
                a.self_ns += dur.saturating_sub(o.child_ns);
                a.children += o.children;
                a.descendants += o.descendants;
                a.self_allocs += allocs.saturating_sub(o.child_allocs);
            }
            if let Some(rec) = t.log.get_mut(o.log_idx as usize) {
                rec.start_ns = o.start_ns;
                rec.end_ns = end_ns;
            }
            if let Some(p) = t.stack.last_mut() {
                p.child_ns += dur;
                p.child_allocs += allocs;
                p.children += 1;
                p.descendants += 1 + o.descendants;
            }
        });
    }
}

/// Account `calls` child calls named `name`, host-timed by the caller
/// to `total_ns` in all, under the innermost open span — for callees
/// timed with plain clock reads ([`crate::layers::TimedCtx`]) instead
/// of individual spans. `pair_ns` is the cost of one clock-read pair:
/// about half of it sits inside each timed interval and half in the
/// parent, and both halves are corrected here, on the spot.
pub fn note_children(name: Sp, calls: u64, total_ns: u64, pair_ns: f64) {
    if !on() || calls == 0 {
        return;
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("tracer present while on");
        let half = (calls as f64 * pair_ns / 2.0) as u64;
        let a = &mut t.agg[name as usize];
        a.calls += calls;
        a.noted += calls;
        a.total_ns += total_ns.saturating_sub(half);
        a.self_ns += total_ns.saturating_sub(half);
        if let Some(p) = t.stack.last_mut() {
            p.child_ns += total_ns + half;
        }
    });
}

/// What a traced region produced.
pub struct Report {
    agg: Vec<Agg>,
    by_tag: Vec<Agg>,
    pub log: Vec<SpanRec>,
    /// Tracer cost inside a span's own interval, ns.
    pub c_in: f64,
    /// Tracer cost charged to the parent's interval, ns.
    pub c_out: f64,
}

/// Stop tracing on this thread and return what was recorded.
pub fn finish(cal: (f64, f64)) -> Report {
    ON.with(|c| c.set(false));
    let t = TRACER.with(|t| t.borrow_mut().take()).expect("finish without start");
    assert!(t.stack.is_empty(), "finish with {} spans still open", t.stack.len());
    Report { agg: t.agg, by_tag: t.by_tag, log: t.log, c_in: cal.0, c_out: cal.1 }
}

impl Report {
    /// Raw aggregate for a span name.
    pub fn raw(&self, name: Sp) -> Agg {
        self.agg[name as usize]
    }

    /// Calls recorded under `name`.
    pub fn calls(&self, name: Sp) -> u64 {
        self.agg[name as usize].calls
    }

    /// Σ duration of `name` spans with the tracer's own cost removed.
    pub fn total_ns(&self, name: Sp) -> f64 {
        let a = self.agg[name as usize];
        (a.total_ns as f64
            - (a.calls - a.noted) as f64 * self.c_in
            - a.descendants as f64 * (self.c_in + self.c_out))
            .max(0.0)
    }

    /// Σ self time of `name` spans with the tracer's own cost removed.
    pub fn self_ns(&self, name: Sp) -> f64 {
        self.self_ns_at(name as usize)
    }

    fn self_ns_at(&self, i: usize) -> f64 {
        self.corrected_self(self.agg[i])
    }

    fn corrected_self(&self, a: Agg) -> f64 {
        (a.self_ns as f64 - (a.calls - a.noted) as f64 * self.c_in - a.children as f64 * self.c_out)
            .max(0.0)
    }

    /// Σ corrected self time and Σ self allocations of spans whose
    /// name starts with `prefix`, closed while `tag` was current.
    pub fn tagged(&self, tag: usize, prefix: &str) -> (f64, u64) {
        let n = SPAN_NAMES.len();
        SPAN_NAMES.iter().enumerate().filter(|(_, name)| name.starts_with(prefix)).fold(
            (0.0, 0),
            |(ns, allocs), (i, _)| {
                let a = self.by_tag[tag * n + i];
                (ns + self.corrected_self(a), allocs + a.self_allocs)
            },
        )
    }

    /// Σ self allocations over names starting with `prefix`.
    pub fn self_allocs_prefix(&self, prefix: &str) -> u64 {
        SPAN_NAMES
            .iter()
            .enumerate()
            .filter(|(_, n)| n.starts_with(prefix))
            .map(|(i, _)| self.agg[i].self_allocs)
            .sum()
    }

    /// Corrected total ÷ calls (0 when never called).
    pub fn ns_per_call(&self, name: Sp) -> f64 {
        let c = self.calls(name);
        if c == 0 {
            0.0
        } else {
            self.total_ns(name) / c as f64
        }
    }

    /// The trace file: calibration, the per-name table and the
    /// retained span log.
    pub fn to_json(&self, workload: &str, extra: Vec<(String, Json)>) -> Json {
        let table = SPAN_NAMES
            .iter()
            .enumerate()
            .filter(|(i, _)| self.agg[*i].calls > 0)
            .map(|(i, n)| {
                let a = self.agg[i];
                Json::Obj(vec![
                    ("name".into(), Json::Str((*n).into())),
                    ("calls".into(), Json::Num(a.calls as f64)),
                    ("raw_total_ns".into(), Json::Num(a.total_ns as f64)),
                    ("raw_self_ns".into(), Json::Num(a.self_ns as f64)),
                    ("children".into(), Json::Num(a.children as f64)),
                ])
            })
            .collect();
        let spans = self
            .log
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Str(SPAN_NAMES[s.name as usize].into()),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                    if s.parent == u32::MAX { Json::Null } else { Json::Num(s.parent as f64) },
                    Json::Num(s.op as f64),
                ])
            })
            .collect();
        let mut fields = vec![
            ("workload".into(), Json::Str(workload.into())),
            ("tracer_ns_inside_span".into(), Json::Num(self.c_in)),
            ("tracer_ns_in_parent".into(), Json::Num(self.c_out)),
        ];
        fields.extend(extra);
        fields.push(("span_table".into(), Json::Arr(table)));
        fields.push((
            "span_columns".into(),
            Json::Arr(
                ["name", "start_ns", "end_ns", "parent_index", "op_id"]
                    .iter()
                    .map(|s| Json::Str((*s).into()))
                    .collect(),
            ),
        ));
        fields.push(("spans".into(), Json::Arr(spans)));
        Json::Obj(fields)
    }
}

/// Measure the tracer's own cost per span on this machine: `(c_in,
/// c_out)` nanoseconds. Runs a burst of empty spans under one root and
/// splits the root's time per child into the part the children saw
/// and the part they did not.
pub fn calibrate() -> (f64, f64) {
    const N: u64 = 200_000;
    start(0);
    {
        let _root = span(Sp::BenchCalib);
        for _ in 0..N {
            let _s = span(Sp::BenchPass);
        }
    }
    let r = finish((0.0, 0.0));
    let inside = r.raw(Sp::BenchPass).total_ns as f64 / N as f64;
    let per_child = r.raw(Sp::BenchCalib).total_ns as f64 / N as f64;
    (inside, (per_child - inside).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        start(16);
        {
            let _a = span(Sp::BenchPass);
            crate::probe::busy_wait_ns(200_000);
            {
                let _b = span(Sp::WireSend);
                crate::probe::busy_wait_ns(300_000);
            }
        }
        let r = finish((0.0, 0.0));
        assert_eq!(r.calls(Sp::BenchPass), 1);
        assert_eq!(r.calls(Sp::WireSend), 1);
        let outer = r.raw(Sp::BenchPass);
        let inner = r.raw(Sp::WireSend);
        assert!(inner.total_ns >= 300_000);
        assert!(outer.total_ns >= 500_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(r.log.len(), 2);
        assert_eq!(r.log[1].parent, 0);
        assert!(!on());
    }
}
