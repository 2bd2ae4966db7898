//! # snipe-bench — experiment runners for every figure and table
//!
//! Each module reproduces one artifact of the paper's evaluation (see
//! `DESIGN.md` §4 for the index); `EXPERIMENTS.md` records
//! paper-vs-measured. Every experiment goes through the same four
//! steps:
//!
//! * **stage** — a one-region world built by `lan` (hosts `h0…` on the
//!   given media), a `SnipeWorld`, or the multi-region campus, with the
//!   shared casts spawned onto it as values: one sender streaming to one
//!   receiver is a `fig1::Transfer` (`Transfer::spawn`), one RC replica
//!   group is `rc_group` over `RcServerActor::group`;
//! * **drive** — `drive` runs the world in fixed slices until a
//!   condition on the world holds or a deadline passes;
//! * **read** — an actor keeps its counters as plain fields, and the
//!   runner reads them in place through `World::actor_ref` (a
//!   transfer's receiver through `fig1::hosted`, a scripted RC load's
//!   op log through `RcLoad::log`) between
//!   slices or after the run (a shared cell is left only where no
//!   accessor reaches the state: MPI ranks and PVM/SNIPE coordinators
//!   inside their wrapper actors, and E5's worker, whose log must
//!   outlive the process instance that migrates);
//! * **emit** — each runner returns its `report::Table`, and the
//!   `harness` binary's `PAPER` rows write it to `results/<name>.txt`.
//!
//! Parameter sweeps are embarrassingly parallel across *simulations*
//! (each is deterministic, and all but the multi-region chaos rows are
//! single-threaded), so runners fan out through [`par_map`], a fixed
//! pool of one worker per available core.
//!
//! Robustness has one home: [`chaos`] holds every chaos workload as a
//! table row — a *body* (the actors, the drive loop, the oracles)
//! staged on a LAN or on the multi-region campus, its cast one of the
//! shared set-ups above — with one soak, one shrinker, one regression
//! corpus and one flight-recorder replay path.

pub mod ablations;
pub mod chaos;
pub mod e2_mpiconnect;
pub mod e3_availability;
pub mod e4_scalability;
pub mod e5_migration;
pub mod e6_multicast;
pub mod e7_failover;
pub mod e8_spof;
pub mod fig1;
pub mod oracles;
pub mod rcds_bench;
pub mod report;
pub mod shard_storm;

use std::sync::atomic::{AtomicUsize, Ordering};

use snipe_netsim::actor::{earliest, Actor, Event, SimCtx};
use snipe_netsim::medium::Medium;
use snipe_netsim::topology::{Endpoint, HostCfg, Topology};
use snipe_netsim::world::World;
use snipe_rcds::assertion::Assertion;
use snipe_rcds::client::{RcClient, RcReply};
use snipe_rcds::host::RcHost;
use snipe_rcds::server::RcServerActor;
use snipe_rcds::uri::Uri;
use snipe_util::error::SnipeResult;
use snipe_util::id::{HostId, NetId};
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::ports;

/// A one-region LAN: `hosts` hosts named `h0…`, each attached to every
/// one of `media` in order (the first routable, the rest not). Returns
/// the world and its hosts in id order.
pub(crate) fn lan(seed: u64, media: &[Medium], hosts: usize) -> (World, Vec<HostId>) {
    let mut topo = Topology::new();
    let nets: Vec<NetId> = media
        .iter()
        .enumerate()
        .map(|(i, m)| topo.add_network(format!("net{i}"), m.clone(), i == 0))
        .collect();
    let hosts = (0..hosts)
        .map(|i| {
            let h = topo.add_host(HostCfg::named(format!("h{i}")));
            for &n in &nets {
                topo.attach(h, n);
            }
            h
        })
        .collect();
    (World::new(topo, seed), hosts)
}

/// One RC replica group on `hosts` ([`RcServerActor::group`]),
/// anti-entropy every `sync`; returns the replicas' endpoints.
pub(crate) fn rc_group(world: &mut World, hosts: &[HostId], sync: SimDuration) -> Vec<Endpoint> {
    let eps: Vec<Endpoint> = hosts.iter().map(|&h| Endpoint::new(h, ports::RC_SERVER)).collect();
    for (ep, server) in eps.iter().zip(RcServerActor::group(&eps, sync)) {
        world.spawn(ep.host, ep.port, Box::new(server));
    }
    eps
}

/// One op of an [`RcLoad`]'s script: its request id, when it was
/// issued, and once it completed, when and how.
pub(crate) struct RcOpLog {
    pub(crate) id: u64,
    pub(crate) issued: SimTime,
    pub(crate) done: Option<(SimTime, SnipeResult<RcReply>)>,
}

impl RcOpLog {
    /// The assertions an answered op returned; `None` while it is
    /// pending or if it failed.
    pub(crate) fn answer(&self) -> Option<&[Assertion]> {
        match &self.done {
            Some((_, Ok(reply))) => Some(&reply.assertions),
            _ => None,
        }
    }
}

/// A scripted series of RC ops on one URI: E3's and E8's lookup load,
/// A2's writer and probe, the chaos rows' writer and replica probes.
/// Op `i` is issued at `first + i * interval`, `count` ops in all: a
/// put of `("k", puts[i])` while `i < puts.len()`, a get after. Every
/// op is logged in issue order, and runners compute their numbers from
/// [`RcLoad::log`]. The next op's instant is a term of `next_wake`, so
/// a flap of the load's own host delays the ops it covers to `HostUp`
/// and moves none after it.
pub(crate) struct RcLoad {
    rc: RcHost,
    uri: Uri,
    puts: Vec<String>,
    /// When the next op is due; `None` once all are issued.
    next: Option<SimTime>,
    interval: SimDuration,
    left: u32,
    pub(crate) log: Vec<RcOpLog>,
}

impl RcLoad {
    pub(crate) fn new(
        rc: RcClient,
        uri: Uri,
        puts: Vec<String>,
        first: SimTime,
        interval: SimDuration,
        count: u32,
    ) -> RcLoad {
        let next = (count > 0).then_some(first);
        RcLoad { rc: RcHost::new(rc), uri, puts, next, interval, left: count, log: Vec::new() }
    }

    /// Issue every op whose instant has come.
    fn issue_due(&mut self, now: SimTime) {
        while let Some(at) = self.next.filter(|&at| at <= now) {
            let id = match self.puts.get(self.log.len()) {
                Some(v) => self.rc.put(now, &self.uri, vec![Assertion::new("k", v.clone())]),
                None => self.rc.get(now, &self.uri),
            };
            self.log.push(RcOpLog { id, issued: now, done: None });
            self.left -= 1;
            self.next = (self.left > 0).then(|| at + self.interval);
        }
    }
}

impl Actor for RcLoad {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        let now = ctx.now();
        match event {
            Event::Start | Event::Wake => {
                self.rc.on_wake(now);
                self.issue_due(now);
            }
            Event::Packet { from, payload } => self.rc.on_datagram(now, from, payload),
            _ => return,
        }
        for (id, result) in self.rc.flush(ctx) {
            if let Ok(i) = self.log.binary_search_by_key(&id, |op| op.id) {
                self.log[i].done = Some((now, result));
            }
        }
    }

    fn next_wake(&self) -> Option<SimTime> {
        earliest([self.next, self.rc.next_deadline()])
    }
}

/// Drive `world` in `step` slices until `done` holds after a slice or
/// the clock reaches `deadline`.
pub(crate) fn drive(
    world: &mut World,
    step: SimDuration,
    deadline: SimTime,
    done: impl Fn(&World) -> bool,
) {
    loop {
        world.run_for(step);
        if done(world) || world.now() >= deadline {
            return;
        }
    }
}

/// Worker threads [`par_map`] uses: one per core this process may run
/// on (the simulations are CPU-bound; more threads only add contention,
/// and the multi-region chaos rows bring worker threads of their own).
pub fn par_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `f` over `inputs` on [`par_workers`] threads pulling jobs from a
/// shared cursor, preserving input order in the output.
pub fn par_map<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let n = inputs.len();
    // Relaxed: the cursor hands out indices and publishes no data —
    // inputs are shared immutably, results come back through `join`.
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<O>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let worker = || {
            let mut mine = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return mine;
                }
                mine.push((i, f(&inputs[i])));
            }
        };
        let handles: Vec<_> = (0..par_workers().min(n)).map(|_| s.spawn(worker)).collect();
        for h in handles {
            for (i, o) in h.join().expect("experiment thread panicked") {
                out[i] = Some(o);
            }
        }
    });
    out.into_iter().map(|o| o.expect("every index was claimed by one worker")).collect()
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use snipe_netsim::shard::FaultCmd;

    use super::*;

    /// The load's own host is down from 150 ms to 250 ms, across its
    /// 200 ms op: that op goes out at `HostUp`, every later one at its
    /// own instant, and each is answered.
    #[test]
    fn a_flap_of_the_load_host_keeps_its_ticks() {
        let (mut world, hosts) = lan(5, &[Medium::ethernet100()], 2);
        let eps = rc_group(&mut world, &hosts[..1], SimDuration::from_secs(30));
        let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        let rc = RcClient::new(eps, SimDuration::from_millis(300));
        let tick = SimDuration::from_millis(100);
        let load = RcLoad::new(rc, Uri::process(7), vec!["v".into()], at(0), tick, 11);
        let ep = world.spawn(hosts[1], 50, Box::new(load)).unwrap();
        world.schedule_fault(at(150), FaultCmd::HostDown(hosts[1]));
        world.schedule_fault(at(250), FaultCmd::HostUp(hosts[1]));
        world.run_until(at(1_050));
        let log = &world.actor_ref::<RcLoad>(ep).unwrap().log;
        let issued: Vec<SimTime> = log.iter().map(|op| op.issued).collect();
        let want = [0, 100, 250, 300, 400, 500, 600, 700, 800, 900, 1_000].map(at);
        assert_eq!(issued, want);
        assert!(log.iter().all(|op| op.answer().is_some()), "every op answered");
    }

    #[test]
    fn par_map_preserves_order() {
        let out = super::par_map((0..16).collect(), |&x| x * 2);
        assert_eq!(out, (0..16).map(|x| x * 2).collect::<Vec<_>>());
    }

    /// However many jobs are queued, no more than `par_workers()` run
    /// at once (the old one-thread-per-job fan-out reached the job
    /// count).
    #[test]
    fn par_map_never_exceeds_its_worker_count() {
        let (live, hwm) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let out = super::par_map((0..64usize).collect(), |&x| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            hwm.fetch_max(now, Ordering::SeqCst);
            // Hold the slot long enough for every worker to overlap.
            std::thread::sleep(std::time::Duration::from_millis(2));
            live.fetch_sub(1, Ordering::SeqCst);
            x
        });
        assert_eq!(out.len(), 64);
        let hwm = hwm.load(Ordering::SeqCst);
        assert!((1..=super::par_workers()).contains(&hwm), "{hwm} jobs ran concurrently");
    }
}
