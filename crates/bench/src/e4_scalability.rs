//! E4 — §2.2: "PVM allows practical scalability to tens of hosts" while
//! its centralized master serializes naming and spawning; SNIPE's
//! distributed RC + daemons stay near-linear.
//!
//! Workload: start one task on each of N hosts and wait until all are
//! confirmed running, measuring completion time. The PVM path funnels
//! every spawn (and the host-table growth beforehand) through the
//! master's service queue; the SNIPE path spawns through independent
//! per-host daemons.

use std::sync::{Arc, Mutex};

use bytes::Bytes;

use pvm_baseline::proto::Tid;
use pvm_baseline::pvmd::service_time;
use pvm_baseline::task::{PvmTask, PvmTaskActor, PvmTaskApi};
use pvm_baseline::{PvmMaster, PvmSlave, MASTER_PORT, SLAVE_PORT};
use snipe_core::api::TicketResult;
use snipe_core::{SnipeApi, SnipeProcess, SnipeWorld, SnipeWorldBuilder, SpawnTarget};
use snipe_daemon::registry::ProgramRegistry;
use snipe_netsim::medium::Medium;
use snipe_netsim::topology::Endpoint;
use snipe_netsim::world::World;
use snipe_util::time::{SimDuration, SimTime};

use crate::{drive, lan};

/// One measured row.
#[derive(Clone, Debug)]
pub struct E4Point {
    /// System name.
    pub system: &'static str,
    /// Host count == task count.
    pub hosts: usize,
    /// Seconds from first request to all tasks confirmed.
    pub elapsed: f64,
    /// Whether every spawn succeeded.
    pub complete: bool,
    /// PVM only: seconds until the master committed the host table
    /// naming every host (`None` if it never did).
    pub enrolment: Option<f64>,
}

impl E4Point {
    /// A row from the seconds the burst took, `None` if it never
    /// completed.
    fn new(system: &'static str, hosts: usize, elapsed: Option<f64>) -> E4Point {
        let (elapsed, complete) = (elapsed.unwrap_or(f64::NAN), elapsed.is_some());
        E4Point { system, hosts, elapsed, complete, enrolment: None }
    }
}

/// Host counts of the E4 sweep. It stops at 240: the PVM master sends
/// its host table as one datagram, and past 247 hosts that no longer
/// fits a 1500-byte Ethernet frame, so enrolment can never commit
/// (`crates/pvm/tests/host_table.rs` pins the cap against this list).
pub const HOSTS: [usize; 8] = [4, 8, 16, 32, 64, 128, 192, 240];

/// PVM's cost model, seconds: `n` requests served with `n` hosts in
/// the table, plus two LAN crossings (request to a slave, answer back).
pub fn pvm_burst_model(n: usize) -> f64 {
    (service_time(n) * n as u64 + Medium::ethernet100().latency * 2).as_secs_f64()
}

/// PVM's cost model, seconds: enrolling the k-th host sends the new
/// table to k slaves, each served with k hosts in the table, plus two
/// LAN crossings (the first join in, the last ack back).
pub fn pvm_enrolment_model(n: usize) -> f64 {
    let lan = Medium::ethernet100().latency * 2;
    (1..=n).fold(lan, |t, k| t + service_time(k) * k as u64).as_secs_f64()
}

// --- SNIPE side ------------------------------------------------------------

struct Idle;
impl SnipeProcess for Idle {
    fn on_start(&mut self, _api: &mut SnipeApi<'_, '_>) {}
}

struct Coordinator {
    hosts: Vec<String>,
    confirmed: usize,
    done: Arc<Mutex<Option<SimTime>>>,
    failed: Arc<Mutex<bool>>,
}

impl SnipeProcess for Coordinator {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        for h in &self.hosts {
            api.spawn(SpawnTarget::Host(h.clone()), "idle", Bytes::new());
        }
    }
    fn on_ticket(&mut self, api: &mut SnipeApi<'_, '_>, _ticket: u64, result: TicketResult) {
        match result {
            TicketResult::Spawned(Ok(_)) => {
                self.confirmed += 1;
                if self.confirmed == self.hosts.len() {
                    *self.done.lock().unwrap() = Some(api.now());
                }
            }
            TicketResult::Spawned(Err(_)) => *self.failed.lock().unwrap() = true,
            _ => {}
        }
    }
}

/// Spawn one idle task on each of `hosts` from a coordinator on `home`;
/// returns the virtual seconds until every spawn was confirmed (`None`
/// if one failed or two minutes passed).
fn burst(w: &mut SnipeWorld, hosts: Vec<String>, home: &str) -> Option<f64> {
    w.register_process("idle", |_| Box::new(Idle));
    let done = Arc::new(Mutex::new(None));
    let failed = Arc::new(Mutex::new(false));
    let (d, f) = (done.clone(), failed.clone());
    w.register_process("coord", move |_| {
        Box::new(Coordinator {
            hosts: hosts.clone(),
            confirmed: 0,
            done: d.clone(),
            failed: f.clone(),
        })
    });
    let t0 = w.now();
    w.spawn_on(home, "coord", Bytes::new()).unwrap();
    drive(w.sim(), SimDuration::from_millis(500), t0 + SimDuration::from_secs(120), |_| {
        done.lock().unwrap().is_some() || *failed.lock().unwrap()
    });
    let done = *done.lock().unwrap();
    done.map(|t| t.since(t0).as_secs_f64())
}

/// SNIPE: spawn one task per host from a coordinator.
pub fn run_snipe(n: usize, seed: u64) -> E4Point {
    let mut w = SnipeWorldBuilder::lan(n, seed).build();
    let elapsed = burst(&mut w, (0..n).map(|i| format!("host{i}")).collect(), "host0");
    E4Point::new("SNIPE", n, elapsed)
}

// --- SNIPE on a partitioned world ------------------------------------------

/// One measured row of the partitioned-world scalability run.
#[derive(Clone, Debug)]
pub struct E4ShardPoint {
    /// Worker threads driving the regions.
    pub threads: usize,
    /// Host count (== clusters × per-cluster == task count).
    pub hosts: usize,
    /// Virtual seconds from first request to all tasks confirmed
    /// (must be thread-count invariant).
    pub elapsed: f64,
    /// Wall-clock milliseconds for the whole run (the quantity that
    /// should shrink with threads).
    pub wall_ms: f64,
    /// Engine digest (must be thread-count invariant).
    pub digest: u64,
    /// Whether every spawn succeeded.
    pub complete: bool,
    /// Coordinator rounds the run took (thread-count invariant).
    pub rounds: u64,
    /// Events per round, on average (thread-count invariant).
    pub events_per_round: f64,
}

/// The same one-task-per-host burst, but on a multi-cluster campus
/// over its natural partition: the coordinator in cluster 0 spawns
/// through every per-host daemon while regions execute in parallel.
pub fn run_snipe_sharded(
    clusters: usize,
    per_cluster: usize,
    seed: u64,
    threads: usize,
) -> E4ShardPoint {
    let wall = std::time::Instant::now();
    let mut w = SnipeWorldBuilder::campus(clusters, per_cluster, seed).build_sharded(threads);
    let hosts: Vec<String> =
        (0..clusters).flat_map(|c| (0..per_cluster).map(move |i| format!("c{c}h{i}"))).collect();
    let n = hosts.len();
    let elapsed = burst(&mut w, hosts, "c0h1");
    let rounds = w.sim_ref().rounds().0;
    E4ShardPoint {
        threads,
        hosts: n,
        elapsed: elapsed.unwrap_or(f64::NAN),
        wall_ms: wall.elapsed().as_secs_f64() * 1e3,
        digest: w.digest(),
        complete: elapsed.is_some(),
        rounds,
        events_per_round: w.sim_ref().stats().events as f64 / rounds.max(1) as f64,
    }
}

// --- PVM side ----------------------------------------------------------------

struct PvmIdle;
impl PvmTask for PvmIdle {
    fn on_start(&mut self, _api: &mut PvmTaskApi<'_>) {}
}

struct PvmCoordinator {
    n: usize,
    confirmed: usize,
    done: Arc<Mutex<Option<SimTime>>>,
}

impl PvmTask for PvmCoordinator {
    fn on_start(&mut self, api: &mut PvmTaskApi<'_>) {
        for _ in 0..self.n {
            api.spawn("idle", Bytes::new());
        }
    }
    fn on_spawned(&mut self, api: &mut PvmTaskApi<'_>, _ticket: u64, ok: bool, _tid: Tid) {
        if ok {
            self.confirmed += 1;
            if self.confirmed == self.n {
                *self.done.lock().unwrap() = Some(api.now());
            }
        }
    }
}

/// PVM: enrol a slave on each host, and once the master has committed
/// the host table naming all `n`, spawn one task per host through it.
pub fn run_pvm(n: usize, seed: u64) -> E4Point {
    let (mut world, hosts) = lan(seed, &[Medium::ethernet100()], n);
    let registry = ProgramRegistry::new();
    let master_ep = Endpoint::new(hosts[0], MASTER_PORT);
    world.spawn(hosts[0], MASTER_PORT, Box::new(PvmMaster::new()));
    for &h in &hosts {
        world.spawn(h, SLAVE_PORT, Box::new(PvmSlave::new(master_ep, registry.clone())));
    }
    let m = master_ep;
    registry.register("idle", move |sctx| {
        Box::new(PvmTaskActor::new(sctx.proc_key as Tid, m, Box::new(PvmIdle)))
    });
    let committed = |w: &World| {
        let master = w.actor_ref::<PvmMaster>(master_ep).expect("the master lives");
        (master.committed_version as usize == n).then_some(master.committed_at)
    };
    let deadline = SimTime::ZERO + SimDuration::from_secs(300);
    drive(&mut world, SimDuration::from_millis(500), deadline, |w| committed(w).is_some());
    let Some(enrolled_at) = committed(&world) else {
        return E4Point::new("PVM", n, None);
    };
    let enrolment = Some(enrolled_at.since(SimTime::ZERO).as_secs_f64());
    let done = Arc::new(Mutex::new(None));
    let coord = PvmTaskActor::new(
        99_999,
        master_ep,
        Box::new(PvmCoordinator { n, confirmed: 0, done: done.clone() }),
    );
    let t0 = world.now();
    world.spawn(hosts[0], 700, Box::new(coord));
    drive(&mut world, SimDuration::from_millis(500), t0 + SimDuration::from_secs(120), |_| {
        done.lock().unwrap().is_some()
    });
    let done = *done.lock().unwrap();
    E4Point { enrolment, ..E4Point::new("PVM", n, done.map(|t| t.since(t0).as_secs_f64())) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_burst_completes_and_is_thread_invariant() {
        let a = run_snipe_sharded(2, 4, 7, 1);
        let b = run_snipe_sharded(2, 4, 7, 2);
        assert!(a.complete && b.complete, "{a:?} {b:?}");
        assert_eq!(a.digest, b.digest, "digest must not depend on thread count");
        assert_eq!(a.elapsed, b.elapsed, "virtual completion must not depend on thread count");
    }

    /// PVM's rows are its cost model: at every host count of the
    /// sweep, the spawn burst and the enrolment before it each land
    /// within 2 % of their closed forms.
    #[test]
    fn pvm_burst_and_enrolment_match_the_cost_model() {
        let near =
            |got: Option<f64>, model: f64| got.is_some_and(|g| (g / model - 1.0).abs() < 0.02);
        for n in HOSTS {
            let p = run_pvm(n, 40);
            assert!(near(p.complete.then_some(p.elapsed), pvm_burst_model(n)), "{p:?}");
            assert!(near(p.enrolment, pvm_enrolment_model(n)), "{p:?}");
        }
    }

    #[test]
    fn snipe_scales_better_than_pvm() {
        let s = run_snipe(24, 9);
        let p = run_pvm(24, 9);
        assert!(s.complete && p.complete, "{s:?} {p:?}");
        assert!(
            s.elapsed < p.elapsed,
            "SNIPE {:.4}s must beat PVM {:.4}s at 24 hosts",
            s.elapsed,
            p.elapsed
        );
    }
}
