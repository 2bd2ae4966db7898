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
use pvm_baseline::task::{PvmTask, PvmTaskActor, PvmTaskApi};
use pvm_baseline::{PvmMaster, PvmSlave, MASTER_PORT, SLAVE_PORT};
use snipe_core::api::TicketResult;
use snipe_core::{SnipeApi, SnipeProcess, SnipeWorldBuilder, SpawnTarget};
use snipe_daemon::registry::ProgramRegistry;
use snipe_netsim::medium::Medium;
use snipe_netsim::topology::{Endpoint, HostCfg, Topology};
use snipe_netsim::world::World;
use snipe_util::time::{SimDuration, SimTime};

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

/// SNIPE: spawn one task per host from a coordinator.
pub fn run_snipe(n: usize, seed: u64) -> E4Point {
    let mut w = SnipeWorldBuilder::lan(n, seed).build();
    w.register_process("idle", |_| Box::new(Idle));
    let done = Arc::new(Mutex::new(None));
    let failed = Arc::new(Mutex::new(false));
    let (d, f) = (done.clone(), failed.clone());
    let hosts: Vec<String> = (0..n).map(|i| format!("host{i}")).collect();
    w.register_process("coord", move |_| {
        Box::new(Coordinator {
            hosts: hosts.clone(),
            confirmed: 0,
            done: d.clone(),
            failed: f.clone(),
        })
    });
    let t0 = w.now();
    w.spawn_on("host0", "coord", Bytes::new()).unwrap();
    for _ in 0..240 {
        w.run_for(SimDuration::from_millis(500));
        if done.lock().unwrap().is_some() || *failed.lock().unwrap() {
            break;
        }
    }
    let result = *done.lock().unwrap();
    match result {
        Some(t) => E4Point {
            system: "SNIPE",
            hosts: n,
            elapsed: t.since(t0).as_secs_f64(),
            complete: true,
        },
        None => E4Point { system: "SNIPE", hosts: n, elapsed: f64::NAN, complete: false },
    }
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
    w.register_process("idle", |_| Box::new(Idle));
    let done = Arc::new(Mutex::new(None));
    let failed = Arc::new(Mutex::new(false));
    let (d, f) = (done.clone(), failed.clone());
    let hosts: Vec<String> =
        (0..clusters).flat_map(|c| (0..per_cluster).map(move |i| format!("c{c}h{i}"))).collect();
    let n = hosts.len();
    w.register_process("coord", move |_| {
        Box::new(Coordinator {
            hosts: hosts.clone(),
            confirmed: 0,
            done: d.clone(),
            failed: f.clone(),
        })
    });
    let t0 = w.now();
    w.spawn_on("c0h1", "coord", Bytes::new()).unwrap();
    for _ in 0..240 {
        w.run_for(SimDuration::from_millis(500));
        if done.lock().unwrap().is_some() || *failed.lock().unwrap() {
            break;
        }
    }
    let digest = w.digest();
    let result = *done.lock().unwrap();
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    match result {
        Some(t) => E4ShardPoint {
            threads,
            hosts: n,
            elapsed: t.since(t0).as_secs_f64(),
            wall_ms,
            digest,
            complete: true,
        },
        None => {
            E4ShardPoint { threads, hosts: n, elapsed: f64::NAN, wall_ms, digest, complete: false }
        }
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

/// PVM: spawn one task per host through the central master.
pub fn run_pvm(n: usize, seed: u64) -> E4Point {
    let mut topo = Topology::new();
    let net = topo.add_network("lan", Medium::ethernet100(), true);
    let mut hosts = Vec::new();
    for i in 0..n {
        let h = topo.add_host(HostCfg::named(format!("pvm{i}")));
        topo.attach(h, net);
        hosts.push(h);
    }
    let mut world = World::new(topo, seed);
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
    // The enrolment phase (host-table churn) is part of what limits
    // PVM, but for comparability we start timing at the spawn burst.
    world.run_for(SimDuration::from_secs(5));
    let done = Arc::new(Mutex::new(None));
    let coord = PvmTaskActor::new(
        99_999,
        master_ep,
        Box::new(PvmCoordinator { n, confirmed: 0, done: done.clone() }),
    );
    let t0 = world.now();
    world.spawn(hosts[0], 700, Box::new(coord));
    for _ in 0..240 {
        world.run_for(SimDuration::from_millis(500));
        if done.lock().unwrap().is_some() {
            break;
        }
    }
    let result = *done.lock().unwrap();
    match result {
        Some(t) => {
            E4Point { system: "PVM", hosts: n, elapsed: t.since(t0).as_secs_f64(), complete: true }
        }
        None => E4Point { system: "PVM", hosts: n, elapsed: f64::NAN, complete: false },
    }
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
