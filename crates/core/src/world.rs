//! World assembly: build a SNIPE testbed in one call.
//!
//! A [`SnipeWorldBuilder`] lays out hosts and networks; `build()`
//! installs the full SNIPE runtime on them — RC metadata servers,
//! per-host daemons, resource managers and file servers — and returns a
//! [`SnipeWorld`] ready to register programs and spawn processes.
//! `build()` runs the testbed as one region on the calling thread;
//! `build_sharded(threads)` runs the same roster over the topology's
//! natural partition (one region per cluster LAN) on worker threads.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use bytes::Bytes;

use snipe_netsim::actor::Actor;
use snipe_netsim::medium::Medium;
use snipe_netsim::topology::{Endpoint, HostCfg, Topology};
use snipe_netsim::world::World;
use snipe_util::codec::WireDecode;
use snipe_util::error::{SnipeError, SnipeResult};
use snipe_util::id::{HostId, NetId};
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::ports;

use snipe_daemon::registry::{ProgramRegistry, SpawnCtx};
use snipe_daemon::{DaemonActor, DaemonConfig};
use snipe_files::{FileServerActor, FileServerConfig};
use snipe_rcds::server::RcServerActor;
use snipe_rm::{RmActor, RmConfig};

use crate::actor::{MigrationPayload, ProcessActor, ProcessConfig};
use crate::api::SnipeProcess;

/// The program name used internally for migrated processes.
pub const MIGRATE_PROGRAM: &str = "__snipe_migrate__";

/// Application process factory: constructor args → process. `Send +
/// Sync` because the registry holding it is shared across the regions
/// of a world.
pub type ProcessFactory = Box<dyn Fn(Bytes) -> Box<dyn SnipeProcess> + Send + Sync>;

/// The shared name → factory map behind [`SnipeWorld::register_process`].
type ProgramMap = Arc<RwLock<HashMap<String, Arc<ProcessFactory>>>>;

/// Infrastructure actors to install: `(host, port, actor)` triples.
type ServiceRoster = Vec<(HostId, u16, Box<dyn Actor>)>;

/// Builder for a SNIPE testbed.
pub struct SnipeWorldBuilder {
    seed: u64,
    topo: Topology,
    rc_hosts: Vec<HostId>,
    rm_hosts: Vec<HostId>,
    file_hosts: Vec<HostId>,
    rc_sync_interval: SimDuration,
}

impl SnipeWorldBuilder {
    /// Empty builder.
    pub fn new(seed: u64) -> SnipeWorldBuilder {
        SnipeWorldBuilder {
            seed,
            topo: Topology::new(),
            rc_hosts: Vec::new(),
            rm_hosts: Vec::new(),
            file_hosts: Vec::new(),
            rc_sync_interval: SimDuration::from_millis(200),
        }
    }

    /// Add a network segment.
    pub fn network(&mut self, name: &str, medium: Medium, routable: bool) -> NetId {
        self.topo.add_network(name, medium, routable)
    }

    /// Add a host attached to the given networks.
    pub fn host(&mut self, name: &str, nets: &[NetId]) -> HostId {
        let h = self.topo.add_host(HostCfg::named(name));
        for &n in nets {
            self.topo.attach(h, n);
        }
        h
    }

    /// Add a host with a CPU factor.
    pub fn host_with_cpu(&mut self, name: &str, cpu_factor: f64, nets: &[NetId]) -> HostId {
        let mut cfg = HostCfg::named(name);
        cfg.cpu_factor = cpu_factor;
        let h = self.topo.add_host(cfg);
        for &n in nets {
            self.topo.attach(h, n);
        }
        h
    }

    /// Place an RC metadata replica on a host.
    pub fn rc_on(&mut self, h: HostId) -> &mut Self {
        self.rc_hosts.push(h);
        self
    }

    /// Place a resource manager on a host.
    pub fn rm_on(&mut self, h: HostId) -> &mut Self {
        self.rm_hosts.push(h);
        self
    }

    /// Place a file server on a host.
    pub fn files_on(&mut self, h: HostId) -> &mut Self {
        self.file_hosts.push(h);
        self
    }

    /// Anti-entropy interval for RC replicas.
    pub fn rc_sync_interval(&mut self, d: SimDuration) -> &mut Self {
        self.rc_sync_interval = d;
        self
    }

    /// A single-segment 100 Mbit Ethernet LAN with `n` hosts named
    /// `host0..`, RC + RM on host0, file servers on the first two
    /// hosts.
    pub fn lan(n: usize, seed: u64) -> SnipeWorldBuilder {
        let mut b = SnipeWorldBuilder::new(seed);
        let net = b.network("lan", Medium::ethernet100(), true);
        let hosts: Vec<HostId> = (0..n).map(|i| b.host(&format!("host{i}"), &[net])).collect();
        if let Some(&h0) = hosts.first() {
            b.rc_on(h0);
            b.rm_on(h0);
            b.files_on(h0);
        }
        if let Some(&h1) = hosts.get(1) {
            b.files_on(h1);
        }
        b
    }

    /// The UTK-style dual-homed testbed of Fig. 1: `n` hosts on both a
    /// 100 Mbit Ethernet and a 155 Mbit ATM fabric. RC/RM/files on
    /// host0, a second RC replica on host1.
    pub fn utk_testbed(n: usize, seed: u64) -> SnipeWorldBuilder {
        let mut b = SnipeWorldBuilder::new(seed);
        let eth = b.network("utk-eth", Medium::ethernet100(), true);
        let atm = b.network("utk-atm", Medium::atm155(), false);
        let hosts: Vec<HostId> = (0..n).map(|i| b.host(&format!("host{i}"), &[eth, atm])).collect();
        if let Some(&h0) = hosts.first() {
            b.rc_on(h0);
            b.rm_on(h0);
            b.files_on(h0);
        }
        if let Some(&h1) = hosts.get(1) {
            b.rc_on(h1);
            b.files_on(h1);
        }
        b
    }

    /// Two LAN sites joined by routable WAN edges (the cross-MPP /
    /// cross-site scenarios of §6.1): `site0-hostI` and `site1-hostI`.
    pub fn two_site(per_site: usize, seed: u64) -> SnipeWorldBuilder {
        let mut b = SnipeWorldBuilder::new(seed);
        let s0 = b.network("site0", Medium::ethernet100(), true);
        let s1 = b.network("site1", Medium::ethernet100(), true);
        for i in 0..per_site {
            b.host(&format!("site0-host{i}"), &[s0]);
        }
        for i in 0..per_site {
            b.host(&format!("site1-host{i}"), &[s1]);
        }
        let h0 = b.topo.host_by_name("site0-host0").expect("exists");
        let h1 = b.topo.host_by_name("site1-host0").expect("exists");
        b.rc_on(h0).rc_on(h1).rm_on(h0).files_on(h0).files_on(h1);
        b
    }

    /// A multi-cluster campus for `build_sharded`: `clusters`
    /// separate routable Ethernet LANs (`cluster{c}`), each with
    /// `per_cluster` hosts (`c{c}h{i}`), no shared backbone — so the
    /// partition yields one region per cluster and cross-cluster
    /// traffic is routed (and crosses the deterministic mailbox). RC
    /// replicas go on the heads of the first three clusters, file
    /// servers on the first two, the resource manager on cluster 0.
    pub fn campus(clusters: usize, per_cluster: usize, seed: u64) -> SnipeWorldBuilder {
        let mut b = SnipeWorldBuilder::new(seed);
        let mut heads = Vec::new();
        for c in 0..clusters {
            let net = b.network(&format!("cluster{c}"), Medium::ethernet100(), true);
            for i in 0..per_cluster {
                let h = b.host(&format!("c{c}h{i}"), &[net]);
                if i == 0 {
                    heads.push(h);
                }
            }
        }
        for &h in heads.iter().take(3) {
            b.rc_on(h);
        }
        for &h in heads.iter().take(2) {
            b.files_on(h);
        }
        if let Some(&h0) = heads.first() {
            b.rm_on(h0);
        }
        b
    }

    /// Direct access to the topology for custom layouts.
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topo
    }

    /// The service roster: every infrastructure actor the runtime
    /// needs, as `(host, port, actor)` triples, plus the shared
    /// registry/config the processes will use.
    fn services(&self) -> (SnipeRuntime, ServiceRoster) {
        let registry = ProgramRegistry::new();
        let rc_eps: Vec<Endpoint> =
            self.rc_hosts.iter().map(|&h| Endpoint::new(h, ports::RC_SERVER)).collect();
        let rm_eps: Vec<Endpoint> =
            self.rm_hosts.iter().map(|&h| Endpoint::new(h, ports::RESOURCE_MANAGER)).collect();
        let file_eps: Vec<Endpoint> =
            self.file_hosts.iter().map(|&h| Endpoint::new(h, ports::FILE_SERVER)).collect();

        let mut actors: ServiceRoster = Vec::new();
        // RC replicas.
        let servers = RcServerActor::group(&rc_eps, self.rc_sync_interval);
        for (ep, server) in rc_eps.iter().zip(servers) {
            actors.push((ep.host, ep.port, Box::new(server)));
        }
        // Daemons on every host.
        for i in 0..self.topo.host_count() {
            let h = HostId::from_index(i);
            let name = self.topo.host(h).name.clone();
            let cfg = DaemonConfig::new(name, rc_eps.clone());
            actors.push((h, ports::DAEMON, Box::new(DaemonActor::new(cfg, registry.clone()))));
        }
        // Resource managers.
        for (i, ep) in rm_eps.iter().enumerate() {
            let mut cfg = RmConfig::new(rc_eps.clone());
            cfg.key_seed = 0x524d + i as u64;
            actors.push((ep.host, ep.port, Box::new(RmActor::new(cfg))));
        }
        // File servers.
        for (i, ep) in file_eps.iter().enumerate() {
            let peers: Vec<Endpoint> = file_eps.iter().copied().filter(|e| e != ep).collect();
            let cfg = FileServerConfig::new(format!("fs{i}"), rc_eps.clone(), peers);
            actors.push((ep.host, ep.port, Box::new(FileServerActor::new(cfg))));
        }

        let proc_cfg = ProcessConfig {
            rc_replicas: rc_eps.clone(),
            file_servers: file_eps.clone(),
            resource_managers: rm_eps.clone(),
            stack: Default::default(),
            echo_logs: false,
            chaos_disable_migration_freeze: false,
        };
        let programs: ProgramMap = Arc::new(RwLock::new(HashMap::new()));
        register_migration_shim(&registry, &programs, &proc_cfg);

        let rt = SnipeRuntime {
            registry,
            programs,
            proc_cfg,
            rc_eps,
            rm_eps,
            file_eps,
            next_root_key: 1 << 20,
        };
        (rt, actors)
    }

    /// Assemble the runtime on a one-region world, run inline.
    pub fn build(self) -> SnipeWorld {
        self.install(World::new)
    }

    /// Assemble the *same* runtime over the natural partition,
    /// executing on up to `threads` worker threads. Requires routable
    /// media with nonzero latency between regions (see
    /// [`World::sharded`]).
    pub fn build_sharded(self, threads: usize) -> SnipeWorld {
        self.install(|topo, seed| World::sharded(topo, seed, threads))
    }

    fn install(self, engine: impl FnOnce(Topology, u64) -> World) -> SnipeWorld {
        let (rt, actors) = self.services();
        let mut world = engine(self.topo, self.seed);
        for (h, port, actor) in actors {
            world.spawn(h, port, actor);
        }
        SnipeWorld { world, rt }
    }
}

/// Install the migration shim: reconstruct the original process from
/// the payload and resume it under the same key.
fn register_migration_shim(
    registry: &ProgramRegistry,
    programs: &ProgramMap,
    proc_cfg: &ProcessConfig,
) {
    let programs = programs.clone();
    let proc_cfg = proc_cfg.clone();
    // Fallible: the payload arrived over the wire, so a corrupt or
    // stale SpawnReq must turn into a SpawnResp error the migration
    // protocol retries — never a panic.
    registry.register_fallible(MIGRATE_PROGRAM, move |sctx: &SpawnCtx| {
        let payload = MigrationPayload::decode_from_bytes(sctx.args.clone())
            .map_err(|e| SnipeError::Codec(format!("bad migration payload: {e}")))?;
        let factory =
            programs.read().expect("programs poisoned").get(&payload.program).cloned().ok_or_else(
                || SnipeError::NameNotFound(format!("migrated program {:?}", payload.program)),
            )?;
        let process = factory(payload.args.clone());
        Ok(Box::new(ProcessActor::resume_from(proc_cfg.clone(), sctx.proc_key, payload, process))
            as Box<dyn Actor>)
    });
}

/// The engine-independent half of a running testbed: registry, program
/// map, process configuration and service endpoints.
struct SnipeRuntime {
    registry: ProgramRegistry,
    programs: ProgramMap,
    proc_cfg: ProcessConfig,
    rc_eps: Vec<Endpoint>,
    rm_eps: Vec<Endpoint>,
    file_eps: Vec<Endpoint>,
    next_root_key: u64,
}

impl SnipeRuntime {
    fn register_process(
        &mut self,
        name: String,
        factory: impl Fn(Bytes) -> Box<dyn SnipeProcess> + Send + Sync + 'static,
    ) {
        let factory: Arc<ProcessFactory> = Arc::new(Box::new(factory));
        self.programs.write().expect("programs poisoned").insert(name.clone(), factory.clone());
        let cfg = self.proc_cfg.clone();
        let prog_name = name.clone();
        self.registry.register(name, move |sctx: &SpawnCtx| {
            let process = factory(sctx.args.clone());
            Box::new(ProcessActor::new(
                cfg.clone(),
                sctx.proc_key,
                prog_name.clone(),
                sctx.args.clone(),
                process,
            ))
        });
    }

    /// Construct a root process actor for `spawn_on`, assigning it a
    /// fresh key scoped to its host.
    fn make_root(
        &mut self,
        h: HostId,
        program: &str,
        args: Bytes,
    ) -> SnipeResult<(u64, ProcessActor)> {
        let factory = self
            .programs
            .read()
            .expect("programs poisoned")
            .get(program)
            .cloned()
            .ok_or_else(|| SnipeError::NameNotFound(format!("program {program}")))?;
        let process = factory(args.clone());
        let key = ((h.0 as u64) << 32) | self.next_root_key;
        self.next_root_key += 1;
        let actor =
            ProcessActor::new(self.proc_cfg.clone(), key, program.to_string(), args, process);
        Ok((key, actor))
    }
}

/// A running SNIPE testbed.
pub struct SnipeWorld {
    world: World,
    rt: SnipeRuntime,
}

impl SnipeWorld {
    /// Echo every `api.log` line to stdout. Call **before** registering
    /// programs — each registration captures the configuration.
    pub fn echo_logs(&mut self) {
        self.rt.proc_cfg.echo_logs = true;
    }

    /// Register an application program so daemons (and migration) can
    /// instantiate it.
    pub fn register_process(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn(Bytes) -> Box<dyn SnipeProcess> + Send + Sync + 'static,
    ) {
        self.rt.register_process(name.into(), factory);
    }

    /// Bootstrap a root process directly on a host (outside the daemon,
    /// like a user launching a binary from a shell). Returns the
    /// process key and endpoint.
    pub fn spawn_on(
        &mut self,
        hostname: &str,
        program: &str,
        args: Bytes,
    ) -> SnipeResult<(u64, Endpoint)> {
        let Some(h) = self.world.topology().host_by_name(hostname) else {
            return Err(SnipeError::NameNotFound(format!("host {hostname}")));
        };
        let (key, actor) = self.rt.make_root(h, program, args)?;
        let port = self.world.alloc_port(h);
        let ep = self
            .world
            .spawn(h, port, Box::new(actor))
            .ok_or_else(|| SnipeError::WrongState("port collision".into()))?;
        Ok((key, ep))
    }

    /// RC replica endpoints.
    pub fn rc_endpoints(&self) -> &[Endpoint] {
        &self.rt.rc_eps
    }

    /// Resource manager endpoints.
    pub fn rm_endpoints(&self) -> &[Endpoint] {
        &self.rt.rm_eps
    }

    /// File server endpoints.
    pub fn file_endpoints(&self) -> &[Endpoint] {
        &self.rt.file_eps
    }

    /// Mutate the shared process configuration. Like
    /// [`SnipeWorld::echo_logs`], call **before** registering programs:
    /// each registration captures a snapshot of the configuration.
    pub fn process_config_mut(&mut self) -> &mut ProcessConfig {
        &mut self.rt.proc_cfg
    }

    /// The program registry (for registering non-process actors).
    pub fn registry(&self) -> &ProgramRegistry {
        &self.rt.registry
    }

    /// The underlying simulator (fault injection, stats, digests).
    pub fn sim(&mut self) -> &mut World {
        &mut self.world
    }

    /// Immutable simulator access.
    pub fn sim_ref(&self) -> &World {
        &self.world
    }

    /// Run for a simulated duration.
    pub fn run_for(&mut self, d: SimDuration) {
        self.world.run_for(d);
    }

    /// Run for whole simulated seconds.
    pub fn run_for_secs(&mut self, s: u64) {
        self.world.run_for(SimDuration::from_secs(s));
    }

    /// Run until the event queue drains (bounded).
    pub fn run_until_idle(&mut self, limit: u64) -> u64 {
        self.world.run_until_idle(limit)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// Engine digest over all regions (thread-count invariant).
    pub fn digest(&self) -> u64 {
        self.world.digest()
    }

    /// Borrow a root process spawned via [`SnipeWorld::spawn_on`]
    /// (between runs), e.g. to read its log.
    pub fn process_ref(&self, ep: Endpoint) -> Option<&ProcessActor> {
        self.world.actor_ref::<ProcessActor>(ep)
    }
}

// benchmark/ compat — delete when benchmark/ stops importing it
#[doc(hidden)]
pub type ShardedSnipeWorld = SnipeWorld;
