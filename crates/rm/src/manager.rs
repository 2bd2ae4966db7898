//! The resource manager actor.
//!
//! State design: the RM keeps **no private authoritative state** — it
//! reads host descriptors and load from RC metadata (§5.2: "little is
//! hidden in internal data structures") and holds only soft caches and
//! in-flight request bookkeeping. That is what makes redundant RMs
//! trivially correct: clients fail over to any replica RM and observe
//! the same RC-backed view.

use std::collections::HashMap;

use bytes::Bytes;

use snipe_crypto::cert::{CertClaim, Certificate, TrustPurpose, TrustStore};
use snipe_crypto::sign::KeyPair;
use snipe_netsim::actor::{due, earliest, Actor, Event, SimCtx};
use snipe_netsim::topology::Endpoint;
use snipe_rcds::uri::Uri;
use snipe_rcds::{RcClient, RcHost, RC_TIMEOUT};
use snipe_util::codec::{WireDecode, WireEncode};
use snipe_util::deadlines::Deadlines;
use snipe_util::id::HostId;
use snipe_util::rng::Xoshiro256;
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::frame::{open, seal, Proto};

use snipe_daemon::proto::{DaemonMsg, SpawnSpec};

use crate::proto::{AllocMode, Allocation, MigrateOrder, RmMsg};

/// How often an RM refreshes its host cache.
const REFRESH_INTERVAL: SimDuration = SimDuration::from_secs(2);
/// How long the daemons of one placement round may take to answer
/// before the missing spawns are re-placed on other hosts.
const SPAWN_TIMEOUT: SimDuration = SimDuration::from_millis(500);

/// RM configuration.
#[derive(Clone)]
pub struct RmConfig {
    /// RC replicas to read host metadata from.
    pub rc_replicas: Vec<Endpoint>,
    /// Keys this RM trusts for user/host certification (§4 CA role).
    pub trust: TrustStore,
    /// Deterministic seed for this RM's signing key.
    pub key_seed: u64,
}

impl RmConfig {
    /// Defaults against the given RC replicas.
    pub fn new(rc_replicas: Vec<Endpoint>) -> RmConfig {
        RmConfig { rc_replicas, trust: TrustStore::new(), key_seed: 0x524d }
    }
}

/// Cached view of one managed host.
#[derive(Clone, Debug)]
struct HostInfo {
    hostname: String,
    daemon: Endpoint,
    cpu_factor: f64,
    load: f64,
    arch: String,
}

/// An allocation in progress.
struct PendingAlloc {
    client: Endpoint,
    client_req: u64,
    spec: SpawnSpec,
    want: u32,
    granted: Vec<Allocation>,
    /// daemon req id -> (hostname, daemon ep)
    outstanding: HashMap<u64, (String, Endpoint)>,
    /// Hosts already tried (avoid retrying a dead host).
    tried: Vec<String>,
    retries: u32,
}

/// The resource manager actor (listens on `snipe_wire::ports::RESOURCE_MANAGER`).
pub struct RmActor {
    cfg: RmConfig,
    rc: RcHost,
    /// When the host table is next refreshed.
    next_refresh: Option<SimTime>,
    keypair: KeyPair,
    hosts: Vec<HostInfo>,
    /// Soft reservations: hostname -> count, decayed on refresh.
    reserved: HashMap<String, u32>,
    /// RC request id -> host URI being fetched.
    rc_gets: HashMap<u64, String>,
    /// Active allocations by allocation id, each due for re-placement
    /// at its deadline.
    pending: Deadlines<u64, PendingAlloc>,
    next_id: u64,
    /// Allocations served (diagnostics).
    pub allocations_served: u64,
    /// Authorizations granted / denied (diagnostics).
    pub auth_granted: u64,
    /// Authorizations denied.
    pub auth_denied: u64,
}

impl RmActor {
    /// New RM.
    pub fn new(cfg: RmConfig) -> RmActor {
        let mut rng = Xoshiro256::seed_from_u64(cfg.key_seed);
        let keypair = KeyPair::generate_default(&mut rng);
        let rc = RcClient::new(cfg.rc_replicas.clone(), RC_TIMEOUT);
        RmActor {
            cfg,
            rc: RcHost::new(rc),
            next_refresh: None,
            keypair,
            hosts: Vec::new(),
            reserved: HashMap::new(),
            rc_gets: HashMap::new(),
            pending: Deadlines::new(),
            next_id: 1,
            allocations_served: 0,
            auth_granted: 0,
            auth_denied: 0,
        }
    }

    /// The RM's public key (trust anchor for daemons, §4).
    pub fn public_key(&self) -> &snipe_crypto::sign::PublicKey {
        &self.keypair.public
    }

    /// The RM's signing keypair (so worlds can pre-distribute trust).
    pub fn keypair_for_seed(seed: u64) -> KeyPair {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        KeyPair::generate_default(&mut rng)
    }

    fn send_msg(&self, ctx: &mut dyn SimCtx, to: Endpoint, msg: &RmMsg) {
        ctx.send(to, seal(Proto::Raw, msg.encode_to_bytes()));
    }

    /// Flush the RC client; completed lookups update the host table. A
    /// `Find` completion issues a `Get` per host, so this flushes until
    /// nothing completes: the `Get`s leave now, not at the RC deadline.
    fn pump_rc(&mut self, ctx: &mut dyn SimCtx) {
        let done = self.rc.flush(ctx);
        if done.is_empty() {
            return;
        }
        for (id, result) in done {
            let Some(uri) = self.rc_gets.remove(&id) else {
                // A Find completion: a Get for each found host.
                if let Ok(reply) = &result {
                    for u in &reply.uris {
                        if let Ok(parsed) = Uri::parse(u.clone()) {
                            let rid = self.rc.get(ctx.now(), &parsed);
                            self.rc_gets.insert(rid, u.clone());
                        }
                    }
                }
                continue;
            };
            let Ok(reply) = result else { continue };
            // Parse a host descriptor.
            let mut hostname = String::new();
            let mut daemon = None;
            let mut cpu_factor = 1.0;
            let mut load = 0.0;
            let mut arch = String::new();
            if let Some(rest) = uri.strip_prefix("snipe://") {
                hostname = rest.trim_end_matches('/').to_string();
            }
            for a in &reply.assertions {
                match a.name.as_str() {
                    "daemon-endpoint" => {
                        if let Some((h, p)) = a.value.split_once(':') {
                            if let (Ok(h), Ok(p)) = (h.parse::<u32>(), p.parse::<u16>()) {
                                daemon = Some(Endpoint::new(HostId(h), p));
                            }
                        }
                    }
                    "cpu-factor" => cpu_factor = a.value.parse().unwrap_or(1.0),
                    "load" => load = a.value.parse().unwrap_or(0.0),
                    "arch" => arch = a.value.clone(),
                    _ => {}
                }
            }
            if let Some(daemon) = daemon {
                match self.hosts.iter_mut().find(|h| h.hostname == hostname) {
                    Some(h) => {
                        h.daemon = daemon;
                        h.cpu_factor = cpu_factor;
                        h.load = load;
                        h.arch = arch;
                    }
                    None => self.hosts.push(HostInfo { hostname, daemon, cpu_factor, load, arch }),
                }
            }
        }
        self.pump_rc(ctx);
    }

    /// Rank usable hosts for a spec: effective load ascending.
    fn select_hosts(&self, spec: &SpawnSpec, count: usize, exclude: &[String]) -> Vec<HostInfo> {
        let mut candidates: Vec<&HostInfo> = self
            .hosts
            .iter()
            .filter(|h| spec.arch.is_empty() || h.arch == spec.arch)
            .filter(|h| h.cpu_factor >= spec.min_cpu_factor)
            .filter(|h| !exclude.contains(&h.hostname))
            .collect();
        candidates.sort_by(|a, b| {
            let ea = (a.load + *self.reserved.get(&a.hostname).unwrap_or(&0) as f64) / a.cpu_factor;
            let eb = (b.load + *self.reserved.get(&b.hostname).unwrap_or(&0) as f64) / b.cpu_factor;
            ea.partial_cmp(&eb).expect("loads are finite").then(a.hostname.cmp(&b.hostname))
        });
        candidates.into_iter().take(count).cloned().collect()
    }

    fn handle_alloc(
        &mut self,
        ctx: &mut dyn SimCtx,
        from: Endpoint,
        req_id: u64,
        spec: SpawnSpec,
        count: u32,
        mode: AllocMode,
    ) {
        let chosen = self.select_hosts(&spec, count as usize, &[]);
        if chosen.len() < count as usize {
            let resp = RmMsg::AllocResp {
                req_id,
                ok: false,
                allocations: vec![],
                error: format!("only {} of {count} hosts available", chosen.len()),
            };
            self.send_msg(ctx, from, &resp);
            return;
        }
        for h in &chosen {
            *self.reserved.entry(h.hostname.clone()).or_insert(0) += 1;
        }
        match mode {
            AllocMode::Passive => {
                self.allocations_served += 1;
                let allocations = chosen
                    .iter()
                    .map(|h| Allocation {
                        hostname: h.hostname.clone(),
                        daemon: h.daemon,
                        task: Endpoint::new(h.daemon.host, 0),
                        proc_key: 0,
                    })
                    .collect();
                let resp = RmMsg::AllocResp { req_id, ok: true, allocations, error: String::new() };
                self.send_msg(ctx, from, &resp);
            }
            AllocMode::Active => {
                // Proxy: spawn on each chosen daemon.
                let alloc_id = self.next_id;
                self.next_id += 1;
                let mut outstanding = HashMap::new();
                let mut tried = Vec::new();
                for h in &chosen {
                    let did = self.next_id;
                    self.next_id += 1;
                    let msg = DaemonMsg::SpawnReq { req_id: did, spec: spec.clone() };
                    ctx.send(h.daemon, seal(Proto::Raw, msg.encode_to_bytes()));
                    outstanding.insert(did, (h.hostname.clone(), h.daemon));
                    tried.push(h.hostname.clone());
                }
                self.pending.insert(
                    alloc_id,
                    ctx.now() + SPAWN_TIMEOUT,
                    PendingAlloc {
                        client: from,
                        client_req: req_id,
                        spec,
                        want: count,
                        granted: Vec::new(),
                        outstanding,
                        tried,
                        retries: 0,
                    },
                );
            }
        }
    }

    fn handle_spawn_resp(
        &mut self,
        ctx: &mut dyn SimCtx,
        did: u64,
        ok: bool,
        endpoint: Endpoint,
        proc_key: u64,
    ) {
        let Some((alloc_id, p)) =
            self.pending.iter_mut().find(|(_, p)| p.outstanding.contains_key(&did))
        else {
            return;
        };
        let (hostname, daemon) = p.outstanding.remove(&did).expect("contains did");
        if ok {
            p.granted.push(Allocation { hostname, daemon, task: endpoint, proc_key });
        }
        if p.granted.len() as u32 == p.want {
            let p = self.pending.remove(&alloc_id).expect("present");
            self.allocations_served += 1;
            let resp = RmMsg::AllocResp {
                req_id: p.client_req,
                ok: true,
                allocations: p.granted,
                error: String::new(),
            };
            self.send_msg(ctx, p.client, &resp);
        }
    }

    /// Timeout path: re-place the spawns still missing — unanswered or
    /// refused — on other hosts, or fail.
    fn check_pending(&mut self, ctx: &mut dyn SimCtx) {
        let now = ctx.now();
        // Retries draw replacement hosts and fresh spawn ids in turn:
        // the table's allocation-id order, so a seed replays.
        for (alloc_id, mut p) in self.pending.take_due(now) {
            p.outstanding.clear();
            let missing = p.want as usize - p.granted.len();
            if p.retries >= 2 {
                self.fail_alloc(ctx, p, "spawn timeout");
                continue;
            }
            p.retries += 1;
            let replacement = self.select_hosts(&p.spec, missing, &p.tried);
            if replacement.len() < missing {
                self.fail_alloc(ctx, p, "no replacement hosts");
                continue;
            }
            for h in replacement {
                let did = self.next_id;
                self.next_id += 1;
                let msg = DaemonMsg::SpawnReq { req_id: did, spec: p.spec.clone() };
                ctx.send(h.daemon, seal(Proto::Raw, msg.encode_to_bytes()));
                p.outstanding.insert(did, (h.hostname.clone(), h.daemon));
                p.tried.push(h.hostname);
            }
            self.pending.insert(alloc_id, now + SPAWN_TIMEOUT, p);
        }
    }

    /// Give up on an allocation: the client hears what was granted.
    fn fail_alloc(&self, ctx: &mut dyn SimCtx, p: PendingAlloc, error: &str) {
        let resp = RmMsg::AllocResp {
            req_id: p.client_req,
            ok: false,
            allocations: p.granted,
            error: error.into(),
        };
        self.send_msg(ctx, p.client, &resp);
    }

    /// §4: verify the two certificates and issue a signed authorization.
    fn handle_auth(
        &mut self,
        ctx: &mut dyn SimCtx,
        from: Endpoint,
        req_id: u64,
        user_cert: Bytes,
        host_cert: Bytes,
        resource: String,
    ) {
        let deny = |this: &mut Self, ctx: &mut dyn SimCtx, error: String| {
            this.auth_denied += 1;
            let resp = RmMsg::AuthResp { req_id, ok: false, grant: Bytes::new(), error };
            this.send_msg(ctx, from, &resp);
        };
        let user = match Certificate::decode_from_bytes(user_cert) {
            Ok(c) => c,
            Err(e) => return deny(self, ctx, format!("bad user cert: {e}")),
        };
        let host = match Certificate::decode_from_bytes(host_cert) {
            Ok(c) => c,
            Err(e) => return deny(self, ctx, format!("bad host cert: {e}")),
        };
        // "The first certificate is verified by checking the user's key
        // certificate ... the second by checking the requesting host's
        // key certificate" (§4).
        if let Err(e) = self.cfg.trust.verify(TrustPurpose::UserCertification, &user) {
            return deny(self, ctx, format!("user cert untrusted: {e}"));
        }
        if let Err(e) = self.cfg.trust.verify(TrustPurpose::HostCertification, &host) {
            return deny(self, ctx, format!("host cert untrusted: {e}"));
        }
        // The user's certificate must cover the requested resource.
        match user.claim("resources") {
            Some(r) if r == "*" || r.split(',').any(|x| x == resource) => {}
            _ => return deny(self, ctx, "user not granted this resource".into()),
        }
        // Issue our own signed authorization (the statement transmitted
        // to the hosts where the resources reside).
        self.auth_granted += 1;
        let grant = Certificate::issue(
            ctx.rng(),
            &self.keypair,
            user.subject.clone(),
            user.subject_key.clone(),
            vec![
                CertClaim { name: "allowed-hosts".into(), value: resource },
                CertClaim {
                    name: "granted-by".into(),
                    value: self.keypair.public.fingerprint_hex(),
                },
            ],
        );
        let resp = RmMsg::AuthResp {
            req_id,
            ok: true,
            grant: grant.encode_to_bytes(),
            error: String::new(),
        };
        self.send_msg(ctx, from, &resp);
    }

    fn refresh(&mut self, ctx: &mut dyn SimCtx) {
        // Decay reservations (daemon load reports supersede them).
        self.reserved.clear();
        self.rc.find(ctx.now(), "type", "host");
        self.pump_rc(ctx);
        self.next_refresh = Some(ctx.now() + REFRESH_INTERVAL);
    }
}

impl Actor for RmActor {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start => self.refresh(ctx),
            Event::Wake => {
                let now = ctx.now();
                if self.rc.on_wake(now) {
                    self.pump_rc(ctx);
                }
                if due(self.next_refresh, now) {
                    self.refresh(ctx);
                }
                if due(self.pending.next_deadline(), now) {
                    self.check_pending(ctx);
                }
            }
            Event::Packet { from, payload } => {
                let Ok((Proto::Raw, body)) = open(payload) else {
                    return;
                };
                if let Ok(msg) = RmMsg::decode_from_bytes(body.clone()) {
                    match msg {
                        RmMsg::AllocReq { req_id, spec, count, mode } => {
                            self.handle_alloc(ctx, from, req_id, spec, count, mode)
                        }
                        RmMsg::AuthReq { req_id, user_cert, host_cert, resource } => {
                            self.handle_auth(ctx, from, req_id, user_cert, host_cert, resource)
                        }
                        RmMsg::TaskControl { daemon, port, signum } => {
                            let msg = if signum == 0 {
                                DaemonMsg::Kill { port }
                            } else {
                                DaemonMsg::Signal { port, signum }
                            };
                            ctx.send(daemon, seal(Proto::Raw, msg.encode_to_bytes()));
                        }
                        RmMsg::Migrate { task, target_host } => {
                            // §3.5 active mode: the RM directs a mobile
                            // process to another host; the process
                            // checkpoint/cutover machinery does the rest.
                            let order = MigrateOrder { target_host };
                            ctx.send(task, seal(Proto::Raw, order.encode_to_bytes()));
                        }
                        RmMsg::AllocResp { .. } | RmMsg::AuthResp { .. } => {}
                    }
                    return;
                }
                if let Ok(dmsg) = DaemonMsg::decode_from_bytes(body.clone()) {
                    if let DaemonMsg::SpawnResp { req_id, ok, endpoint, proc_key, .. } = dmsg {
                        self.handle_spawn_resp(ctx, req_id, ok, endpoint, proc_key);
                    }
                    return;
                }
                self.rc.on_packet(ctx.now(), from, body);
                self.pump_rc(ctx);
            }
            _ => {}
        }
    }

    fn next_wake(&self) -> Option<SimTime> {
        earliest([self.rc.next_deadline(), self.next_refresh, self.pending.next_deadline()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snipe_netsim::topology::Topology;
    use snipe_rcds::assertion::Assertion;
    use snipe_rcds::proto::{RcMsg, RcOp};
    use snipe_util::id::NetId;
    use snipe_util::time::SimTime;

    /// Records what the RM sends; everything else is inert.
    struct FakeCtx {
        now: SimTime,
        sent: Vec<(Endpoint, Bytes)>,
        rng: Xoshiro256,
        topo: Topology,
    }

    impl SimCtx for FakeCtx {
        fn now(&self) -> SimTime {
            self.now
        }
        fn me(&self) -> Endpoint {
            Endpoint::new(HostId(0), 1)
        }
        fn host(&self) -> HostId {
            HostId(0)
        }
        fn send(&mut self, to: Endpoint, payload: Bytes) {
            self.sent.push((to, payload));
        }
        fn send_via(&mut self, to: Endpoint, payload: Bytes, _via: NetId) {
            self.sent.push((to, payload));
        }
        fn set_timer(&mut self, _delay: SimDuration, _token: u64) {}
        fn spawn_portable(&mut self, _: HostId, _: u16, _: Box<dyn Actor>) -> Option<Endpoint> {
            None
        }
        fn alloc_port(&mut self, _host: HostId) -> u16 {
            9999
        }
        fn is_bound(&self, _ep: Endpoint) -> bool {
            false
        }
        fn kill(&mut self, _ep: Endpoint) {}
        fn signal(&mut self, _to: Endpoint, _signum: u32) {}
        fn rng(&mut self) -> &mut Xoshiro256 {
            &mut self.rng
        }
        fn topology(&self) -> &Topology {
            &self.topo
        }
        fn host_up(&self, _h: HostId) -> bool {
            true
        }
    }

    fn rm_with_hosts(n: u32) -> (RmActor, FakeCtx) {
        let mut rm = RmActor::new(RmConfig::new(vec![]));
        for i in 0..n {
            rm.hosts.push(HostInfo {
                hostname: format!("w{i:02}"),
                daemon: Endpoint::new(HostId(10 + i), 7),
                cpu_factor: 1.0,
                load: 0.0,
                arch: String::new(),
            });
        }
        let ctx = FakeCtx {
            now: SimTime::ZERO,
            sent: Vec::new(),
            rng: Xoshiro256::seed_from_u64(7),
            topo: Topology::new(),
        };
        (rm, ctx)
    }

    /// The failed `AllocResp`s among what the RM sent, as request ids.
    fn failed_allocs(sent: &[(Endpoint, Bytes)], client: Endpoint) -> Vec<u64> {
        sent.iter()
            .filter(|(to, _)| *to == client)
            .map(|(_, b)| {
                let (_, body) = open(b.clone()).expect("sealed");
                match RmMsg::decode_from_bytes(body) {
                    Ok(RmMsg::AllocResp { req_id, ok: false, .. }) => req_id,
                    other => panic!("expected a failed allocation, got {other:?}"),
                }
            })
            .collect()
    }

    /// The RC requests among what the RM sent to `replica`.
    fn rc_requests(sent: &[(Endpoint, Bytes)], replica: Endpoint) -> Vec<(u64, RcOp)> {
        let request =
            |(_, b): &(Endpoint, Bytes)| match RcMsg::decode_from_bytes(open(b.clone()).ok()?.1) {
                Ok(RcMsg::Request { id, op }) => Some((id, op)),
                _ => None,
            };
        sent.iter().filter(|(to, _)| *to == replica).filter_map(request).collect()
    }

    /// A `Find` reply names the hosts; the `Get` of each host's
    /// descriptor must leave with that reply, not wait for the RC
    /// deadline 250 ms later. Held back, each left twice at the
    /// deadline (the original beside a retry to the next replica), and
    /// the original's answer was dropped as a mismatched reply.
    #[test]
    fn host_gets_leave_with_the_find_reply() {
        let (r0, r1) = (Endpoint::new(HostId(5), 2), Endpoint::new(HostId(6), 2));
        let mut rm = RmActor::new(RmConfig::new(vec![r0, r1]));
        let (_, mut ctx) = rm_with_hosts(0);
        rm.on_event(&mut ctx, Event::Start);
        let [(find, RcOp::Find(..))] = rc_requests(&ctx.sent, r0)[..] else { panic!("no Find") };
        ctx.sent.clear();
        let uris = vec![Uri::host("w00").as_str().into(), Uri::host("w01").as_str().into()];
        let found = RcMsg::Response { id: find, ok: true, assertions: vec![], uris };
        ctx.now += SimDuration::from_millis(1);
        let payload = seal(Proto::Raw, found.encode_to_bytes());
        rm.on_event(&mut ctx, Event::Packet { from: r0, payload });
        let gets = rc_requests(&ctx.sent, r0);
        assert_eq!(gets.len(), 2, "the Gets leave with the Find reply: {gets:?}");
        ctx.now += SimDuration::from_millis(1);
        for (i, (id, _)) in gets.into_iter().enumerate() {
            let daemon = Assertion::new("daemon-endpoint", format!("{}:7", 10 + i));
            let reply = RcMsg::Response { id, ok: true, assertions: vec![daemon], uris: vec![] };
            let payload = seal(Proto::Raw, reply.encode_to_bytes());
            rm.on_event(&mut ctx, Event::Packet { from: r0, payload });
        }
        // Past the RC deadline, before the next refresh.
        ctx.now += SimDuration::from_millis(300);
        rm.on_event(&mut ctx, Event::Wake);
        assert_eq!(rm.hosts.len(), 2, "both descriptors arrived");
        assert_eq!(rm.rc.stats().mismatched_replies, 0);
        assert!(rc_requests(&ctx.sent, r1).is_empty(), "nothing was retried");
    }

    /// A daemon that *refuses* (unknown program, rejected credential)
    /// answers at once with `ok: false`. That allocation is still the
    /// RM's to finish: re-placed while untried hosts remain, then
    /// answered `ok: false` — never left pending with nobody told.
    #[test]
    fn a_refused_allocation_is_replaced_then_answered() {
        let (mut rm, mut ctx) = rm_with_hosts(2);
        let client = Endpoint::new(HostId(1), 40);
        let spec = SpawnSpec::program("no-such-program", Bytes::new());
        rm.handle_alloc(&mut ctx, client, 9, spec, 1, AllocMode::Active);
        // Spawn ids 2 (first placement) and 3 (the re-placement) are
        // both refused; then no untried host is left.
        for did in [2, 3] {
            assert!(failed_allocs(&ctx.sent, client).is_empty(), "answered too early");
            rm.handle_spawn_resp(&mut ctx, did, false, Endpoint::new(HostId(0), 0), 0);
            ctx.now += SPAWN_TIMEOUT + SimDuration::from_micros(1);
            rm.check_pending(&mut ctx);
        }
        assert_eq!(failed_allocs(&ctx.sent, client), vec![9]);
        assert!(rm.pending.next_deadline().is_none(), "allocation still pending");
    }

    /// Several allocations whose daemons never answer expire in one
    /// tick. Their retries draw spawn ids from one counter and their
    /// failures are replies on the wire, so both must come out in
    /// allocation-id order, never `HashMap` iteration order.
    #[test]
    fn simultaneous_expiries_retry_and_fail_in_id_order() {
        let (mut rm, mut ctx) = rm_with_hosts(12);
        let client = Endpoint::new(HostId(1), 40);
        let spec = SpawnSpec::program("idle", Bytes::new());
        for req_id in 1..=4u64 {
            rm.handle_alloc(&mut ctx, client, req_id, spec.clone(), 1, AllocMode::Active);
        }
        // Two rounds of retries: one fresh spawn id per allocation,
        // handed out oldest allocation first.
        for _ in 0..2 {
            ctx.now += SPAWN_TIMEOUT + SimDuration::from_micros(1);
            rm.check_pending(&mut ctx);
            #[allow(clippy::disallowed_methods, reason = "each map holds one retry")]
            let by_alloc: Vec<(u64, u64)> = rm
                .pending
                .iter_mut()
                .map(|(alloc, p)| (alloc, *p.outstanding.keys().next().expect("one retry each")))
                .collect();
            assert_eq!(by_alloc.len(), 4);
            assert!(by_alloc.windows(2).all(|w| w[0].1 < w[1].1), "spawn ids: {by_alloc:?}");
        }
        ctx.sent.clear();
        // Third expiry: every allocation fails, replies oldest first.
        ctx.now += SPAWN_TIMEOUT + SimDuration::from_micros(1);
        rm.check_pending(&mut ctx);
        assert_eq!(ctx.sent.len(), 4, "only the four replies go out");
        assert_eq!(failed_allocs(&ctx.sent, client), vec![1, 2, 3, 4]);
    }
}
