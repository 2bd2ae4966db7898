//! End-to-end integration of the SNIPE client library: global naming,
//! reliable messaging, spawning, groups, files, notify lists,
//! migration and consoles — all over the simulated testbed.

use bytes::Bytes;
use snipe_core::api::TicketResult;
use snipe_core::{GroupEvent, ProcRef, SnipeApi, SnipeProcess, SnipeWorldBuilder, SpawnTarget};
use snipe_daemon::proto::TaskState;
use snipe_util::time::SimDuration;
use std::sync::{Arc, Mutex};

type Log = Arc<Mutex<Vec<String>>>;

/// Echoes every message back to the sender, prefixed with "echo:".
struct Echo;
impl SnipeProcess for Echo {
    fn on_start(&mut self, _api: &mut SnipeApi<'_, '_>) {}
    fn on_message(&mut self, api: &mut SnipeApi<'_, '_>, from: ProcRef, msg: Bytes) {
        let mut reply = b"echo:".to_vec();
        reply.extend_from_slice(&msg);
        api.send(from.key, reply);
    }
}

/// Sends `count` messages to a peer key and records replies.
struct Pinger {
    peer: u64,
    count: u32,
    log: Log,
}
impl SnipeProcess for Pinger {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        for i in 0..self.count {
            api.send(self.peer, format!("m{i}").into_bytes());
        }
    }
    fn on_message(&mut self, _api: &mut SnipeApi<'_, '_>, _from: ProcRef, msg: Bytes) {
        self.log.lock().unwrap().push(String::from_utf8_lossy(&msg).into_owned());
    }
}

#[test]
fn point_to_point_messaging_with_name_resolution() {
    let mut w = SnipeWorldBuilder::lan(3, 1).build();
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    w.register_process("echo", |_| Box::new(Echo));
    let (echo_key, _) = w.spawn_on("host1", "echo", Bytes::new()).unwrap();
    let log2 = log.clone();
    w.register_process("pinger", move |_| {
        Box::new(Pinger { peer: echo_key, count: 5, log: log2.clone() })
    });
    w.spawn_on("host2", "pinger", Bytes::new()).unwrap();
    w.run_for_secs(5);
    let got = log.lock().unwrap();
    assert_eq!(got.len(), 5, "all replies must arrive: {got:?}");
    // FIFO order preserved.
    for (i, m) in got.iter().enumerate() {
        assert_eq!(m, &format!("echo:m{i}"));
    }
}

/// Parent spawns a child through its host daemon and the RM, then talks
/// to it.
struct Parent {
    log: Log,
    via_rm: bool,
    child_ticket: u64,
}
impl SnipeProcess for Parent {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        let target = if self.via_rm {
            SpawnTarget::ResourceManager
        } else {
            SpawnTarget::Host("host2".into())
        };
        self.child_ticket = api.spawn(target, "echo", Bytes::new());
    }
    fn on_ticket(&mut self, api: &mut SnipeApi<'_, '_>, ticket: u64, result: TicketResult) {
        if ticket == self.child_ticket {
            match result {
                TicketResult::Spawned(Ok(child)) => {
                    self.log.lock().unwrap().push(format!("spawned:{}", child.key != 0));
                    api.send(child.key, b"hi child".to_vec());
                }
                other => self.log.lock().unwrap().push(format!("spawn failed: {other:?}")),
            }
        }
    }
    fn on_message(&mut self, _api: &mut SnipeApi<'_, '_>, _from: ProcRef, msg: Bytes) {
        self.log.lock().unwrap().push(String::from_utf8_lossy(&msg).into_owned());
    }
}

#[test]
fn spawn_via_daemon_and_talk() {
    let mut w = SnipeWorldBuilder::lan(3, 2).build();
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    w.register_process("echo", |_| Box::new(Echo));
    let l = log.clone();
    w.register_process("parent", move |_| {
        Box::new(Parent { log: l.clone(), via_rm: false, child_ticket: 0 })
    });
    w.spawn_on("host0", "parent", Bytes::new()).unwrap();
    w.run_for_secs(5);
    let got = log.lock().unwrap();
    assert!(got.contains(&"spawned:true".to_string()), "{got:?}");
    assert!(got.contains(&"echo:hi child".to_string()), "{got:?}");
}

#[test]
fn spawn_via_resource_manager() {
    let mut w = SnipeWorldBuilder::lan(4, 3).build();
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    w.register_process("echo", |_| Box::new(Echo));
    let l = log.clone();
    w.register_process("parent", move |_| {
        Box::new(Parent { log: l.clone(), via_rm: true, child_ticket: 0 })
    });
    // Give the RM time to discover hosts before asking it to place.
    w.run_for_secs(3);
    w.spawn_on("host3", "parent", Bytes::new()).unwrap();
    w.run_for_secs(6);
    let got = log.lock().unwrap();
    assert!(got.contains(&"spawned:true".to_string()), "{got:?}");
    assert!(got.contains(&"echo:hi child".to_string()), "{got:?}");
}

/// Group member: joins and records everything it hears.
struct Member {
    group: String,
    log: Log,
    announce: Option<Vec<u8>>,
}
impl SnipeProcess for Member {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        api.join_group(self.group.clone());
    }
    fn on_group_event(&mut self, api: &mut SnipeApi<'_, '_>, group: &str, event: GroupEvent) {
        if event == GroupEvent::Joined {
            if let Some(msg) = self.announce.take() {
                api.send_group(group.to_string(), msg);
            }
        }
    }
    fn on_group_message(
        &mut self,
        _api: &mut SnipeApi<'_, '_>,
        _group: &str,
        origin: u64,
        msg: Bytes,
    ) {
        self.log.lock().unwrap().push(format!("{origin}:{}", String::from_utf8_lossy(&msg)));
    }
}

#[test]
fn multicast_group_delivers_to_all_members_exactly_once() {
    let mut w = SnipeWorldBuilder::lan(5, 4).build();
    let logs: Vec<Log> = (0..4).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
    for (i, log) in logs.iter().enumerate() {
        let l = log.clone();
        let announce = if i == 0 { Some(b"hello group".to_vec()) } else { None };
        w.register_process(format!("member{i}"), move |_| {
            Box::new(Member { group: "weather".into(), log: l.clone(), announce: announce.clone() })
        });
    }
    // Stagger: members 1..3 join first, then member 0 joins and
    // announces.
    for i in (0..4).rev() {
        w.spawn_on(&format!("host{}", i + 1), &format!("member{i}"), Bytes::new()).unwrap();
        w.run_for(SimDuration::from_millis(500));
    }
    w.run_for_secs(10);
    for (i, log) in logs.iter().enumerate() {
        let got = log.lock().unwrap();
        let hellos = got.iter().filter(|m| m.ends_with(":hello group")).count();
        assert_eq!(hellos, 1, "member {i} must hear the announcement exactly once: {got:?}");
    }
}

/// Writes a file, reads it back.
struct FileUser {
    log: Log,
    write_ticket: u64,
    read_ticket: u64,
}
impl SnipeProcess for FileUser {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        self.write_ticket = api.write_file("lifn:snipe:file:notes", b"remember the milk".to_vec());
    }
    fn on_ticket(&mut self, api: &mut SnipeApi<'_, '_>, ticket: u64, result: TicketResult) {
        if ticket == self.write_ticket {
            match result {
                TicketResult::FileWritten(Ok(())) => {
                    self.log.lock().unwrap().push("written".into());
                    self.read_ticket = api.read_file("lifn:snipe:file:notes");
                }
                other => self.log.lock().unwrap().push(format!("write failed: {other:?}")),
            }
        } else if ticket == self.read_ticket {
            match result {
                TicketResult::FileRead(Ok(content)) => self
                    .log
                    .lock()
                    .unwrap()
                    .push(format!("read:{}", String::from_utf8_lossy(&content))),
                other => self.log.lock().unwrap().push(format!("read failed: {other:?}")),
            }
        }
    }
}

#[test]
fn file_write_then_read() {
    let mut w = SnipeWorldBuilder::lan(3, 5).build();
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let l = log.clone();
    w.register_process("fileuser", move |_| {
        Box::new(FileUser { log: l.clone(), write_ticket: 0, read_ticket: 0 })
    });
    w.spawn_on("host2", "fileuser", Bytes::new()).unwrap();
    w.run_for_secs(5);
    let got = log.lock().unwrap();
    assert!(got.contains(&"written".to_string()), "{got:?}");
    assert!(got.contains(&"read:remember the milk".to_string()), "{got:?}");
}

/// Reads three files in one callback and logs the failures in the
/// order their tickets complete.
struct TripleReader {
    log: Log,
}
impl SnipeProcess for TripleReader {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        for name in ["a", "b", "c"] {
            api.read_file(format!("lifn:snipe:file:{name}"));
        }
    }
    fn on_ticket(&mut self, _api: &mut SnipeApi<'_, '_>, _ticket: u64, result: TicketResult) {
        if let TicketResult::FileRead(Err(e)) = result {
            self.log.lock().unwrap().push(e.to_string());
        }
    }
}

/// Three reads put to a dead server share a deadline and time out in
/// one tick. Each failover draws the next request id and the next slot
/// in the stack's send queue, so the order they expire in reaches the
/// wire and the application: request order on every run, not whatever
/// a hash map iterates in.
#[test]
fn reads_timing_out_together_fail_over_in_request_order() {
    for _ in 0..20 {
        let mut w = SnipeWorldBuilder::lan(3, 5).build();
        // Nothing listens on port 999; the live servers (which hold
        // none of the files) come after it.
        let mut dead = w.file_endpoints()[0];
        dead.port = 999;
        w.process_config_mut().file_servers.insert(0, dead);
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        let l = log.clone();
        w.register_process("reader", move |_| Box::new(TripleReader { log: l.clone() }));
        w.spawn_on("host2", "reader", Bytes::new()).unwrap();
        w.run_for_secs(3);
        let got = log.lock().unwrap();
        let want = ["a", "b", "c"].map(|n| format!("name not found: lifn:snipe:file:{n}"));
        assert_eq!(*got, want);
    }
}

/// A counter that walks to another host midway, proving state and
/// in-flight messages survive (§5.6).
struct Wanderer {
    count: u64,
    log: Log,
}
impl SnipeProcess for Wanderer {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        api.set_timer(SimDuration::from_millis(100), 1);
    }
    fn on_timer(&mut self, api: &mut SnipeApi<'_, '_>, _token: u64) {
        self.count += 1;
        if self.count == 3 {
            self.log.lock().unwrap().push(format!("migrating at count {}", self.count));
            api.migrate_to("host3");
            return;
        }
        api.set_timer(SimDuration::from_millis(100), 1);
    }
    fn on_migrated(&mut self, api: &mut SnipeApi<'_, '_>) {
        self.log.lock().unwrap().push(format!(
            "arrived on {} with count {}",
            api.my_hostname(),
            self.count
        ));
        api.set_timer(SimDuration::from_millis(100), 1);
    }
    fn on_message(&mut self, api: &mut SnipeApi<'_, '_>, from: ProcRef, msg: Bytes) {
        self.log.lock().unwrap().push(format!("got {}", String::from_utf8_lossy(&msg)));
        api.send(from.key, b"ack".to_vec());
    }
    fn checkpoint(&mut self) -> Bytes {
        Bytes::from(self.count.to_be_bytes().to_vec())
    }
    fn restore(&mut self, state: Bytes) {
        let mut b = [0u8; 8];
        b.copy_from_slice(&state);
        self.count = u64::from_be_bytes(b);
    }
}

/// Streams messages at the wanderer throughout its migration.
struct Streamer {
    peer: u64,
    sent: u32,
    acked: Arc<Mutex<u32>>,
}
impl SnipeProcess for Streamer {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        api.set_timer(SimDuration::from_millis(50), 1);
    }
    fn on_timer(&mut self, api: &mut SnipeApi<'_, '_>, _token: u64) {
        if self.sent < 20 {
            api.send(self.peer, format!("s{}", self.sent).into_bytes());
            self.sent += 1;
            api.set_timer(SimDuration::from_millis(50), 1);
        }
    }
    fn on_message(&mut self, _api: &mut SnipeApi<'_, '_>, _from: ProcRef, _msg: Bytes) {
        *self.acked.lock().unwrap() += 1;
    }
}

#[test]
fn migration_preserves_state_and_loses_no_messages() {
    let mut w = SnipeWorldBuilder::lan(4, 6).build();
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let acked = Arc::new(Mutex::new(0u32));
    let l = log.clone();
    w.register_process("wanderer", move |_| Box::new(Wanderer { count: 0, log: l.clone() }));
    let (wkey, wep) = w.spawn_on("host1", "wanderer", Bytes::new()).unwrap();
    let a = acked.clone();
    w.register_process("streamer", move |_| {
        Box::new(Streamer { peer: wkey, sent: 0, acked: a.clone() })
    });
    w.spawn_on("host2", "streamer", Bytes::new()).unwrap();
    w.run_for_secs(20);
    let got = log.lock().unwrap();
    assert!(
        got.iter().any(|m| m == "arrived on host3 with count 3"),
        "migration must preserve the counter: {got:?}"
    );
    // The old endpoint is gone, the key now resolves to host3.
    assert!(!w.sim_ref().is_bound(wep), "old shell must exit after grace");
    // Every streamed message was eventually delivered and acked.
    assert_eq!(*acked.lock().unwrap(), 20, "no message may be lost across migration");
    let delivered = got.iter().filter(|m| m.starts_with("got s")).count();
    assert_eq!(delivered, 20, "{got:?}");
}

/// Watches another process and records its lifecycle events.
struct Watcher {
    target: u64,
    log: Log,
}
impl SnipeProcess for Watcher {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        api.watch(self.target);
    }
    fn on_task_event(&mut self, _api: &mut SnipeApi<'_, '_>, proc_key: u64, state: TaskState) {
        self.log.lock().unwrap().push(format!("{proc_key}:{}", state.as_str()));
    }
}

/// Exits shortly after starting.
struct ShortLife;
impl SnipeProcess for ShortLife {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        api.set_timer(SimDuration::from_secs(2), 1);
    }
    fn on_timer(&mut self, api: &mut SnipeApi<'_, '_>, _token: u64) {
        api.exit();
    }
}

/// Spawner that reports the child key into a cell.
struct SpawnReporter {
    child: Arc<Mutex<u64>>,
}
impl SnipeProcess for SpawnReporter {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        api.spawn(SpawnTarget::Host("host1".into()), "shortlife", Bytes::new());
    }
    fn on_ticket(&mut self, _api: &mut SnipeApi<'_, '_>, _ticket: u64, result: TicketResult) {
        if let TicketResult::Spawned(Ok(r)) = result {
            *self.child.lock().unwrap() = r.key;
        }
    }
}

#[test]
fn notify_list_reports_exit() {
    let mut w = SnipeWorldBuilder::lan(3, 7).build();
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let child = Arc::new(Mutex::new(0u64));
    w.register_process("shortlife", |_| Box::new(ShortLife));
    let c = child.clone();
    w.register_process("spawner", move |_| Box::new(SpawnReporter { child: c.clone() }));
    w.spawn_on("host0", "spawner", Bytes::new()).unwrap();
    w.run_for_secs(1); // child spawned, still alive
    let child_key = *child.lock().unwrap();
    assert_ne!(child_key, 0);
    let l = log.clone();
    w.register_process("watcher", move |_| Box::new(Watcher { target: child_key, log: l.clone() }));
    w.spawn_on("host2", "watcher", Bytes::new()).unwrap();
    w.run_for_secs(5);
    let got = log.lock().unwrap();
    assert!(got.contains(&format!("{child_key}:exited")), "watcher must hear the exit: {got:?}");
}

#[test]
fn console_reachable_through_rc_binding() {
    use snipe_core::console::{BrowserActor, ConsoleActor};
    use snipe_rcds::uri::Uri;
    let mut w = SnipeWorldBuilder::lan(3, 8).build();
    let rc = w.rc_endpoints().to_vec();
    let url = Uri::parse("http://console.snipe/").unwrap();
    let console = ConsoleActor::new(url.clone(), rc.clone())
        .page("/status", || "all systems nominal".to_string());
    let h1 = w.sim_ref().topology().host_by_name("host1").unwrap();
    let h2 = w.sim_ref().topology().host_by_name("host2").unwrap();
    w.sim().spawn(h1, 80, Box::new(console));
    let responses = Arc::new(Mutex::new(Vec::new()));
    let browser = BrowserActor::new(
        rc,
        vec![
            (SimDuration::from_secs(1), url.clone(), "/status".into()),
            (SimDuration::from_millis(100), url, "/missing".into()),
        ],
        responses.clone(),
    );
    w.sim().spawn(h2, 8080, Box::new(browser));
    w.run_for_secs(5);
    let got = responses.lock().unwrap();
    assert!(got.contains(&(200, "all systems nominal".to_string())), "{got:?}");
    assert!(got.iter().any(|(s, _)| *s == 404), "{got:?}");
}

/// Service provider registering under a LIFN (§5.7).
struct Provider;
impl SnipeProcess for Provider {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        api.register_service("compute");
    }
    fn on_message(&mut self, api: &mut SnipeApi<'_, '_>, from: ProcRef, _msg: Bytes) {
        api.send(from.key, format!("served by {}", api.my_hostname()).into_bytes());
    }
}

struct ServiceClient {
    log: Log,
}
impl SnipeProcess for ServiceClient {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        api.set_timer(SimDuration::from_secs(2), 1);
    }
    fn on_timer(&mut self, api: &mut SnipeApi<'_, '_>, _token: u64) {
        api.lookup_service("compute");
    }
    fn on_ticket(&mut self, api: &mut SnipeApi<'_, '_>, _ticket: u64, result: TicketResult) {
        if let TicketResult::Service(Ok(locations)) = result {
            self.log.lock().unwrap().push(format!("locations:{}", locations.len()));
            if let Some(first) = locations.first() {
                api.send(first.key, b"work".to_vec());
            }
        }
    }
    fn on_message(&mut self, _api: &mut SnipeApi<'_, '_>, _from: ProcRef, msg: Bytes) {
        self.log.lock().unwrap().push(String::from_utf8_lossy(&msg).into_owned());
    }
}

#[test]
fn multi_location_service_lifn() {
    let mut w = SnipeWorldBuilder::lan(4, 9).build();
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    w.register_process("provider", |_| Box::new(Provider));
    w.spawn_on("host1", "provider", Bytes::new()).unwrap();
    w.spawn_on("host2", "provider", Bytes::new()).unwrap();
    let l = log.clone();
    w.register_process("client", move |_| Box::new(ServiceClient { log: l.clone() }));
    w.spawn_on("host3", "client", Bytes::new()).unwrap();
    w.run_for_secs(8);
    let got = log.lock().unwrap();
    assert!(got.contains(&"locations:2".to_string()), "{got:?}");
    assert!(got.iter().any(|m| m.starts_with("served by host")), "{got:?}");
}

/// §5.7: replicas behind a multicast pseudo-process all receive the
/// input stream sent to the pseudo-process's global name.
struct Replica {
    log: Log,
}
impl SnipeProcess for Replica {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        api.join_group("replica-pool");
    }
    fn on_group_message(&mut self, api: &mut SnipeApi<'_, '_>, _g: &str, _o: u64, msg: Bytes) {
        self.log.lock().unwrap().push(format!(
            "{}:{}",
            api.my_hostname(),
            String::from_utf8_lossy(&msg)
        ));
    }
}

struct PseudoDriver;
impl SnipeProcess for PseudoDriver {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        api.register_pseudo_process("compute-farm", "replica-pool");
        api.set_timer(snipe_util::time::SimDuration::from_secs(2), 1);
    }
    fn on_timer(&mut self, api: &mut SnipeApi<'_, '_>, _t: u64) {
        // Send through the *name*, not the group: the RC metadata
        // resolves it to the group.
        api.send_pseudo("compute-farm", b"task-input".to_vec());
    }
}

#[test]
fn pseudo_process_fans_out_to_replicas() {
    let mut w = SnipeWorldBuilder::lan(4, 10).build();
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let l = log.clone();
    w.register_process("replica", move |_| Box::new(Replica { log: l.clone() }));
    w.register_process("driver", |_| Box::new(PseudoDriver));
    w.spawn_on("host1", "replica", Bytes::new()).unwrap();
    w.spawn_on("host2", "replica", Bytes::new()).unwrap();
    w.spawn_on("host3", "driver", Bytes::new()).unwrap();
    w.run_for_secs(8);
    let got = log.lock().unwrap();
    assert!(got.contains(&"host1:task-input".to_string()), "{got:?}");
    assert!(got.contains(&"host2:task-input".to_string()), "{got:?}");
    assert_eq!(got.len(), 2, "exactly once per replica: {got:?}");
}

/// §3.5 active resource management: the RM tells a running process to
/// move; it checkpoints, migrates and keeps serving under the same key.
struct Movable {
    serving: u64,
    log: Log,
}
impl SnipeProcess for Movable {
    fn on_start(&mut self, _api: &mut SnipeApi<'_, '_>) {}
    fn on_message(&mut self, api: &mut SnipeApi<'_, '_>, from: ProcRef, _msg: Bytes) {
        self.serving += 1;
        api.send(
            from.key,
            format!("served#{} from {}", self.serving, api.my_hostname()).into_bytes(),
        );
    }
    fn on_migrated(&mut self, api: &mut SnipeApi<'_, '_>) {
        self.log.lock().unwrap().push(format!("moved to {}", api.my_hostname()));
    }
    fn checkpoint(&mut self) -> Bytes {
        Bytes::from(self.serving.to_be_bytes().to_vec())
    }
    fn restore(&mut self, state: Bytes) {
        let mut b = [0u8; 8];
        b.copy_from_slice(&state);
        self.serving = u64::from_be_bytes(b);
    }
}

struct MovableClient {
    peer: u64,
    log: Log,
}
impl SnipeProcess for MovableClient {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        api.set_timer(SimDuration::from_millis(200), 1);
    }
    fn on_timer(&mut self, api: &mut SnipeApi<'_, '_>, _t: u64) {
        api.send(self.peer, b"work".to_vec());
        api.set_timer(SimDuration::from_millis(200), 1);
    }
    fn on_message(&mut self, _api: &mut SnipeApi<'_, '_>, _f: ProcRef, msg: Bytes) {
        self.log.lock().unwrap().push(String::from_utf8_lossy(&msg).into_owned());
    }
}

#[test]
fn resource_manager_initiated_migration() {
    use snipe_rm::proto::RmMsg;
    use snipe_util::codec::WireEncode;
    use snipe_wire::frame::{seal, Proto};
    let mut w = SnipeWorldBuilder::lan(4, 17).build();
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let l = log.clone();
    w.register_process("movable", move |_| Box::new(Movable { serving: 0, log: l.clone() }));
    let (key, task_ep) = w.spawn_on("host1", "movable", Bytes::new()).unwrap();
    let l2 = log.clone();
    w.register_process("client", move |_| Box::new(MovableClient { peer: key, log: l2.clone() }));
    w.spawn_on("host2", "client", Bytes::new()).unwrap();
    w.run_for_secs(2);
    // The RM (here: the test acting as one) directs the move.
    let rm_ep = w.rm_endpoints()[0];
    let msg = RmMsg::Migrate { task: task_ep, target_host: "host3".into() };
    let h2 = w.sim_ref().topology().host_by_name("host2").unwrap();
    let injector = snipe_netsim::topology::Endpoint::new(h2, 999);
    // Inject via a one-shot raw sender on the simulator.
    struct OneShot {
        to: snipe_netsim::topology::Endpoint,
        bytes: Bytes,
    }
    impl snipe_netsim::actor::Actor for OneShot {
        fn on_event(
            &mut self,
            ctx: &mut dyn snipe_netsim::actor::SimCtx,
            event: snipe_netsim::actor::Event,
        ) {
            if matches!(event, snipe_netsim::actor::Event::Start) {
                ctx.send(self.to, self.bytes.clone());
                let me = ctx.me();
                ctx.kill(me);
            }
        }
    }
    w.sim().spawn(
        injector.host,
        injector.port,
        Box::new(OneShot { to: rm_ep, bytes: seal(Proto::Raw, msg.encode_to_bytes()) }),
    );
    w.run_for_secs(8);
    let got = log.lock().unwrap();
    assert!(got.contains(&"moved to host3".to_string()), "{got:?}");
    // Service continued across the move, counter intact (strictly
    // increasing service numbers, some served from host1, later ones
    // from host3).
    let from_h1 = got.iter().filter(|m| m.contains("from host1")).count();
    let from_h3 = got.iter().filter(|m| m.contains("from host3")).count();
    assert!(from_h1 > 0 && from_h3 > 0, "{got:?}");
    let mut last = 0u64;
    for m in got.iter().filter(|m| m.starts_with("served#")) {
        let n: u64 = m[7..m.find(' ').unwrap()].parse().unwrap();
        assert_eq!(n, last + 1, "service counter must survive the move: {got:?}");
        last = n;
    }
}
