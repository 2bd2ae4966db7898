//! Whole-system integration on the UTK-style dual-homed testbed:
//! groups + files + migration + consoles + failures, all at once.

use bytes::Bytes;
use snipe::core::api::TicketResult;
use snipe::core::{GroupEvent, SnipeApi, SnipeProcess, SnipeWorldBuilder};
use snipe::util::time::SimDuration;
use std::sync::{Arc, Mutex};

type Log = Arc<Mutex<Vec<String>>>;

/// A "collector" node: joins the data group, accumulates readings,
/// periodically checkpoints its tally to the file servers, and migrates
/// once halfway through.
struct Collector {
    tally: u64,
    readings: u64,
    log: Log,
    migrated: bool,
}

impl SnipeProcess for Collector {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        api.join_group("data");
    }
    fn on_group_message(&mut self, api: &mut SnipeApi<'_, '_>, _g: &str, _o: u64, msg: Bytes) {
        self.readings += 1;
        self.tally += msg.len() as u64;
        if self.readings == 20 && !self.migrated {
            self.migrated = true;
            self.log.lock().unwrap().push("collector migrating".into());
            api.migrate_to("host3");
        }
        if self.readings == 60 {
            api.write_file("lifn:snipe:file:tally", format!("{}", self.tally).into_bytes());
        }
    }
    fn on_migrated(&mut self, api: &mut SnipeApi<'_, '_>) {
        self.log.lock().unwrap().push(format!(
            "collector resumed on {} with {} readings",
            api.my_hostname(),
            self.readings
        ));
    }
    fn on_ticket(&mut self, api: &mut SnipeApi<'_, '_>, _t: u64, result: TicketResult) {
        if let TicketResult::FileWritten(Ok(())) = result {
            self.log.lock().unwrap().push("tally checkpointed".into());
            api.exit();
        }
    }
    fn checkpoint(&mut self) -> Bytes {
        let mut b = self.tally.to_be_bytes().to_vec();
        b.extend_from_slice(&self.readings.to_be_bytes());
        b.extend_from_slice(&[self.migrated as u8]);
        Bytes::from(b)
    }
    fn restore(&mut self, state: Bytes) {
        let mut t = [0u8; 8];
        t.copy_from_slice(&state[..8]);
        self.tally = u64::from_be_bytes(t);
        t.copy_from_slice(&state[8..16]);
        self.readings = u64::from_be_bytes(t);
        self.migrated = state[16] == 1;
    }
}

/// A producer: publishes readings to the group on a timer.
struct Producer {
    remaining: u32,
}

impl SnipeProcess for Producer {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        api.join_group("data");
    }
    fn on_group_event(&mut self, api: &mut SnipeApi<'_, '_>, _g: &str, e: GroupEvent) {
        if e == GroupEvent::Joined {
            api.set_timer(SimDuration::from_millis(50), 1);
        }
    }
    fn on_timer(&mut self, api: &mut SnipeApi<'_, '_>, _t: u64) {
        if self.remaining > 0 {
            self.remaining -= 1;
            api.send_group("data", vec![7u8; 100]);
            api.set_timer(SimDuration::from_millis(50), 1);
        }
    }
}

/// Reads the tally file back at the end.
struct Verifier {
    log: Log,
}

impl SnipeProcess for Verifier {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        api.read_file("lifn:snipe:file:tally");
    }
    fn on_ticket(&mut self, _api: &mut SnipeApi<'_, '_>, _t: u64, result: TicketResult) {
        if let TicketResult::FileRead(Ok(content)) = result {
            self.log
                .lock()
                .unwrap()
                .push(format!("tally file: {}", String::from_utf8_lossy(&content)));
        }
    }
}

#[test]
fn utk_testbed_end_to_end() {
    let mut w = SnipeWorldBuilder::utk_testbed(5, 314).build();
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let l = log.clone();
    w.register_process("collector", move |_| {
        Box::new(Collector { tally: 0, readings: 0, log: l.clone(), migrated: false })
    });
    w.register_process("producer", |_| Box::new(Producer { remaining: 40 }));
    let l2 = log.clone();
    w.register_process("verifier", move |_| Box::new(Verifier { log: l2.clone() }));

    w.spawn_on("host1", "collector", Bytes::new()).unwrap();
    // Two producers on different hosts: 80 readings total (collector
    // needs 60, slack for the group-join window).
    w.spawn_on("host2", "producer", Bytes::new()).unwrap();
    w.spawn_on("host4", "producer", Bytes::new()).unwrap();
    w.run_for_secs(30);
    w.spawn_on("host2", "verifier", Bytes::new()).unwrap();
    w.run_for_secs(5);

    let got = log.lock().unwrap();
    assert!(got.iter().any(|m| m == "collector migrating"), "{got:?}");
    assert!(got.iter().any(|m| m.starts_with("collector resumed on host3 with")), "{got:?}");
    assert!(got.iter().any(|m| m == "tally checkpointed"), "{got:?}");
    let tally_line = got.iter().find(|m| m.starts_with("tally file: ")).expect("tally read back");
    // 60 readings of 100 bytes each.
    assert_eq!(tally_line, "tally file: 6000");
}

#[test]
fn same_seed_is_bit_identical_different_seed_is_not() {
    fn run(seed: u64) -> (u64, u64, String) {
        let mut w = SnipeWorldBuilder::lan(4, seed).build();
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        let l = log.clone();
        w.register_process("collector", move |_| {
            Box::new(Collector { tally: 0, readings: 0, log: l.clone(), migrated: false })
        });
        w.register_process("producer", |_| Box::new(Producer { remaining: 30 }));
        w.spawn_on("host1", "collector", Bytes::new()).unwrap();
        w.spawn_on("host2", "producer", Bytes::new()).unwrap();
        // Random failure injection driven by the seed.
        let h2 = w.sim_ref().topology().host_by_name("host2").unwrap();
        let at = snipe::util::time::SimTime::ZERO + SimDuration::from_secs(2);
        if snipe::util::rng::Xoshiro256::seed_from_u64(seed).gen_bool(0.5) {
            w.sim().schedule_fault(at, snipe::netsim::shard::FaultCmd::HostDown(h2));
        }
        w.run_for_secs(10);
        let stats = w.sim_ref().stats();
        (stats.events, stats.delivered, format!("{:?}", log.lock().unwrap()))
    }
    let a = run(42);
    let b = run(42);
    assert_eq!(a, b, "same seed must replay identically");
    let c = run(43);
    assert_ne!(a.0, c.0, "different seed should diverge (event counts)");
}
