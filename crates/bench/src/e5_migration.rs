//! E5 — §5.6: "Processes with open communications are guaranteed no
//! loss of data while migration is in progress."
//!
//! A streamer fires messages at a worker at a fixed rate while the
//! worker migrates between hosts. We measure messages lost (must be 0),
//! FIFO violations (must be 0) and the delivery stall around the move.

use std::sync::{Arc, Mutex};

use bytes::Bytes;

use snipe_core::{ProcRef, SnipeApi, SnipeProcess, SnipeWorld, SnipeWorldBuilder};
use snipe_util::time::{SimDuration, SimTime};

/// Measured outcome.
#[derive(Clone, Debug)]
pub struct E5Point {
    /// Messages sent at the migrating process.
    pub sent: u32,
    /// Messages it received.
    pub received: u32,
    /// FIFO violations observed.
    pub out_of_order: u32,
    /// Longest gap between consecutive deliveries (seconds) — the
    /// migration stall.
    pub max_gap: f64,
    /// When the process completed its move (seconds).
    pub migrated_at: f64,
}

/// What the migrating worker saw. It lives outside the process: a move
/// ends the process instance that filled it and resumes a fresh one.
#[derive(Default)]
pub(crate) struct Log {
    /// Every delivery as `(when, sequence number)`, in arrival order.
    pub(crate) deliveries: Vec<(SimTime, u32)>,
    /// When the move completed.
    pub(crate) migrated_at: Option<SimTime>,
}

struct Worker {
    log: Arc<Mutex<Log>>,
    move_after: SimDuration,
    target: String,
}

impl SnipeProcess for Worker {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        api.set_timer(self.move_after, 1);
    }
    fn on_timer(&mut self, api: &mut SnipeApi<'_, '_>, _token: u64) {
        api.migrate_to(self.target.clone());
    }
    fn on_migrated(&mut self, api: &mut SnipeApi<'_, '_>) {
        self.log.lock().unwrap().migrated_at = Some(api.now());
    }
    fn on_message(&mut self, api: &mut SnipeApi<'_, '_>, _from: ProcRef, msg: Bytes) {
        // Under chaos a peer could hand us a runt; never slice past it.
        let Some(head) = msg.get(..4) else { return };
        let mut b = [0u8; 4];
        b.copy_from_slice(head);
        self.log.lock().unwrap().deliveries.push((api.now(), u32::from_be_bytes(b)));
    }
    // Nothing to checkpoint: the log lives outside the process.
}

struct Streamer {
    peer: u64,
    total: u32,
    sent: u32,
    interval: SimDuration,
}

impl SnipeProcess for Streamer {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        api.set_timer(self.interval, 1);
    }
    fn on_timer(&mut self, api: &mut SnipeApi<'_, '_>, _token: u64) {
        if self.sent < self.total {
            let mut payload = self.sent.to_be_bytes().to_vec();
            payload.extend_from_slice(&[0u8; 252]);
            api.send(self.peer, payload);
            self.sent += 1;
            api.set_timer(self.interval, 1);
        }
    }
}

/// Stage the drill on `w`: a worker on `from` that moves to `to` after
/// `move_after`, and a streamer on `streamer` sending it `total`
/// numbered messages one per `interval`. Returns the worker's log.
pub(crate) fn stage(
    w: &mut SnipeWorld,
    [from, to, streamer]: [&str; 3],
    move_after: SimDuration,
    total: u32,
    interval: SimDuration,
) -> Arc<Mutex<Log>> {
    let log = Arc::new(Mutex::new(Log::default()));
    let (worker_log, target) = (log.clone(), to.to_string());
    w.register_process("worker", move |_| {
        Box::new(Worker { log: worker_log.clone(), move_after, target: target.clone() })
    });
    let (peer, _) = w.spawn_on(from, "worker", Bytes::new()).expect("spawn worker");
    w.register_process("streamer", move |_| Box::new(Streamer { peer, total, sent: 0, interval }));
    w.spawn_on(streamer, "streamer", Bytes::new()).expect("spawn streamer");
    log
}

/// Run the migration drill.
pub fn run(total_msgs: u32, seed: u64) -> E5Point {
    let mut w = SnipeWorldBuilder::lan(4, seed).build();
    let ms = SimDuration::from_millis;
    let log = stage(&mut w, ["host1", "host3", "host2"], ms(500), total_msgs, ms(20));
    w.run_for_secs(5 + (total_msgs as u64 / 20));
    let log = log.lock().unwrap();
    let pairs = || log.deliveries.windows(2);
    E5Point {
        sent: total_msgs,
        received: log.deliveries.len() as u32,
        out_of_order: pairs().filter(|p| p[1].1 < p[0].1).count() as u32,
        max_gap: pairs().map(|p| p[1].0.since(p[0].0).as_secs_f64()).fold(0.0, f64::max),
        migrated_at: log.migrated_at.map_or(f64::NAN, |t| t.as_secs_f64()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_loss_zero_reorder() {
        let p = run(100, 6);
        assert_eq!(p.received, p.sent, "{p:?}");
        assert_eq!(p.out_of_order, 0, "{p:?}");
        assert!(p.migrated_at > 0.0);
    }
}
