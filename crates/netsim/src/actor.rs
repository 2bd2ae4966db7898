//! The process model: everything that runs on a simulated host —
//! SNIPE daemons, RC servers, resource managers, file servers,
//! playgrounds and application tasks — is an [`Actor`].
//!
//! Actors are event handlers: the world delivers [`Event`]s and the
//! actor reacts through its [`SimCtx`] (sending packets, setting
//! timers, spawning further actors). This shape is what makes process
//! *migration* (paper §5.6) implementable: an actor's entire state is a
//! value that can be checkpointed, shipped and resumed on another host.
//!
//! ## Wake-ups
//!
//! Protocol deadlines (retransmissions, request timeouts, periodic
//! ticks) are not timers the actor sets: after every event the engine
//! asks [`Actor::next_wake`] and keeps exactly one [`Event::Wake`]
//! pending at that instant. A new answer replaces the pending one and
//! `None` cancels it, so no actor can breed a second chain. A wake-up
//! that comes due while the host is down is dropped; the answer read
//! after [`Event::HostUp`] re-arms it at once. An actor's `Wake` arm
//! services the machines that are due (deadline ≤ now) and must leave
//! none due: the engine `debug_assert`s it. A [`SimCtx::set_timer`]
//! timer due while its host is down is dropped, so a chain re-armed
//! from it stops for good: self-scheduled work belongs in `next_wake`.

use std::any::Any;

use bytes::Bytes;

use snipe_util::id::HostId;
use snipe_util::time::SimTime;

use crate::topology::Endpoint;

/// Dense actor handle within one world.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub u64);

/// Events delivered to actors.
#[derive(Debug)]
pub enum Event {
    /// Delivered once, immediately after spawn.
    Start,
    /// A packet arrived.
    Packet {
        /// Sender endpoint.
        from: Endpoint,
        /// Payload bytes (headers already stripped by the simulator).
        payload: Bytes,
    },
    /// A timer set via [`SimCtx::set_timer`] fired.
    Timer {
        /// The caller-chosen token identifying which timer.
        token: u64,
    },
    /// The instant the actor last answered from [`Actor::next_wake`]
    /// has come.
    Wake,
    /// The actor's host crashed. State survives (process images on disk
    /// survive a reboot); actors modelling RAM-only state should reset
    /// themselves on this event.
    HostDown,
    /// The actor's host came back up.
    HostUp,
    /// An out-of-band signal (SNIPE daemons deliver signals to local
    /// tasks, §3.3). The payload is component-defined.
    Signal {
        /// Signal number.
        signum: u32,
        /// Optional sender.
        from: Option<Endpoint>,
    },
}

/// Upcast helper so concrete actor state can be read back through
/// `dyn Actor` (see [`crate::world::World::actor_ref`]) without
/// requiring trait-object upcasting support. Blanket-implemented for
/// every `'static` type.
pub trait AsAny {
    /// This value as `&dyn Any` (for downcasting).
    fn as_any(&self) -> &dyn Any;
    /// This value as `&mut dyn Any`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The trait every simulated process implements. `Send` because a
/// region's core (and every actor on it) may be driven by any worker
/// thread; `Rc`-webbed state cannot live in an actor — give each actor
/// owned state, or share through `Arc`.
pub trait Actor: AsAny + Send {
    /// Handle one event. `ctx` exposes the world: current time, packet
    /// sending, timers, spawning.
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event);

    /// When the actor next wants an [`Event::Wake`], read by the
    /// engine after every event it handles (module docs, "Wake-ups").
    fn next_wake(&self) -> Option<SimTime> {
        None
    }
}

/// The earliest of some deadlines (`None` when none is set): an
/// actor's [`Actor::next_wake`] over its machines and periodic ticks.
pub fn earliest<const N: usize>(deadlines: [Option<SimTime>; N]) -> Option<SimTime> {
    deadlines.into_iter().flatten().min()
}

/// Is a machine with this next deadline due at `now`?
pub fn due(deadline: Option<SimTime>, now: SimTime) -> bool {
    deadline.is_some_and(|at| at <= now)
}

// benchmark/ compat — delete when benchmark/ stops importing it
pub use self::Actor as PortableActor;

/// The world-facing API handed to an actor while it handles an event.
///
/// `spawn_portable`, `kill`, `signal` and `is_bound` act on the actor's
/// own region: a world built with [`crate::world::World::new`] is one
/// region, so they reach every host; on a partitioned world they reach
/// the hosts sharing a network segment with the caller (every spawn in
/// the protocol stack is host-local — daemons exec on their own host).
pub trait SimCtx {
    /// Current simulation time.
    fn now(&self) -> SimTime;
    /// This actor's own endpoint.
    fn me(&self) -> Endpoint;
    /// This actor's host.
    fn host(&self) -> HostId;
    /// Send a datagram to `to`. Unreliable: the packet may be lost or
    /// the destination may be down; reliability lives in `snipe-wire`.
    /// The simulator picks the route per §5.3 (fastest common network,
    /// else normal IP routing).
    fn send(&mut self, to: Endpoint, payload: Bytes);
    /// Send pinned to a specific network (multi-path layer).
    fn send_via(&mut self, to: Endpoint, payload: Bytes, via: snipe_util::id::NetId);
    /// Schedule an [`Event::Timer`] for this actor after `delay`.
    fn set_timer(&mut self, delay: snipe_util::time::SimDuration, token: u64);
    /// Spawn an actor on `host` at `port`; it receives [`Event::Start`]
    /// at the same timestamp, later in order. `None` for a taken port,
    /// an unknown host or a host in another region.
    fn spawn_portable(
        &mut self,
        host: HostId,
        port: u16,
        actor: Box<dyn Actor>,
    ) -> Option<Endpoint>;
    /// Allocate an unused ephemeral port on a host.
    fn alloc_port(&mut self, host: HostId) -> u16;
    /// Is an actor currently bound at `ep`?
    fn is_bound(&self, ep: Endpoint) -> bool;
    /// Terminate an actor (exit, or kill of a local task).
    fn kill(&mut self, ep: Endpoint);
    /// Deliver a signal to another actor at the same timestamp.
    fn signal(&mut self, to: Endpoint, signum: u32);
    /// The region's deterministic RNG stream.
    fn rng(&mut self) -> &mut snipe_util::rng::Xoshiro256;
    /// Immutable view of the topology (route metadata is public in
    /// SNIPE: hosts advertise interfaces in RC metadata, §5.2.1).
    fn topology(&self) -> &crate::topology::Topology;
    /// Is a host currently up? (Daemons monitor local resources.)
    fn host_up(&self, h: HostId) -> bool;
}

// benchmark/ compat — delete when benchmark/ stops importing it
#[macro_export]
macro_rules! portable_actor {
    ($ty:ty) => {};
}

// benchmark/ compat — delete when benchmark/ stops importing it
/// One deduplicated timer token (the engine's wake-ups replaced it).
#[derive(Debug, Default, Clone, Copy)]
pub struct TimerGate {
    armed_until: Option<SimTime>,
}

impl TimerGate {
    /// Fresh gate with nothing armed.
    pub fn new() -> TimerGate {
        TimerGate::default()
    }

    /// Set a timer for `deadline` unless one no later is pending.
    pub fn arm_at(&mut self, ctx: &mut dyn SimCtx, deadline: SimTime, token: u64) {
        let now = ctx.now();
        if self.armed_until.is_some_and(|armed| armed <= deadline && armed >= now) {
            return;
        }
        ctx.set_timer(deadline.saturating_since(now), token);
        self.armed_until = Some(deadline);
    }

    /// The gated timer fired.
    pub fn fired(&mut self) {
        self.armed_until = None;
    }
}

#[cfg(test)]
mod timer_gate_tests {
    use super::*;
    use crate::medium::Medium;
    use crate::shard::FaultCmd;
    use crate::topology::{HostCfg, Topology};
    use crate::world::World;
    use snipe_util::id::HostId;
    use snipe_util::time::SimDuration;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn one_host() -> (World, HostId) {
        let mut t = Topology::new();
        let _ = t.add_network("n", Medium::ethernet100(), true);
        let h = t.add_host(HostCfg::named("h"));
        (World::new(t, 1), h)
    }

    struct Spammer {
        gate: TimerGate,
        fired: u32,
    }

    impl Actor for Spammer {
        fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
            match event {
                Event::Start => {
                    // Request the same deadline many times: one timer.
                    let dl = ctx.now() + SimDuration::from_millis(10);
                    for _ in 0..100 {
                        self.gate.arm_at(ctx, dl, 1);
                    }
                }
                Event::Timer { .. } => {
                    self.gate.fired();
                    self.fired += 1;
                }
                _ => {}
            }
        }
    }

    #[test]
    fn gate_collapses_duplicate_arms() {
        let (mut w, h) = one_host();
        let ep = w.spawn(h, 5, Box::new(Spammer { gate: TimerGate::new(), fired: 0 })).unwrap();
        w.run_for(SimDuration::from_secs(1));
        let fired = w.actor_ref::<Spammer>(ep).unwrap().fired;
        assert_eq!(fired, 1, "100 arm requests must yield one timer");
    }

    /// A 100 ms periodic tick, written the one way: the next instant is
    /// state, the engine keeps the wake-up.
    struct Ticker {
        next: Option<SimTime>,
        ticks: u32,
    }

    impl Actor for Ticker {
        fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
            match event {
                Event::Wake => self.ticks += 1,
                Event::Start => {}
                _ => return,
            }
            self.next = Some(ctx.now() + SimDuration::from_millis(100));
        }

        fn next_wake(&self) -> Option<SimTime> {
            self.next
        }
    }

    /// A periodic tick stays one chain across host flaps, whether the
    /// flap left the pending tick queued, swallowed it, or ended at the
    /// very instant it was due, with no `HostUp` handling in the actor.
    #[test]
    fn arm_after_keeps_one_tick_chain_across_host_flaps() {
        for flap in [None, Some((250, 260)), Some((250, 300)), Some((250, 1000))] {
            let (mut w, h) = one_host();
            let ep = w.spawn(h, 5, Box::new(Ticker { next: None, ticks: 0 })).unwrap();
            if let Some((down, up)) = flap {
                w.schedule_fault(at(down), FaultCmd::HostDown(h));
                w.schedule_fault(at(up), FaultCmd::HostUp(h));
            }
            w.run_for(SimDuration::from_secs(2));
            let before = w.actor_ref::<Ticker>(ep).unwrap().ticks;
            w.run_for(SimDuration::from_secs(10));
            let ticks = w.actor_ref::<Ticker>(ep).unwrap().ticks - before;
            assert_eq!(ticks, 100, "flap {flap:?}");
        }
    }

    /// Answers whatever the last signal set: signal `n` asks for a
    /// wake-up at `n` ms, signal 0 cancels. Logs when it was woken.
    struct Waker {
        answer: Option<SimTime>,
        woken: Vec<SimTime>,
    }

    impl Actor for Waker {
        fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
            match event {
                Event::Wake => {
                    assert!(due(self.answer, ctx.now()), "woken before its answer");
                    self.woken.push(ctx.now());
                    self.answer = None;
                }
                Event::Signal { signum: 0, .. } => self.answer = None,
                Event::Signal { signum, .. } => self.answer = Some(at(signum as u64)),
                _ => {}
            }
        }

        fn next_wake(&self) -> Option<SimTime> {
            self.answer
        }
    }

    /// Spawn a [`Waker`], then at each `(time, signal)` step deliver
    /// the signal; returns the wake-up log and the superseded count.
    fn drive_waker(steps: &[(u64, u32)], flap: Option<(u64, u64)>) -> (Vec<SimTime>, u64) {
        let (mut w, h) = one_host();
        let ep = w.spawn(h, 5, Box::new(Waker { answer: None, woken: Vec::new() })).unwrap();
        if let Some((down, up)) = flap {
            w.schedule_fault(at(down), FaultCmd::HostDown(h));
            w.schedule_fault(at(up), FaultCmd::HostUp(h));
        }
        for &(t, signum) in steps {
            w.run_until(at(t));
            w.signal(None, ep, signum);
        }
        w.run_for(SimDuration::from_secs(2));
        (w.actor_ref::<Waker>(ep).unwrap().woken.clone(), w.stats().engine.superseded_wakes)
    }

    /// A new answer replaces the pending wake-up, earlier or later,
    /// and the replaced one is discarded, not delivered.
    #[test]
    fn a_new_answer_replaces_the_pending_wake_up() {
        assert_eq!(drive_waker(&[(0, 100), (10, 50)], None), (vec![at(50)], 1));
        assert_eq!(drive_waker(&[(0, 100), (10, 300)], None), (vec![at(300)], 1));
        // The same answer again queues nothing new.
        assert_eq!(drive_waker(&[(0, 100), (10, 100), (20, 100)], None), (vec![at(100)], 0));
    }

    /// `None` cancels: nothing is delivered.
    #[test]
    fn a_none_answer_cancels_the_wake_up() {
        assert_eq!(drive_waker(&[(0, 100), (10, 0)], None), (vec![], 1));
    }

    /// The outage rule: a flap that ends before the deadline keeps the
    /// one wake-up; an outage across it delivers right after `HostUp`.
    #[test]
    fn an_outage_keeps_one_wake_up_and_delivers_after_host_up() {
        assert_eq!(drive_waker(&[(0, 100)], Some((10, 20))), (vec![at(100)], 0));
        assert_eq!(drive_waker(&[(0, 100)], Some((50, 300))), (vec![at(300)], 0));
    }

    /// However an actor's answer jumps (earlier, later, cancelled), it
    /// is woken exactly when its current answer comes due and at no
    /// other instant: one live wake-up per actor, the rest superseded.
    #[test]
    fn at_most_one_live_wake_up_is_queued_per_actor() {
        let mut rng = snipe_util::rng::Xoshiro256::seed_from_u64(7);
        let (mut steps, mut expected) = (Vec::new(), Vec::new());
        let mut answer: Option<SimTime> = None;
        for t in (0..1000).step_by(5) {
            if let Some(a) = answer.filter(|&a| a <= at(t)) {
                expected.push(a); // came due before this step
                answer = None;
            }
            let signum = rng.gen_range(1200);
            if signum == 0 || signum > t {
                answer = (signum != 0).then(|| at(signum));
                steps.push((t, signum as u32));
            }
        }
        expected.extend(answer);
        let (woken, superseded) = drive_waker(&steps, None);
        assert_eq!(woken, expected);
        assert!(superseded > 20, "the plan replaced wake-ups: {superseded}");
    }

    /// Answers "now" again from its `Wake` arm.
    struct Spinner;

    impl Actor for Spinner {
        fn on_event(&mut self, _: &mut dyn SimCtx, _: Event) {}

        fn next_wake(&self) -> Option<SimTime> {
            Some(at(1))
        }
    }

    /// The no-spin contract: a `Wake` arm that leaves its deadline due
    /// would be woken at the same instant forever.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "it would spin")]
    fn a_wake_arm_that_leaves_a_due_deadline_panics() {
        let (mut w, h) = one_host();
        w.spawn(h, 5, Box::new(Spinner)).unwrap();
        w.run_for(SimDuration::from_millis(10));
    }
}
