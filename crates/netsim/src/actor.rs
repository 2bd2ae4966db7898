//! The process model: everything that runs on a simulated host —
//! SNIPE daemons, RC servers, resource managers, file servers,
//! playgrounds and application tasks — is an [`Actor`].
//!
//! Actors are event handlers: the world delivers [`Event`]s and the
//! actor reacts through its [`SimCtx`] (sending packets, setting
//! timers, spawning further actors). This shape is what makes process
//! *migration* (paper §5.6) implementable: an actor's entire state is a
//! value that can be checkpointed, shipped and resumed on another host.

use std::any::Any;

use bytes::Bytes;

use snipe_util::id::HostId;
use snipe_util::time::{SimDuration, SimTime};

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

/// Deduplicates wake-up timers for one token.
///
/// Simulator timers cannot be cancelled, so an actor that re-arms "wake
/// me at my next protocol deadline" on every event would breed an
/// ever-growing population of live timers (each firing spawns a new
/// one). A `TimerGate` arms only when the requested deadline is earlier
/// than the one already pending; spurious firings are cheap no-ops.
#[derive(Debug, Default, Clone, Copy)]
pub struct TimerGate {
    armed_until: Option<SimTime>,
}

impl TimerGate {
    /// Fresh gate with nothing armed.
    pub fn new() -> TimerGate {
        TimerGate::default()
    }

    /// Request a wake-up at `deadline` (token `token`); arms a real
    /// timer only if nothing earlier is already pending.
    pub fn arm_at(&mut self, ctx: &mut dyn SimCtx, deadline: SimTime, token: u64) {
        let now = ctx.now();
        if let Some(armed) = self.armed_until {
            if armed <= deadline && armed >= now {
                return; // an earlier (or equal) wake-up is already scheduled
            }
        }
        let delay = deadline.saturating_since(now);
        ctx.set_timer(delay, token);
        self.armed_until = Some(deadline);
    }

    /// Keep a periodic tick going: request a wake-up `delay` from now
    /// unless one is still to come. Call it wherever the tick is
    /// (re)started — `Event::Start`, the tick itself, `Event::HostUp`:
    /// a tick still queued after a short host flap keeps its claim, one
    /// the outage swallowed lies in the past and is replaced, so there
    /// is always exactly one chain. A gate used only this way needs no
    /// [`TimerGate::fired`].
    pub fn arm_after(&mut self, ctx: &mut dyn SimCtx, delay: SimDuration, token: u64) {
        let now = ctx.now();
        if self.armed_until.is_some_and(|armed| armed > now) {
            return;
        }
        ctx.set_timer(delay, token);
        self.armed_until = Some(now + delay);
    }

    /// Request a wake-up for a sans-IO machine's `next_deadline()`:
    /// nothing when it has none, else `DEADLINE_SKEW` past it.
    pub fn arm_deadline(&mut self, ctx: &mut dyn SimCtx, deadline: Option<SimTime>, token: u64) {
        if let Some(dl) = deadline {
            self.arm_at(ctx, dl + DEADLINE_SKEW, token);
        }
    }

    /// Must be called when the gated timer fires, before re-arming.
    pub fn fired(&mut self) {
        self.armed_until = None;
    }
}

/// How far past a machine's deadline its wake-up lands. A wake-up at
/// the deadline itself would rely on every machine counting a deadline
/// equal to `now` as due; one that compares strictly, or answers
/// `next_deadline` at a coarser grain than it expires, would be woken
/// with nothing due, re-arm for the same instant and spin there
/// forever. One tick of slack makes the wake-up land strictly after.
const DEADLINE_SKEW: SimDuration = SimDuration::from_micros(1);

#[cfg(test)]
mod timer_gate_tests {
    use super::*;
    use crate::medium::Medium;
    use crate::topology::{HostCfg, Topology};
    use crate::world::World;

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
        let mut t = Topology::new();
        let _ = t.add_network("n", Medium::ethernet100(), true);
        let h = t.add_host(HostCfg::named("h"));
        let mut w = World::new(t, 1);
        let ep = w.spawn(h, 5, Box::new(Spammer { gate: TimerGate::new(), fired: 0 })).unwrap();
        w.run_until_idle(1000);
        let fired = w.actor_ref::<Spammer>(ep).unwrap().fired;
        assert_eq!(fired, 1, "100 arm requests must yield one timer");
    }

    struct Ticker {
        gate: TimerGate,
        ticks: u32,
    }

    impl Actor for Ticker {
        fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
            match event {
                Event::Timer { .. } => self.ticks += 1,
                Event::Start | Event::HostUp => {}
                _ => return,
            }
            self.gate.arm_after(ctx, SimDuration::from_millis(100), 1);
        }
    }

    /// A periodic tick restarted on every `HostUp` stays one chain:
    /// whether the flap left the pending tick queued, swallowed it, or
    /// ended at the very instant it was due.
    #[test]
    fn arm_after_keeps_one_tick_chain_across_host_flaps() {
        use crate::shard::FaultCmd;
        let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        for flap in [None, Some((250, 260)), Some((250, 300)), Some((250, 1000))] {
            let mut t = Topology::new();
            let _ = t.add_network("n", Medium::ethernet100(), true);
            let h = t.add_host(HostCfg::named("h"));
            let mut w = World::new(t, 1);
            let ep = w.spawn(h, 5, Box::new(Ticker { gate: TimerGate::new(), ticks: 0 })).unwrap();
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
}
