//! The protocol-module ("Driver") abstraction.
//!
//! The paper's §3 communications layer is a set of pluggable protocol
//! modules behind one multiplexing library. This trait is that seam:
//! every wire transport — [`Srudp`](crate::srudp::Srudp),
//! [`Rstream`](crate::rstream::Rstream),
//! [`McastMember`](crate::mcast::McastMember) — is a sans-IO state
//! machine the [`WireStack`](crate::stack::WireStack) drives
//! uniformly:
//!
//! * datagrams whose envelope tag matches a registered driver are fed
//!   to [`Driver::on_datagram`];
//! * the stack answers `next_deadline` with the min over
//!   [`Driver::next_deadline`] (each driver answers from its
//!   [`Deadlines`](snipe_util::deadlines::Deadlines) table); its host
//!   ([`StackHost`](crate::host::StackHost)) keeps one wake-up armed
//!   for that instant and the stack fans [`Driver::on_timer`] back out;
//! * emitted actions are collected via [`Driver::drain`], with `Send`
//!   bodies sealed under the driver's [`Proto`] tag and routed through
//!   the stack's [`PathSelector`](crate::path::PathSelector);
//! * migration snapshots concatenate each driver's
//!   [`Driver::export_state`] under its protocol tag, so a restored
//!   stack can hand each section back to the matching driver.
//!
//! `on_timer` must tolerate early or spurious firing (re-check your
//! own state, reschedule if nothing is due): that is what lets the
//! host recover from an outage by firing everything on `HostUp` and
//! letting drivers sort out what was real — wedge-proof for every
//! transport at once instead of per-protocol hand patches.

use std::any::Any;

use bytes::Bytes;
use snipe_netsim::topology::Endpoint;
use snipe_util::error::SnipeResult;
use snipe_util::time::SimTime;

use crate::frame::Proto;
use crate::Out;

/// A wire protocol module, driven by [`WireStack`](crate::stack::WireStack).
///
/// `Send` because whole stacks live inside actors hosted on the sharded
/// engine, whose cores migrate across worker threads between rounds.
pub trait Driver: Any + Send {
    /// The envelope tag this driver speaks; the stack demuxes on it.
    fn proto(&self) -> Proto;

    /// An unsealed datagram body addressed to this driver arrived.
    fn on_datagram(&mut self, now: SimTime, from: Endpoint, body: Bytes) -> SnipeResult<()>;

    /// The stack's timer fired (possibly early or spuriously — this is
    /// always safe to call; drivers re-check their own deadlines).
    fn on_timer(&mut self, now: SimTime);

    /// Earliest instant at which this driver wants `on_timer`, if any.
    fn next_deadline(&self) -> Option<SimTime>;

    /// Take this driver's pending output actions. `Send` bodies are
    /// unsealed; the stack adds the envelope and route.
    fn drain(&mut self) -> Vec<Out>;

    /// Serialize migratable state (paired with [`Driver::import_state`]).
    fn export_state(&self) -> Bytes;

    /// Restore state exported by a previous incarnation and kick any
    /// recovery work (retransmits) as of `now`. Drivers that
    /// deliberately do not survive migration (Rstream: connections die
    /// with the process, the E5 contrast case) restore nothing.
    fn import_state(&mut self, bytes: Bytes, now: SimTime) -> SnipeResult<()>;

    /// True when nothing is buffered, unacked, or scheduled.
    fn quiescent(&self) -> bool;

    /// Downcast support for the stack's typed accessors.
    fn as_any(&self) -> &dyn Any;
    /// Downcast support for the stack's typed accessors.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}
