//! The multicast router actor hosted by an elected daemon (§5.4).
//!
//! Pure relay: it wraps [`snipe_wire::mcast::McastRouter`] and turns
//! its outputs into simulator sends. State (membership, peer set,
//! dedup) lives in the wire-layer state machine so it is unit-testable
//! without a world.

use snipe_netsim::actor::{Actor, Event, SimCtx};
use snipe_wire::frame::{open, Proto};
use snipe_wire::mcast::{McastMsg, McastRouter};
use snipe_wire::Out;

/// The router actor.
#[derive(Default)]
pub struct McastRouterActor {
    state: McastRouter,
}

impl McastRouterActor {
    /// Fresh router.
    pub fn new() -> McastRouterActor {
        McastRouterActor::default()
    }

    /// A router that starts from `state` — peers and members already
    /// registered (experiments that skip the election and join traffic).
    pub fn with_state(state: McastRouter) -> McastRouterActor {
        McastRouterActor { state }
    }

    /// Relay statistics: (relayed, duplicates).
    pub fn stats(&self) -> (u64, u64) {
        (self.state.relayed, self.state.duplicates)
    }
}

impl Actor for McastRouterActor {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        if let Event::Packet { payload, .. } = event {
            let Ok((Proto::Mcast, body)) = open(payload) else {
                return;
            };
            let Ok(msg) = McastMsg::decode(body) else {
                return;
            };
            let mut outs = Vec::new();
            self.state.on_message(msg, &mut outs);
            for o in outs {
                if let Out::Send { to, bytes, .. } = o {
                    // Do not loop a relay back to ourselves.
                    if to != ctx.me() {
                        ctx.send(to, bytes);
                    }
                }
            }
        }
    }
}
