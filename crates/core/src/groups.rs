//! Multicast group membership (§5.4) as a sans-IO machine.
//!
//! A join looks the group's routers up in RC: with none, the local
//! daemon is asked to elect itself; with some, the process registers
//! with a majority and keeps the router mesh fully peered. Sends wait
//! for the join. Groups are re-joined periodically.

use std::collections::BTreeMap;

use bytes::Bytes;

use snipe_daemon::proto::DaemonMsg;
use snipe_netsim::actor::due;
use snipe_netsim::topology::Endpoint;
use snipe_rcds::uri::Uri;
use snipe_util::codec::WireEncode;
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::frame::{seal, Proto};
use snipe_wire::mcast::{majority, McastMsg};
use snipe_wire::ports;

use crate::actor::{Out, RcPending};
use crate::names::group_id;

/// Group refresh period (router liveness / re-registration).
const GROUP_REFRESH: SimDuration = SimDuration::from_secs(2);
/// First refresh comes quickly to heal join-time races (simultaneous
/// router elections that could not see each other yet).
const GROUP_REFRESH_FIRST: SimDuration = SimDuration::from_millis(300);

struct Group {
    gid: u64,
    routers: Vec<Endpoint>,
    joined: bool,
    pending_out: Vec<Bytes>,
}

/// The membership machine of one process; see the module doc.
#[derive(Default)]
pub struct Groups {
    groups: BTreeMap<String, Group>,
    /// When the joined groups are next refreshed.
    next_refresh: Option<SimTime>,
    refreshes: u32,
    pub out: Vec<Out>,
}

fn mcast(to: Endpoint, msg: McastMsg) -> Out {
    Out::Send(to, seal(Proto::Mcast, msg.encode_to_bytes()))
}

impl Groups {
    /// Track `name`, unless it is tracked, holding `pending_out` until
    /// it is joined, and look up its routers.
    pub fn join(&mut self, name: String, pending_out: Vec<Bytes>, refresh: bool) {
        if !self.groups.contains_key(&name) {
            let gid = group_id(&name);
            let group = Group { gid, routers: Vec::new(), joined: false, pending_out };
            self.groups.insert(name.clone(), group);
            self.lookup(name, refresh);
        }
    }

    /// The app sends to `name`, joining it implicitly.
    pub fn send(&mut self, name: String, payload: Bytes) {
        match self.groups.get_mut(&name) {
            None => self.join(name, vec![payload], false),
            Some(g) if !g.joined => g.pending_out.push(payload),
            Some(g) => {
                let gid = g.gid;
                self.out.push(Out::Publish(name, gid, payload));
            }
        }
    }

    /// The app leaves `name`: tell its routers that `me` is gone.
    pub fn leave(&mut self, name: &str, me: Endpoint) {
        if let Some(g) = self.groups.remove(name) {
            let leave = |r| mcast(r, McastMsg::Leave { group: g.gid, member: me });
            self.out.extend(g.routers.iter().copied().map(leave));
        }
    }

    /// RC answered a router lookup of `name` (no routers: none is
    /// registered, or the lookup failed). A `refresh` never announces.
    pub fn on_routers(
        &mut self,
        now: SimTime,
        name: &str,
        routers: Vec<Endpoint>,
        refresh: bool,
        me: Endpoint,
    ) {
        let Some(g) = self.groups.get_mut(name) else {
            return;
        };
        let gid = g.gid;
        if routers.is_empty() {
            let elect = DaemonMsg::ElectRouter { group: gid }.encode_to_bytes();
            let daemon = Endpoint::new(me.host, ports::DAEMON);
            return self.out.push(Out::Send(daemon, seal(Proto::Raw, elect)));
        }
        let was_joined = std::mem::replace(&mut g.joined, true);
        for &r in routers.iter().take(majority(routers.len())) {
            self.out.push(mcast(r, McastMsg::Join { group: gid, member: me }));
        }
        for &a in &routers {
            for &b in routers.iter().filter(|&&b| b != a) {
                self.out.push(mcast(a, McastMsg::Peer { group: gid, router: b }));
            }
        }
        for payload in std::mem::take(&mut g.pending_out) {
            self.out.push(Out::Publish(name.to_string(), gid, payload));
        }
        g.routers = routers;
        if !was_joined && !refresh {
            self.out.push(Out::Joined(name.to_string()));
        }
        self.schedule(now);
    }

    /// After self-delivery: send our message `seq` to a majority of the
    /// group's routers, if we are still a member.
    pub fn fan_out(&mut self, name: &str, origin: u64, seq: u64, payload: Bytes) {
        let Some(g) = self.groups.get(name) else {
            return;
        };
        for &r in g.routers.iter().take(majority(g.routers.len())) {
            let data =
                McastMsg::Data { group: g.gid, origin, seq, ttl: 8, payload: payload.clone() };
            self.out.push(mcast(r, data));
        }
    }

    /// The name of group `gid`, if we track it.
    pub fn name_of(&self, gid: u64) -> Option<&str> {
        self.groups.iter().find(|(_, g)| g.gid == gid).map(|(n, _)| n.as_str())
    }

    /// Every tracked group (a migration re-joins them on arrival).
    pub fn names(&self) -> Vec<String> {
        self.groups.keys().cloned().collect()
    }

    fn lookup(&mut self, name: String, refresh: bool) {
        let uri = Uri::mcast_group_wire(self.groups[&name].gid);
        self.out.push(Out::Get(uri, RcPending::GroupRouters { name, refresh }));
    }

    fn schedule(&mut self, now: SimTime) {
        if self.next_refresh.is_none() && !self.groups.is_empty() {
            let delay = if self.refreshes == 0 { GROUP_REFRESH_FIRST } else { GROUP_REFRESH };
            self.next_refresh = Some(now + delay);
        }
    }

    pub fn next_deadline(&self) -> Option<SimTime> {
        self.next_refresh
    }

    /// Woken at `now`: re-join every group, if due.
    pub fn on_wake(&mut self, now: SimTime) {
        if !due(self.next_refresh, now) {
            return;
        }
        self.next_refresh = None;
        self.refreshes += 1;
        for name in self.names() {
            self.lookup(name, true);
        }
        self.schedule(now);
    }
}
