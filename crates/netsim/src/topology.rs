//! Hosts, interfaces and network segments.
//!
//! A [`Topology`] is the static shape of a SNIPE testbed: hosts with one
//! or more interfaces, each attached to a network segment carrying one
//! [`Medium`]. Multi-homed hosts (e.g. Ethernet + ATM, as at UTK) are
//! the basis of the paper's multi-path communication: the routing layer
//! in `snipe-wire` picks "the fastest of those" common networks (§5.3).

use std::collections::HashMap;

use snipe_util::id::{HostId, LinkId, NetId};

use crate::medium::Medium;

/// A (host, port) addressable endpoint, the target of packet delivery.
///
/// Ports multiplex actors on one host the way UDP/TCP ports multiplex
/// sockets; well-known SNIPE services use fixed ports (see
/// `snipe-wire::ports`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Endpoint {
    /// The host.
    pub host: HostId,
    /// The port on that host.
    pub port: u16,
}

impl Endpoint {
    /// Construct an endpoint.
    pub fn new(host: HostId, port: u16) -> Endpoint {
        Endpoint { host, port }
    }
}

snipe_util::wire_codec!(struct Endpoint { host, port });

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.host, self.port)
    }
}

/// One host's attachment to one network.
#[derive(Clone, Debug)]
pub struct Interface {
    /// Globally unique link id.
    pub link: LinkId,
    /// The network this interface attaches to.
    pub net: NetId,
    /// Administratively/faultily down?
    pub up: bool,
}

/// A simulated host.
#[derive(Clone, Debug)]
pub struct Host {
    /// Host id.
    pub id: HostId,
    /// Hostname, used to derive its distinguished URL.
    pub name: String,
    /// Attached interfaces in declaration order.
    pub interfaces: Vec<Interface>,
    /// Is the host up?
    pub up: bool,
    /// CPU speed multiplier (1.0 = reference workstation); the daemon
    /// reports it as load metadata.
    pub cpu_factor: f64,
}

/// Gray-link degradation: the segment stays up and lossless but slower
/// — the failure mode timeout escalation handles worst (a dead link is
/// detected fast; a link at 10% bandwidth and 5× latency looks alive
/// forever). Injected by fault scripts via `World::set_gray`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GrayLevel {
    /// Propagation latency multiplier (≥ 1.0 degrades).
    pub latency_factor: f64,
    /// Bandwidth multiplier in `(0, 1]` (< 1.0 degrades).
    pub bandwidth_factor: f64,
}

/// A network segment.
#[derive(Clone, Debug)]
pub struct Network {
    /// Network id.
    pub id: NetId,
    /// The segment's "net name" (paper §5.2.1), e.g. `utk-atm`.
    pub name: String,
    /// Medium model.
    pub medium: Medium,
    /// Attached (host, link) pairs.
    pub attached: Vec<(HostId, LinkId)>,
    /// Whether this segment participates in global IP routing (§5.3
    /// "the message is sent using the host's normal IP routing").
    pub routable: bool,
    /// Segment up (false models a switch/hub failure)?
    pub up: bool,
    /// Optional loss override injected by fault scripts.
    pub loss_override: Option<f64>,
    /// Partition group: two hosts can only communicate over routable
    /// paths if their partition groups match (0 = default group).
    pub partition: u32,
    /// Optional gray-link degradation injected by fault scripts.
    pub gray: Option<GrayLevel>,
}

/// Host configuration passed to [`Topology::add_host`].
#[derive(Clone, Debug)]
pub struct HostCfg {
    /// Hostname.
    pub name: String,
    /// CPU factor.
    pub cpu_factor: f64,
}

impl HostCfg {
    /// A host with the given name and reference CPU speed.
    pub fn named(name: impl Into<String>) -> HostCfg {
        HostCfg { name: name.into(), cpu_factor: 1.0 }
    }
}

/// The static (but fault-mutable) network shape.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    hosts: Vec<Host>,
    nets: Vec<Network>,
    by_name: HashMap<String, HostId>,
    epoch: u64,
}

/// A candidate path between two hosts, as seen by route selection.
///
/// Paths traverse one network (a shared segment) or two (routed via
/// each side's edge network), so the hop list is inline and the whole
/// struct is `Copy` — route lookups and the world's route cache never
/// touch the heap.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PathInfo {
    via: [NetId; 2],
    hops: u8,
    /// Bottleneck bandwidth in bits/s.
    pub bandwidth_bps: u64,
    /// End-to-end propagation latency estimate.
    pub latency: snipe_util::time::SimDuration,
    /// Combined loss probability.
    pub loss: f64,
    /// Smallest MTU along the path.
    pub mtu: usize,
}

impl PathInfo {
    /// Networks traversed (one for a common segment, two for routed).
    pub fn nets(&self) -> &[NetId] {
        &self.via[..self.hops as usize]
    }

    /// The first-hop network (where the sender serializes).
    pub fn first_net(&self) -> NetId {
        self.via[0]
    }
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Add a host; returns its id.
    pub fn add_host(&mut self, cfg: HostCfg) -> HostId {
        let id = HostId::from_index(self.hosts.len());
        self.by_name.insert(cfg.name.clone(), id);
        self.hosts.push(Host {
            id,
            name: cfg.name,
            interfaces: Vec::new(),
            up: true,
            cpu_factor: cfg.cpu_factor,
        });
        id
    }

    /// Add a network segment; returns its id.
    pub fn add_network(
        &mut self,
        name: impl Into<String>,
        medium: Medium,
        routable: bool,
    ) -> NetId {
        let id = NetId::from_index(self.nets.len());
        self.nets.push(Network {
            id,
            name: name.into(),
            medium,
            attached: Vec::new(),
            routable,
            up: true,
            loss_override: None,
            partition: 0,
            gray: None,
        });
        id
    }

    /// Attach `host` to `net` with a new interface; returns the link id.
    ///
    /// # Panics
    /// Panics on unknown ids or double attachment.
    pub fn attach(&mut self, host: HostId, net: NetId) -> LinkId {
        assert!(host.index() < self.hosts.len(), "unknown host {host}");
        assert!(net.index() < self.nets.len(), "unknown network {net}");
        let h = &mut self.hosts[host.index()];
        assert!(!h.interfaces.iter().any(|i| i.net == net), "{host} already attached to {net}");
        let link = LinkId::from_index(self.nets.iter().map(|n| n.attached.len()).sum::<usize>());
        h.interfaces.push(Interface { link, net, up: true });
        self.nets[net.index()].attached.push((host, link));
        self.bump_epoch();
        link
    }

    /// Monotone counter bumped by every mutation that can change route
    /// selection. Cached routing decisions are valid only while the
    /// epoch they were computed under still matches.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Record a routing-relevant mutation. [`Topology::attach`] calls
    /// this itself; the world's fault APIs call it after flipping
    /// up/down flags, loss overrides or partition groups through
    /// [`Topology::host_mut`] / [`Topology::net_mut`].
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Host accessor.
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.index()]
    }

    /// Mutable host accessor.
    pub fn host_mut(&mut self, id: HostId) -> &mut Host {
        &mut self.hosts[id.index()]
    }

    /// Network accessor.
    pub fn net(&self, id: NetId) -> &Network {
        &self.nets[id.index()]
    }

    /// Mutable network accessor.
    pub fn net_mut(&mut self, id: NetId) -> &mut Network {
        &mut self.nets[id.index()]
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Number of networks.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Look up a host id by name.
    pub fn host_by_name(&self, name: &str) -> Option<HostId> {
        self.by_name.get(name).copied()
    }

    /// All hosts.
    pub fn hosts(&self) -> impl Iterator<Item = &Host> {
        self.hosts.iter()
    }

    /// All networks.
    pub fn nets(&self) -> impl Iterator<Item = &Network> {
        self.nets.iter()
    }

    /// Effective loss of a network (override beats medium default).
    pub fn effective_loss(&self, net: NetId) -> f64 {
        let n = self.net(net);
        n.loss_override.unwrap_or(n.medium.loss)
    }

    /// Effective bandwidth of a network (gray degradation applied).
    pub fn effective_bandwidth(&self, net: NetId) -> u64 {
        let n = self.net(net);
        match n.gray {
            Some(g) => ((n.medium.bandwidth_bps as f64 * g.bandwidth_factor) as u64).max(1),
            None => n.medium.bandwidth_bps,
        }
    }

    /// Effective propagation latency of a network (gray degradation
    /// applied).
    pub fn effective_latency(&self, net: NetId) -> snipe_util::time::SimDuration {
        let n = self.net(net);
        match n.gray {
            Some(g) => n.medium.latency.mul_f64(g.latency_factor),
            None => n.medium.latency,
        }
    }

    fn iface_usable(&self, host: HostId, net: NetId) -> bool {
        let h = self.host(host);
        h.up && h.interfaces.iter().any(|i| i.net == net && i.up) && self.net(net).up
    }

    /// Networks both hosts are attached to with usable interfaces,
    /// without allocating (route selection runs this per cache miss).
    pub fn common_networks_iter(&self, a: HostId, b: HostId) -> impl Iterator<Item = NetId> + '_ {
        let same = a == b;
        self.host(a)
            .interfaces
            .iter()
            .filter(move |_| !same)
            .filter(|ia| ia.up)
            .map(|ia| ia.net)
            .filter(move |&n| self.iface_usable(a, n) && self.iface_usable(b, n))
    }

    /// All networks both hosts are attached to with usable interfaces.
    pub fn common_networks(&self, a: HostId, b: HostId) -> Vec<NetId> {
        self.common_networks_iter(a, b).collect()
    }

    /// Is `n` a usable common segment between `a` and `b`?
    pub fn is_common_network(&self, a: HostId, b: HostId, n: NetId) -> bool {
        a != b && self.iface_usable(a, n) && self.iface_usable(b, n)
    }

    /// Usable routable networks of a host, without allocating.
    pub fn routable_networks_iter(&self, h: HostId) -> impl Iterator<Item = NetId> + '_ {
        self.host(h)
            .interfaces
            .iter()
            .filter(|i| i.up)
            .map(|i| i.net)
            .filter(move |&n| self.net(n).routable && self.iface_usable(h, n))
    }

    /// Describe the direct path over one shared segment.
    pub fn direct_path(&self, net: NetId) -> PathInfo {
        let n = self.net(net);
        PathInfo {
            via: [net, net],
            hops: 1,
            bandwidth_bps: self.effective_bandwidth(net),
            latency: self.effective_latency(net),
            loss: self.effective_loss(net),
            mtu: n.medium.mtu,
        }
    }

    /// Describe a routed path over two routable edge networks (the WAN
    /// transit in between is modelled by the slower of the two edges).
    pub fn routed_path(&self, src_net: NetId, dst_net: NetId) -> PathInfo {
        let a = self.net(src_net);
        let b = self.net(dst_net);
        let loss_a = self.effective_loss(src_net);
        let loss_b = self.effective_loss(dst_net);
        PathInfo {
            via: [src_net, dst_net],
            hops: 2,
            bandwidth_bps: self.effective_bandwidth(src_net).min(self.effective_bandwidth(dst_net)),
            latency: self.effective_latency(src_net) + self.effective_latency(dst_net),
            loss: 1.0 - (1.0 - loss_a) * (1.0 - loss_b),
            mtu: a.medium.mtu.min(b.medium.mtu),
        }
    }

    /// Can `a` reach `b` at all right now (either a common segment or a
    /// routable path in the same partition)?
    pub fn reachable(&self, a: HostId, b: HostId) -> bool {
        if a == b {
            return self.host(a).up;
        }
        if !self.host(a).up || !self.host(b).up {
            return false;
        }
        if self.common_networks_iter(a, b).next().is_some() {
            return true;
        }
        self.routable_networks_iter(a).any(|na| {
            self.routable_networks_iter(b)
                .any(|nb| self.net(na).partition == self.net(nb).partition)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_net_world() -> (Topology, HostId, HostId, HostId, NetId, NetId) {
        let mut t = Topology::new();
        let eth = t.add_network("eth", Medium::ethernet100(), true);
        let atm = t.add_network("atm", Medium::atm155(), false);
        let a = t.add_host(HostCfg::named("a"));
        let b = t.add_host(HostCfg::named("b"));
        let c = t.add_host(HostCfg::named("c"));
        t.attach(a, eth);
        t.attach(b, eth);
        t.attach(a, atm);
        t.attach(b, atm);
        t.attach(c, eth);
        (t, a, b, c, eth, atm)
    }

    #[test]
    fn common_networks_found() {
        let (t, a, b, c, eth, atm) = two_net_world();
        let mut common = t.common_networks(a, b);
        common.sort();
        assert_eq!(common, vec![eth, atm]);
        assert_eq!(t.common_networks(a, c), vec![eth]);
    }

    #[test]
    fn interface_down_removes_path() {
        let (mut t, a, b, _c, eth, atm) = two_net_world();
        t.host_mut(a).interfaces.iter_mut().find(|i| i.net == atm).unwrap().up = false;
        assert_eq!(t.common_networks(a, b), vec![eth]);
    }

    #[test]
    fn network_down_removes_path() {
        let (mut t, a, b, _c, eth, _atm) = two_net_world();
        t.net_mut(eth).up = false;
        let common = t.common_networks(a, b);
        assert_eq!(common.len(), 1);
        assert_ne!(common[0], eth);
    }

    #[test]
    fn host_down_unreachable() {
        let (mut t, a, b, _c, _e, _m) = two_net_world();
        assert!(t.reachable(a, b));
        t.host_mut(b).up = false;
        assert!(!t.reachable(a, b));
    }

    #[test]
    fn routed_path_combines_edges() {
        let mut t = Topology::new();
        let n1 = t.add_network("site1", Medium::ethernet100(), true);
        let n2 = t.add_network("site2", Medium::atm155(), true);
        let a = t.add_host(HostCfg::named("a"));
        let b = t.add_host(HostCfg::named("b"));
        t.attach(a, n1);
        t.attach(b, n2);
        assert!(t.common_networks(a, b).is_empty());
        assert!(t.reachable(a, b));
        let p = t.routed_path(n1, n2);
        assert_eq!(p.bandwidth_bps, Medium::ethernet100().bandwidth_bps);
        assert_eq!(p.mtu, 1500);
        assert!(p.latency > Medium::ethernet100().latency);
    }

    #[test]
    fn partitions_block_routed_paths() {
        let mut t = Topology::new();
        let n1 = t.add_network("site1", Medium::ethernet100(), true);
        let n2 = t.add_network("site2", Medium::ethernet100(), true);
        let a = t.add_host(HostCfg::named("a"));
        let b = t.add_host(HostCfg::named("b"));
        t.attach(a, n1);
        t.attach(b, n2);
        assert!(t.reachable(a, b));
        t.net_mut(n2).partition = 1;
        assert!(!t.reachable(a, b));
        // A common segment is unaffected by partition groups.
        let shared = t.add_network("shared", Medium::ethernet10(), false);
        t.attach(a, shared);
        t.attach(b, shared);
        assert!(t.reachable(a, b));
    }

    #[test]
    fn loss_override() {
        let (mut t, _a, _b, _c, eth, _atm) = two_net_world();
        assert_eq!(t.effective_loss(eth), 0.0);
        t.net_mut(eth).loss_override = Some(0.5);
        assert_eq!(t.effective_loss(eth), 0.5);
    }

    #[test]
    #[should_panic(expected = "already attached")]
    fn double_attach_panics() {
        let (mut t, a, _b, _c, eth, _atm) = two_net_world();
        t.attach(a, eth);
    }

    #[test]
    fn host_lookup_by_name() {
        let (t, a, _b, _c, _e, _m) = two_net_world();
        assert_eq!(t.host_by_name("a"), Some(a));
        assert_eq!(t.host_by_name("zzz"), None);
    }

    #[test]
    fn gray_degrades_paths_without_loss() {
        let (mut t, _a, _b, _c, eth, _atm) = two_net_world();
        let clean = t.direct_path(eth);
        t.net_mut(eth).gray = Some(GrayLevel { latency_factor: 4.0, bandwidth_factor: 0.25 });
        let gray = t.direct_path(eth);
        assert_eq!(gray.bandwidth_bps, clean.bandwidth_bps / 4);
        assert_eq!(gray.latency, clean.latency * 4);
        assert_eq!(gray.loss, clean.loss, "gray links degrade, they do not drop");
        t.net_mut(eth).gray = None;
        assert_eq!(t.direct_path(eth), clean);
    }
}
