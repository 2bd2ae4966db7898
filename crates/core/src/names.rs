//! Naming conventions: how SNIPE system state is laid out in RC
//! metadata attributes (§5.2), plus helpers for the values.

use snipe_netsim::topology::Endpoint;
use snipe_rcds::uri::Uri;
use snipe_util::id::HostId;

/// Attribute holding a process's current communications address.
pub const ATTR_COMM_ADDRESS: &str = "comm-address";
/// Attribute holding a process's lifecycle state.
pub const ATTR_STATE: &str = "state";
/// Attribute prefix for multicast router registrations (§5.2.4).
pub const ATTR_ROUTER_PREFIX: &str = "router:";
/// Attribute holding a host daemon's endpoint.
pub const ATTR_DAEMON_ENDPOINT: &str = "daemon-endpoint";
/// Attribute prefix for service locations on a LIFN (§5.7).
pub const ATTR_LOCATION_PREFIX: &str = "location:";
/// Attribute naming a pseudo-process's multicast group (§5.7).
pub const ATTR_COMM_GROUP: &str = "comm-group";

/// Format an endpoint as a metadata value.
pub fn format_endpoint(ep: Endpoint) -> String {
    format!("{}:{}", ep.host.0, ep.port)
}

/// A service LIFN's `location:<key>` assertion as the process there.
pub(crate) fn service_location(a: &snipe_rcds::assertion::Assertion) -> Option<crate::ProcRef> {
    let key = a.name.strip_prefix(ATTR_LOCATION_PREFIX)?.parse().ok()?;
    Some(crate::ProcRef { key, endpoint: parse_endpoint(&a.value)? })
}

/// Parse a metadata endpoint value.
pub fn parse_endpoint(s: &str) -> Option<Endpoint> {
    let (h, p) = s.split_once(':')?;
    Some(Endpoint::new(HostId(h.parse().ok()?), p.parse().ok()?))
}

/// The URN of a multicast group and its 64-bit wire id.
///
/// Wire protocols carry the FNV-1a hash of the group URN; the URN
/// itself stays in RC metadata.
pub fn group_id(name: &str) -> u64 {
    let urn = Uri::mcast_group(name);
    let mut h: u64 = 0xcbf29ce484222325;
    for b in urn.as_str().bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The communications address among a process's assertions.
pub(crate) fn comm_address(assertions: &[snipe_rcds::assertion::Assertion]) -> Option<Endpoint> {
    let a = assertions.iter().find(|a| a.name == ATTR_COMM_ADDRESS)?;
    parse_endpoint(&a.value)
}

/// Extract router endpoints from a group's assertions.
pub fn parse_routers(assertions: &[snipe_rcds::assertion::Assertion]) -> Vec<Endpoint> {
    let mut v: Vec<Endpoint> = assertions
        .iter()
        .filter(|a| a.name.starts_with(ATTR_ROUTER_PREFIX))
        .filter_map(|a| parse_endpoint(&a.value))
        .collect();
    v.sort();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use snipe_rcds::assertion::Assertion;

    #[test]
    fn endpoint_round_trip() {
        let ep = Endpoint::new(HostId(7), 1234);
        assert_eq!(parse_endpoint(&format_endpoint(ep)), Some(ep));
        assert_eq!(parse_endpoint("junk"), None);
        assert_eq!(parse_endpoint("1:2:3"), None);
    }

    #[test]
    fn group_ids_distinct_and_stable() {
        let a = group_id("weather");
        let b = group_id("weather2");
        assert_ne!(a, b);
        assert_eq!(a, group_id("weather"));
    }

    #[test]
    fn router_parsing() {
        let asserts = vec![
            Assertion::new("router:0:5", "0:5"),
            Assertion::new("router:3:5", "3:5"),
            Assertion::new("other", "1:1"),
            Assertion::new("router:bad", "junk"),
        ];
        let routers = parse_routers(&asserts);
        assert_eq!(routers, vec![Endpoint::new(HostId(0), 5), Endpoint::new(HostId(3), 5)]);
    }
}
