//! The master sends its whole host table as one Raw datagram, 6 bytes
//! per slave. A datagram larger than the medium's MTU is dropped, so
//! past some size no slave ever sees the table, none acks, and
//! enrolment never commits. Real pvmds fragmented; this baseline
//! instead has a host cap, and E4's sweep stays under it.

use pvm_baseline::PvmMsg;
use snipe_netsim::medium::Medium;
use snipe_netsim::topology::Endpoint;
use snipe_util::id::HostId;

/// The most slaves whose sealed host table fits one Ethernet frame.
const MAX_SLAVES: usize = 247;

/// The sealed `HostTable` datagram for `n` slaves, in bytes.
fn table_len(n: usize) -> usize {
    let slaves = (0..n).map(|i| Endpoint::new(HostId(i as u32), pvm_baseline::SLAVE_PORT));
    PvmMsg::HostTable { version: 1, slaves: slaves.collect() }.sealed().len()
}

#[test]
fn the_host_table_fits_one_ethernet_frame_up_to_the_cap() {
    let mtu = Medium::ethernet100().mtu;
    let largest = (1..).take_while(|&n| table_len(n) <= mtu).last().expect("one slave fits");
    assert_eq!(largest, MAX_SLAVES, "{} bytes at the cap, MTU {mtu}", table_len(largest));
    // E4 puts a slave on every host of its sweep.
    let sweep = snipe_bench::e4_scalability::HOSTS;
    assert!(sweep.iter().all(|&hosts| hosts <= MAX_SLAVES), "E4 sweeps past the cap: {sweep:?}");
}
