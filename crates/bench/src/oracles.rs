//! Cross-stack invariant oracles for chaos runs.
//!
//! Each check inspects the *outcome* of a finished (or watchdogged)
//! simulation and returns human-readable violation strings — empty
//! means the invariant held. Workloads in [`crate::chaos`] compose the
//! checks relevant to their contract; the soak driver treats any
//! non-empty result as a failing plan and shrinks it.

use snipe_netsim::world::World;
use snipe_rcds::assertion::Assertion;

/// Exactly-once, in-order delivery: the receiver's sequence log must be
/// precisely `0..sent` in that order. Covers loss (missing), duplication
/// (repeats) and reordering (wrong position) in one pass.
pub fn check_exactly_once_in_order(label: &str, sent: u32, delivered: &[u32]) -> Vec<String> {
    let mut v = Vec::new();
    if delivered.len() != sent as usize {
        v.push(format!(
            "{label}: exactly-once violated — sent {sent}, delivered {} entries",
            delivered.len()
        ));
    }
    let mut dup = 0u32;
    let mut reordered = 0u32;
    let mut seen = vec![false; sent as usize];
    let mut prev: Option<u32> = None;
    for &seq in delivered {
        if let Some(s) = seen.get_mut(seq as usize) {
            if *s {
                dup += 1;
            }
            *s = true;
        } else {
            v.push(format!("{label}: delivered unknown sequence {seq} (sent {sent})"));
        }
        if let Some(p) = prev {
            if seq < p {
                reordered += 1;
            }
        }
        prev = Some(seq);
    }
    if dup > 0 {
        v.push(format!("{label}: {dup} duplicate deliveries"));
    }
    if reordered > 0 {
        v.push(format!("{label}: {reordered} out-of-order deliveries"));
    }
    let missing = seen.iter().filter(|s| !**s).count();
    if missing > 0 {
        v.push(format!("{label}: {missing} of {sent} messages lost"));
    }
    v
}

/// Replica convergence: once faults quiesce and anti-entropy has had
/// time to run, every replica must report the same non-empty assertion
/// set for the probed URI.
pub fn check_replicas_converged(label: &str, replies: &[Option<Vec<Assertion>>]) -> Vec<String> {
    let mut v = Vec::new();
    let mut canon: Option<Vec<Assertion>> = None;
    for (i, r) in replies.iter().enumerate() {
        let Some(assertions) = r else {
            v.push(format!("{label}: replica {i} never answered the probe"));
            continue;
        };
        let mut sorted = assertions.clone();
        sorted.sort_by(|a, b| (&a.name, &a.value).cmp(&(&b.name, &b.value)));
        if sorted.is_empty() {
            v.push(format!("{label}: replica {i} converged to an empty record"));
            continue;
        }
        match &canon {
            None => canon = Some(sorted),
            Some(c) if *c != sorted => {
                v.push(format!(
                    "{label}: replica {i} disagrees with replica 0 ({} vs {} assertions)",
                    sorted.len(),
                    c.len()
                ));
            }
            Some(_) => {}
        }
    }
    v
}

/// FEC end-to-end integrity: an erasure-coded transfer may lose shares,
/// retransmit, even catch corrupted reconstructions (counted in
/// `fec_corrupt`) — but a *content mismatch in a delivered message* is
/// an absolute violation: the reconstruct-then-verify gate failed open.
/// When `expect_fec` is set the workload also proves FEC actually
/// engaged (a misconfigured plain run would vacuously "pass").
pub fn check_fec_integrity(
    label: &str,
    mismatches: &[String],
    stats: &snipe_wire::srudp::SrudpStats,
    expect_fec: bool,
) -> Vec<String> {
    let mut v = Vec::new();
    for m in mismatches {
        v.push(format!("{label}: corrupted reconstruction delivered — {m}"));
    }
    if expect_fec && stats.fec_delivered == 0 {
        v.push(format!(
            "{label}: no FEC-reconstructed deliveries — the erasure path never engaged"
        ));
    }
    v
}

/// Receiver-side reassembly boundedness: partial-reassembly state the
/// eviction machinery let accumulate past the cap means the bugfix
/// regressed (an in-contract sender can always have a few in flight).
pub fn check_reasm_bounded(
    label: &str,
    stats: &snipe_wire::srudp::SrudpStats,
    evicted_max: u64,
) -> Vec<String> {
    if stats.reasm_evicted > evicted_max {
        vec![format!(
            "{label}: {} partial reassemblies evicted (bound {evicted_max}) — peers are \
             being forgotten while still in contract",
            stats.reasm_evicted
        )]
    } else {
        Vec::new()
    }
}

/// Per-region boundedness: after a run the event/timer population must
/// be bounded (steady-state timers only, no retransmit storms or timer
/// leaks) and the peak queue depth and per-round mailbox burst must
/// stay under generous ceilings — in *every* region, because aggregate
/// totals can hide one runaway region. A one-region world is the
/// one-row case.
pub fn check_bounded(
    label: &str,
    world: &World,
    max_residual: usize,
    max_peak: u64,
    max_mailbox: u64,
) -> Vec<String> {
    let mut v = Vec::new();
    for l in world.shard_loads() {
        if l.queue_depth > max_residual {
            v.push(format!(
                "{label}: region {} holds {} events after quiesce (bound {max_residual})",
                l.region, l.queue_depth
            ));
        }
        if l.peak_queue_depth > max_peak {
            v.push(format!(
                "{label}: region {} peak queue depth {} exceeded bound {max_peak}",
                l.region, l.peak_queue_depth
            ));
        }
        if l.mailbox_hwm > max_mailbox {
            v.push(format!(
                "{label}: region {} took {} mailbox items in one round (bound {max_mailbox})",
                l.region, l.mailbox_hwm
            ));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_once_accepts_perfect_log() {
        let log: Vec<u32> = (0..10).collect();
        assert!(check_exactly_once_in_order("t", 10, &log).is_empty());
    }

    #[test]
    fn exactly_once_flags_each_failure_mode() {
        // Loss.
        let v = check_exactly_once_in_order("t", 3, &[0, 2]);
        assert!(v.iter().any(|s| s.contains("lost")), "{v:?}");
        // Duplication.
        let v = check_exactly_once_in_order("t", 3, &[0, 1, 1, 2]);
        assert!(v.iter().any(|s| s.contains("duplicate")), "{v:?}");
        // Reordering.
        let v = check_exactly_once_in_order("t", 3, &[0, 2, 1]);
        assert!(v.iter().any(|s| s.contains("out-of-order")), "{v:?}");
        // Phantom sequence numbers.
        let v = check_exactly_once_in_order("t", 2, &[0, 1, 7]);
        assert!(v.iter().any(|s| s.contains("unknown sequence")), "{v:?}");
    }

    #[test]
    fn convergence_flags_disagreement_and_silence() {
        let a = vec![Assertion::new("k", "v")];
        let b = vec![Assertion::new("k", "w")];
        let v = check_replicas_converged("t", &[Some(a.clone()), Some(b)]);
        assert!(v.iter().any(|s| s.contains("disagrees")), "{v:?}");
        let v = check_replicas_converged("t", &[Some(a.clone()), None]);
        assert!(v.iter().any(|s| s.contains("never answered")), "{v:?}");
        let v = check_replicas_converged("t", &[Some(a.clone()), Some(a)]);
        assert!(v.is_empty(), "{v:?}");
    }

    /// The oracle must fire, and on the right row: an actor that breeds
    /// timers in region 1 trips the residual bound there and nowhere
    /// else.
    #[test]
    fn bounded_fires_on_exactly_the_runaway_region() {
        use snipe_netsim::actor::{Actor, Event, SimCtx};
        use snipe_util::id::HostId;
        use snipe_util::time::SimDuration;

        struct Breeder;
        impl Actor for Breeder {
            fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
                if let Event::Start | Event::Timer { .. } = event {
                    // Two far-future timers per fire: the population
                    // doubles every 10 ms and never drains.
                    ctx.set_timer(SimDuration::from_millis(10), 1);
                    ctx.set_timer(SimDuration::from_secs(3600), 2);
                    ctx.set_timer(SimDuration::from_secs(3600), 2);
                }
            }
        }
        let mut w = World::sharded(crate::shard_storm::cluster_topology(128), 7, 1);
        assert_eq!(w.regions(), 2);
        w.spawn(HostId(100), 9, Box::new(Breeder));
        w.run_for(SimDuration::from_secs(1));
        assert!(check_bounded("t", &w, 1_000, u64::MAX, u64::MAX).is_empty(), "under the bound");
        let v = check_bounded("t", &w, 100, u64::MAX, u64::MAX);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("region 1 holds 2"), "{v:?}");
        let v = check_bounded("t", &w, usize::MAX, 100, u64::MAX);
        assert!(v.len() == 1 && v[0].contains("region 1 peak queue depth"), "{v:?}");
    }
}
