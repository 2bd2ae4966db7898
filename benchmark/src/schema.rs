//! The metric catalogue: every end-to-end and per-layer metric by name,
//! unit and direction, the regression bounds, and which end-to-end
//! metric each per-layer metric is expected to move. `benchmark
//! schema` prints `BENCHMARK.json` from these tables, so the file, the
//! program's output and `compare` cannot drift apart.

use crate::json::Json;
use crate::workloads::{why, WORKLOADS};

/// An end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression, for runs that differ in
    /// seed (the acceptance protocol); see [`EndToEnd::exact`].
    pub bound: f64,
    /// Counted or simulated: two runs of one seed must agree to this
    /// share instead (`compare` applies it when the seeds match).
    pub exact: Option<f64>,
    /// Absolute change below which the metric never counts as moved
    /// (set-up times of a few tens of ms, near-zero allocation counts).
    pub floor: f64,
}

pub const END_TO_END: [EndToEnd; 11] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25, exact: None, floor: 0.05 },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        exact: None,
        floor: 0.0,
    },
    EndToEnd {
        name: "cpu_ns_per_op",
        unit: "ns",
        better: "lower",
        bound: 0.25,
        exact: None,
        floor: 0.0,
    },
    EndToEnd {
        name: "op_ok_ratio",
        unit: "ratio",
        better: "higher",
        bound: 0.001,
        exact: Some(0.0),
        floor: 0.0,
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "count",
        better: "lower",
        bound: 0.1,
        exact: Some(0.01),
        floor: 0.01,
    },
    EndToEnd {
        name: "alloc_bytes_per_op",
        unit: "B",
        better: "lower",
        bound: 0.15,
        exact: Some(0.01),
        floor: 1.0,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
        exact: None,
        floor: 0.0,
    },
    EndToEnd {
        name: "virtual_op_us_p50",
        unit: "sim_us",
        better: "lower",
        bound: 0.25,
        exact: Some(0.005),
        floor: 0.0,
    },
    EndToEnd {
        name: "virtual_op_us_p99",
        unit: "sim_us",
        better: "lower",
        bound: 0.25,
        exact: Some(0.005),
        floor: 0.0,
    },
    EndToEnd {
        name: "wire_bytes_per_payload_byte",
        unit: "ratio",
        better: "lower",
        bound: 0.1,
        exact: Some(0.005),
        floor: 0.0,
    },
    EndToEnd {
        name: "events_per_op",
        unit: "count",
        better: "lower",
        bound: 0.05,
        exact: Some(0.005),
        floor: 0.0,
    },
];

/// A per-layer metric and the end-to-end metric @ workload it should
/// move (on every other workload the prediction is no change).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves }
}

const STORM_SPEED: &str = "ops_per_s, cpu_ns_per_op @ storm";
const SMALL_SPEED: &str = "ops_per_s @ wire-small";
const BULK_SPEED: &str = "ops_per_s, cpu_ns_per_op @ wire-bulk";
const NAMES_SPEED: &str = "ops_per_s, cpu_ns_per_op @ names";
const CAMPUS_LAT: &str = "virtual_op_us_p50, virtual_op_us_p99 @ campus";

pub const PER_LAYER: &[PerLayer] = &[
    // netsim
    pl("netsim.shard.ns_per_event", "ns", "lower", STORM_SPEED),
    pl("netsim.shard.cpu_ns_per_event", "ns", "lower", STORM_SPEED),
    pl("netsim.shard.events_per_s", "1/s", "higher", STORM_SPEED),
    pl("netsim.shard.t1.ns_per_event", "ns", "lower", "ops_per_s @ storm, campus"),
    pl("netsim.world.ns_per_event", "ns", "lower", "ops_per_s @ storm, campus"),
    pl("netsim.shard.speedup_t2_over_t1", "ratio", "higher", "ops_per_s @ storm, campus"),
    pl("netsim.shard.cross_region_share", "ratio", "lower", "peak_rss_mb @ storm"),
    pl("netsim.shard.mailbox_hwm", "count", "lower", "peak_rss_mb @ storm"),
    pl("netsim.shard.slab_hwm", "count", "lower", "peak_rss_mb @ storm"),
    pl("netsim.route_cache.hit_ratio", "ratio", "higher", "ops_per_s @ storm"),
    pl("netsim.events_per_delivery", "count", "lower", "events_per_op @ storm"),
    pl("netsim.drops", "count", "lower", "op_ok_ratio @ storm (must be 0)"),
    pl("netsim.world.ns_per_event.names", "ns", "lower", "ops_per_s @ names"),
    pl("netsim.build_s", "s", "lower", "setup_s @ storm"),
    // wire
    pl("wire.send.ns_per_call", "ns", "lower", SMALL_SPEED),
    pl("wire.on_datagram.ns_per_call", "ns", "lower", SMALL_SPEED),
    pl("wire.on_timer.ns_per_call", "ns", "lower", SMALL_SPEED),
    pl("wire.drain.ns_per_call", "ns", "lower", SMALL_SPEED),
    pl("wire.srudp.ns_per_msg", "ns", "lower", SMALL_SPEED),
    pl("wire.rstream.ns_per_msg", "ns", "lower", SMALL_SPEED),
    pl("wire.srudp.allocs_per_msg", "count", "lower", "allocs_per_op @ wire-small"),
    pl("wire.rstream.allocs_per_msg", "count", "lower", "allocs_per_op @ wire-small"),
    pl(
        "wire.datagrams_per_msg",
        "count",
        "lower",
        "events_per_op, wire_bytes_per_payload_byte @ wire-small",
    ),
    pl("wire.timer_fires_per_msg", "count", "lower", "events_per_op @ wire-small"),
    pl("wire.bulk.plain.mb_s", "MB/s", "higher", "ops_per_s @ wire-bulk"),
    pl("wire.bulk.fec.mb_s", "MB/s", "higher", "ops_per_s @ wire-bulk"),
    pl("wire.bulk.rstream.mb_s", "MB/s", "higher", "ops_per_s @ wire-bulk"),
    pl("wire.fec.encode_mb_s", "MB/s", "higher", BULK_SPEED),
    pl("wire.fec.decode_mb_s", "MB/s", "higher", BULK_SPEED),
    pl("wire.frag.split_mb_s", "MB/s", "higher", BULK_SPEED),
    pl("wire.frag.reassemble_mb_s", "MB/s", "higher", BULK_SPEED),
    pl(
        "wire.fec.share_overhead_ratio",
        "ratio",
        "lower",
        "wire_bytes_per_payload_byte @ wire-bulk",
    ),
    pl("wire.srudp.retransmits_per_msg", "count", "lower", "virtual_op_us_p99 @ wire-bulk"),
    pl("wire.srudp.abandoned_per_msg", "count", "lower", "virtual_op_us_p99 @ wire-bulk"),
    pl("wire.fec.reconstruct_ratio", "ratio", "higher", "virtual_op_us_p99 @ wire-bulk"),
    pl(
        "wire.dup_ratio",
        "ratio",
        "lower",
        "virtual_op_us_p99, wire_bytes_per_payload_byte @ wire-bulk",
    ),
    pl("wire.backlog_hwm", "B", "lower", "peak_rss_mb @ wire-small, wire-bulk"),
    pl("wire.decode_drops", "count", "lower", "op_ok_ratio @ wire-small, wire-bulk (must be 0)"),
    // util
    pl("util.codec.encode_ns_per_msg", "ns", "lower", "ops_per_s, allocs_per_op @ names"),
    pl("util.codec.decode_ns_per_msg", "ns", "lower", "ops_per_s, allocs_per_op @ names"),
    // rcds
    pl("rcds.client.get.ns_per_call", "ns", "lower", NAMES_SPEED),
    pl("rcds.client.put.ns_per_call", "ns", "lower", NAMES_SPEED),
    pl("rcds.client.on_packet.ns_per_call", "ns", "lower", NAMES_SPEED),
    pl("rcds.server.on_event.ns_per_call", "ns", "lower", NAMES_SPEED),
    pl(
        "rcds.client.cache_hit_ratio",
        "ratio",
        "higher",
        "virtual_op_us_p50, events_per_op @ names",
    ),
    pl("rcds.store.get.ns_per_call", "ns", "lower", "ops_per_s @ names"),
    pl("rcds.store.put.ns_per_call", "ns", "lower", "ops_per_s @ names"),
    pl("rcds.shard.shard_of.ns_per_call", "ns", "lower", "ops_per_s @ names"),
    pl("rcds.shard.imbalance_ratio", "ratio", "lower", "virtual_op_us_p99 @ names"),
    pl("rcds.sync.bytes_per_put", "B", "lower", "wire_bytes_per_payload_byte @ names"),
    pl("rcds.client.retries_per_op", "count", "lower", "allocs_per_op @ names"),
    pl("rcds.client.decode_drops", "count", "lower", "op_ok_ratio @ names (must be 0)"),
    pl("rcds.allocs_per_op", "count", "lower", "allocs_per_op @ names"),
    // crypto
    pl("crypto.sha256.mb_s", "MB/s", "higher", "ops_per_s @ campus"),
    pl("crypto.chacha20.mb_s", "MB/s", "higher", "ops_per_s @ campus"),
    pl("crypto.sign.ops_s", "1/s", "higher", "ops_per_s @ campus"),
    pl("crypto.verify.ops_s", "1/s", "higher", "ops_per_s @ campus"),
    // files / rm / daemon / core, from campus
    pl("core.op.msg_echo.virtual_us_p50", "sim_us", "lower", CAMPUS_LAT),
    pl("core.op.lookup_service.virtual_us_p50", "sim_us", "lower", CAMPUS_LAT),
    pl("core.op.lookup.virtual_us_p50", "sim_us", "lower", CAMPUS_LAT),
    pl("core.op.read_file.virtual_us_p50", "sim_us", "lower", CAMPUS_LAT),
    pl("core.op.write_file.virtual_us_p50", "sim_us", "lower", CAMPUS_LAT),
    pl("core.op.spawn_rm.virtual_us_p50", "sim_us", "lower", CAMPUS_LAT),
    pl("core.op.group_send.virtual_us_p50", "sim_us", "lower", CAMPUS_LAT),
    pl("files.read.virtual_mb_s", "MB/s", "higher", "virtual_op_us_p99 @ campus"),
    pl("files.fetch.refetch_ratio", "ratio", "lower", "virtual_op_us_p99 @ campus"),
    pl("rm.grants_per_s", "1/s", "higher", "ops_per_s @ campus"),
    pl("daemon.spawns_per_s", "1/s", "higher", "ops_per_s @ campus"),
    pl("campus.host_s_per_virtual_s", "ratio", "lower", "ops_per_s @ campus"),
    pl("campus.events_per_op", "count", "lower", "events_per_op @ campus"),
    pl("campus.datagrams_per_op", "count", "lower", "wire_bytes_per_payload_byte @ campus"),
    pl("campus.srudp.retransmits_per_op", "count", "lower", "wire_bytes_per_payload_byte @ campus"),
    pl(
        "campus.t2_over_t1_wall",
        "ratio",
        "lower",
        "ops_per_s @ campus if it moves to 2 engine threads",
    ),
    // the benchmark itself
    pl("bench.generator_share.storm", "ratio", "lower", "validity: run fails above 0.20"),
    pl("bench.generator_share.wire-small", "ratio", "lower", "validity: run fails above 0.20"),
    pl("bench.generator_share.wire-bulk", "ratio", "lower", "validity: run fails above 0.20"),
    pl("bench.generator_share.names", "ratio", "lower", "validity: run fails above 0.20"),
    pl("bench.generator_share.campus", "ratio", "lower", "validity: run fails above 0.20"),
    pl("bench.trace_overhead_ratio.storm", "ratio", "lower", "none: cost of the traced run"),
    pl("bench.trace_overhead_ratio.wire-small", "ratio", "lower", "none: cost of the traced run"),
    pl("bench.trace_overhead_ratio.wire-bulk", "ratio", "lower", "none: cost of the traced run"),
    pl("bench.trace_overhead_ratio.names", "ratio", "lower", "none: cost of the traced run"),
    pl("bench.trace_overhead_ratio.campus", "ratio", "lower", "none: cost of the traced run"),
    pl("bench.pass_wall_cv.storm", "ratio", "lower", "none: the run's own noise figure"),
    pl("bench.pass_wall_cv.wire-small", "ratio", "lower", "none: the run's own noise figure"),
    pl("bench.pass_wall_cv.wire-bulk", "ratio", "lower", "none: the run's own noise figure"),
    pl("bench.pass_wall_cv.names", "ratio", "lower", "none: the run's own noise figure"),
    pl("bench.pass_wall_cv.campus", "ratio", "lower", "none: the run's own noise figure"),
];

/// The command the driver runs (it appends the four flags).
const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
];
/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 15;

fn s(v: &str) -> Json {
    Json::Str(v.into())
}

/// `BENCHMARK.json`, pretty-printed.
pub fn benchmark_json() -> String {
    let mut command: Vec<Json> = COMMAND.iter().map(|c| s(c)).collect();
    command.push(s("--"));
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| Json::Obj(vec![("name".into(), s(w)), ("why".into(), s(why(w)))]).render())
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("name".into(), s(m.name)),
                ("unit".into(), s(m.unit)),
                ("better".into(), s(m.better)),
                ("bound".into(), Json::Num(m.bound)),
            ])
            .render()
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("name".into(), s(m.name)),
                ("unit".into(), s(m.unit)),
                ("better".into(), s(m.better)),
            ])
            .render()
        })
        .collect();
    let block = |items: &[String]| format!("[\n    {}\n  ]", items.join(",\n    "));
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        Json::Arr(command).render(),
        RUN_SECONDS,
        block(&workloads),
        block(&e2e),
        block(&layers),
    )
}

/// The per-layer table of the README: every metric with the
/// end-to-end metric @ workload it is expected to move.
pub fn per_layer_markdown() -> String {
    let mut out = String::from(
        "| per-layer metric | unit | better | expected to move |\n|---|---|---|---|\n",
    );
    for m in PER_LAYER {
        out.push_str(&format!("| `{}` | {} | {} | {} |\n", m.name, m.unit, m.better, m.moves));
    }
    out
}
