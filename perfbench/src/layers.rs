//! Per-layer metrics of a traced run, from the harness spans around each
//! layer call and from the spans, counters and histograms the program
//! already exports through `tta_obs`.

use std::collections::BTreeMap;

use crate::tracer::{self, Record};
use crate::workloads::Ctx;

/// Compiler passes as the compiler names its obs spans.
const PASSES: [&str; 10] = [
    "verify", "inline", "opt", "dce", "consts", "regalloc", "lower", "sched", "layout", "validate",
];

/// Simulator styles.
const STYLES: [&str; 3] = ["tta", "vliw", "scalar"];

/// Which workload each layer's metrics come from when the traced
/// workload does not reach the layer, keyed by one metric that is zero
/// until that workload has run.
pub const HOME: [(&str, &str); 6] = [
    ("paper-eval", "sim.cycles_per_s.scalar"),
    ("paper-eval", "cache.hit_s"),
    ("paper-eval", "fpga.estimate_s"),
    ("fuzz-diff", "fuzz.check_s"),
    ("search-cold", "search.configs"),
    ("serve-batch", "serve.request_ms"),
];

/// One per-layer metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Summed obs span time and count over every path whose last segment is
/// `leaf`; with `under`, only paths that also pass through that segment.
fn obs_leaf(snap: &[tta_obs::span::SpanStat], leaf: &str, under: Option<&str>) -> (f64, u64) {
    snap.iter()
        .filter(|s| {
            let segs: Vec<&str> = s.path.split('/').collect();
            segs.last() == Some(&leaf) && under.is_none_or(|u| segs[..segs.len() - 1].contains(&u))
        })
        .fold((0.0, 0), |(t, n), s| (t + s.total_s, n + s.count))
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Every per-layer metric as of now, in `BENCHMARK.json` order.
pub fn snapshot(ctx: &Ctx) -> Vec<Metric> {
    let recs: Vec<Record> = tracer::records();
    let obs = tta_obs::span::snapshot();
    let c = |n: &str| tta_obs::counter::get(n).unwrap_or(0) as f64;
    let x = |n: &str| ctx.extra.get(n).copied().unwrap_or(0.0);
    let h = |n: &str| tracer::total(&recs, n);
    let selfs = tracer::self_times(&recs);
    let self_s = |l: &str| selfs.get(l).copied().unwrap_or(0.0);
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |n: &str, v: f64, u: &'static str| m.push((n.to_string(), v, u));

    // ir
    put(
        "ir.build_s",
        h("ir.build").0 + obs_leaf(&obs, "build_ir", None).0,
        "s",
    );
    put(
        "ir.interp_s",
        h("ir.interp").0 + obs_leaf(&obs, "golden_interp", None).0,
        "s",
    );
    put(
        "ir.interp_insts",
        x("ir.interp_insts") + c("fuzz.golden_insts"),
        "count",
    );
    put("ir.self_s", self_s("ir"), "s");

    // compiler
    put("compiler.compile_s", obs_leaf(&obs, "compile", None).0, "s");
    put("compiler.compiles", c("compiler.compiles"), "count");
    for p in PASSES {
        put(
            &format!("compiler.pass.{p}_s"),
            obs_leaf(&obs, p, Some("compile")).0,
            "s",
        );
    }
    put(
        "compiler.dce_runs",
        obs_leaf(&obs, "dce", Some("compile")).1 as f64,
        "count",
    );
    put("compiler.insts", c("compiler.insts"), "count");
    put("compiler.self_s", self_s("compiler"), "s");

    // cache
    let (hits, misses) = (c("eval.compile_cache.hits"), c("eval.compile_cache.misses"));
    put("cache.lookups", hits + misses, "count");
    put("cache.hits", hits, "count");
    put("cache.hit_ratio", ratio(hits, hits + misses), "ratio");
    put("cache.evictions", c("cache.evictions"), "count");
    put("cache.hit_s", h("cache.lookup").0, "s");
    put("cache.self_s", self_s("cache"), "s");

    // sim
    put("sim.sim_s", obs_leaf(&obs, "simulate", None).0, "s");
    put("sim.runs", c("sim.runs"), "count");
    for s in STYLES {
        let v = ratio(x(&format!("sim.cycles.{s}")), x(&format!("sim.secs.{s}")));
        put(&format!("sim.cycles_per_s.{s}"), v, "cycles/s");
    }
    let (prom, entries, falls) = (
        c("sim.jit.promotions"),
        c("sim.jit.tier2_entries"),
        c("sim.jit.fallbacks"),
    );
    put("sim.jit.promotions", prom, "count");
    put("sim.jit.tier2_entries", entries, "count");
    put("sim.jit.fallbacks", falls, "count");
    put(
        "sim.jit.fallback_ratio",
        ratio(falls, entries + falls),
        "ratio",
    );
    put("sim.self_s", self_s("sim"), "s");

    // fpga
    put("fpga.estimate_s", h("fpga.estimate").0, "s");
    put("fpga.estimates", x("fpga.estimates"), "count");
    put("fpga.self_s", self_s("fpga"), "s");

    // search
    for k in [
        "search.configs",
        "search.analytic_pruned",
        "search.probed",
        "search.probe_pruned",
        "search.full_evals",
        "search.frontier_size",
    ] {
        put(k, x(k), "count");
    }
    put(
        "search.probe_yield",
        ratio(x("search.full_evals"), x("search.probed")),
        "ratio",
    );
    put(
        "search.insert_yield",
        ratio(x("search.inserted"), x("search.full_evals")),
        "ratio",
    );
    put(
        "search.prepare_s",
        obs_leaf(&obs, "prepare", Some("search")).0,
        "s",
    );
    put("search.profile_s", x("search.profile_s"), "s");
    put("search.self_s", self_s("search"), "s");

    // fuzz
    put("fuzz.gen_s", h("fuzz.gen").0, "s");
    put("fuzz.check_s", h("fuzz.check").0, "s");
    put("fuzz.golden_insts", c("fuzz.golden_insts"), "count");
    put("fuzz.sim_cycles", c("fuzz.sim_cycles"), "count");
    put("fuzz.self_s", self_s("fuzz"), "s");

    // serve
    let requests = x("serve.requests");
    put(
        "serve.request_ms",
        ratio(x("serve.server_s") * 1e3, x("serve.server_requests")),
        "ms",
    );
    put(
        "serve.overhead_ms",
        ratio(x("serve.client_ms") - x("serve.direct_s") * 1e3, requests),
        "ms",
    );
    put(
        "queue.wait_ms",
        ratio(x("queue.wait_s") * 1e3, x("queue.waits")),
        "ms",
    );
    put(
        "serve.bytes_per_job",
        ratio(x("serve.bytes"), x("serve.jobs")),
        "bytes",
    );
    put("serve.self_s", self_s("serve"), "s");
    m
}

/// Keep the traced workload's own value of each metric, and take the
/// ones it left at zero from after the other workloads' rounds.
pub fn merge(own: Vec<Metric>, all: Vec<Metric>) -> Vec<Metric> {
    let all: BTreeMap<String, f64> = all.into_iter().map(|(n, v, _)| (n, v)).collect();
    own.into_iter()
        .map(|(n, v, u)| {
            let v = if v == 0.0 {
                all.get(&n).copied().unwrap_or(0.0)
            } else {
                v
            };
            (n, v, u)
        })
        .collect()
}
