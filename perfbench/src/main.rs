//! The repository's benchmark: four workloads over the whole toolchain,
//! their output checks, end-to-end metrics from untraced runs, and
//! per-layer metrics from a separate traced run. See `README.md`.
//!
//! ```text
//! tta-perfbench --workload W --seed N --seconds S --trace 0|1 [--trace-out DIR]
//! tta-perfbench --spread W --runs K --seconds S [--seed N]
//! ```
//!
//! A run spawns this same program once per repetition (`--child`), so
//! every repetition starts with an empty compile cache and set-up is
//! measured more than once; the run reports medians over them.

mod layers;
mod stats;
mod tracer;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use tta_obs::json::{self, Json};
use workloads::Ctx;

/// End-to-end metrics, in `BENCHMARK.json` order.
const E2E: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("request_p50_ms", "ms"),
    ("request_tail_ms", "ms"),
    ("guest_cycles", "cycles"),
    ("image_bits", "bits"),
    ("frontier_hv", "slice-us"),
];

/// Processes per untraced run: set-up is measured this many times.
const REPS: usize = 5;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    child: bool,
    traced: bool,
    rep: u32,
    spread: Option<String>,
    runs: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: tta-perfbench --workload W --seed N --seconds S --trace 0|1 [--trace-out DIR]\n\
         \x20      tta-perfbench --spread W --runs K --seconds S [--seed N]\n\
         workloads: {}",
        workloads::WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        seconds: 10.0,
        runs: 10,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = Some(val()),
            "--seed" => a.seed = val().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = val().parse().unwrap_or_else(|_| usage()),
            "--trace" => a.trace = val() == "1",
            "--trace-out" => a.trace_out = Some(PathBuf::from(val())),
            "--child" => a.child = true,
            "--traced" => a.traced = true,
            "--rep" => a.rep = val().parse().unwrap_or_else(|_| usage()),
            "--spread" => a.spread = Some(val()),
            "--runs" => a.runs = val().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    for w in a.workload.iter().chain(&a.spread) {
        if !workloads::WORKLOADS.contains(&w.as_str()) {
            usage();
        }
    }
    if a.seconds.is_nan() || a.seconds < 0.0 || (a.spread.is_some() && a.runs < 2) {
        usage();
    }
    a
}

fn main() {
    let t0 = Instant::now();
    let a = parse_args();
    if a.child {
        child(&a, t0);
    } else if let Some(w) = &a.spread {
        spread(w, a.seed, a.runs, a.seconds);
    } else if let Some(w) = &a.workload {
        if a.trace {
            traced_run(w, &a);
        } else {
            let r = run(w, a.seed, a.seconds);
            println!(
                "request_tail_ms: median of the value at rank {:?} of {:?} samples \
                 (per process, or pooled; rank 0: fewer than 40 samples, the median)",
                r.tail_ranks, r.samples
            );
            print_result(r.correct, r.attempted, r.failed, &r.metrics);
        }
    } else {
        usage();
    }
}

fn out_dir(a: &Args) -> PathBuf {
    a.trace_out
        .clone()
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")))
}

/// One benchmark process: set-up, the timed rounds, and for a traced
/// process the per-layer metrics and the trace file. Prints one JSON line.
fn child(a: &Args, t0: Instant) {
    let w = a.workload.as_deref().unwrap_or_else(|| usage());
    let mut ctx = Ctx::new(a.seed, a.seconds, a.rep, a.traced, t0);
    if a.traced {
        tracer::start();
    }
    workloads::run(w, &mut ctx);
    let timed_s = t0.elapsed().as_secs_f64() - ctx.setup_s;
    let peak_rss_mb = stats::peak_rss_mb();

    let mut layer_json = Json::Null;
    if a.traced {
        // Layers this workload does not reach take their numbers from one
        // round of the workload that does, run after the timed phase.
        let own = layers::snapshot(&ctx);
        let zero = |key: &str| own.iter().any(|(n, v, _)| n == key && *v == 0.0);
        let mut done: Vec<&str> = vec![w];
        for (home, key) in layers::HOME {
            if done.contains(&home) || !zero(key) {
                continue;
            }
            done.push(home);
            let mut sub = Ctx::new(a.seed, 0.0, 1, true, Instant::now());
            workloads::run(home, &mut sub);
            for (k, v) in &sub.extra {
                ctx.add(k, *v);
            }
            ctx.attempted += sub.attempted;
            ctx.failed += sub.failed;
            ctx.setup_ok &= sub.setup_ok;
            ctx.notes.extend(sub.notes);
        }
        let metrics = layers::merge(own, layers::snapshot(&ctx));
        let dir = out_dir(a);
        let stem = format!("{w}-seed{}", a.seed);
        let trace = tracer::perfetto(&tracer::records());
        let written = std::fs::create_dir_all(&dir).and_then(|_| {
            std::fs::write(dir.join(format!("{stem}.trace.json")), trace.to_compact())
        });
        if let Err(e) = written {
            ctx.setup_ok = false;
            ctx.notes
                .push(format!("writing the trace to {}: {e}", dir.display()));
        }
        layer_json = Json::Obj(
            metrics
                .into_iter()
                .map(|(n, v, u)| (n, Json::Arr(vec![Json::Num(v), Json::Str(u.into())])))
                .collect(),
        );
    }

    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    let doc = Json::Obj(vec![
        ("setup_s".into(), Json::Num(ctx.setup_s)),
        ("timed_s".into(), Json::Num(timed_s)),
        ("peak_rss_mb".into(), Json::Num(peak_rss_mb)),
        ("attempted".into(), Json::Num(ctx.attempted as f64)),
        ("failed".into(), Json::Num(ctx.failed as f64)),
        ("setup_ok".into(), Json::Bool(ctx.setup_ok)),
        ("items".into(), Json::Num(ctx.items)),
        ("busy_s".into(), Json::Num(ctx.busy_s)),
        ("lat_ms".into(), nums(&ctx.lat_ms)),
        ("guest_cycles".into(), Json::Num(ctx.guest_cycles)),
        ("image_bits".into(), Json::Num(ctx.image_bits)),
        ("frontier_hv".into(), Json::Num(ctx.frontier_hv)),
        (
            "notes".into(),
            Json::Arr(ctx.notes.iter().map(|n| Json::Str(n.clone())).collect()),
        ),
        ("layers".into(), layer_json),
    ]);
    println!("{}", doc.to_compact());
}

/// What one child process reported.
struct ChildOut {
    doc: Json,
}

impl ChildOut {
    fn num(&self, k: &str) -> f64 {
        self.doc.get(k).and_then(Json::as_f64).unwrap_or(0.0)
    }

    fn nums(&self, k: &str) -> Vec<f64> {
        match self.doc.get(k) {
            Some(Json::Arr(v)) => v.iter().filter_map(Json::as_f64).collect(),
            _ => Vec::new(),
        }
    }
}

/// Spawn one benchmark process and wait for it; `Err` when it crashed or
/// printed no result. With `trace_out`, the process is traced and writes
/// its trace there.
fn spawn(
    w: &str,
    seed: u64,
    seconds: f64,
    rep: usize,
    trace_out: Option<&std::path::Path>,
) -> Result<ChildOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", w])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--rep", &rep.to_string()])
        .env("TTA_EVAL_THREADS", "1")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(dir) = trace_out {
        cmd.arg("--traced").arg("--trace-out").arg(dir);
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{w} process {rep} exited with {}", out.status));
    }
    let last = text.lines().last().ok_or("no output")?;
    let doc = json::parse(last).map_err(|e| format!("unparsable result: {e:?}"))?;
    Ok(ChildOut { doc })
}

/// An untraced run's result.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
    /// Per process: the tail's rank and the latency sample count.
    tail_ranks: Vec<usize>,
    samples: Vec<usize>,
}

/// One untraced run: `REPS` processes (more for search-cold, one search
/// each, until `seconds` of searching are done), aggregated.
fn run(w: &str, seed: u64, seconds: f64) -> RunResult {
    let one_op = w == "search-cold";
    let per = if one_op { 0.0 } else { seconds / REPS as f64 };
    let started = Instant::now();
    let (mut outs, mut errors) = (Vec::new(), Vec::new());
    let mut timed = 0.0;
    for rep in 0.. {
        match spawn(w, seed, per, rep, None) {
            Ok(o) => {
                timed += o.num("timed_s");
                outs.push(o);
            }
            Err(e) => errors.push(e),
        }
        let n = outs.len() + errors.len();
        let enough = n >= REPS && (!one_op || timed >= seconds);
        if enough || !errors.is_empty() || started.elapsed().as_secs_f64() > 150.0 {
            break;
        }
    }
    for e in &errors {
        eprintln!("perfbench: {e}");
    }
    let mut correct = errors.is_empty() && !outs.is_empty();
    let (mut attempted, mut failed) = (errors.len() as u64, errors.len() as u64);
    for o in &outs {
        attempted += o.num("attempted") as u64;
        failed += o.num("failed") as u64;
        correct &= o.doc.get("setup_ok") == Some(&Json::Bool(true));
        if let Some(Json::Arr(notes)) = o.doc.get("notes") {
            for n in notes.iter().filter_map(Json::as_str) {
                eprintln!("perfbench: {n}");
            }
        }
    }
    correct &= failed == 0;
    // The deterministic metrics of the CHStone kernels on the presets
    // must agree between processes. Compiled code for generated machines
    // and modules can differ by an instruction from one process to the
    // next (CHANGES.md), so fuzz-diff and search-cold report their first
    // process's values unchecked.
    let agree: &[&str] = match w {
        "paper-eval" | "serve-batch" => &["guest_cycles", "image_bits", "frontier_hv"],
        _ => &[],
    };
    for &k in agree {
        if let Some(first) = outs.first() {
            if outs.iter().any(|o| o.num(k) != first.num(k)) {
                eprintln!("perfbench: {k} differs between processes of one run");
                correct = false;
            }
        }
    }
    let each = |k: &str| -> Vec<f64> { outs.iter().map(|o| o.num(k)).collect() };
    // The tail is each process's own when every process has enough
    // samples for one, otherwise that of all samples pooled.
    let lats: Vec<Vec<f64>> = outs.iter().map(|o| o.nums("lat_ms")).collect();
    let tails: Vec<(f64, usize)> = if lats.iter().all(|l| l.len() >= 40) {
        lats.iter().map(|l| stats::tail(l)).collect()
    } else {
        vec![stats::tail(&lats.concat())]
    };
    let first = |k: &str| outs.first().map_or(0.0, |o| o.num(k));
    let values: BTreeMap<&str, f64> = [
        ("setup_s", stats::median(&each("setup_s"))),
        (
            "items_per_s",
            each("items").iter().sum::<f64>() / each("busy_s").iter().sum::<f64>(),
        ),
        (
            "peak_rss_mb",
            each("peak_rss_mb").into_iter().fold(0.0, f64::max),
        ),
        ("request_p50_ms", stats::median(&lats.concat())),
        (
            "request_tail_ms",
            stats::median(&tails.iter().map(|t| t.0).collect::<Vec<_>>()),
        ),
        ("guest_cycles", first("guest_cycles")),
        ("image_bits", first("image_bits")),
        ("frontier_hv", first("frontier_hv")),
    ]
    .into_iter()
    .collect();
    RunResult {
        correct,
        attempted: attempted.max(1),
        failed,
        metrics: E2E
            .iter()
            .map(|&(n, u)| (n.to_string(), values[n], u.to_string()))
            .collect(),
        tail_ranks: tails.iter().map(|t| t.1).collect(),
        samples: if tails.len() == lats.len() {
            lats.iter().map(Vec::len).collect()
        } else {
            vec![lats.iter().map(Vec::len).sum()]
        },
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64, String)]) {
    let doc = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|(n, v, u)| {
                        (
                            n.clone(),
                            Json::Obj(vec![
                                ("value".into(), Json::Num(*v)),
                                ("unit".into(), Json::Str(u.clone())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", doc.to_compact());
}

/// The traced run: one untraced process for the reference throughput,
/// one traced process for the per-layer metrics and the trace; prints
/// each metric beside its layer's self time, and the tracing overhead.
fn traced_run(w: &str, a: &Args) {
    let one_op = w == "search-cold";
    let per = if one_op { 0.0 } else { a.seconds / 2.0 };
    let plain = spawn(w, a.seed, per, 0, None);
    let traced = spawn(w, a.seed, per, 1, Some(&out_dir(a)));
    let (plain, traced) = match (plain, traced) {
        (Ok(p), Ok(t)) => (p, t),
        (p, t) => {
            for e in [p.err(), t.err()].into_iter().flatten() {
                eprintln!("perfbench: {e}");
            }
            print_result(false, 1, 1, &[]);
            std::process::exit(1);
        }
    };
    let rate = |o: &ChildOut| o.num("items") / o.num("busy_s");
    let overhead = 1.0 - rate(&traced) / rate(&plain);
    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    if let Some(Json::Obj(fields)) = traced.doc.get("layers") {
        for (n, v) in fields {
            if let Json::Arr(pair) = v {
                let value = pair.first().and_then(Json::as_f64).unwrap_or(0.0);
                let unit = pair.get(1).and_then(Json::as_str).unwrap_or("").to_string();
                metrics.push((n.clone(), value, unit));
            }
        }
    }
    metrics.push(("trace.overhead_ratio".into(), overhead, "ratio".into()));
    let self_of: BTreeMap<String, f64> = metrics
        .iter()
        .filter_map(|(n, v, _)| n.strip_suffix(".self_s").map(|l| (l.to_string(), *v)))
        .collect();
    for (n, v, u) in &metrics {
        let layer = match n.split('.').next().unwrap_or("") {
            "queue" => "serve",
            l => l,
        };
        let self_s = self_of
            .get(layer)
            .map_or(String::from("-"), |s| format!("{s:.6} s"));
        println!("{n:<34} {v:>16.6} {u:<9} layer self time {self_s}");
    }
    println!(
        "tracing overhead: {:.2}% of untraced items_per_s ({:.3} traced vs {:.3} untraced)",
        overhead * 100.0,
        rate(&traced),
        rate(&plain)
    );
    println!(
        "trace written to {}",
        out_dir(a)
            .join(format!("{w}-seed{}.trace.json", a.seed))
            .display()
    );
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    for o in [&plain, &traced] {
        attempted += o.num("attempted") as u64;
        failed += o.num("failed") as u64;
        correct &= o.doc.get("setup_ok") == Some(&Json::Bool(true));
    }
    print_result(correct && failed == 0, attempted.max(1), failed, &metrics);
}

/// Run one workload `runs` times on consecutive seeds and print each
/// end-to-end metric's median, quartiles and spread (IQR / median).
fn spread(w: &str, seed: u64, runs: usize, seconds: f64) {
    let mut cols: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut shares = Vec::new();
    for i in 0..runs as u64 {
        let r = run(w, seed.wrapping_add(i), seconds);
        let line: Vec<String> = r
            .metrics
            .iter()
            .map(|(n, v, _)| format!("{n}={v:.6}"))
            .collect();
        println!(
            "seed {} correct={} failed={}/{} {}",
            seed.wrapping_add(i),
            r.correct,
            r.failed,
            r.attempted,
            line.join(" ")
        );
        shares.push(r.failed as f64 / r.attempted as f64);
        for (n, v, _) in r.metrics {
            cols.entry(n).or_default().push(v);
        }
    }
    println!(
        "{w}: {runs} runs of {seconds} s, seeds {seed}..{}",
        seed.wrapping_add(runs as u64 - 1)
    );
    println!(
        "{:<16} {:>14} {:>14} {:>14} {:>8}",
        "metric", "q1", "median", "q3", "spread"
    );
    for (n, _) in E2E {
        let v = &cols[n];
        let (q1, q2, q3) = stats::quartiles(v);
        let sp = if q2 != 0.0 { (q3 - q1) / q2 } else { 0.0 };
        println!("{n:<16} {q1:>14.6} {q2:>14.6} {q3:>14.6} {sp:>8.4}");
    }
    println!("failed share per run: {shares:?}");
}
