//! The four workloads: set-up, the timed loop, and the output checks.
//!
//! Every workload runs its timed work on one thread (the parent process
//! sets `TTA_EVAL_THREADS=1`, searches and the server are configured for
//! one worker), so a result does not depend on how the host's other
//! cores are shared.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tta_chstone::Kernel;
use tta_explore::eval::{self, KernelRun, MachineReport, PreparedKernel};
use tta_explore::search::{self, KernelDemand, SearchParams};
use tta_fuzz::gen::{generate, generate_reactive, GenConfig};
use tta_fuzz::oracle::Oracle;
use tta_model::io::IoSpec;
use tta_model::{presets, CoreStyle, Machine};
use tta_obs::json::{self, Json};
use tta_serve::{client, schema, Server, ServerConfig};
use tta_testutil::Rng;

use crate::stats;
use crate::tracer::{self, span};

/// Generated cases per fuzz-diff round.
const FUZZ_CASES: usize = 128;
/// fuzz-diff's first rounds are its fixed input set, the same whatever
/// the seed, run by the first process of a run only; the deterministic
/// metrics are taken over it. Every other round draws fresh cases from
/// the seed and the process index, so throughput and latency percentiles
/// are taken over many distinct cases.
const FUZZ_FIXED_ROUNDS: u64 = 4;
/// One fuzz-diff case in this many is an interrupt-schedule case.
const FUZZ_REACTIVE_ONE_IN: u32 = 4;
/// Batch sizes drawn for serve-batch requests (inclusive).
const SERVE_BATCH: (usize, usize) = (1, 8);
/// Every serve-batch round sends each of the 104 pairs this many times.
const SERVE_PAIR_REPEATS: usize = 2;
/// `frontier_hv` reference point (slices, µs) for the CHStone
/// workloads, and the one for fuzz-diff, whose generated programs run
/// for far fewer cycles.
const HV_REF_CHSTONE: (f64, f64) = (2000.0, 2000.0);
const HV_REF_FUZZ: (f64, f64) = (2000.0, 200.0);

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["paper-eval", "fuzz-diff", "search-cold", "serve-batch"];

/// What one benchmark process measured.
#[derive(Default)]
pub struct Ctx {
    seed: u64,
    /// Seconds of timed rounds.
    budget_s: f64,
    /// Index of this process within its run; only process 0 runs
    /// fuzz-diff's fixed input set and compiles it for `image_bits`.
    rep: u32,
    traced: bool,
    t0: Option<Instant>,
    timed_from: Option<Instant>,
    rounds: u64,
    min_rounds: u64,
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub setup_ok: bool,
    pub notes: Vec<String>,
    /// Verified items and seconds of the timed rounds.
    pub items: f64,
    pub busy_s: f64,
    /// Client-side latency of each request, ms.
    pub lat_ms: Vec<f64>,
    pub guest_cycles: f64,
    pub image_bits: f64,
    pub frontier_hv: f64,
    /// Values the workloads hand to the per-layer metrics.
    pub extra: BTreeMap<String, f64>,
}

impl Ctx {
    pub fn new(seed: u64, budget_s: f64, rep: u32, traced: bool, t0: Instant) -> Ctx {
        Ctx {
            seed,
            budget_s,
            rep,
            traced,
            t0: Some(t0),
            setup_ok: true,
            ..Ctx::default()
        }
    }

    fn setup_done(&mut self) {
        let now = Instant::now();
        self.setup_s = now
            .duration_since(self.t0.expect("start time"))
            .as_secs_f64();
        self.timed_from = Some(now);
    }

    /// Whether to start another timed round: always the first
    /// `min_rounds` (at least one), then while the time budget lasts.
    fn another_round(&mut self) -> bool {
        let go = self.rounds < self.min_rounds.max(1)
            || self
                .timed_from
                .is_some_and(|t| t.elapsed().as_secs_f64() < self.budget_s);
        self.rounds += 1;
        go
    }

    fn setup_check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.setup_ok = false;
            self.notes.push(format!("set-up check failed: {}", what()));
        }
    }

    fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    /// Count one finished timed round.
    fn round_done(&mut self, items: usize, secs: f64) {
        self.items += items as f64;
        self.busy_s += secs;
    }

    pub fn add(&mut self, key: &str, v: f64) {
        *self.extra.entry(key.to_string()).or_default() += v;
    }
}

/// Run one workload in this process.
pub fn run(workload: &str, ctx: &mut Ctx) {
    match workload {
        "paper-eval" => paper_eval(ctx),
        "fuzz-diff" => fuzz_diff(ctx),
        "search-cold" => search_cold(ctx),
        "serve-batch" => serve_batch(ctx),
        other => panic!("unknown workload {other:?}"),
    }
}

fn style_name(m: &Machine) -> &'static str {
    match m.style {
        CoreStyle::Tta => "tta",
        CoreStyle::Vliw => "vliw",
        CoreStyle::Scalar => "scalar",
    }
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

/// `prepare_kernel` split in two so the trace shows IR build and the
/// golden interpreter apart; the result is the same value.
fn prepare(ctx: &mut Ctx, k: &Kernel) -> PreparedKernel {
    let _op = span("ir.prepare");
    let module = {
        let _s = span("ir.build");
        (k.build)()
    };
    let golden = {
        let _s = span("ir.interp");
        tta_ir::Interpreter::new(&module)
            .run(&[])
            .expect("golden interpreter")
    };
    ctx.add("ir.interp_insts", golden.stats.insts as f64);
    let ir_hash = tta_explore::cache::hash_of(&tta_ir::module_to_text(&module));
    PreparedKernel {
        name: k.name,
        module,
        golden_ret: golden.ret,
        golden_stats: golden.stats,
        ir_hash,
    }
}

/// Prepared kernels plus their machine-independent demand, with the
/// golden interpreter checked against each kernel's native checksum.
struct Kernels {
    kernels: Vec<Kernel>,
    prepared: Vec<PreparedKernel>,
    demands: Vec<KernelDemand>,
}

fn kernels(ctx: &mut Ctx) -> Kernels {
    let kernels = tta_chstone::all_kernels();
    let prepared: Vec<PreparedKernel> = kernels.iter().map(|k| prepare(ctx, k)).collect();
    for (k, p) in kernels.iter().zip(&prepared) {
        let native = (k.expected)();
        ctx.setup_check(p.golden_ret == Some(native), || {
            format!("{}: golden {:?} != native {native}", k.name, p.golden_ret)
        });
    }
    let demands = prepared.iter().map(KernelDemand::of).collect();
    Kernels {
        kernels,
        prepared,
        demands,
    }
}

/// One compile-cache lookup, named after what it turned out to be.
fn lookup(p: &PreparedKernel, m: &Machine) -> (Arc<tta_compiler::Compiled>, Arc<tta_sim::Tiers>) {
    let misses = || tta_obs::counter::get("eval.compile_cache.misses").unwrap_or(0);
    let before = misses();
    let mut s = span("cache.lookup");
    let out = eval::compile_cached(p, m);
    if misses() != before {
        s.rename("compiler.compile");
    }
    out
}

/// The traced replay of `evaluate`: the same pairs through the same
/// public calls, one span per call, so per-style simulator speed shows.
fn replay(ctx: &mut Ctx, machines: &[Machine], ks: &[Kernel]) -> Vec<MachineReport> {
    let prepared: Vec<PreparedKernel> = ks.iter().map(|k| prepare(ctx, k)).collect();
    let mut reports = Vec::with_capacity(machines.len());
    for m in machines {
        let mut runs = Vec::with_capacity(prepared.len());
        for p in &prepared {
            let (compiled, tiers) = lookup(p, m);
            let t = Instant::now();
            let r = {
                let _s = span(format!("sim.run.{}", style_name(m)));
                tta_sim::run_with_tiers(
                    m,
                    &compiled.program,
                    p.module.initial_memory(),
                    tta_sim::DEFAULT_FUEL,
                    &tiers,
                )
                .unwrap_or_else(|e| panic!("{} on {}: {e}", p.name, m.name))
            };
            let dt = t.elapsed().as_secs_f64();
            ctx.add(&format!("sim.cycles.{}", style_name(m)), r.cycles as f64);
            ctx.add(&format!("sim.secs.{}", style_name(m)), dt);
            assert_eq!(Some(r.ret), p.golden_ret, "{} on {}", p.name, m.name);
            runs.push(KernelRun {
                kernel: p.name.to_string(),
                cycles: r.cycles,
                program_len: compiled.program.len(),
                image_bits: compiled.program.image_bits(m),
                sim: r.stats,
                tta: compiled.stats.tta,
                spilled: compiled.stats.spilled,
            });
        }
        let resources = {
            let _s = span("fpga.estimate");
            tta_fpga::estimate(m)
        };
        ctx.add("fpga.estimates", 1.0);
        reports.push(MachineReport {
            name: m.name.clone(),
            machine: m.clone(),
            resources,
            instr_bits: tta_isa::encoding::instruction_bits(m),
            runs,
        });
    }
    reports
}

/// One pass over every (machine, kernel) pair: `evaluate` untraced, the
/// replay traced.
fn pass(ctx: &mut Ctx, machines: &[Machine], ks: &[Kernel]) -> Result<Vec<MachineReport>, String> {
    catch_unwind(AssertUnwindSafe(|| {
        if ctx.traced {
            replay(ctx, machines, ks)
        } else {
            eval::evaluate(machines, ks)
        }
    }))
    .map_err(panic_text)
}

/// Cycles and image bits of every pair from the set-up pass, checked
/// against the cycle lower bound; the reference later passes and served
/// jobs must reproduce.
struct Reference {
    machines: Vec<Machine>,
    ks: Kernels,
    pairs: HashMap<(String, String), (u64, u64)>,
}

fn reference(ctx: &mut Ctx) -> Reference {
    let ks = kernels(ctx);
    let machines = presets::all_design_points();
    let mut pairs = HashMap::new();
    match pass(ctx, &machines, &ks.kernels) {
        Ok(reports) => {
            for (r, m) in reports.iter().zip(&machines) {
                for (run, d) in r.runs.iter().zip(&ks.demands) {
                    let lb = search::cycle_lower_bound(d, m);
                    ctx.setup_check(run.cycles >= lb, || {
                        format!(
                            "{} on {}: {} cycles < bound {lb}",
                            run.kernel, m.name, run.cycles
                        )
                    });
                    pairs.insert(
                        (m.name.clone(), run.kernel.clone()),
                        (run.cycles, run.image_bits),
                    );
                }
            }
            ctx.guest_cycles = pairs.values().map(|v| v.0 as f64).sum();
            ctx.image_bits = pairs.values().map(|v| v.1 as f64).sum();
            ctx.frontier_hv = hv_of_reports(&reports);
        }
        Err(e) => ctx.setup_check(false, || format!("set-up pass: {e}")),
    }
    Reference {
        machines,
        ks,
        pairs,
    }
}

fn hv_of_reports(reports: &[MachineReport]) -> f64 {
    let pts: Vec<(f64, f64)> = reports
        .iter()
        .map(|r| (r.resources.slices as f64, r.geomean_runtime_us()))
        .collect();
    stats::hypervolume(&pts, HV_REF_CHSTONE)
}

/// `paper-eval`: repeated passes of `evaluate_all` over the 13 presets ×
/// 8 kernels once set-up has filled the compile cache. The inputs are
/// fixed; the seed has nothing to draw.
fn paper_eval(ctx: &mut Ctx) {
    let r = reference(ctx);
    ctx.setup_done();
    let n = (r.machines.len() * r.ks.kernels.len()) as f64;
    while ctx.another_round() {
        tracer::next_op();
        let t = Instant::now();
        let out = {
            let _s = span("op.pass");
            pass(ctx, &r.machines, &r.ks.kernels)
        };
        let dt = t.elapsed().as_secs_f64();
        ctx.round_done(n as usize, dt);
        ctx.lat_ms.push(dt * 1e3);
        match out {
            Ok(reports) => {
                for rep in &reports {
                    for run in &rep.runs {
                        let want = r
                            .pairs
                            .get(&(rep.name.clone(), run.kernel.clone()))
                            .copied();
                        ctx.op(want == Some((run.cycles, run.image_bits)), || {
                            format!(
                                "{} on {}: ({}, {}) != set-up {want:?}",
                                run.kernel, rep.name, run.cycles, run.image_bits
                            )
                        });
                    }
                }
            }
            Err(e) => {
                for _ in 0..n as usize {
                    ctx.op(false, || format!("pass panicked: {e}"));
                }
            }
        }
    }
}

/// The PRNG seed of one seeded round of one process.
fn round_key(seed: u64, rep: u32, round: u64) -> u64 {
    seed ^ ((u64::from(rep) + 1) << 48) ^ (round << 32)
}

/// The cases of one fuzz-diff round: (generator seed, reactive?).
fn fuzz_cases(seed: u64, rep: u32, round: u64) -> Vec<(u64, bool)> {
    let key = if round < FUZZ_FIXED_ROUNDS {
        round
    } else {
        round_key(seed, rep, round)
    };
    let mut rng = Rng::new(key ^ 0xf022_d1ff);
    (0..FUZZ_CASES)
        .map(|_| (rng.next_u64(), rng.chance(1, FUZZ_REACTIVE_ONE_IN)))
        .collect()
}

fn fuzz_case(seed: u64, reactive: bool) -> (tta_ir::Module, IoSpec) {
    let _s = span("fuzz.gen");
    let cfg = GenConfig::default();
    if reactive {
        generate_reactive(seed, &cfg)
    } else {
        (generate(seed, &cfg), IoSpec::default())
    }
}

/// `fuzz-diff`: generated modules through the differential oracle on all
/// 13 presets; a seeded quarter of them are interrupt-schedule cases.
fn fuzz_diff(ctx: &mut Ctx) {
    let oracle = Oracle::all_presets();
    // Set-up replays the committed corpus, which must pass, and checks
    // that the oracle can fail: a planted mis-compilation of a corpus
    // case has to be flagged.
    match tta_fuzz::corpus::load_corpus() {
        Ok(corpus) => {
            for c in &corpus {
                let _s = span("fuzz.check");
                let clean = oracle.check_reactive(&c.module, &c.spec);
                ctx.setup_check(clean.is_ok(), || format!("corpus {}: {clean:?}", c.name));
            }
            let case = corpus
                .iter()
                .find(|c| c.planted.is_some_and(|b| !b.is_spec_bug()));
            ctx.setup_check(case.is_some(), || "no planted-bug corpus case".into());
            if let Some(c) = case {
                let bug = c.planted.expect("filtered on planted");
                let planted = Oracle {
                    planted: Some(bug),
                    ..Oracle::all_presets()
                };
                let flagged =
                    matches!(planted.check_reactive(&c.module, &c.spec), Err(d) if d.is_semantic());
                ctx.setup_check(flagged, || {
                    format!("{}: planted {} not flagged", c.name, bug.name())
                });
            }
        }
        Err(e) => ctx.setup_check(false, || format!("corpus: {e}")),
    }
    let machines = oracle.machines.clone();
    let mut round = if ctx.rep == 0 {
        ctx.min_rounds = FUZZ_FIXED_ROUNDS;
        0
    } else {
        FUZZ_FIXED_ROUNDS
    };
    ctx.setup_done();

    let mut cycles = vec![0u64; machines.len()];
    let mut log_cycles = vec![0f64; machines.len()];
    while ctx.another_round() {
        let cases = fuzz_cases(ctx.seed, ctx.rep, round);
        let t = Instant::now();
        let fixed = round < FUZZ_FIXED_ROUNDS;
        for &(case_seed, reactive) in &cases {
            tracer::next_op();
            let c0 = Instant::now();
            let _op = span("op.case");
            let (module, spec) = fuzz_case(case_seed, reactive);
            let out = {
                let _s = span("fuzz.check");
                catch_unwind(AssertUnwindSafe(|| oracle.check_reactive(&module, &spec)))
            };
            ctx.lat_ms.push(c0.elapsed().as_secs_f64() * 1e3);
            match out {
                Ok(Ok(report)) => {
                    for (i, run) in report.runs.iter().enumerate().filter(|_| fixed) {
                        cycles[i] += run.cycles;
                        log_cycles[i] += (run.cycles.max(1) as f64).ln();
                    }
                    ctx.op(true, String::new);
                }
                Ok(Err(d)) => ctx.op(false, || {
                    format!("case {case_seed} (reactive {reactive}): {d}")
                }),
                Err(p) => ctx.op(false, || {
                    format!("case {case_seed}: panic {}", panic_text(p))
                }),
            }
        }
        ctx.round_done(cases.len(), t.elapsed().as_secs_f64());
        if round + 1 == FUZZ_FIXED_ROUNDS {
            let n = (FUZZ_FIXED_ROUNDS as usize * FUZZ_CASES) as f64;
            ctx.guest_cycles = cycles.iter().map(|&c| c as f64).sum();
            let pts: Vec<(f64, f64)> = machines
                .iter()
                .zip(&log_cycles)
                .map(|(m, l)| {
                    let r = tta_fpga::estimate(m);
                    let geo = (l / n).exp();
                    (r.slices as f64, geo / r.fmax_mhz)
                })
                .collect();
            ctx.frontier_hv = stats::hypervolume(&pts, HV_REF_FUZZ);
        }
        round += 1;
    }

    // Image size is not in the oracle's report: compile the fixed input
    // set once more, after the timed phase, in the first process only.
    if ctx.rep == 0 && !ctx.traced {
        let mut bits = 0u64;
        for (case_seed, reactive) in (0..FUZZ_FIXED_ROUNDS).flat_map(|r| fuzz_cases(ctx.seed, 0, r))
        {
            let (module, _) = fuzz_case(case_seed, reactive);
            for m in &machines {
                if let Ok(c) = tta_compiler::compile(&module, m) {
                    bits += c.program.image_bits(m);
                }
            }
        }
        ctx.image_bits = bits as f64;
    }
}

/// `search-cold`: one seeded staged Pareto search on one worker thread,
/// starting with an empty compile cache (one search per process).
fn search_cold(ctx: &mut Ctx) {
    let ks = kernels(ctx);
    let params = SearchParams {
        seed: ctx.seed,
        threads: 1,
        ..SearchParams::default()
    };
    ctx.setup_done();

    tracer::next_op();
    let t = Instant::now();
    let out = {
        let _s = span("search.search");
        catch_unwind(AssertUnwindSafe(|| search::search(&params)))
    };
    let dt = t.elapsed().as_secs_f64();
    ctx.lat_ms.push(dt * 1e3);
    let outcome = match out {
        Ok(o) => o,
        Err(p) => {
            ctx.op(false, || format!("search panicked: {}", panic_text(p)));
            return;
        }
    };
    ctx.round_done(outcome.stats.configs as usize, dt);
    for (k, v) in [
        ("search.configs", outcome.stats.configs),
        ("search.analytic_pruned", outcome.stats.analytic_pruned),
        ("search.probed", outcome.stats.probed),
        ("search.probe_pruned", outcome.stats.probe_pruned),
        ("search.full_evals", outcome.stats.full_evals),
        ("search.inserted", outcome.stats.inserted),
        ("search.frontier_size", outcome.frontier.len() as u64),
    ] {
        ctx.add(k, v as f64);
    }

    // Checks, untimed: a true Pareto set, no point below its cycle lower
    // bound, and every point reproduced by a fresh `evaluate`.
    let f = &outcome.frontier;
    let mut problems = Vec::new();
    for a in f {
        if let Some(b) = f.iter().find(|b| search::dominates(b, a)) {
            problems.push(format!("{} dominated by {}", a.name, b.name));
        }
    }
    let (mut cycles, mut bits) = (0u64, 0u64);
    for p in f {
        let Some(cfg) = p.config else {
            problems.push(format!("{}: frontier point without a config", p.name));
            continue;
        };
        let m = cfg.build();
        let lb_geo = (ks
            .demands
            .iter()
            .map(|d| (search::cycle_lower_bound(d, &m).max(1) as f64).ln())
            .sum::<f64>()
            / ks.demands.len() as f64)
            .exp();
        if p.geomean_cycles < lb_geo * (1.0 - 1e-12) {
            problems.push(format!(
                "{}: geomean {} < bound {lb_geo}",
                p.name, p.geomean_cycles
            ));
        }
        let _s = span("op.recheck");
        match catch_unwind(AssertUnwindSafe(|| {
            eval::evaluate(std::slice::from_ref(&m), &ks.kernels)
        })) {
            Ok(reports) => {
                let r = &reports[0];
                let g = r.geomean_cycles();
                if (g - p.geomean_cycles).abs() > 1e-9 * g {
                    problems.push(format!(
                        "{}: re-evaluated geomean {g} != {}",
                        p.name, p.geomean_cycles
                    ));
                }
                cycles += r.runs.iter().map(|k| k.cycles).sum::<u64>();
                bits += r.runs.iter().map(|k| k.image_bits).sum::<u64>();
            }
            Err(e) => problems.push(format!(
                "{}: re-evaluation panicked: {}",
                p.name,
                panic_text(e)
            )),
        }
    }
    // Per frontier point, so a seed that adds or drops one point moves
    // these little.
    let points = f.len().max(1) as f64;
    ctx.guest_cycles = cycles as f64 / points;
    ctx.image_bits = bits as f64 / points;
    let pts: Vec<(f64, f64)> = f.iter().map(|p| (p.slices as f64, p.runtime_us)).collect();
    ctx.frontier_hv = stats::hypervolume(&pts, HV_REF_CHSTONE);
    let ok = problems.is_empty() && !f.is_empty();
    ctx.op(ok, || format!("search frontier: {}", problems.join("; ")));

    if ctx.traced {
        // The search profiles frontier parents inside one span with the
        // rest of its simulations; time that step on the final frontier.
        let probe = ks
            .prepared
            .iter()
            .min_by_key(|p| (p.golden_stats.insts, p.name))
            .expect("kernels");
        let t = Instant::now();
        for p in f.iter().filter_map(|p| p.config) {
            let m = p.build();
            let (compiled, _) = lookup(probe, &m);
            let _s = span("search.profile");
            let _ = tta_sim::run_profiled(&m, &compiled.program, probe.module.initial_memory());
        }
        ctx.add("search.profile_s", t.elapsed().as_secs_f64());
        // The analytic stage runs the FPGA estimate on every config; time
        // that call over the whole space.
        for cfg in tta_model::gen::enumerate_space() {
            let m = cfg.build();
            let _s = span("fpga.estimate");
            std::hint::black_box(tta_fpga::estimate(&m));
            ctx.add("fpga.estimates", 1.0);
        }
    }
}

/// One serve-batch round: every pair `SERVE_PAIR_REPEATS` times, in an
/// order drawn from the seed, process and round, cut into batches of
/// 1–8 jobs.
fn serve_round(
    seed: u64,
    rep: u32,
    round: u64,
    machines: &[Machine],
    ks: &[Kernel],
) -> Vec<Vec<schema::JobSpec>> {
    let mut jobs: Vec<schema::JobSpec> = Vec::new();
    for _ in 0..SERVE_PAIR_REPEATS {
        for m in machines {
            for k in ks {
                jobs.push(schema::JobSpec {
                    machine: m.name.clone(),
                    kernel: k.name.to_string(),
                });
            }
        }
    }
    let mut rng = Rng::new(round_key(seed, rep, round) ^ 0x5e7e_ba7c);
    for i in (1..jobs.len()).rev() {
        jobs.swap(i, rng.below(i + 1));
    }
    let mut batches = Vec::new();
    let mut rest = jobs.as_slice();
    while !rest.is_empty() {
        let n = rng.range(SERVE_BATCH.0, SERVE_BATCH.1 + 1).min(rest.len());
        batches.push(rest[..n].to_vec());
        rest = &rest[n..];
    }
    batches
}

/// One streamed job line: (machine, kernel, cycles, image bits).
type JobOutcome = Result<(String, String, u64, u64), String>;

/// One request; returns (client latency ms, response bytes, per-job
/// outcomes) or why it failed as a whole.
fn post(
    addr: std::net::SocketAddr,
    batch: &[schema::JobSpec],
) -> Result<(f64, usize, Vec<JobOutcome>), String> {
    let body = schema::batch_to_json(batch, None).to_compact();
    let _s = span("serve.request");
    let resp = client::post_streaming(addr, "/v1/batch", &body, Duration::from_secs(120))
        .map_err(|e| format!("post: {e}"))?;
    if resp.status != 200 {
        return Err(format!("status {}", resp.status));
    }
    let summary = resp.lines.last().ok_or("empty response")?;
    let bytes = resp.lines.iter().map(|l| l.text.len() + 1).sum();
    let jobs = resp.lines[..resp.lines.len() - 1]
        .iter()
        .map(|l| {
            let doc = json::parse(&l.text).map_err(|e| format!("line: {e:?}"))?;
            if doc.get("ok") != Some(&Json::Bool(true)) {
                return Err(format!("job failed: {}", l.text));
            }
            let rep = doc.get("report").ok_or("no report")?;
            let s = |k: &str| rep.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            let n = |k: &str| rep.get(k).and_then(Json::as_f64).unwrap_or(-1.0) as u64;
            Ok((s("machine"), s("kernel"), n("cycles"), n("image_bits")))
        })
        .collect();
    Ok((summary.at.as_secs_f64() * 1e3, bytes, jobs))
}

/// `serve-batch`: a closed loop, one client and one connection at a time,
/// against an in-process `tta-serve` whose compile cache is warm.
fn serve_batch(ctx: &mut Ctx) {
    let r = reference(ctx);
    let server = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        sim_threads: 1,
        conn_threads: 1,
        ..ServerConfig::default()
    })
    .expect("bind the server on loopback");
    let addr = server.addr();
    // Warm the server's kernel memo with one batch of every pair.
    let all: Vec<schema::JobSpec> = serve_round(ctx.seed, 0, 0, &r.machines, &r.ks.kernels)
        .into_iter()
        .flatten()
        .collect();
    let warm = post(addr, &all);
    ctx.setup_check(
        warm.as_ref().is_ok_and(|w| w.2.iter().all(|j| j.is_ok())),
        || format!("warm-up batch: {:?}", warm.as_ref().err()),
    );
    // Server-side totals are read as differences over the timed phase.
    let server_totals = || {
        let (req_s, req_n) = tta_obs::span::stat("serve.request").unwrap_or((0.0, 0));
        let wait = tta_obs::hist::get("serve.sim.queue_wait_us");
        let (wait_us, waits) = wait.map_or((0, 0), |h| (h.sum, h.count));
        [req_s, req_n as f64, wait_us as f64 * 1e-6, waits as f64]
    };
    let before = server_totals();
    ctx.setup_done();

    let (mut round_cycles, mut round_bits) = (0u64, 0u64);
    // Served cycles of round 0 per machine, summed in a fixed order below
    // so the hypervolume does not depend on the round's job order.
    let mut served: BTreeMap<(String, String), Vec<u64>> = BTreeMap::new();
    let (mut bytes, mut requests, mut jobs_served) = (0usize, 0usize, 0usize);
    let (mut direct_s, mut client_ms) = (0.0, 0.0);
    let mut round = 0u64;
    while ctx.another_round() {
        let batches = serve_round(ctx.seed, ctx.rep, round, &r.machines, &r.ks.kernels);
        let first_round = round == 0;
        round += 1;
        let n_jobs = all.len();
        let t = Instant::now();
        for batch in &batches {
            tracer::next_op();
            let _op = span("op.request");
            match post(addr, batch) {
                Ok((ms, b, jobs)) => {
                    ctx.lat_ms.push(ms);
                    client_ms += ms;
                    bytes += b;
                    requests += 1;
                    jobs_served += batch.len();
                    let mut got = 0;
                    for j in jobs {
                        got += 1;
                        match j {
                            Ok((m, k, cycles, bits)) => {
                                let want = r.pairs.get(&(m.clone(), k.clone())).copied();
                                ctx.op(want == Some((cycles, bits)), || {
                                    format!("{k} on {m}: served ({cycles}, {bits}) != evaluate_all {want:?}")
                                });
                                if first_round {
                                    round_cycles += cycles;
                                    round_bits += bits;
                                    served.entry((m, k)).or_default().push(cycles);
                                }
                            }
                            Err(e) => ctx.op(false, || e),
                        }
                    }
                    for _ in got..batch.len() {
                        ctx.op(false, || "job line missing".into());
                    }
                }
                Err(e) => {
                    ctx.lat_ms.push(f64::NAN);
                    for _ in batch {
                        ctx.op(false, || format!("request: {e}"));
                    }
                }
            }
        }
        ctx.round_done(n_jobs, t.elapsed().as_secs_f64());
        if first_round {
            ctx.guest_cycles = round_cycles as f64;
            ctx.image_bits = round_bits as f64;
            let pts: Vec<(f64, f64)> = r
                .machines
                .iter()
                .map(|m| {
                    let res = tta_fpga::estimate(m);
                    let logs: Vec<f64> = served
                        .iter()
                        .filter(|((name, _), _)| *name == m.name)
                        .flat_map(|(_, c)| c.iter().map(|&c| (c.max(1) as f64).ln()))
                        .collect();
                    let geo = (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp();
                    (res.slices as f64, geo / res.fmax_mhz)
                })
                .collect();
            ctx.frontier_hv = stats::hypervolume(&pts, HV_REF_CHSTONE);
        }
        if ctx.traced {
            // The same jobs called directly, for the server's own share
            // of each request's latency.
            let prepared: HashMap<&str, &PreparedKernel> =
                r.ks.prepared.iter().map(|p| (p.name, p)).collect();
            let by_name: HashMap<&str, &Machine> =
                r.machines.iter().map(|m| (m.name.as_str(), m)).collect();
            let t = Instant::now();
            for batch in &batches {
                let _s = span("serve.direct");
                for j in batch {
                    eval::run_prepared(prepared[j.kernel.as_str()], by_name[j.machine.as_str()]);
                }
            }
            direct_s += t.elapsed().as_secs_f64();
        }
    }
    let after = server_totals();
    server.shutdown();
    ctx.lat_ms.retain(|v| v.is_finite());
    for (i, k) in [
        "serve.server_s",
        "serve.server_requests",
        "queue.wait_s",
        "queue.waits",
    ]
    .into_iter()
    .enumerate()
    {
        ctx.add(k, after[i] - before[i]);
    }
    ctx.add("serve.client_ms", client_ms);
    ctx.add("serve.bytes", bytes as f64);
    ctx.add("serve.requests", requests as f64);
    ctx.add("serve.jobs", jobs_served as f64);
    ctx.add("serve.direct_s", direct_s);
}
