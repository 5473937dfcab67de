//! `simulate`: the Table 1 kernels plus the branchy catalogue kernels at a
//! large n on all nine targets, each under the flat tier (threaded loop) and
//! the in-order tier (metered loop), on engines warmed during set-up.

use crate::common::{code_bytes, offline, options, run_case, side_by_side, timed_setup, Report};
use crate::gen::{result_bits, Case};
use crate::stats::{quantile, sustained};
use crate::trace::Tracer;
use crate::Config;
use splitc_runtime::{ExecutionEngine, FramePool};
use splitc_targets::{SimStats, TargetDesc, TimingKind};
use splitc_workloads::{kernel, Kernel};
use std::time::Instant;

/// Elements per kernel (the hot/cold kernels scale their outer loop to it).
pub const N: usize = 4096;

/// The six Table 1 kernels, then the catalogue kernels with branchy or
/// loop-carried control that the in-order tier's predictor sees.
pub const KERNELS: [&str; 13] = [
    "vecadd_f32",
    "saxpy_f32",
    "dscal_f32",
    "max_u8",
    "sum_u8",
    "sum_u16",
    "histogram_u8",
    "prefix_sum_i32",
    "threshold_u8",
    "hotcold_f32",
    "hotcold_i32",
    "horner_f32",
    "fir4_f32",
];

pub struct Setup {
    pub cases: Vec<Case>,
    pub engines: Vec<ExecutionEngine>,
    pub flat: Vec<TargetDesc>,
    pub inorder: Vec<TargetDesc>,
}

fn kernels() -> Result<Vec<Kernel>, String> {
    KERNELS
        .iter()
        .map(|name| kernel(name).ok_or_else(|| format!("kernel {name} is not in the catalogue")))
        .collect()
}

/// The preset targets under the flat tier, and under the in-order tier.
fn tiers() -> (Vec<TargetDesc>, Vec<TargetDesc>) {
    let flat = TargetDesc::presets();
    let inorder = flat
        .iter()
        .map(|t| t.clone().with_timing(TimingKind::InOrder))
        .collect();
    (flat, inorder)
}

pub fn setup(seed: u64, n: usize) -> Result<Setup, String> {
    let (flat, inorder) = tiers();
    let opts = options();
    let mut cases = Vec::with_capacity(KERNELS.len());
    let mut engines = Vec::with_capacity(KERNELS.len());
    let mut quiet = Tracer::new(false);
    for k in kernels()? {
        let name = k.name;
        let (module, _) = offline(&k, &mut quiet)?;
        let engine = ExecutionEngine::new(module);
        engine
            .precompile(flat.iter().chain(&inorder), &opts)
            .map_err(|e| format!("{name}: {e}"))?;
        engines.push(engine);
        cases.push(Case::new(name, n, seed));
    }
    Ok(Setup {
        cases,
        engines,
        flat,
        inorder,
    })
}

/// Host time and simulated work of one round.
#[derive(Debug, Default)]
pub struct Round {
    /// The whole round: lookups, runs and checks.
    pub ns: u64,
    /// 90th percentile over the round's runs, both tiers.
    pub run_p90_ns: f64,
    pub flat_ns: u64,
    pub inorder_ns: u64,
    pub flat: SimStats,
    pub inorder: SimStats,
}

/// Accumulate the counters the metrics read.
pub fn add_stats(total: &mut SimStats, s: &SimStats) {
    total.cycles += s.cycles;
    total.instructions += s.instructions;
    total.spill_stores += s.spill_stores;
    total.spill_reloads += s.spill_reloads;
    total.stalls += s.stalls;
    total.mispredicts += s.mispredicts;
}

/// The architectural counters, which both tiers must agree on.
fn architectural(s: &SimStats) -> [u64; 7] {
    [
        s.instructions,
        s.loads,
        s.stores,
        s.spill_stores,
        s.spill_reloads,
        s.branches,
        s.vector_ops,
    ]
}

/// One round: every kernel on every target under both tiers, all checked.
pub fn round(s: &Setup, tr: &mut Tracer, report: &mut Report) -> Round {
    let round_start = Instant::now();
    let opts = options();
    let mut out = Round::default();
    let (mut mem_flat, mut mem_io) = (Vec::new(), Vec::new());
    let mut pool = FramePool::new();
    let mut latencies_ns = Vec::with_capacity(2 * s.cases.len() * s.flat.len());
    for (case, engine) in s.cases.iter().zip(&s.engines) {
        for (flat_t, io_t) in s.flat.iter().zip(&s.inorder) {
            let (flat, io) = match (
                engine.program_for(flat_t, &opts),
                engine.program_for(io_t, &opts),
            ) {
                (Ok(f), Ok(i)) => (f, i),
                (Err(e), _) | (_, Err(e)) => {
                    report.op(Err(format!("{} on {}: {e}", case.kernel, flat_t.name)));
                    report.op(Err("in-order tier not run".into()));
                    continue;
                }
            };
            let span = tr.begin("simulate.run.flat");
            let t = Instant::now();
            let ran_flat = run_case(&flat, case, &mut mem_flat, &mut pool);
            let ns = t.elapsed().as_nanos() as u64;
            out.flat_ns += ns;
            latencies_ns.push(ns);
            tr.end(span);
            let span = tr.begin("simulate.run.inorder");
            let t = Instant::now();
            let ran_io = run_case(&io, case, &mut mem_io, &mut pool);
            let ns = t.elapsed().as_nanos() as u64;
            out.inorder_ns += ns;
            latencies_ns.push(ns);
            tr.end(span);
            let where_ = || format!("{} on {}", case.kernel, flat_t.name);
            let (rf, sf) = match ran_flat {
                Ok(r) => r,
                Err(e) => {
                    report.op(Err(format!("{}: {e}", where_())));
                    report.op(Err("in-order tier not compared".into()));
                    continue;
                }
            };
            add_stats(&mut out.flat, &sf);
            report.op(case
                .check(rf, &mem_flat)
                .map_err(|e| format!("{e} on {}", flat_t.name)));
            report.op(ran_io
                .map_err(|e| format!("{} in order: {e}", where_()))
                .and_then(|(ri, si)| {
                    add_stats(&mut out.inorder, &si);
                    case.check(ri, &mem_io)?;
                    if result_bits(ri) != result_bits(rf) || mem_io != mem_flat {
                        return Err(format!("{}: tiers disagree on results or memory", where_()));
                    }
                    if architectural(&si) != architectural(&sf) {
                        return Err(format!(
                            "{}: tiers disagree on architectural stats",
                            where_()
                        ));
                    }
                    if si.predicted + si.mispredicts != si.branches || si.cycles < si.instructions {
                        return Err(format!(
                            "{}: in-order timing stats inconsistent: {si:?}",
                            where_()
                        ));
                    }
                    Ok(())
                }));
        }
    }
    out.run_p90_ns = quantile(&mut latencies_ns, 0.90);
    out.ns = round_start.elapsed().as_nanos() as u64;
    out
}

pub fn run(cfg: &Config, tr: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let (flat, inorder) = tiers();
    let targets: Vec<TargetDesc> = flat.into_iter().chain(inorder).collect();
    let (wire_bytes, native_bytes) = code_bytes(&kernels()?, &targets)?;
    let (s, setup_s) = timed_setup(true, || setup(cfg.seed, N))?;
    let rounds = side_by_side(cfg.seconds, tr, report, |tr, report| {
        Ok(round(&s, tr, report))
    })?;
    let first = rounds.first().ok_or("no simulate round completed")?;
    let mips: Vec<f64> = rounds
        .iter()
        .map(|r| r.flat.instructions as f64 / r.flat_ns as f64 * 1e3)
        .collect();
    let mips_io: Vec<f64> = rounds
        .iter()
        .map(|r| r.inorder.instructions as f64 / r.inorder_ns as f64 * 1e3)
        .collect();
    let round: Vec<f64> = rounds.iter().map(|r| r.ns as f64 / 1e6).collect();
    let p90: Vec<f64> = rounds.iter().map(|r| r.run_p90_ns / 1e3).collect();
    report.metric("setup_s", setup_s, "s");
    report.metric("round_ms", sustained(&round, false), "ms");
    report.metric("op_p90_us", sustained(&p90, false), "us");
    report.metric("sim_cycles", first.flat.cycles as f64, "cycles");
    report.metric("wire_bytes", wire_bytes as f64, "bytes");
    report.metric("native_bytes", native_bytes as f64, "bytes");
    report.detail("sim_mips", sustained(&mips, true), "Minst/s");
    report.detail("sim_mips_inorder", sustained(&mips_io, true), "Minst/s");
    Ok(())
}
