//! The traced run's layer probe: one instrumented walk through every layer,
//! calling each layer's public entry point directly so its cost is timed on
//! its own, plus the per-layer metric table built from the spans.
//!
//! The per-layer metrics come from the probe alone, so every traced run
//! reports the same layers under the same conditions. The traced workload
//! loop that follows adds its spans to the trace file and gives the traced
//! end-to-end figures (the tracing overhead).

use crate::common::{offline, options, Report};
use crate::gen::Case;
use crate::serve;
use crate::simulate::{add_stats, KERNELS as SIM_KERNELS};
use crate::stats::{median_f64, pearson};
use crate::trace::Tracer;
use crate::Config;
use splitc_jit::compile_module;
use splitc_runtime::{
    ArtifactStore, ExecutionEngine, FramePool, PreparedProgram, StoreKey, StoreLoad,
};
use splitc_targets::{Fnv1a, SimStats, TargetDesc, TimingKind, DEFAULT_SIM_FUEL};
use splitc_vbc::Module;
use splitc_vbc::{decode_module, encode_module, verify_module};
use splitc_workloads::{all_kernels, table1_kernels};
use std::collections::BTreeMap;

/// Decomposed catalogue deploys per probe (153 JIT compiles each).
const PROBE_PASSES: usize = 4;
/// Elements per kernel in the executor probe.
const PROBE_N: usize = 1024;
/// Serve rounds in the probe.
const PROBE_SERVE_ROUNDS: usize = 5;

/// The per-layer metrics, by name and unit, in the order they print.
pub const METRICS: [(&str, &str); 32] = [
    ("minic.compile_us", "us"),
    ("opt.optimize_us", "us"),
    ("opt.offline_work", "units"),
    ("opt.vectorized_loops", "count"),
    ("vbc.encode_us", "us"),
    ("vbc.decode_us", "us"),
    ("vbc.verify_us", "us"),
    ("jit.compile_us", "us"),
    ("jit.work_units", "units"),
    ("jit.work_wall_r", "r"),
    ("jit.static_spills", "count"),
    ("jit.native_insts", "count"),
    ("targets.prepare_us", "us"),
    ("targets.threaded_ns_per_inst", "ns"),
    ("targets.metered_ns_per_inst", "ns"),
    ("targets.inorder_ns_per_inst", "ns"),
    ("targets.instructions", "count"),
    ("targets.spill_ops", "count"),
    ("targets.fused_records", "count"),
    ("targets.stalls", "count"),
    ("targets.mispredicts", "count"),
    ("runtime.engine.lookup_us", "us"),
    ("runtime.engine.compiles", "count"),
    ("runtime.engine.hit_ratio", "ratio"),
    ("runtime.store.save_us", "us"),
    ("runtime.store.load_us", "us"),
    ("runtime.store.entry_bytes", "bytes"),
    ("runtime.serve.submit_us", "us"),
    ("runtime.serve.queue_wait_p50_us", "us"),
    ("runtime.serve.queue_wait_p99_us", "us"),
    ("runtime.serve.execute_p50_us", "us"),
    ("runtime.serve.batch_mean", "count"),
];

/// Walk every layer once (the deploy decomposition [`PROBE_PASSES`] times).
pub fn probe(cfg: &Config, tr: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let store_dir = cfg
        .out_dir
        .join(format!("probe-store-{}", std::process::id()));
    let result = probe_in(cfg, &store_dir, tr, report);
    let _ = std::fs::remove_dir_all(&store_dir);
    result
}

fn probe_in(
    cfg: &Config,
    store_dir: &std::path::Path,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let store = ArtifactStore::open(store_dir).map_err(|e| format!("artifact store: {e}"))?;
    let opts = options();
    let targets = TargetDesc::presets();
    let (mut work, mut wall) = (Vec::new(), Vec::new());
    let mut modules = Vec::new();
    for pass in 0..PROBE_PASSES {
        let first = pass == 0;
        let mut flat_programs = Vec::new();
        for k in all_kernels() {
            let (module, opt) = offline(&k, tr)?;
            let s = tr.begin("vbc.encode_module");
            let bytes = encode_module(&module);
            tr.end(s);
            let s = tr.begin("vbc.decode_module");
            let decoded = decode_module(&bytes);
            tr.end(s);
            let decoded = decoded.map_err(|e| format!("{}: decode: {e}", k.name))?;
            let s = tr.begin("vbc.verify_module");
            let verified = verify_module(&decoded);
            tr.end(s);
            verified.map_err(|e| format!("{}: verify: {e}", k.name))?;
            if first {
                tr.add("opt.offline_work", opt.offline_work as f64);
                tr.add("opt.vectorized_loops", opt.total_vectorized() as f64);
            }
            let module_fp = Fnv1a::hash(&bytes);
            for target in &targets {
                let s = tr.begin("jit.compile_module");
                let compiled = compile_module(&decoded, target, &opts);
                let ns = tr.end(s);
                let (program, jit) =
                    compiled.map_err(|e| format!("{} on {}: {e}", k.name, target.name))?;
                work.push(jit.total_work() as f64);
                wall.push(ns as f64);
                let s = tr.begin("targets.prepare");
                let prepared = PreparedProgram::prepare_with(&program, target, opts.fuse);
                tr.end(s);
                let prepared =
                    prepared.map_err(|e| format!("{} on {}: {e}", k.name, target.name))?;
                if first {
                    // Store entries are written once per probe: file churn on
                    // a virtual disk slows everything after it.
                    let key = StoreKey {
                        module_fp,
                        target_fp: target.fingerprint(),
                        options_fp: opts.fingerprint(),
                    };
                    let s = tr.begin("runtime.store.save");
                    let saved = store.save(&key, &program, &jit);
                    tr.end(s);
                    let s = tr.begin("runtime.store.load");
                    let loaded = store.load(&key);
                    tr.end(s);
                    report.op(match loaded {
                        StoreLoad::Hit(a) if saved && a.program == program && a.jit == jit => {
                            Ok(())
                        }
                        _ => Err(format!(
                            "{} on {}: store round trip failed",
                            k.name, target.name
                        )),
                    });
                    let size = std::fs::metadata(store.entry_path(&key)).map_or(0, |m| m.len());
                    tr.add("runtime.store.entry_bytes", size as f64);
                    tr.add("jit.static_spills", jit.static_spills as f64);
                    tr.add("jit.native_insts", program.num_insts() as f64);
                    if SIM_KERNELS.contains(&k.name) {
                        tr.add(
                            "targets.fused_records",
                            prepared.fusion_stats().total() as f64,
                        );
                        flat_programs.push((k.name, target.clone(), prepared));
                    }
                }
            }
            if first {
                modules.push((k.name, decoded));
            }
        }
        if first {
            executors(cfg.seed, &modules, &flat_programs, tr, report)?;
        }
    }
    tr.set("jit.work_units", median_f64(&work));
    tr.set("jit.work_wall_r", pearson(&work, &wall));
    engine_lookups(cfg.seed, modules, tr)?;
    let s = serve::setup(cfg.seed)?;
    let out = serve::session(s, 0.0, PROBE_SERVE_ROUNDS, tr, report);
    serve::record_layers(&out.stats, tr);
    Ok(())
}

/// The three execution loops on the simulate kernels: threaded and metered
/// over the flat-tier programs, and the in-order tier.
fn executors(
    seed: u64,
    modules: &[(&'static str, Module)],
    programs: &[(&'static str, splitc_targets::TargetDesc, PreparedProgram)],
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let opts = options();
    let mut pool = FramePool::new();
    let mut mem = Vec::new();
    // Totals of the threaded, metered and in-order runs.
    let mut totals = [SimStats::default(); 3];
    let mut cases: BTreeMap<&str, Case> = BTreeMap::new();
    for (name, target, prepared) in programs {
        let case = cases
            .entry(name)
            .or_insert_with(|| Case::new(name, PROBE_N, seed));
        let io_target = target.clone().with_timing(TimingKind::InOrder);
        // The module is recompiled for the in-order target as the engine
        // would: the timing tier is part of the target's identity.
        let module = &modules
            .iter()
            .find(|(n, _)| n == name)
            .expect("every probed kernel was deployed")
            .1;
        let (program, _) = compile_module(module, &io_target, &opts).map_err(|e| e.to_string())?;
        let io = PreparedProgram::prepare_with(&program, &io_target, opts.fuse)
            .map_err(|e| e.to_string())?;
        let runs = [
            ("targets.run.threaded", "targets.insts.threaded", prepared),
            ("targets.run.metered", "targets.insts.metered", prepared),
            ("targets.run.inorder", "targets.insts.inorder", &io),
        ];
        for (i, (label, insts_key, prog)) in runs.into_iter().enumerate() {
            mem.clear();
            mem.extend_from_slice(&case.image);
            let mut stats = SimStats::default();
            let (args, fuel) = (&case.args, DEFAULT_SIM_FUEL);
            let s = tr.begin(label);
            let ran = if i == 1 {
                prog.run_metered(name, args, &mut mem, &mut pool, fuel, &mut stats)
            } else {
                prog.run(name, args, &mut mem, &mut pool, fuel, &mut stats)
            };
            tr.end(s);
            tr.add(insts_key, stats.instructions as f64);
            report.op(ran
                .map_err(|e| e.to_string())
                .and_then(|r| case.check(r, &mem)));
            add_stats(&mut totals[i], &stats);
        }
    }
    let [flat, _, inorder] = totals;
    tr.set("targets.instructions", flat.instructions as f64);
    tr.set(
        "targets.spill_ops",
        (flat.spill_stores + flat.spill_reloads) as f64,
    );
    tr.set("targets.stalls", inorder.stalls as f64);
    tr.set("targets.mispredicts", inorder.mispredicts as f64);
    Ok(())
}

/// Cold engine deploys of the catalogue (compile count), then cache hits
/// timed over one round of the serve workload's key sequence.
fn engine_lookups(
    seed: u64,
    modules: Vec<(&'static str, Module)>,
    tr: &mut Tracer,
) -> Result<(), String> {
    let opts = options();
    let targets = TargetDesc::presets();
    let engines: Vec<(&str, ExecutionEngine)> = modules
        .into_iter()
        .map(|(n, m)| (n, ExecutionEngine::new(m)))
        .collect();
    let mut compiles = 0;
    for (name, engine) in &engines {
        engine
            .precompile(&targets, &opts)
            .map_err(|e| format!("{name}: {e}"))?;
        compiles += engine.stats().compiles;
    }
    tr.set("runtime.engine.compiles", compiles as f64);
    let table1: Vec<&ExecutionEngine> = table1_kernels()
        .iter()
        .filter_map(|k| engines.iter().find(|(n, _)| *n == k.name).map(|(_, e)| e))
        .collect();
    let (keys, sequence) = serve::key_sequence(seed, table1.len(), targets.len());
    for &key in &sequence {
        let (m, t) = keys[key];
        let s = tr.begin("runtime.engine.lookup");
        let hit = table1[m].program_for(&targets[t], &opts);
        tr.end(s);
        hit.map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The per-layer metrics from the recorded spans and counters.
pub fn metrics(tr: &Tracer) -> Vec<(&'static str, f64, &'static str)> {
    let per_inst = |run: &str, insts: &str| tr.total_ns(run) / tr.counter(insts);
    METRICS
        .iter()
        .map(|&(name, unit)| {
            let v = match name {
                "minic.compile_us" => tr.median_us("minic.compile_source"),
                "opt.optimize_us" => tr.median_us("opt.optimize_module"),
                "vbc.encode_us" => tr.median_us("vbc.encode_module"),
                "vbc.decode_us" => tr.median_us("vbc.decode_module"),
                "vbc.verify_us" => tr.median_us("vbc.verify_module"),
                "jit.compile_us" => tr.median_us("jit.compile_module"),
                "targets.prepare_us" => tr.median_us("targets.prepare"),
                "targets.threaded_ns_per_inst" => {
                    per_inst("targets.run.threaded", "targets.insts.threaded")
                }
                "targets.metered_ns_per_inst" => {
                    per_inst("targets.run.metered", "targets.insts.metered")
                }
                "targets.inorder_ns_per_inst" => {
                    per_inst("targets.run.inorder", "targets.insts.inorder")
                }
                "runtime.engine.lookup_us" => tr.median_us("runtime.engine.lookup"),
                "runtime.store.save_us" => tr.median_us("runtime.store.save"),
                "runtime.store.load_us" => tr.median_us("runtime.store.load"),
                "runtime.serve.submit_us" => tr.median_us("runtime.serve.submit"),
                counter => tr.counter(counter),
            };
            (name, v, unit)
        })
        .collect()
}
