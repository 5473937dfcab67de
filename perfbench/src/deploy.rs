//! `deploy`: the full catalogue, one module per kernel, onto all nine preset
//! targets. Each pass compiles offline to wire bytes, then deploys cold
//! (fresh engines, nothing compiled anywhere) and warm (fresh engines over
//! the artifact store), checking all 153 first results each time.
//!
//! The store is filled once per run, before the measured passes, by a cold
//! deploy with the empty store attached. Writing store entries creates and
//! renames files, and on a virtual disk that journal traffic swings from
//! 30 µs to 650 µs per entry from minute to minute. So the passes time no
//! disk writes; the write cost is the traced run's `runtime.store.save_us`.

use crate::common::{code_bytes, offline, options, run_case, side_by_side, timed_setup, Report};
use crate::gen::{result_bits, Case};
use crate::stats::{quantile, sustained};
use crate::trace::Tracer;
use crate::Config;
use splitc_runtime::{ArtifactStore, CacheStats, ExecutionEngine, FramePool};
use splitc_targets::{Fnv1a, SimStats, TargetDesc};
use splitc_vbc::{decode_module, encode_module};
use splitc_workloads::{all_kernels, Kernel};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Elements per kernel: small, so compiling dominates and running is cheap.
pub const N: usize = 64;

struct Setup {
    kernels: Vec<Kernel>,
    cases: Vec<Case>,
    targets: Vec<TargetDesc>,
}

/// One deployed (module, target) pair: its checked outcome and what every
/// other deploy of the pair must reproduce bit for bit.
struct Pair {
    outcome: Result<(), String>,
    result: u64,
    stats: SimStats,
    mem: Vec<u8>,
}

impl Pair {
    fn failed(error: String) -> Pair {
        Pair {
            outcome: Err(error),
            result: 0,
            stats: SimStats::default(),
            mem: Vec::new(),
        }
    }

    /// This pair's outcome, failed also when it differs from `reference`.
    fn matches(&self, reference: &Pair, what: &str) -> Result<(), String> {
        self.outcome.clone()?;
        reference.outcome.clone()?;
        if (self.result, self.stats, &self.mem)
            != (reference.result, reference.stats, &reference.mem)
        {
            return Err(format!("{what} differs from the store-filling deploy"));
        }
        Ok(())
    }
}

struct Deployed {
    ns: u64,
    pairs: Vec<Pair>,
    /// Per pair: its engine lookup (compile or store load) and first run.
    latencies_ns: Vec<u64>,
    /// Per-module cache counters, read after the timed region.
    engines: Vec<CacheStats>,
}

fn setup(cfg: &Config) -> Result<Setup, String> {
    let kernels = all_kernels();
    let cases = kernels
        .iter()
        .map(|k| Case::new(k.name, N, cfg.seed))
        .collect();
    let s = Setup {
        kernels,
        cases,
        targets: TargetDesc::presets(),
    };
    // One offline compile and cold deploy fill lazy statics and the
    // allocator before anything is measured.
    let wire = compile_all(&s, &mut Tracer::new(false))?;
    deploy(&s, &wire, None, &mut Tracer::new(false));
    Ok(s)
}

/// Offline step for the whole catalogue: source → optimized bytecode → wire.
fn compile_all(s: &Setup, tr: &mut Tracer) -> Result<Vec<Vec<u8>>, String> {
    let span = tr.begin("deploy.offline");
    let mut wire = Vec::with_capacity(s.kernels.len());
    for k in &s.kernels {
        let (module, _) = offline(k, tr)?;
        let e = tr.begin("vbc.encode_module");
        wire.push(encode_module(&module));
        tr.end(e);
    }
    tr.end(span);
    Ok(wire)
}

/// Decode every module into a fresh engine (over `store`, if given) and run
/// each kernel once on every target.
fn deploy(
    s: &Setup,
    wire: &[Vec<u8>],
    store: Option<&Arc<ArtifactStore>>,
    tr: &mut Tracer,
) -> Deployed {
    let span = tr.begin(if store.is_some() {
        "deploy.warm"
    } else {
        "deploy.cold"
    });
    let opts = options();
    let mut pool = FramePool::new();
    let mut pairs = Vec::with_capacity(wire.len() * s.targets.len());
    let mut latencies_ns = Vec::with_capacity(pairs.capacity());
    let mut engines = Vec::with_capacity(wire.len());
    let start = Instant::now();
    for (bytes, case) in wire.iter().zip(&s.cases) {
        let d = tr.begin("vbc.decode_module");
        let module = decode_module(bytes);
        tr.end(d);
        let engine = match module {
            Ok(m) => match store {
                Some(st) => {
                    ExecutionEngine::new(m).with_store_keyed(Arc::clone(st), Fnv1a::hash(bytes))
                }
                None => ExecutionEngine::new(m),
            },
            Err(e) => {
                for _ in &s.targets {
                    pairs.push(Pair::failed(format!("{}: decode: {e}", case.kernel)));
                }
                engines.push(None);
                continue;
            }
        };
        for target in &s.targets {
            let pair_start = Instant::now();
            let l = tr.begin("runtime.engine.program_for");
            let compiled = engine.program_for(target, &opts);
            tr.end(l);
            let compiled = match compiled {
                Ok(c) => c,
                Err(e) => {
                    pairs.push(Pair::failed(format!(
                        "{} on {}: {e}",
                        case.kernel, target.name
                    )));
                    continue;
                }
            };
            let mut mem = Vec::new();
            let r = tr.begin("targets.run");
            let ran = run_case(&compiled, case, &mut mem, &mut pool);
            tr.end(r);
            latencies_ns.push(pair_start.elapsed().as_nanos() as u64);
            pairs.push(match ran {
                Ok((result, stats)) => Pair {
                    outcome: case
                        .check(result, &mem)
                        .map_err(|e| format!("{e} on {}", target.name)),
                    result: result_bits(result),
                    stats,
                    mem,
                },
                Err(e) => Pair::failed(format!("{} on {}: {e}", case.kernel, target.name)),
            });
        }
        engines.push(Some(engine));
    }
    let ns = start.elapsed().as_nanos() as u64;
    tr.end(span);
    Deployed {
        ns,
        pairs,
        latencies_ns,
        engines: engines
            .iter()
            .map(|e| e.as_ref().map(ExecutionEngine::stats).unwrap_or_default())
            .collect(),
    }
}

/// Check the cache counters of pair `i`'s engine with `expect`.
fn engine_check(
    d: &Deployed,
    i: usize,
    keys: u64,
    expect: impl Fn(&CacheStats) -> bool,
    what: &str,
) -> Result<(), String> {
    let stats = d
        .engines
        .get(i / keys as usize)
        .copied()
        .unwrap_or_default();
    if expect(&stats) {
        Ok(())
    } else {
        Err(format!("{what}: unexpected cache counters {stats:?}"))
    }
}

struct PassOut {
    offline_ns: u64,
    cold_ns: u64,
    warm_ns: u64,
    /// 90th percentile over the pass's cold and warm pairs.
    op_p90_ns: f64,
    cycles: u64,
}

/// One pass: offline, cold deploy, warm deploy; checks every pair against
/// the references and against the deploy that filled the store.
fn pass(
    s: &Setup,
    store: &Arc<ArtifactStore>,
    fill: &Deployed,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<PassOut, String> {
    let t = Instant::now();
    let wire = compile_all(s, tr)?;
    let offline_ns = t.elapsed().as_nanos() as u64;
    let cold = deploy(s, &wire, None, tr);
    let warm = deploy(s, &wire, Some(store), tr);

    let keys = s.targets.len() as u64;
    let pairs = fill.pairs.len();
    if cold.pairs.len() != pairs || warm.pairs.len() != pairs {
        return Err("deploys produced different numbers of pairs".into());
    }
    for (i, ((c, w), f)) in cold
        .pairs
        .iter()
        .zip(&warm.pairs)
        .zip(&fill.pairs)
        .enumerate()
    {
        report.op(c.matches(f, "cold deploy").and_then(|()| {
            engine_check(
                &cold,
                i,
                keys,
                |st| st.compiles == keys && st.disk_hits + st.disk_misses == 0,
                "cold deploy",
            )
        }));
        report.op(w.matches(f, "warm deploy").and_then(|()| {
            engine_check(
                &warm,
                i,
                keys,
                |st| st.compiles == 0 && st.disk_hits == keys,
                "warm deploy",
            )
        }));
    }
    let mut latencies = cold.latencies_ns;
    latencies.extend(warm.latencies_ns);
    Ok(PassOut {
        offline_ns,
        cold_ns: cold.ns,
        warm_ns: warm.ns,
        op_p90_ns: quantile(&mut latencies, 0.90),
        cycles: cold.pairs.iter().map(|p| p.stats.cycles).sum(),
    })
}

pub fn run(cfg: &Config, tr: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let store_dir = cfg.out_dir.join(format!("store-{}", std::process::id()));
    let result = measure(cfg, &store_dir, tr, report);
    let _ = std::fs::remove_dir_all(&store_dir);
    result
}

fn measure(
    cfg: &Config,
    store_dir: &Path,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let (wire_bytes, native_bytes) = code_bytes(&all_kernels(), &TargetDesc::presets())?;
    let (s, setup_s) = timed_setup(true, || setup(cfg))?;

    // Fill the empty store: the reference every pass is checked against.
    let store =
        Arc::new(ArtifactStore::open(store_dir).map_err(|e| format!("artifact store: {e}"))?);
    let wire = compile_all(&s, &mut Tracer::new(false))?;
    let fill = deploy(&s, &wire, Some(&store), &mut Tracer::new(false));
    let keys = s.targets.len() as u64;
    for (i, p) in fill.pairs.iter().enumerate() {
        p.outcome
            .clone()
            .and_then(|()| {
                engine_check(
                    &fill,
                    i,
                    keys,
                    |st| st.compiles == keys && st.disk_misses == keys,
                    "store fill",
                )
            })
            .map_err(|e| format!("the store-filling deploy failed: {e}"))?;
    }

    let passes = side_by_side(cfg.seconds, tr, report, |tr, report| {
        pass(&s, &store, &fill, tr, report)
    })?;
    let first = passes.first().ok_or("no deploy pass completed")?;
    let ms =
        |f: fn(&PassOut) -> u64| -> Vec<f64> { passes.iter().map(|p| f(p) as f64 / 1e6).collect() };
    let (offline, cold, warm) = (ms(|p| p.offline_ns), ms(|p| p.cold_ns), ms(|p| p.warm_ns));
    let round = ms(|p| p.offline_ns + p.cold_ns + p.warm_ns);
    let p90: Vec<f64> = passes.iter().map(|p| p.op_p90_ns / 1e3).collect();
    report.metric("setup_s", setup_s, "s");
    report.metric("round_ms", sustained(&round, false), "ms");
    report.metric("op_p90_us", sustained(&p90, false), "us");
    report.metric("sim_cycles", first.cycles as f64, "cycles");
    report.metric("wire_bytes", wire_bytes as f64, "bytes");
    report.metric("native_bytes", native_bytes as f64, "bytes");
    report.detail("offline_ms", sustained(&offline, false), "ms");
    report.detail("deploy_cold_ms", sustained(&cold, false), "ms");
    report.detail("deploy_warm_ms", sustained(&warm, false), "ms");
    Ok(())
}
