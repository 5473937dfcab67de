//! What every workload shares: the offline step, running a compiled program
//! on a case, the code-size figures, the set-up timer and the run report.

use crate::gen::Case;
use crate::trace::Tracer;
use splitc_jit::JitOptions;
use splitc_minic::compile_source;
use splitc_opt::{optimize_module, OptOptions, OptReport};
use splitc_runtime::{CompiledModule, ExecutionEngine, FramePool};
use splitc_targets::{MachineValue, SimError, SimStats, TargetDesc, DEFAULT_SIM_FUEL};
use splitc_vbc::{encode_module, Module};
use splitc_workloads::Kernel;
use std::time::Instant;

/// Most threads [`side_by_side`] runs.
const MAX_THREADS: usize = 8;

/// Set-ups per run: each thread repeats its set-up for at least this long,
/// and at least [`MIN_SETUPS`] times; `setup_s` is their median. A set-up
/// takes 10–50 ms, and a median over a shorter stretch follows the host's
/// speed from run to run.
const SETUP_SECONDS: f64 = 2.0;
const MIN_SETUPS: usize = 9;

/// Failure messages printed to stderr per run, at most.
const MAX_ERRORS_SHOWN: usize = 5;

/// The online-compilation configuration, one choice shared by every
/// workload: split compilation, consuming the offline annotations and
/// using SIMD.
pub fn options() -> JitOptions {
    JitOptions::split()
}

/// The offline step for one kernel: mini-C front end, then the full
/// optimization pipeline, each in its own span.
pub fn offline(kernel: &Kernel, tr: &mut Tracer) -> Result<(Module, OptReport), String> {
    let s = tr.begin("minic.compile_source");
    let module = compile_source(kernel.source, kernel.name);
    tr.end(s);
    let mut module = module.map_err(|e| format!("{}: {e}", kernel.name))?;
    let s = tr.begin("opt.optimize_module");
    let report = optimize_module(&mut module, &OptOptions::full());
    tr.end(s);
    Ok((module, report))
}

/// What a workload ships and runs: the wire bytes of its kernels' modules,
/// and `MProgram::estimated_code_bytes` summed over every (module, target)
/// program. Computed once per run, outside the set-up and the rounds.
pub fn code_bytes(kernels: &[Kernel], targets: &[TargetDesc]) -> Result<(u64, u64), String> {
    let opts = options();
    let (mut wire, mut native) = (0, 0);
    let mut quiet = Tracer::new(false);
    for k in kernels {
        let (module, _) = offline(k, &mut quiet)?;
        wire += encode_module(&module).len() as u64;
        let engine = ExecutionEngine::new(module);
        for t in targets {
            let compiled = engine
                .program_for(t, &opts)
                .map_err(|e| format!("{} on {}: {e}", k.name, t.name))?;
            native += compiled.program.estimated_code_bytes();
        }
    }
    Ok((wire, native))
}

/// Run `case` on a compiled program from a fresh copy of its input image.
pub fn run_case(
    compiled: &CompiledModule,
    case: &Case,
    mem: &mut Vec<u8>,
    pool: &mut FramePool,
) -> Result<(Option<MachineValue>, SimStats), SimError> {
    mem.clear();
    mem.extend_from_slice(&case.image);
    let mut stats = SimStats::default();
    let result = compiled.prepared.run(
        case.kernel,
        &case.args,
        mem,
        pool,
        DEFAULT_SIM_FUEL,
        &mut stats,
    )?;
    Ok((result, stats))
}

/// Threads a workload runs side by side: one per core, at most
/// [`MAX_THREADS`].
fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_THREADS)
}

/// Run `setup` for [`SETUP_SECONDS`], on every core at once if
/// `all_cores` (as [`side_by_side`] runs rounds); keep this thread's last
/// result and return the median set-up time in seconds over all threads.
pub fn timed_setup<T>(
    all_cores: bool,
    setup: impl Fn() -> Result<T, String> + Sync,
) -> Result<(T, f64), String> {
    let repeat = || -> Result<(T, Vec<f64>), String> {
        let mut times = Vec::new();
        let mut last = None;
        let begin = Instant::now();
        while times.len() < MIN_SETUPS || begin.elapsed().as_secs_f64() < SETUP_SECONDS {
            // Drop the previous set-up first, so its teardown is not timed.
            drop(last.take());
            let t = Instant::now();
            last = Some(setup()?);
            times.push(t.elapsed().as_secs_f64());
        }
        Ok((last.expect("MIN_SETUPS is at least 1"), times))
    };
    let (mine, others) = std::thread::scope(|scope| {
        let others = if all_cores { threads() - 1 } else { 0 };
        let handles: Vec<_> = (0..others)
            .map(|_| scope.spawn(|| repeat().map(|(_, times)| times)))
            .collect();
        let mine = repeat();
        let others: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a set-up thread panicked".to_owned()))
            .collect();
        (mine, others)
    });
    let (state, mut times) = mine?;
    for other in others {
        times.extend(other??);
    }
    Ok((state, crate::stats::median_f64(&times)))
}

/// Run `round` on one thread per core (at most [`MAX_THREADS`]) until
/// `seconds` have passed, each thread finishing the round it is in, and
/// return every round's output, the first thread's first.
///
/// Every core stays busy with the same work. On a host whose cores are
/// hyperthreads shared with other tenants, one thread alone ran at either
/// of two speeds 1.5× apart, depending on whether its sibling was busy; with
/// every core busy the speed holds.
pub fn side_by_side<R: Send>(
    seconds: f64,
    tr: &mut Tracer,
    report: &mut Report,
    round: impl Fn(&mut Tracer, &mut Report) -> Result<R, String> + Sync,
) -> Result<Vec<R>, String> {
    let threads = threads();
    let start = Instant::now();
    let run = |tr: &mut Tracer, report: &mut Report| -> Result<Vec<R>, String> {
        let mut outs = Vec::new();
        while start.elapsed().as_secs_f64() < seconds {
            outs.push(round(tr, report)?);
        }
        Ok(outs)
    };
    let (first, others) = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut rep = Report::default();
                    run(&mut Tracer::new(false), &mut rep).map(|outs| (outs, rep))
                })
            })
            .collect();
        let first = run(tr, report);
        let others: Vec<_> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a measuring thread panicked".to_owned())
            })
            .collect();
        (first, others)
    });
    let mut outs = first?;
    for other in others {
        let (more, rep) = other??;
        outs.extend(more);
        report.merge(rep);
    }
    Ok(outs)
}

/// What one run measured: operations attempted and failed, and metrics by
/// name with their unit.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The workload's own figures behind `round_ms` (say, cold against warm
    /// deploy time), printed beside the metrics but not part of the result.
    pub details: Vec<(&'static str, f64, &'static str)>,
    errors: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn detail(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.details.push((name, value, unit));
    }

    /// Count one operation, failed if `outcome` is an error.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(e);
        }
    }

    /// Count a failure of an operation already counted as attempted.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS_SHOWN {
            self.errors.push(error);
        }
    }

    fn merge(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = MAX_ERRORS_SHOWN.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.into_iter().take(room));
    }

    pub fn errors(&self) -> &[String] {
        &self.errors
    }
}
