//! splitc's benchmark: deploy, simulate and serve, measured end to end and
//! layer by layer. See README.md for the workloads, metrics and how to run.
//!
//! ```text
//! perfbench --workload <deploy|simulate|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod common;
mod deploy;
mod gen;
mod layers;
mod serve;
mod simulate;
mod stats;
mod trace;

use common::Report;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["deploy", "simulate", "serve"];

const USAGE: &str =
    "usage: perfbench --workload <deploy|simulate|serve> --seed <n> --seconds <s> --trace <0|1>";

/// One run's settings.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where artifact stores live during a run and trace files stay after it.
    pub out_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(cfg.seconds >= 0.0 && cfg.seconds <= 600.0) {
                    return Err(format!("--seconds {value}: expected 0 to 600"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!(
            "--workload '{}': expected one of {WORKLOADS:?}",
            cfg.workload
        ));
    }
    Ok(cfg)
}

/// Core count, CPU model and compiler: the host every figure belongs to.
fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\"",
        env!("PERFBENCH_RUSTC_VERSION")
    )
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints every digit needed to read the value back exactly.
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

fn print_table(title: &str, metrics: &[(&str, f64, &str)]) {
    println!("# {title}");
    for (name, value, unit) in metrics {
        println!("#   {name:<34} {value:>16.4} {unit}");
    }
}

/// What one run measured: its report, its tracer, and in a traced run the
/// per-layer metrics of the layer probe.
type Measured = (Report, Tracer, Vec<(&'static str, f64, &'static str)>);

fn run(cfg: &Config) -> Result<Measured, String> {
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let mut tr = Tracer::new(cfg.trace);
    let mut report = Report::default();
    let mut layer = Vec::new();
    if cfg.trace {
        layers::probe(cfg, &mut tr, &mut report)?;
        layer = layers::metrics(&tr);
    }
    match cfg.workload.as_str() {
        "deploy" => deploy::run(cfg, &mut tr, &mut report)?,
        "simulate" => simulate::run(cfg, &mut tr, &mut report)?,
        _ => serve::run(cfg, &mut tr, &mut report)?,
    }
    report.metric("peak_rss_mb", peak_rss_mb()?, "MB");
    Ok((report, tr, layer))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("# host: {}", host_fingerprint());
    println!(
        "# workload={} seed={} seconds={} trace={}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    let (report, tr, layer) = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in report.errors() {
        eprintln!("perfbench: check failed: {e}");
    }
    let metrics = if cfg.trace {
        // The workload's own figures under tracing, for the overhead.
        println!("# traced-end-to-end {}", metrics_json(&report.metrics));
        print_table("per-layer metrics (traced run)", &layer);
        println!(
            "# pearson r(jit work units, jit wall ns) = {:.3}",
            tr.counter("jit.work_wall_r")
        );
        let path = cfg
            .out_dir
            .join(format!("trace-{}-{}.json", cfg.workload, cfg.seed));
        match std::fs::write(&path, tr.chrome_json()) {
            Ok(()) => println!("# trace file: {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        layer
    } else {
        print_table("workload figures (not in the result)", &report.details);
        print_table("end-to-end metrics", &report.metrics);
        report.metrics
    };
    if let Some((name, value, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} is {value}, not a number");
        return ExitCode::FAILURE;
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}
