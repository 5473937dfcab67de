//! `serve`: one generator thread is a closed-loop client of `Server`,
//! keeping a fixed window of requests in flight. Requests are the Table 1
//! kernels over 6 modules × 9 targets, keyed by an exact Zipf(1) popularity
//! whose order the seed shuffles, each with a deadline that never fires.

use crate::common::{code_bytes, offline, options, timed_setup, Report};
use crate::gen::{zipf_counts, Case, Rng};
use crate::stats::{median_f64, quantile};
use crate::trace::Tracer;
use crate::Config;
use splitc_runtime::serve::{
    Request, Response, ResponseHandle, ResponseLost, ServeModule, Server, ServerConfig, ServerStats,
};
use splitc_targets::TargetDesc;
use splitc_workloads::table1_kernels;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Elements per request.
pub const N: usize = 512;
/// Requests the client keeps in flight.
pub const WINDOW: usize = 8;
/// Server worker threads.
pub const WORKERS: usize = 1;
/// Requests per round; every round sends the same key sequence.
pub const ROUND: usize = 2048;
/// Far beyond any request's latency: the deadline path is armed, never hit.
/// The server's watchdog keeps every armed deadline until it passes, so the
/// horizon sets how many entries it holds: at 22k–42k requests/s, 750 ms
/// keeps its heap within one power-of-two capacity (see README).
const DEADLINE: Duration = Duration::from_millis(750);
/// Seed of the fixed key → popularity-rank assignment (not the run seed, so
/// every seed sends the same multiset of keys).
const RANK_SEED: u64 = 0x5e7e;

pub struct Setup {
    server: Server,
    modules: Vec<ServeModule>,
    cases: Vec<Case>,
    targets: Vec<TargetDesc>,
    /// `(module, target)` of each key.
    keys: Vec<(usize, usize)>,
    /// One round of key indices.
    sequence: Vec<usize>,
}

pub fn setup(seed: u64) -> Result<Setup, String> {
    let mut quiet = Tracer::new(false);
    let kernels = table1_kernels();
    let mut modules = Vec::with_capacity(kernels.len());
    let mut cases = Vec::with_capacity(kernels.len());
    for k in &kernels {
        modules.push(ServeModule::new(offline(k, &mut quiet)?.0));
        cases.push(Case::new(k.name, N, seed));
    }
    let targets = TargetDesc::presets();
    let (keys, sequence) = key_sequence(seed, modules.len(), targets.len());
    let server = Server::start(ServerConfig::default().with_workers(WORKERS));
    let s = Setup {
        server,
        modules,
        cases,
        targets,
        keys,
        sequence,
    };
    // Warm every key: its one online compilation happens here. All keys go
    // in at once, as a deployment warming its keys would send them. One at
    // a time, each waited for, adds 54 idle-core wake-ups, whose cost
    // swings with the host.
    let handles = (0..s.keys.len())
        .map(|key| s.submit(key, Vec::new()).map(|h| (key, h)))
        .collect::<Result<Vec<_>, _>>()?;
    for (key, handle) in handles {
        let response = handle.wait().map_err(|e| format!("warm-up: {e}"))?;
        let run = response.outcome.map_err(|e| format!("warm-up: {e}"))?;
        s.cases[s.keys[key].0].check(run.result, &response.mem)?;
    }
    Ok(s)
}

/// The `(module, target)` keys in popularity-rank order, and one round of
/// key indices: exact Zipf(1) counts in an order drawn from `seed`.
pub fn key_sequence(
    seed: u64,
    modules: usize,
    targets: usize,
) -> (Vec<(usize, usize)>, Vec<usize>) {
    let mut keys: Vec<(usize, usize)> = (0..modules)
        .flat_map(|m| (0..targets).map(move |t| (m, t)))
        .collect();
    Rng::new(RANK_SEED).shuffle(&mut keys);
    let mut sequence: Vec<usize> = zipf_counts(keys.len(), ROUND)
        .iter()
        .enumerate()
        .flat_map(|(key, &count)| std::iter::repeat_n(key, count))
        .collect();
    Rng::new(seed).shuffle(&mut sequence);
    (keys, sequence)
}

impl Setup {
    fn submit(&self, key: usize, mut mem: Vec<u8>) -> Result<ResponseHandle, String> {
        let (m, t) = self.keys[key];
        let case = &self.cases[m];
        mem.clear();
        mem.extend_from_slice(&case.image);
        self.server
            .submit(Request {
                module: self.modules[m].clone(),
                kernel: case.kernel.into(),
                target: self.targets[t].clone(),
                options: options(),
                args: case.args.clone(),
                mem,
                deadline: Some(Instant::now() + DEADLINE),
                tag: key as u64,
            })
            .map_err(|e| format!("submit: {e}"))
    }
}

struct Slot {
    key: usize,
    sent: Instant,
    handle: Option<ResponseHandle>,
}

/// Figures per window of [`ROUND`] completed requests, so a host hiccup
/// moves one window's figures, not the run's.
pub struct Windows {
    start: Instant,
    latencies_ns: Vec<u64>,
    pub round_ms: Vec<f64>,
    pub rps: Vec<f64>,
    pub p50_us: Vec<f64>,
    pub p90_us: Vec<f64>,
    pub p99_us: Vec<f64>,
}

impl Windows {
    fn new() -> Self {
        Windows {
            start: Instant::now(),
            latencies_ns: Vec::with_capacity(ROUND),
            round_ms: Vec::new(),
            rps: Vec::new(),
            p50_us: Vec::new(),
            p90_us: Vec::new(),
            p99_us: Vec::new(),
        }
    }

    fn record(&mut self, latency_ns: u64) {
        self.latencies_ns.push(latency_ns);
        if self.latencies_ns.len() == ROUND {
            let now = Instant::now();
            let secs = (now - self.start).as_secs_f64();
            self.round_ms.push(secs * 1e3);
            self.rps.push(ROUND as f64 / secs);
            self.start = now;
            self.p50_us
                .push(quantile(&mut self.latencies_ns, 0.50) / 1e3);
            self.p90_us
                .push(quantile(&mut self.latencies_ns, 0.90) / 1e3);
            self.p99_us
                .push(quantile(&mut self.latencies_ns, 0.99) / 1e3);
            self.latencies_ns.clear();
        }
    }
}

/// What a closed-loop session measured.
pub struct Session {
    pub requests: u64,
    pub windows: Windows,
    pub cycles: u64,
    pub stats: ServerStats,
}

/// Run whole rounds until `seconds` have passed (at least `min_rounds`),
/// then drain the window and shut the server down.
pub fn session(
    s: Setup,
    seconds: f64,
    min_rounds: usize,
    tr: &mut Tracer,
    report: &mut Report,
) -> Session {
    let mut inflight: VecDeque<Slot> = VecDeque::with_capacity(WINDOW);
    let mut outstanding = 0usize;
    let mut buffers: Vec<Vec<u8>> = Vec::with_capacity(WINDOW);
    let (mut requests, mut answered, mut cycles) = (0u64, 0u64, 0u64);
    let mut windows = Windows::new();
    let mut finish = |slot: &Slot,
                      response: Result<Response, ResponseLost>,
                      buffers: &mut Vec<Vec<u8>>,
                      report: &mut Report| {
        windows.record(slot.sent.elapsed().as_nanos() as u64);
        answered += 1;
        let case = &s.cases[s.keys[slot.key].0];
        report.op(match response {
            Ok(r) => {
                let checked = r.outcome.map_err(|e| e.to_string()).and_then(|run| {
                    cycles += run.stats.cycles;
                    case.check(run.result, &r.mem)
                });
                buffers.push(r.mem);
                checked
            }
            Err(e) => Err(format!("{}: {e}", case.kernel)),
        });
    };
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed().as_secs_f64() < seconds {
        for &key in &s.sequence {
            while outstanding >= WINDOW {
                // Block on the oldest request, then collect every other one
                // that has completed meanwhile, so each is timed when ready.
                let front = inflight.front_mut().expect("the window is not empty");
                if let Some(h) = front.handle.take() {
                    finish(front, h.wait(), &mut buffers, report);
                    outstanding -= 1;
                }
                for slot in inflight.iter_mut().skip(1) {
                    let Some(h) = slot.handle.as_mut() else {
                        continue;
                    };
                    let response = match h.try_wait() {
                        Ok(None) => continue,
                        Ok(Some(r)) => Ok(r),
                        Err(e) => Err(e),
                    };
                    slot.handle = None;
                    finish(slot, response, &mut buffers, report);
                    outstanding -= 1;
                }
                while inflight.front().is_some_and(|f| f.handle.is_none()) {
                    inflight.pop_front();
                }
            }
            let mem = buffers.pop().unwrap_or_default();
            let span = tr.begin("runtime.serve.submit");
            let sent = Instant::now();
            let handle = s.submit(key, mem);
            tr.end(span);
            requests += 1;
            match handle {
                Ok(h) => {
                    inflight.push_back(Slot {
                        key,
                        sent,
                        handle: Some(h),
                    });
                    outstanding += 1;
                }
                Err(e) => report.op(Err(e)),
            }
        }
        rounds += 1;
    }
    for slot in inflight.iter_mut() {
        if let Some(h) = slot.handle.take() {
            finish(slot, h.wait(), &mut buffers, report);
        }
    }
    let stats = s.server.shutdown();
    let warm = s.keys.len() as u64;
    if answered + warm != stats.completed
        || stats.accepted != stats.completed
        || stats.expired + stats.cancelled != 0
    {
        report.fail(format!(
            "requests not answered exactly once: {answered} answered + {warm} warm-up, server stats {stats:?}"
        ));
    }
    Session {
        requests,
        windows,
        cycles: cycles / rounds as u64,
        stats,
    }
}

/// Server-side counters of a session, as per-layer metrics.
pub fn record_layers(stats: &ServerStats, tr: &mut Tracer) {
    tr.set(
        "runtime.serve.queue_wait_p50_us",
        stats.queue_wait.p50() as f64 / 1e3,
    );
    tr.set(
        "runtime.serve.queue_wait_p99_us",
        stats.queue_wait.p99() as f64 / 1e3,
    );
    tr.set(
        "runtime.serve.execute_p50_us",
        stats.execute.p50() as f64 / 1e3,
    );
    tr.set("runtime.serve.batch_mean", stats.batch_sizes.mean());
    tr.set("runtime.engine.hit_ratio", stats.cache.hit_rate());
}

pub fn run(cfg: &Config, tr: &mut Tracer, report: &mut Report) -> Result<(), String> {
    // One set-up at a time: each starts a server, and set-ups side by side
    // made peak RSS depend on how their servers overlapped.
    let (wire_bytes, native_bytes) = code_bytes(&table1_kernels(), &TargetDesc::presets())?;
    let (s, setup_s) = timed_setup(false, || setup(cfg.seed))?;
    let out = session(s, cfg.seconds, 1, tr, report);
    // Medians over windows, not the worse-side quartile the other workloads
    // take: a window's latency percentiles have a long tail when the host
    // preempts the client or the worker, and the quartile followed it from
    // run to run.
    let w = &out.windows;
    report.metric("setup_s", setup_s, "s");
    report.metric("round_ms", median_f64(&w.round_ms), "ms");
    report.metric("op_p90_us", median_f64(&w.p90_us), "us");
    report.metric("sim_cycles", out.cycles as f64, "cycles");
    report.metric("wire_bytes", wire_bytes as f64, "bytes");
    report.metric("native_bytes", native_bytes as f64, "bytes");
    report.detail("serve_rps", median_f64(&w.rps), "1/s");
    report.detail("serve_p50_us", median_f64(&w.p50_us), "us");
    report.detail("serve_p99_us", median_f64(&w.p99_us), "us");
    report.detail("batch_mean", out.stats.batch_sizes.mean(), "count");
    eprintln!(
        "serve: {} requests, {} workers, window {WINDOW}",
        out.requests, WORKERS
    );
    Ok(())
}
