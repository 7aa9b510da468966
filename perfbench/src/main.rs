//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One single-threaded program runs one workload (`himeno-paper`,
//! `himeno-wide`, `nano-bcast`, `transfer-mix`) through the crates'
//! public entry points, repeatedly, for about `--seconds` seconds, checks
//! every run's outputs against serial references or seeded source data,
//! and requires every run to reproduce the first run's exact values (the
//! determinism witness). It prints one JSON object as the last line of
//! standard output.
//!
//! * `--trace 0` reports the end-to-end metrics (host wall, CPU, set-up
//!   time, peak RSS; virtual makespan), medians over the runs.
//! * `--trace 1` alternates untraced and traced runs, runs the layer
//!   probes, and reports the per-layer metrics. Traced runs record the
//!   benchmark's host spans around its calls into each layer and write them
//!   to `perfbench/out/trace-<workload>-<seed>.json` when the run ends.
//!
//! See `perfbench/README.md` for every metric and the layer it measures.

mod host;
mod mix;
mod probes;
mod tracer;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use host::{median, percentile, Spent, Usage};
use workloads::{total, Prepared, Rep, Workload};

/// Set-ups measured after each timed run (`setup_s` is their median).
/// Spread over the whole run, they see the same host conditions as the
/// timed runs.
const SETUPS_PER_RUN: usize = 3;
/// No-op world launches per traced run (`minimpi.launch_s`).
const LAUNCHES: usize = 9;
/// No run reports fewer workload repetitions than this, whatever
/// `--seconds` says.
const MIN_REPS: usize = 3;
/// `--trace 1`: traced and untraced repetitions, at least this many each.
const MIN_TRACED: usize = 2;
/// Fresh-process runs that measure peak RSS (`--trace 0`); the peak is
/// steady to well under 1% between processes.
const MEMORY_REPS: usize = 1;
/// Marks a child process started by [`memory_run`].
const MEMORY_RUN_FLAG: &str = "--memory-run";
const RING_LAPS: usize = 4;
const BARRIER_ITERS: usize = 20;

struct Args {
    /// One workload, or all of them in turn for `--workload all`.
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workloads = match Workload::by_name(name) {
        Some(w) => vec![w],
        None if name == "all" => workloads::ALL.to_vec(),
        None => {
            let names: Vec<_> = workloads::ALL.iter().map(|w| w.name()).collect();
            return Err(format!(
                "unknown workload {name:?} (expected all or one of {})",
                names.join(", ")
            ));
        }
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: expected 0 or 1")),
    };
    Ok(Args {
        workloads,
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace,
    })
}

/// The exec core and shard count are pinned per workload; an
/// environment override would silently change what is measured.
fn check_env() -> Result<(), String> {
    for var in ["SIM_EXEC_MODE", "SIM_SHARDS"] {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; unset it (each workload pins its exec core)"
            ));
        }
    }
    Ok(())
}

/// What a repetition is for. Every repetition is checked and witnessed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Purpose {
    /// The first run: warms caches, sets the witness, reports nothing.
    WarmUp,
    /// Host time, untraced.
    Timed,
    /// Host time with the benchmark's tracing on (`--trace 1`).
    Traced,
}

/// One measured repetition: the checked result and what it cost.
struct Sample {
    rep: Rep,
    spent: Spent,
    purpose: Purpose,
    threads_peak: u64,
}

/// Run the workload once with host measurement around the call only.
fn measure(prep: &Prepared, purpose: Purpose) -> Sample {
    let traced = purpose == Purpose::Traced;
    let sampler = traced.then(ThreadSampler::start);
    tracer::set_enabled(traced);
    let before = Usage::now();
    let raw = prep.execute();
    let spent = Usage::now().since(&before);
    let threads_peak = sampler.map_or(0, ThreadSampler::stop);
    let rep = prep.evaluate(raw);
    tracer::set_enabled(false);
    Sample {
        rep,
        spent,
        purpose,
        threads_peak,
    }
}

/// Polls the process's thread count during a traced run (the only
/// thread the benchmark adds, and only while tracing).
struct ThreadSampler {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<u64>,
}

impl ThreadSampler {
    fn start() -> ThreadSampler {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut peak = 0;
            while !flag.load(std::sync::atomic::Ordering::Relaxed) {
                peak = peak.max(host::threads());
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            peak.max(host::threads())
        });
        ThreadSampler { stop, handle }
    }

    fn stop(self) -> u64 {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        // The sampler itself is not a workload thread.
        self.handle
            .join()
            .expect("thread sampler")
            .saturating_sub(1)
    }
}

/// Metrics in output order: name → (value, unit).
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// What a memory run reported.
struct MemoryRun {
    /// Peak RSS during the run above the RSS just before it.
    peak_rss_mb: f64,
    ops: u64,
    failed: u64,
    witness: String,
}

/// Run the workload once in a fresh copy of this program (see
/// [`memory_child`]) and collect its peak RSS and checked result.
fn memory_run(w: Workload, seed: u64) -> Result<MemoryRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seed = seed.to_string();
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            w.name(),
            "--seed",
            &seed,
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .arg(MEMORY_RUN_FLAG)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("memory run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let fields: Vec<&str> = line.splitn(4, '\t').collect();
    match (out.status.success(), fields.as_slice()) {
        (true, [peak, ops, failed, witness]) => Ok(MemoryRun {
            peak_rss_mb: peak
                .parse()
                .map_err(|e| format!("memory run peak {peak:?}: {e}"))?,
            ops: ops
                .parse()
                .map_err(|e| format!("memory run ops {ops:?}: {e}"))?,
            failed: failed
                .parse()
                .map_err(|e| format!("memory run failed {failed:?}: {e}"))?,
            witness: witness.to_string(),
        }),
        _ => Err(format!("memory run exited with {} ({line:?})", out.status)),
    }
}

/// The memory run itself: a fresh process with large allocations mapped,
/// so its peak RSS owes nothing to earlier runs. Prints one
/// tab-separated line: peak MB, ops, failed ops, witness.
fn memory_child(args: &Args) -> Result<(), String> {
    host::map_large_allocations();
    let prep = Prepared::new(args.workloads[0], args.seed)?;
    let baseline_mb = host::reset_peak_rss();
    let raw = prep.execute();
    let peak_rss_mb = host::peak_rss_mb() - baseline_mb;
    let rep = prep.evaluate(raw);
    for e in &rep.errors {
        eprintln!("perfbench: memory run: output check failed: {e}");
    }
    let (ops, failed) = rep.ops();
    println!("{peak_rss_mb}\t{ops}\t{failed}\t{}", rep.witness());
    Ok(())
}

/// One workload's result line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

impl Outcome {
    fn json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.json()
        )
    }
}

fn run(w: Workload, args: &Args) -> Result<Outcome, String> {
    let prep = Prepared::new(w, args.seed)?;
    eprintln!("perfbench: {} prepared (references ready)", w.name());
    let mut samples = vec![measure(&prep, Purpose::WarmUp)];
    let mut metrics = Metrics::default();
    let probe = if args.trace {
        Some(probe_layers(&prep))
    } else {
        None
    };
    let mut setup = Vec::new();
    let t0 = Instant::now();
    let mut n = 0usize;
    loop {
        let traced = args.trace && n % 2 == 1;
        samples.push(measure(
            &prep,
            if traced {
                Purpose::Traced
            } else {
                Purpose::Timed
            },
        ));
        if !args.trace {
            setup.extend((0..SETUPS_PER_RUN).map(|_| prep.setup_once()));
        }
        n += 1;
        let enough = if args.trace {
            n >= 2 * MIN_TRACED
        } else {
            n >= MIN_REPS
        };
        if enough && t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let memory = if args.trace {
        Vec::new()
    } else {
        (0..MEMORY_REPS)
            .map(|_| memory_run(w, args.seed))
            .collect::<Result<Vec<_>, _>>()?
    };
    for (i, s) in samples.iter().enumerate() {
        let what = match s.purpose {
            Purpose::WarmUp => "warm-up",
            Purpose::Timed => "timed",
            Purpose::Traced => "traced",
        };
        eprintln!(
            "perfbench: run {i} ({what}): wall {:.4} s (unstolen {:.4} s), user {:.4} s, sys {:.4} s, steal {:.2} s",
            s.spent.wall_s,
            s.spent.wall_unstolen_s(),
            s.spent.user_s,
            s.spent.sys_s,
            s.spent.steal_s,
        );
    }
    for e in samples.iter().flat_map(|s| &s.rep.errors) {
        eprintln!("perfbench: output check failed: {e}");
    }
    // The determinism witness: every run, the memory runs in their own
    // processes included, must reproduce the first run's exact values.
    // A diverging run counts all its ops as failed.
    let witness = samples[0].rep.witness();
    let runs = samples.iter().map(|s| (s.rep.ops(), s.rep.witness()));
    let runs = runs.chain(
        memory
            .iter()
            .map(|m| ((m.ops, m.failed), m.witness.clone())),
    );
    let (mut attempted, mut failed, mut diverged) = (0u64, 0u64, 0usize);
    for (i, ((ops, bad), w)) in runs.enumerate() {
        attempted += ops;
        if w == witness {
            failed += bad;
        } else {
            eprintln!("perfbench: run {i} diverges from run 0\n  run 0: {witness}\n  run {i}: {w}");
            failed += ops;
            diverged += 1;
        }
    }
    let probe_errors = probe.as_ref().map_or(&[][..], |p| &p.bcast.errors[..]);
    for e in probe_errors {
        eprintln!("perfbench: broadcast probe check failed: {e}");
    }
    let correct = failed == 0 && probe_errors.is_empty();
    let of = |p: Purpose| -> Vec<&Sample> { samples.iter().filter(|s| s.purpose == p).collect() };
    let untraced = of(Purpose::Timed);
    let med =
        |f: &dyn Fn(&Sample) -> f64| median(&untraced.iter().map(|s| f(s)).collect::<Vec<_>>());
    let wall_s = med(&|s| s.spent.wall_unstolen_s());
    let first = &samples[0].rep;
    if let Some(probe) = probe {
        let traced = of(Purpose::Traced);
        let traced_wall = median(
            &traced
                .iter()
                .map(|s| s.spent.wall_unstolen_s())
                .collect::<Vec<_>>(),
        );
        layer_metrics(
            &mut metrics,
            &prep,
            first,
            &probe,
            &untraced,
            &traced,
            wall_s,
            traced_wall,
        );
        metrics.put("bench.fail_frac", failed as f64 / attempted as f64, "ratio");
        let path = format!("perfbench/out/trace-{}-{}.json", w.name(), args.seed);
        if let Err(e) = tracer::write(std::path::Path::new(&path)) {
            eprintln!("perfbench: could not write {path}: {e}");
        }
    } else {
        metrics.put("wall_s", wall_s, "s");
        metrics.put("cpu_s", med(&|s| s.spent.cpu_s()), "s");
        metrics.put("setup_s", median(&setup), "s");
        let peaks: Vec<f64> = memory.iter().map(|m| m.peak_rss_mb).collect();
        metrics.put("peak_rss_mb", median(&peaks), "MB");
        metrics.put("virtual_ms", first.virtual_ns as f64 / 1e6, "sim_ms");
    }
    eprintln!(
        "perfbench: {} seed {}: {} runs, {} diverging, fail_frac {}",
        w.name(),
        args.seed,
        samples.len(),
        diverged,
        failed as f64 / attempted as f64
    );
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// What the layer probes measured, once per traced run.
struct Probe {
    handoff_us: Vec<f64>,
    barrier_us: Vec<f64>,
    launch_s: f64,
    bcast: probes::Bcast,
}

fn probe_layers(prep: &Prepared) -> Probe {
    let w = prep.workload;
    let launch: Vec<f64> = (0..LAUNCHES)
        .map(|_| probes::launch_noop(&w.sys(), w.ranks(), w.core()))
        .collect();
    let handoff_us = probes::handoff_ring(w.core(), RING_LAPS);
    let barrier_us = probes::barrier_loop(w.core(), BARRIER_ITERS);
    // The broadcast probe is the only source of minicl timings for the
    // workloads whose enqueue calls happen inside the application crate.
    tracer::set_enabled(w != Workload::TransferMix);
    let bcast = probes::bcast(w.core());
    tracer::set_enabled(false);
    Probe {
        handoff_us,
        barrier_us,
        launch_s: median(&launch),
        bcast,
    }
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    m: &mut Metrics,
    prep: &Prepared,
    first: &Rep,
    probe: &Probe,
    untraced: &[&Sample],
    traced: &[&Sample],
    wall_s: f64,
    traced_wall: f64,
) {
    let w = prep.workload;
    let med =
        |f: &dyn Fn(&Sample) -> f64| median(&untraced.iter().map(|s| f(s)).collect::<Vec<_>>());
    let events = first.events.max(1) as f64;
    // simtime
    m.put("simtime.events", first.events as f64, "count");
    m.put("simtime.host_us_per_event", wall_s * 1e6 / events, "us");
    m.put(
        "simtime.sys_share",
        med(&|s| s.spent.sys_s / s.spent.cpu_s().max(1e-9)),
        "ratio",
    );
    m.put(
        "simtime.ctxsw_per_event",
        med(&|s| s.spent.ctxsw as f64) / events,
        "count",
    );
    let threads = traced.iter().map(|s| s.threads_peak).max().unwrap_or(0);
    m.put("simtime.threads_peak", threads as f64, "count");
    m.put(
        "simtime.handoff_us.p50",
        percentile(&probe.handoff_us, 50.0),
        "us",
    );
    m.put(
        "simtime.handoff_us.p99",
        percentile(&probe.handoff_us, 99.0),
        "us",
    );
    // minimpi
    m.put("minimpi.launch_s", probe.launch_s, "s");
    m.put(
        "minimpi.barrier_us.p50",
        percentile(&probe.barrier_us, 50.0),
        "us",
    );
    m.put(
        "minimpi.barrier_us.p99",
        percentile(&probe.barrier_us, 99.0),
        "us",
    );
    m.put("minimpi.fault_drops", first.fault_drops as f64, "count");
    // minicl: the benchmark's own enqueue calls (transfer-mix) or the
    // broadcast probe's.
    for (name, span) in [("minicl.enqueue_us", "enqueue"), ("minicl.wait_us", "wait")] {
        let d = tracer::durations_us("minicl", span);
        let (p50, p99) = if d.is_empty() {
            (0.0, 0.0)
        } else {
            (percentile(&d, 50.0), percentile(&d, 99.0))
        };
        m.put(&format!("{name}.p50"), p50, "us");
        m.put(&format!("{name}.p99"), p99, "us");
    }
    // clmpi counts and the virtual stage ledger: the workload's own trace,
    // or the broadcast probe's where the entry point returns none.
    let probe_summary;
    let (summary, ledger) = match &first.summary {
        Some(s) => (s, first.ledger),
        None => {
            probe_summary = clmpi::obs::ObsSummary::from_trace(&probe.bcast.trace);
            (
                &probe_summary,
                workloads::Ledger::from_trace(&probe.bcast.trace),
            )
        }
    };
    let drops = total(summary, |r| r.chunk_drops) as f64;
    let sent = (ledger.chunks + total(summary, |r| r.chunk_retries)) as f64;
    m.put("clmpi.ops", total(summary, |r| r.ops) as f64, "count");
    m.put(
        "clmpi.chunk_retries",
        total(summary, |r| r.chunk_retries) as f64,
        "count",
    );
    m.put(
        "clmpi.chunk_useful_ratio",
        if sent > 0.0 {
            (sent - drops) / sent
        } else {
            1.0
        },
        "ratio",
    );
    m.put(
        "clmpi.bytes_sent",
        total(summary, |r| r.bytes_sent) as f64,
        "bytes",
    );
    m.put(
        "clmpi.coll_bytes",
        total(summary, |r| r.coll_bytes) as f64,
        "bytes",
    );
    m.put(
        "clmpi.rma_bytes",
        total(summary, |r| r.rma_bytes) as f64,
        "bytes",
    );
    m.put("clmpi.spans", summary.total_spans as f64, "count");
    m.put("clmpi.bcast_host_ms", probe.bcast.host_ms, "ms");
    let ms = |ns: u64| ns as f64 / 1e6;
    m.put("clmpi.v.compute_ms", ms(ledger.compute_ns), "sim_ms");
    m.put(
        "clmpi.v.exposed_comm_ms",
        ms(ledger.exposed_comm_ns),
        "sim_ms",
    );
    m.put("clmpi.v.hidden_pct", ledger.hidden_pct, "%");
    m.put("clmpi.v.pack_ms", ms(ledger.pack_ns), "sim_ms");
    m.put("clmpi.v.d2h_ms", ms(ledger.d2h_ns), "sim_ms");
    m.put("clmpi.v.h2d_ms", ms(ledger.h2d_ns), "sim_ms");
    m.put("clmpi.v.wire_ms", ms(ledger.wire_ns), "sim_ms");
    m.put("clmpi.v.retry_ms", ms(ledger.retry_ns), "sim_ms");
    let probe_ledger = workloads::Ledger::from_trace(&probe.bcast.trace);
    m.put("clmpi.v.forward_ms", ms(probe_ledger.forward_ns), "sim_ms");
    m.put("clmpi.v.reduce_ms", ms(probe_ledger.reduce_ns), "sim_ms");
    // applications
    let is_himeno = matches!(w, Workload::HimenoPaper | Workload::HimenoWide);
    let is_nano = w == Workload::NanoBcast;
    let (himeno_serial_s, nano_serial_s) = prep.serial_s();
    m.put("himeno.serial_s", himeno_serial_s, "s");
    m.put("nanopowder.serial_s", nano_serial_s, "s");
    let ratio = |on: bool, serial: f64| if on { wall_s / serial } else { 0.0 };
    m.put("himeno.overhead_x", ratio(is_himeno, himeno_serial_s), "x");
    m.put("nanopowder.overhead_x", ratio(is_nano, nano_serial_s), "x");
    m.put(
        "himeno.gflops_virtual",
        if is_himeno { first.app } else { 0.0 },
        "GFLOPS",
    );
    m.put(
        "nanopowder.step_ms_virtual",
        if is_nano { first.app } else { 0.0 },
        "sim_ms",
    );
    m.put(
        "bench.trace_overhead_pct",
        100.0 * (traced_wall - wall_s) / wall_s,
        "%",
    );
    m.put("bench.raw_wall_s", med(&|s| s.spent.wall_s), "s");
    let n = host::nproc() as f64;
    m.put(
        "bench.steal_share",
        med(&|s| s.spent.steal_s / (n * s.spent.wall_s)),
        "ratio",
    );
}

fn main() -> ExitCode {
    let args = match check_env().and_then(|()| parse_args()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if std::env::args().any(|a| a == MEMORY_RUN_FLAG) {
        return match memory_child(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: memory run: {e}");
                ExitCode::from(1)
            }
        };
    }
    let names: Vec<_> = args.workloads.iter().map(|w| w.name()).collect();
    println!(
        "{{\"bench_env\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"profile\": \"{}\"}}}}",
        names.join(","),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    let mut all = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Metrics::default(),
    };
    for &w in &args.workloads {
        let out = match run(w, &args) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name());
                return ExitCode::from(1);
            }
        };
        tracer::clear();
        for (name, value, unit) in &out.metrics.0 {
            println!("{:<14} {name:<32} {value:>16.6} {unit}", w.name());
        }
        all.correct &= out.correct;
        all.attempted += out.attempted;
        all.failed += out.failed;
        if args.workloads.len() > 1 {
            println!(
                "{{\"workload\": \"{}\", \"result\": {}}}",
                w.name(),
                out.json()
            );
            for (name, value, unit) in out.metrics.0 {
                all.metrics
                    .put(&format!("{}.{name}", w.name()), value, unit);
            }
        } else {
            all.metrics = out.metrics;
        }
    }
    println!("{}", all.json());
    if all.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: FAILED: output check or determinism witness mismatch (see above)");
        ExitCode::from(1)
    }
}
