//! The APRIL benchmark: four workloads, their outputs checked, every
//! end-to-end metric printed by name and unit; with `--trace 1`, the
//! per-layer metrics instead, timed from outside each crate.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path aprilbench/Cargo.toml -- \
//!     --workload futures_fib --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The line before it
//! records the host, the build and the seed.

mod machines;
mod measure;
mod serve_jobs;
mod timed;

use april_obs::StatsReport;
use machines::Kind;
use measure::Recorder;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: u64 = 25;
/// Where traces and the daemon's socket go, relative to the repository
/// root (a relative socket path keeps it under the 108-byte limit).
const OUT_DIR: &str = "aprilbench/out";

const WORKLOADS: [&str; 4] = [
    "futures_fib",
    "stall_mesh256",
    "compute_loop16",
    "serve_jobs",
];

/// The end-to-end metrics, printed by untraced runs: (name, unit).
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("job_ms", "ms"), ("peak_rss_mb", "MiB")];

/// The per-layer metrics, printed by traced runs: (name, unit). A layer
/// a workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 53] = [
    ("mult.compile_ms", "ms"),
    ("runtime.self_ns_per_cycle", "ns"),
    ("runtime.machine_calls", "count"),
    ("runtime.threads_created", "count"),
    ("runtime.lazy_created", "count"),
    ("runtime.lazy_steals", "count"),
    ("runtime.blocks", "count"),
    ("runtime.loads", "count"),
    ("machine.sim_cycles", "cycles"),
    ("machine.visits", "count"),
    ("machine.visit_ratio", "ratio"),
    ("machine.advance_ns_per_visit", "ns"),
    ("machine.quiesce_check_ns_per_visit", "ns"),
    ("machine.events_per_visit", "count"),
    ("machine.driver_ns_per_event", "ns"),
    ("machine.sim_cycles_per_s", "cycles/s"),
    ("machine.build_ms", "ms"),
    ("machine.checkpoint_ms", "ms"),
    ("machine.restore_ms", "ms"),
    ("machine.snapshot_bytes", "bytes"),
    ("core.instructions", "count"),
    ("core.utilization", "ratio"),
    ("core.context_switches", "count"),
    ("core.remote_misses", "count"),
    ("core.future_traps", "count"),
    ("mem.cache_miss_ratio", "ratio"),
    ("mem.remote_txns", "count"),
    ("mem.dir_requests", "count"),
    ("mem.invals_sent", "count"),
    ("mem.retransmits", "count"),
    ("mem.nacks", "count"),
    ("net.delivered", "count"),
    ("net.avg_hops", "hops"),
    ("net.avg_latency", "cycles"),
    ("net.busy_flit_cycles", "cycles"),
    ("net.fault_events", "count"),
    ("obs.report_ms", "ms"),
    ("obs.report_bytes", "bytes"),
    ("obs.trace_bytes_per_traced_job", "bytes"),
    ("serve.job_p50_ms", "ms"),
    ("serve.job_p99_ms", "ms"),
    ("serve.sweep_jobs_per_s", "1/s"),
    ("serve.accept_ms_p50", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.setup_ms_warm_p50", "ms"),
    ("serve.setup_ms_cold_p50", "ms"),
    ("serve.run_ms_p50", "ms"),
    ("serve.stream_ms_p50", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.warm_build_ms", "ms"),
    ("serve.generator_lag_ms_p99", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Metric values by name; only names from the two tables are accepted.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.0.insert(name, v);
    }

    /// The simulated `core`, `mem` and `net` counts of finished jobs,
    /// summed over `reports`; ratios are taken of the sums.
    pub fn report_counts(&mut self, reports: &[&StatsReport]) {
        let sum = |section: &str, key: &str| -> f64 {
            reports
                .iter()
                .filter_map(|r| r.section(section).and_then(|s| s.get_counter(key)))
                .sum::<u64>() as f64
        };
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        self.set("core.instructions", sum("cpu", "instructions"));
        self.set(
            "core.utilization",
            ratio(sum("cpu", "useful_cycles"), sum("machine", "total_cycles")),
        );
        self.set("core.context_switches", sum("cpu", "context_switches"));
        self.set("core.remote_misses", sum("cpu", "remote_misses"));
        self.set("core.future_traps", sum("cpu", "future_traps"));
        let misses = sum("cache", "local_fills") + sum("cache", "remote_txns");
        self.set(
            "mem.cache_miss_ratio",
            ratio(misses, misses + sum("cache", "hits")),
        );
        self.set("mem.remote_txns", sum("cache", "remote_txns"));
        self.set(
            "mem.dir_requests",
            sum("dir", "read_reqs") + sum("dir", "write_reqs"),
        );
        self.set("mem.invals_sent", sum("dir", "invals_sent"));
        self.set(
            "mem.retransmits",
            sum("cache", "retransmits") + sum("dir", "retransmits"),
        );
        self.set("mem.nacks", sum("dir", "nacks"));
        let delivered = sum("net", "delivered");
        self.set("net.delivered", delivered);
        self.set("net.avg_hops", ratio(sum("net", "total_hops"), delivered));
        self.set(
            "net.avg_latency",
            ratio(sum("net", "total_latency"), delivered),
        );
        self.set("net.busy_flit_cycles", sum("net", "busy_flit_cycles"));
        self.set(
            "net.fault_events",
            sum("faults", "dropped") + sum("faults", "duplicated") + sum("faults", "delayed"),
        );
    }
}

/// What a workload run did: operations attempted and failed, and its
/// metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub ops: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// How many samples each median or percentile was taken over.
    pub samples: Vec<(&'static str, usize)>,
}

impl Outcome {
    /// Counts one failed operation and says why on standard error.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        eprintln!("FAILED: {why}");
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Runs `program args`, returning its first output line or `unknown`.
fn probe(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout's git revision; `unknown` when the working directory is
/// not the top of a git work tree (a bare copy of the files, or one
/// nested inside some other repository).
fn git_rev() -> String {
    let top = probe("git", &["rev-parse", "--show-toplevel"]);
    let here = std::env::current_dir().and_then(|d| d.canonicalize());
    match (std::path::Path::new(&top).canonicalize(), here) {
        (Ok(t), Ok(h)) if t == h => probe("git", &["rev-parse", "HEAD"]),
        _ => "unknown".into(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host and build a result came from, so a number from another
/// machine can be labelled as such.
fn provenance(args: &Args, samples: &[(&str, usize)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"host\":{{\"nproc\":{nproc},\"cpu_model\":{},\"rustc\":{},\"git_rev\":{},\"profile\":\"{profile}\"}},\"workload\":{},\"seed\":{},\"default_seed\":{DEFAULT_SEED},\"seconds\":{},\"trace\":{},\"samples\":{{{}}}}}",
        json_str(&cpu),
        json_str(&probe("rustc", &["--version"])),
        json_str(&git_rev()),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        samples
            .iter()
            .map(|(k, n)| format!("{}:{n}", json_str(k)))
            .collect::<Vec<_>>()
            .join(","),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("aprilbench: {e}");
            eprintln!(
                "usage: aprilbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("aprilbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let mut rec = Recorder::new();
    let kind = match args.workload.as_str() {
        "futures_fib" => Some(Kind::FuturesFib),
        "stall_mesh256" => Some(Kind::StallMesh256),
        "compute_loop16" => Some(Kind::ComputeLoop16),
        _ => None,
    };
    let mut outcome = match kind {
        Some(kind) => machines::run(kind, args.seed, args.seconds, args.trace, &mut rec),
        None => serve_jobs::run(args.seed, args.seconds, args.trace, OUT_DIR, &mut rec),
    };

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let mut v = outcome.metrics.0.get(name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            outcome.fail(format!("metric {name} is {v}"));
            v = 0.0;
        }
        metrics.push(format!(
            "{}:{{\"value\":{v},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    if args.trace {
        let path = format!("{OUT_DIR}/trace-{}-seed{}.json", args.workload, args.seed);
        match std::fs::write(&path, rec.to_json()) {
            Ok(()) => eprintln!("spans written to {path}"),
            Err(e) => eprintln!("aprilbench: cannot write {path}: {e}"),
        }
    }
    println!("{}", provenance(&args, &outcome.samples));
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.ops.max(1),
        outcome.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
