//! The three machine workloads: `futures_fib` through `Runtime::run`,
//! and `stall_mesh256` / `compute_loop16` through `drive_sequential`
//! with `SwitchSpin` — the entry points users and the daemon call.
//!
//! Each run repeats one whole job (set-up, then run to the end) until
//! the time budget is spent. A machine workload is deterministic, so the
//! seed only varies data values (an addend, increments, immediates):
//! the work per job is the same on every seed, and the expected result
//! is computed on the host from the same seed.

use crate::measure::{least, median, ns_since, peak_rss_mb, Agg, Recorder};
use crate::timed::{drive_timed, LoopTimes, Timed, TimedDriver};
use crate::Outcome;
use april_core::isa::asm::assemble;
use april_core::isa::Reg;
use april_machine::{
    drive_sequential, drive_sequential_until, Alewife, Machine, MachineConfig, MachineFault,
    SwitchSpin, Topology,
};
use april_mult::{compile, programs, CompileOptions};
use april_net::network::NetConfig;
use april_obs::StatsReport;
use april_runtime::{RtConfig, Runtime};
use april_util::rng::Rng;
use std::time::{Duration, Instant};

/// The machine workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FuturesFib,
    StallMesh256,
    ComputeLoop16,
}

// Job sizes: each job takes 15-130 ms on a 2-vCPU Xeon VM, so a 25 s
// run holds hundreds of jobs, and some of them run while the host's
// neighbours are quiet.
/// `fib(n)`: 43K simulated cycles on 4x4.
const FIB_N: u32 = 17;
/// Stall-program iterations on 16x16: 35K simulated cycles.
const STALL_ITERS: u32 = 2;
/// Compute-loop iterations on 4x4: 175K simulated cycles.
const COMPUTE_ITERS: u32 = 5_000;
/// Per-node shared memory. 4 MiB is what the full-stack tests give the
/// run-time system; the assembly workloads touch only node 0's region.
const RT_REGION: u32 = 4 << 20;
const ASM_REGION: u32 = 64 << 10;
/// Cycle fuse: far past every workload's end.
const MAX_CYCLES: u64 = 4_000_000_000;
/// Set-ups sampled per run for the `setup_s` median: jobs contribute
/// one each, extra set-ups make up the rest.
const SETUP_SAMPLES: usize = 15;
/// Jobs per run at the least, whatever the time budget.
const MIN_JOBS: usize = 3;

/// Everything a job's inputs and expected outputs are made of.
struct Inputs {
    kind: Kind,
    cfg: MachineConfig,
    /// Mul-T source (`futures_fib`) or assembly.
    src: String,
    expect: Expect,
}

enum Expect {
    /// The run-time's result value.
    Value(i32),
    /// Every node's word at `base + 4 * node` holds `word`.
    Words { base: u32, word: u32 },
    /// Every CPU retired `instrs` instructions and ends with `regs` in
    /// r1..r4.
    Regs { instrs: u64, regs: [u32; 4] },
}

fn fib_host(n: u32) -> i32 {
    let (mut a, mut b) = (0i32, 1i32);
    for _ in 0..n {
        (a, b) = (b, a + b);
    }
    a
}

fn inputs(kind: Kind, seed: u64) -> Inputs {
    let mut rng = Rng::seed_from(seed);
    match kind {
        Kind::FuturesFib => {
            let addend = rng.gen_range(1, 1000) as i32;
            let src = programs::fib(FIB_N).replace(
                &format!("(define (main) (fib {FIB_N}))"),
                &format!("(define (main) (+ {addend} (fib {FIB_N})))"),
            );
            assert!(src.contains("(+ "), "programs::fib changed its main");
            Inputs {
                kind,
                cfg: MachineConfig {
                    topology: Topology::new(2, 4),
                    region_bytes: RT_REGION,
                    ..MachineConfig::default()
                },
                src,
                expect: Expect::Value(fib_host(FIB_N) + addend),
            }
        }
        Kind::StallMesh256 => {
            // All nodes increment their own word of a region homed at
            // node 0 and flush after every store: a remote read miss and
            // a write upgrade per iteration, so CPUs sit switched out.
            let step = 4 * rng.gen_range(1, 8) as u32;
            let src = format!(
                "
                .entry main
                main:
                    ldio 1, r8         ; node id (fixnum == 4*id: byte offset)
                    movi 0x200, r9
                    add r9, r8, r9     ; my word, homed at node 0
                    movi {STALL_ITERS}, r10
                loop:
                    ld r9+0, r11       ; remote read miss
                    add r11, {step}, r11
                    st r11, r9+0       ; write-upgrade miss
                    flush r9+0         ; the next ld misses again
                    sub r10, 1, r10
                    jne loop
                    nop
                    halt
                "
            );
            Inputs {
                kind,
                cfg: MachineConfig {
                    topology: Topology::new(2, 16),
                    region_bytes: ASM_REGION,
                    mem_latency: 250,
                    net: NetConfig {
                        hop_latency: 16,
                        loopback_latency: 1,
                    },
                    ..MachineConfig::default()
                },
                src,
                expect: Expect::Words {
                    base: 0x200,
                    word: step * STALL_ITERS,
                },
            }
        }
        Kind::ComputeLoop16 => {
            // A 32-op straight-line ALU body per iteration, no memory
            // traffic: the decode engine's booked runs do the work.
            let a = 4 * rng.gen_range(1, 16) as u32;
            let b = 4 * rng.gen_range(1, 16) as u32;
            let body =
                format!("add r1, {a}, r1\nxor r2, r1, r2\nsub r3, {b}, r3\nadd r4, r2, r4\n")
                    .repeat(8);
            let src = format!(
                "
                .entry main
                main:
                    movi {COMPUTE_ITERS}, r10
                loop:
                    {body}
                    sub r10, 1, r10
                    jne loop
                    nop
                    halt
                "
            );
            let mut r = [0u32; 4];
            for _ in 0..COMPUTE_ITERS * 8 {
                r[0] = r[0].wrapping_add(a);
                r[1] ^= r[0];
                r[2] = r[2].wrapping_sub(b);
                r[3] = r[3].wrapping_add(r[1]);
            }
            Inputs {
                kind,
                cfg: MachineConfig {
                    topology: Topology::new(2, 4),
                    region_bytes: ASM_REGION,
                    ..MachineConfig::default()
                },
                src,
                // movi + 35 per iteration (32-op body, sub, jne, delay
                // slot) + halt.
                expect: Expect::Regs {
                    instrs: 35 * COMPUTE_ITERS as u64 + 2,
                    regs: r,
                },
            }
        }
    }
}

fn rt_config() -> RtConfig {
    RtConfig {
        region_bytes: RT_REGION,
        max_cycles: MAX_CYCLES,
        ..RtConfig::default()
    }
}

/// A built, booted job.
enum Built {
    Rt(Box<Runtime<Alewife>>),
    Timed(Box<Runtime<Timed<Alewife>>>),
    Asm(Box<Alewife>),
}

/// Set-up timings of one job.
struct Setup {
    total_ns: u64,
    compile_ns: u64,
    build_ns: u64,
}

/// Set-up: compile (or assemble) + `Alewife::new` + boot
/// (+ `Runtime::new`).
fn setup(inp: &Inputs, timed: bool) -> (Built, Setup) {
    let t0 = Instant::now();
    let prog = if inp.kind == Kind::FuturesFib {
        compile(&inp.src, &CompileOptions::april_lazy()).expect("fib compiles")
    } else {
        assemble(&inp.src).expect("workload assembles")
    };
    let compile_ns = ns_since(t0);
    let t1 = Instant::now();
    let mut m = Alewife::new(inp.cfg, prog);
    let build_ns = ns_since(t1);
    let built = match (inp.kind, timed) {
        (Kind::FuturesFib, false) => {
            let mut rt = Runtime::new(m, rt_config());
            rt.boot();
            Built::Rt(Box::new(rt))
        }
        (Kind::FuturesFib, true) => {
            let mut rt = Runtime::new(Timed::new(m), rt_config());
            rt.boot();
            Built::Timed(Box::new(rt))
        }
        _ => {
            m.boot_all();
            Built::Asm(Box::new(m))
        }
    };
    let s = Setup {
        total_ns: ns_since(t0),
        compile_ns,
        build_ns,
    };
    (built, s)
}

/// Checks an assembly workload's final machine; `Err` says what is
/// wrong.
fn check_asm(m: &Alewife, expect: &Expect) -> Result<(), String> {
    if !m.all_halted() || m.pending_work() {
        return Err(format!("not quiescent at cycle {}", m.now()));
    }
    for i in 0..m.num_procs() {
        match *expect {
            Expect::Words { base, word } => {
                let got = m.mem().read(base + 4 * i as u32).0;
                if got != word {
                    return Err(format!(
                        "node {i}: shared word {got:#x}, expected {word:#x}"
                    ));
                }
            }
            Expect::Regs { instrs, regs } => {
                let cpu = m.cpu(i);
                if cpu.stats.instructions != instrs {
                    return Err(format!(
                        "cpu {i}: retired {} instructions, expected {instrs}",
                        cpu.stats.instructions
                    ));
                }
                let got: Vec<u32> = (1..=4).map(|r| cpu.get_reg(Reg::L(r)).0).collect();
                if got != regs {
                    return Err(format!("cpu {i}: r1..r4 = {got:x?}, expected {regs:x?}"));
                }
            }
            Expect::Value(_) => unreachable!("assembly workloads check memory or registers"),
        }
    }
    Ok(())
}

/// What one job produced.
struct Job {
    setup: Setup,
    run_ns: u64,
    cycles: u64,
    /// Taken once the job is checked, so a run holds one report, not
    /// one per job.
    report: Option<StatsReport>,
    check: Result<(), String>,
    /// Timed jobs only: what the timing layers recorded.
    timing: Option<JobTiming>,
}

struct JobTiming {
    advance: Agg,
    quiesce: Agg,
    /// Calls from the run-time system into the machine.
    machine_calls: u64,
    events: u64,
    /// Event handling: `SwitchSpin`'s events, or for the run-time
    /// system its self time (run time outside the machine) over its
    /// events.
    driver: Agg,
    report_ns: u64,
    report_bytes: usize,
}

fn run_job(inp: &Inputs, timed: bool) -> Job {
    let (built, setup) = setup(inp, timed);
    let t = Instant::now();
    match built {
        Built::Rt(mut rt) => {
            let r = rt.run();
            let run_ns = ns_since(t);
            Job {
                setup,
                run_ns,
                cycles: rt.machine().now(),
                report: Some(rt.stats_report()),
                check: check_value(r.map(|r| r.value.as_fixnum()), &inp.expect),
                timing: None,
            }
        }
        Built::Timed(mut rt) => {
            let r = rt.run();
            let run_ns = ns_since(t);
            let (report, report_ns, report_bytes) = timed_report(|| rt.stats_report());
            let m = rt.machine();
            let timing = JobTiming {
                advance: m.advance.clone(),
                quiesce: Agg::default(),
                machine_calls: m.calls(),
                events: m.events,
                driver: Agg {
                    count: m.events,
                    total_ns: run_ns.saturating_sub(m.inside_ns()),
                    ..Agg::default()
                },
                report_ns,
                report_bytes,
            };
            Job {
                setup,
                run_ns,
                cycles: m.now(),
                report: Some(report),
                check: check_value(r.map(|r| r.value.as_fixnum()), &inp.expect),
                timing: Some(timing),
            }
        }
        Built::Asm(mut m) if timed => {
            let driver = TimedDriver::new(SwitchSpin::default());
            let mut lt = LoopTimes::default();
            let fault = drive_timed(&mut m, &driver, MAX_CYCLES, &mut lt);
            let run_ns = ns_since(t);
            let (report, report_ns, report_bytes) = timed_report(|| m.stats_report());
            let timing = JobTiming {
                advance: lt.advance,
                quiesce: lt.quiesce,
                machine_calls: 0,
                events: lt.events,
                driver: driver.agg(),
                report_ns,
                report_bytes,
            };
            Job {
                setup,
                run_ns,
                cycles: m.now(),
                report: Some(report),
                check: check_fault(fault, &m, &inp.expect),
                timing: Some(timing),
            }
        }
        Built::Asm(mut m) => {
            let fault = drive_sequential(&mut m, &SwitchSpin::default(), MAX_CYCLES);
            let run_ns = ns_since(t);
            Job {
                setup,
                run_ns,
                cycles: m.now(),
                report: Some(m.stats_report()),
                check: check_fault(fault, &m, &inp.expect),
                timing: None,
            }
        }
    }
}

fn check_fault(fault: Option<MachineFault>, m: &Alewife, expect: &Expect) -> Result<(), String> {
    match fault {
        Some(f) => Err(format!("machine fault: {f}")),
        None => check_asm(m, expect),
    }
}

fn check_value<E: std::fmt::Display>(
    got: Result<Option<i32>, E>,
    expect: &Expect,
) -> Result<(), String> {
    let Expect::Value(want) = *expect else {
        unreachable!("futures_fib checks a value");
    };
    match got {
        Ok(Some(v)) if v == want => Ok(()),
        Ok(v) => Err(format!("result {v:?}, expected {want}")),
        Err(e) => Err(format!("run failed: {e}")),
    }
}

/// `stats_report()` + `to_json()`, timed: the report and obs layer's
/// cost per finished job.
fn timed_report(f: impl FnOnce() -> StatsReport) -> (StatsReport, u64, usize) {
    let t = Instant::now();
    let report = f();
    let bytes = report.to_json().len();
    (report, ns_since(t), bytes)
}

/// A mid-run cut: run to half the job's cycles, checkpoint, restore
/// into a freshly built machine, finish there. Returns (checkpoint ns,
/// restore ns, snapshot bytes, final stats report), or what went wrong.
fn cut_run(inp: &Inputs, cycles: u64) -> Result<(u64, u64, usize, StatsReport), String> {
    let mid = cycles / 2;
    let (built, _) = setup(inp, false);
    match built {
        Built::Rt(mut rt) => {
            match rt.run_until(mid) {
                Ok(None) => {}
                other => return Err(format!("run ended before the cut at {mid}: {other:?}")),
            }
            let t = Instant::now();
            let snap = rt.checkpoint().map_err(|e| e.to_string())?;
            let ck_ns = ns_since(t);
            let t = Instant::now();
            let m = Alewife::new(inp.cfg, rt.machine().program().clone());
            let mut rt2 = Runtime::new(m, rt_config());
            rt2.restore(&snap).map_err(|e| e.to_string())?;
            let rs_ns = ns_since(t);
            check_value(rt2.run().map(|r| r.value.as_fixnum()), &inp.expect)?;
            Ok((ck_ns, rs_ns, snap.as_bytes().len(), rt2.stats_report()))
        }
        Built::Asm(mut m) => {
            let driver = SwitchSpin::default();
            if let Some(f) = drive_sequential_until(&mut m, &driver, mid, MAX_CYCLES) {
                return Err(format!("machine fault before the cut: {f}"));
            }
            let t = Instant::now();
            let snap = m.checkpoint().map_err(|e| e.to_string())?;
            let ck_ns = ns_since(t);
            let t = Instant::now();
            let mut m2 = Alewife::from_snapshot(inp.cfg, m.program().clone(), None, &snap)
                .map_err(|e| e.to_string())?;
            let rs_ns = ns_since(t);
            if let Some(f) = drive_sequential(&mut m2, &driver, MAX_CYCLES) {
                return Err(format!("machine fault after the restore: {f}"));
            }
            check_asm(&m2, &inp.expect)?;
            Ok((ck_ns, rs_ns, snap.as_bytes().len(), m2.stats_report()))
        }
        Built::Timed(_) => unreachable!("cut runs are untimed"),
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Runs `kind` for `seconds`. Untraced: repeats whole jobs and reports
/// the end-to-end metrics. Traced: alternates untraced and timed jobs,
/// adds one checkpoint/restore cut, and reports the per-layer metrics.
pub fn run(kind: Kind, seed: u64, seconds: u64, traced: bool, rec: &mut Recorder) -> Outcome {
    let inp = inputs(kind, seed);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut out = Outcome::default();
    let mut plain: Vec<Job> = Vec::new();
    let mut timed: Vec<Job> = Vec::new();
    let mut reference: Option<String> = None;
    let mut first_timed_report: Option<StatsReport> = None;

    let mut record = |mut job: Job, out: &mut Outcome, rec: &mut Recorder, name: &'static str| {
        out.ops += 1;
        let end = Instant::now();
        let start = end - Duration::from_nanos(job.setup.total_ns + job.run_ns);
        let ready = start + Duration::from_nanos(job.setup.total_ns);
        let parent = rec.span(name, start, end, None, None);
        rec.span("setup", start, ready, Some(parent), None);
        rec.span("run", ready, end, Some(parent), None);
        let report = job.report.take().expect("a fresh job has its report");
        let json = report.to_json();
        if job.timing.is_some() && first_timed_report.is_none() {
            first_timed_report = Some(report);
        }
        let same = match &reference {
            None => {
                reference = Some(json);
                true
            }
            Some(r) => *r == json,
        };
        let verdict = match (&job.check, same) {
            (Err(e), _) => Err(e.clone()),
            (Ok(()), false) => Err("stats JSON differs from the first job's".into()),
            (Ok(()), true) => Ok(()),
        };
        if let Err(e) = verdict {
            out.fail(format!("{name} {}: {e}", out.ops));
        }
        job
    };

    while plain.len() < MIN_JOBS || Instant::now() < deadline {
        let job = record(run_job(&inp, false), &mut out, rec, "job");
        plain.push(job);
        if traced {
            let job = record(run_job(&inp, true), &mut out, rec, "timed_job");
            if let Some(tm) = &job.timing {
                rec.agg("machine.advance_into", &tm.advance);
                rec.agg("machine.quiesce_check", &tm.quiesce);
                rec.agg("driver.on_event", &tm.driver);
            }
            timed.push(job);
        }
    }
    let mut setups: Vec<f64> = plain
        .iter()
        .chain(&timed)
        .map(|j| j.setup.total_ns as f64)
        .collect();
    let mut builds: Vec<f64> = plain
        .iter()
        .chain(&timed)
        .map(|j| j.setup.build_ns as f64)
        .collect();
    let mut compiles: Vec<f64> = plain
        .iter()
        .chain(&timed)
        .map(|j| j.setup.compile_ns as f64)
        .collect();
    while setups.len() < SETUP_SAMPLES {
        let (_, s) = setup(&inp, false);
        setups.push(s.total_ns as f64);
        builds.push(s.build_ns as f64);
        compiles.push(s.compile_ns as f64);
    }

    out.samples = vec![
        ("jobs", plain.len()),
        ("timed_jobs", timed.len()),
        ("setups", setups.len()),
    ];
    let run_ns: Vec<f64> = plain.iter().map(|j| j.run_ns as f64).collect();
    let cycles = plain[0].cycles;
    if !traced {
        let job_ms: Vec<f64> = plain
            .iter()
            .map(|j| ms(j.setup.total_ns + j.run_ns))
            .collect();
        let m = &mut out.metrics;
        m.set("setup_s", median(&setups) / 1e9);
        m.set("job_ms", least(&job_ms));
        m.set("peak_rss_mb", peak_rss_mb());
        return out;
    }

    // Traced: per-layer numbers.
    out.ops += 1;
    let cut = cut_run(&inp, cycles);
    match &cut {
        Ok((.., report)) if Some(report.to_json()) != reference => {
            out.fail("cut run: stats JSON differs from the uncut run's".into())
        }
        Ok(_) => {}
        Err(e) => out.fail(format!("cut run: {e}")),
    }
    let m = &mut out.metrics;
    if let Ok((ck, rs, bytes, _)) = cut {
        m.set("machine.checkpoint_ms", ms(ck));
        m.set("machine.restore_ms", ms(rs));
        m.set("machine.snapshot_bytes", bytes as f64);
    }
    let tms: Vec<&JobTiming> = timed.iter().filter_map(|j| j.timing.as_ref()).collect();
    let per = |f: &dyn Fn(&JobTiming) -> f64| median(&tms.iter().map(|t| f(t)).collect::<Vec<_>>());
    let timed_run: Vec<f64> = timed.iter().map(|j| j.run_ns as f64).collect();
    let t0 = tms[0];
    let report = first_timed_report.expect("a traced run times at least one job");
    let visits = t0.advance.count as f64;
    if kind == Kind::FuturesFib {
        m.set("mult.compile_ms", median(&compiles) / 1e6);
        m.set(
            "runtime.self_ns_per_cycle",
            per(&|t| t.driver.total_ns as f64) / cycles as f64,
        );
        m.set("runtime.machine_calls", t0.machine_calls as f64);
        let sched = |key: &str| {
            report
                .section("sched")
                .and_then(|s| s.get_counter(key))
                .unwrap_or(0) as f64
        };
        m.set("runtime.threads_created", sched("threads_created"));
        m.set("runtime.lazy_created", sched("lazy_created"));
        m.set("runtime.lazy_steals", sched("lazy_steals"));
        m.set("runtime.blocks", sched("blocks"));
        m.set("runtime.loads", sched("loads"));
    }
    m.set("machine.sim_cycles", cycles as f64);
    m.set("machine.visits", visits);
    m.set("machine.visit_ratio", visits / cycles as f64);
    m.set(
        "machine.advance_ns_per_visit",
        per(&|t| t.advance.mean_ns()),
    );
    m.set(
        "machine.quiesce_check_ns_per_visit",
        per(&|t| t.quiesce.mean_ns()),
    );
    m.set("machine.events_per_visit", t0.events as f64 / visits);
    m.set("machine.driver_ns_per_event", per(&|t| t.driver.mean_ns()));
    m.set(
        "machine.sim_cycles_per_s",
        cycles as f64 / (least(&run_ns) / 1e9),
    );
    m.set("machine.build_ms", median(&builds) / 1e6);
    m.set("obs.report_ms", per(&|t| t.report_ns as f64) / 1e6);
    m.set("obs.report_bytes", t0.report_bytes as f64);
    m.report_counts(&[&report]);
    m.set(
        "bench.trace_overhead_ratio",
        least(&timed_run) / least(&run_ns),
    );
    out
}
