//! `serve_jobs`: an in-process april-serve daemon with a 2-worker pool,
//! driven over its Unix socket by one client connection — this thread
//! sends, a reader thread timestamps every frame on arrival.
//!
//! * **Open phase**: seeded exponential arrivals at a fixed rate well
//!   below the pool's capacity; each job is timed from when it was due,
//!   so a stalled generator or daemon shows in the latency.
//! * **Sweep phase**: batches submitted at once, as `april-serve sweep`
//!   does; throughput is jobs over the batch's makespan.
//!
//! Jobs are a seeded mix: most fork one registered 4-node `Contended`
//! warm image with their own fault seed, some cold-boot an `OpenLoop`
//! traffic machine, a few ask for the event trace. After timing, a
//! seed-chosen sample is re-run in-process with `run_job` from a cold
//! boot and must match the daemon's stats (and trace) byte for byte.

use crate::measure::{least, mean, median, ns_since, pct, peak_rss_mb, Agg, Recorder};
use crate::timed::{drive_timed, LoopTimes, TimedDriver};
use crate::{Metrics, Outcome};
use april_machine::{
    drive_sequential, drive_sequential_until, Alewife, Machine, Snapshot, SwitchSpin, TrafficConfig,
};
use april_obs::{validate_json, StatsReport, TraceConfig};
use april_serve::{
    run_job, serve, DaemonConfig, FaultSpec, Frame, JobSpec, JobSummary, SimSpec, Workload,
    PROTO_VERSION,
};
use april_util::rng::Rng;
use std::collections::{HashMap, HashSet};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Worker threads in the daemon's pool.
const POOL_THREADS: usize = 2;
const WARM_ID: u32 = 1;
/// The warm image's cut: the `Contended` workload below quiesces near
/// cycle 133K, so a fork runs the last quarter.
const WARM_CYCLES: u64 = 100_000;
/// Open-phase arrival rate (jobs per second): about a fifth of what the
/// two workers drain in the sweep phase, so a slower host stretches the
/// latency little instead of building a queue.
const OPEN_RATE: f64 = 32.0;
/// Share of the time budget spent in the open phase; the sweep phase
/// takes the rest.
const OPEN_SHARE: f64 = 0.9;
/// Jobs per sweep batch: one whole deck.
const SWEEP_BATCH: usize = 50;
/// Throwaway daemons set up at the start of each round for the
/// `setup_s` median, so the set-ups sample the whole run, as the jobs
/// do.
const SETUPS_PER_ROUND: usize = 5;
/// Rounds of open arrivals followed by sweep batches.
const ROUNDS: usize = 5;
/// Jobs of each kind re-run in-process after timing.
const SAMPLE_PER_KIND: usize = 2;
/// Longest wait for any one frame before the run is declared stuck.
const STALL_LIMIT: Duration = Duration::from_secs(30);

/// The machine every warm job forks.
fn contended() -> SimSpec {
    SimSpec {
        radix: 2,
        dim: 2,
        workload: Workload::Contended {
            outer: 1000,
            inner: 0,
        },
        ..SimSpec::default()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobKind {
    Warm,
    WarmTraced,
    Cold,
}

/// One generated job: what the daemon receives, plus its kind.
#[derive(Debug, Clone, Copy)]
struct Gen {
    kind: JobKind,
    spec: JobSpec,
}

/// One deck of the job mix, dealt in a seeded order: 78% warm forks,
/// 2% warm forks that stream their trace, 20% cold open-loop machines.
/// Dealing whole decks keeps every stretch of 50 jobs at the same mix,
/// so seeds differ in order and fault/traffic seeds, not in how much
/// work they ask for. A traced job costs several plain ones (its 2 MB
/// trace is collected and encoded on the worker); at 2% of the jobs,
/// twice the 1% tail, `serve.job_p99_ms` falls mid-way through the
/// traced jobs' latencies rather than on the edge between two kinds of
/// job.
const DECK: [(JobKind, usize); 3] = [
    (JobKind::Warm, 39),
    (JobKind::WarmTraced, 1),
    (JobKind::Cold, 10),
];

/// The seeded job generator.
struct Mix {
    rng: Rng,
    deck: Vec<JobKind>,
}

impl Mix {
    fn new(seed: u64) -> Mix {
        Mix {
            rng: Rng::seed_from(seed),
            deck: Vec::new(),
        }
    }

    fn next(&mut self) -> Gen {
        if self.deck.is_empty() {
            self.deck = DECK
                .iter()
                .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
                .collect();
            self.rng.shuffle(&mut self.deck);
        }
        let kind = self.deck.pop().expect("the deck was just refilled");
        let seed = self.rng.next_u64();
        let spec = match kind {
            JobKind::Cold => JobSpec {
                sim: SimSpec {
                    radix: 2,
                    dim: 2,
                    workload: Workload::OpenLoop(TrafficConfig {
                        seed,
                        ..TrafficConfig::default()
                    }),
                    ..SimSpec::default()
                },
                ..JobSpec::default()
            },
            _ => JobSpec {
                sim: contended(),
                fault: Some(FaultSpec {
                    seed,
                    drop: 0.01,
                    dup: 0.01,
                    delay: 0.02,
                    max_delay: 40,
                }),
                warm: Some(WARM_ID),
                warm_cycles: WARM_CYCLES,
                want_trace: kind == JobKind::WarmTraced,
                ..JobSpec::default()
            },
        };
        Gen { kind, spec }
    }
}

/// What arrived for one job, stamped by the reader thread.
#[derive(Debug)]
struct Arrivals {
    accepted: Option<Instant>,
    queued: u32,
    first_chunk: Option<Instant>,
    done: Option<Instant>,
    /// The stats JSON, whole once `Done` arrives.
    stats: Vec<u8>,
    /// Whether the stats JSON was valid, checked on arrival.
    stats_valid: Result<(), String>,
    trace_bytes: usize,
    /// The trace; kept only for the jobs re-run after timing, as is the
    /// stats JSON once checked, so memory does not grow with the run.
    trace: Vec<u8>,
    summary: Option<JobSummary>,
    error: Option<String>,
}

impl Default for Arrivals {
    fn default() -> Arrivals {
        Arrivals {
            accepted: None,
            queued: 0,
            first_chunk: None,
            done: None,
            stats: Vec::new(),
            stats_valid: Err("no stats".into()),
            trace_bytes: 0,
            trace: Vec::new(),
            summary: None,
            error: None,
        }
    }
}

/// What the sender knows about one job.
struct Sent {
    gen: Gen,
    job_id: u32,
    due: Instant,
    sent: Instant,
}

/// Reads frames until the daemon says `Bye` or hangs up, stamping each
/// on arrival; tells the sender about every terminal frame. Traces are
/// kept only for the jobs in `keep`.
fn reader(
    stream: UnixStream,
    tx: std::sync::mpsc::Sender<u32>,
    keep: HashSet<u32>,
) -> HashMap<u32, Arrivals> {
    let mut jobs: HashMap<u32, Arrivals> = HashMap::new();
    let mut r = &stream;
    while let Ok(frame) = Frame::read_from(&mut r) {
        let now = Instant::now();
        let terminal = match frame {
            Frame::Accepted { job_id, queued } => {
                let a = jobs.entry(job_id).or_default();
                a.accepted = Some(now);
                a.queued = queued;
                None
            }
            Frame::StatsChunk { job_id, data, .. } => {
                let a = jobs.entry(job_id).or_default();
                a.first_chunk.get_or_insert(now);
                a.stats.extend_from_slice(&data);
                None
            }
            Frame::TraceChunk { job_id, data, .. } => {
                let a = jobs.entry(job_id).or_default();
                a.first_chunk.get_or_insert(now);
                a.trace_bytes += data.len();
                if keep.contains(&job_id) {
                    a.trace.extend_from_slice(&data);
                }
                None
            }
            Frame::Done { job_id, summary } => {
                let a = jobs.entry(job_id).or_default();
                a.summary = Some(summary);
                a.stats_valid = std::str::from_utf8(&a.stats)
                    .map_err(|e| e.to_string())
                    .and_then(validate_json);
                if !keep.contains(&job_id) {
                    a.stats = Vec::new();
                }
                Some(job_id)
            }
            Frame::JobError { job_id, message } => {
                jobs.entry(job_id).or_default().error = Some(message);
                Some(job_id)
            }
            Frame::Canceled { job_id } => {
                jobs.entry(job_id).or_default().error = Some("canceled".into());
                Some(job_id)
            }
            Frame::Bye { .. } => break,
            other => {
                eprintln!("serve_jobs: unexpected frame {other:?}");
                break;
            }
        };
        if let Some(id) = terminal {
            jobs.entry(id).or_default().done = Some(now);
            let _ = tx.send(id);
        }
    }
    jobs
}

/// A daemon in a thread, with a handshaken connection and the warm
/// image registered.
struct Daemon {
    thread: JoinHandle<Result<april_serve::DaemonReport, april_serve::ServeError>>,
    stream: UnixStream,
    /// RegisterWarm sent → WarmReady received.
    warm_build_ns: u64,
}

fn send(stream: &UnixStream, frame: &Frame) -> Result<(), String> {
    frame.write_to(&mut &*stream).map_err(|e| e.to_string())
}

fn recv(stream: &UnixStream) -> Result<Frame, String> {
    Frame::read_from(&mut &*stream).map_err(|e| e.to_string())
}

/// Set-up: daemon start + handshake + `register_warm`.
fn start_daemon(socket: &Path) -> Result<Daemon, String> {
    let cfg = DaemonConfig {
        socket: socket.to_path_buf(),
        threads: POOL_THREADS,
    };
    let thread = std::thread::spawn(move || serve(&cfg));
    let t = Instant::now();
    let stream = loop {
        match UnixStream::connect(socket) {
            Ok(s) => break s,
            Err(e) if t.elapsed() > STALL_LIMIT => return Err(format!("connect: {e}")),
            Err(_) => std::thread::sleep(Duration::from_micros(100)),
        }
    };
    stream
        .set_read_timeout(Some(STALL_LIMIT))
        .map_err(|e| e.to_string())?;
    send(
        &stream,
        &Frame::Hello {
            version: PROTO_VERSION,
            client: "aprilbench".into(),
        },
    )?;
    match recv(&stream)? {
        Frame::HelloAck { .. } => {}
        other => return Err(format!("expected HelloAck, got {other:?}")),
    }
    let t = Instant::now();
    send(
        &stream,
        &Frame::RegisterWarm {
            warm_id: WARM_ID,
            sim: contended(),
            warm_cycles: WARM_CYCLES,
        },
    )?;
    match recv(&stream)? {
        Frame::WarmReady { .. } => {}
        other => return Err(format!("expected WarmReady, got {other:?}")),
    }
    Ok(Daemon {
        thread,
        stream,
        warm_build_ns: ns_since(t),
    })
}

/// Asks a daemon with no reader attached to drain and exit.
fn stop_daemon(d: Daemon) -> Result<(), String> {
    send(&d.stream, &Frame::Shutdown { cancel: false })?;
    loop {
        if let Frame::Bye { .. } = recv(&d.stream)? {
            break;
        }
    }
    join_daemon(d.thread)
}

fn join_daemon(
    thread: JoinHandle<Result<april_serve::DaemonReport, april_serve::ServeError>>,
) -> Result<(), String> {
    match thread.join() {
        Ok(Ok(_)) => Ok(()),
        Ok(Err(e)) => Err(format!("daemon: {e}")),
        Err(_) => Err("daemon thread panicked".into()),
    }
}

/// Waits for `n` terminal frames; returns the time of the last, or
/// `None` if the daemon went quiet for longer than [`STALL_LIMIT`].
fn await_terminals(rx: &Receiver<u32>, n: usize) -> Option<Instant> {
    for _ in 0..n {
        rx.recv_timeout(STALL_LIMIT).ok()?;
    }
    Some(Instant::now())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What an in-process re-run of one sample job produced.
struct ReRun {
    report: StatsReport,
    json: String,
    trace: Option<String>,
    cycles: u64,
    wall_ns: u64,
    build_ns: u64,
    restore_ns: Option<u64>,
    report_ns: u64,
    loop_times: LoopTimes,
    driver: Agg,
}

/// Re-runs one sample job on the bench's own loop, timed or not: warm
/// forks restore `snap`, cold jobs boot.
fn rerun(gen: &Gen, snap: &Snapshot, timed: bool) -> Result<ReRun, String> {
    let sim = gen.spec.sim;
    let prog = sim.program().map_err(|e| e.to_string())?;
    let t = Instant::now();
    let (mut m, build_ns, restore_ns) = if gen.spec.warm.is_some() {
        let m = Alewife::from_snapshot(
            sim.machine_config(),
            prog,
            Some(TraceConfig::default()),
            snap,
        )
        .map_err(|e| e.to_string())?;
        (m, 0, Some(ns_since(t)))
    } else {
        let mut m = Alewife::new(sim.machine_config(), prog);
        let build_ns = ns_since(t);
        m.attach_tracer(TraceConfig::default());
        m.boot_all();
        (m, build_ns, None)
    };
    if let Some(f) = &gen.spec.fault {
        m.set_fault_plan(f.plan());
    }
    let start = m.now();
    let driver = TimedDriver::new(SwitchSpin::default());
    let mut lt = LoopTimes::default();
    let fault = if timed {
        drive_timed(&mut m, &driver, gen.spec.max_cycles, &mut lt)
    } else {
        drive_sequential(&mut m, &SwitchSpin::default(), gen.spec.max_cycles)
    };
    let wall_ns = ns_since(t);
    if let Some(f) = fault {
        return Err(format!("machine fault: {f}"));
    }
    let t = Instant::now();
    let report = m.stats_report();
    let json = report.to_json();
    let report_ns = ns_since(t);
    let trace = gen.spec.want_trace.then(|| {
        let mut tr = m.collect_trace();
        tr.retain_semantic();
        tr.to_jsonl()
    });
    Ok(ReRun {
        report,
        json,
        trace,
        cycles: m.now() - start,
        wall_ns,
        build_ns,
        restore_ns,
        report_ns,
        loop_times: lt,
        driver: driver.agg(),
    })
}

/// The warm image cut in-process on the bench's side, for the
/// checkpoint timing and for the traced re-runs to fork.
fn warm_snapshot() -> Result<(Snapshot, u64), String> {
    let sim = contended();
    let mut m = Alewife::new(
        sim.machine_config(),
        sim.program().map_err(|e| e.to_string())?,
    );
    m.attach_tracer(TraceConfig::default());
    m.boot_all();
    let driver = SwitchSpin::default();
    if let Some(f) = drive_sequential_until(&mut m, &driver, WARM_CYCLES, WARM_CYCLES + 2) {
        return Err(format!("warmup faulted: {f}"));
    }
    let t = Instant::now();
    let snap = m.checkpoint().map_err(|e| e.to_string())?;
    Ok((snap, ns_since(t)))
}

/// The open phase's inputs, drawn before any timing: one stretch of
/// arrivals per round. Open jobs take ids `0..`, sweep jobs follow.
struct Plan {
    /// Per round: (seconds after the stretch starts, job).
    rounds: Vec<Vec<(f64, Gen)>>,
    open_jobs: usize,
    /// Open jobs re-run after timing: a few of each kind, seed-chosen.
    sample: Vec<u32>,
    sweep_mix: Mix,
}

impl Plan {
    fn new(seed: u64, seconds: u64) -> Plan {
        let mut gaps = Rng::seed_from(seed);
        let mut mix = Mix::new(seed ^ 0x0A11_CE00_0A11_CE00);
        let stretch = seconds as f64 * OPEN_SHARE / ROUNDS as f64;
        let mut rounds = Vec::new();
        for _ in 0..ROUNDS {
            let mut round = Vec::new();
            let mut at = 0.0;
            loop {
                at += -(1.0 - gaps.gen_f64()).ln() / OPEN_RATE;
                if at >= stretch {
                    break;
                }
                round.push((at, mix.next()));
            }
            rounds.push(round);
        }
        let kinds: Vec<JobKind> = rounds.iter().flatten().map(|(_, g)| g.kind).collect();
        let mut pick = Rng::seed_from(seed ^ 0xC0FF_EE00_C0FF_EE00);
        let mut sample = Vec::new();
        for kind in [JobKind::Warm, JobKind::WarmTraced, JobKind::Cold] {
            let mut of_kind: Vec<u32> = (0..kinds.len() as u32)
                .filter(|&i| kinds[i as usize] == kind)
                .collect();
            pick.shuffle(&mut of_kind);
            sample.extend(of_kind.iter().take(SAMPLE_PER_KIND));
        }
        Plan {
            rounds,
            open_jobs: kinds.len(),
            sample,
            sweep_mix: Mix::new(seed ^ 0x5EED_5EED_5EED_5EED),
        }
    }
}

/// Set-up samples: seconds each, and the warm build's milliseconds.
#[derive(Default)]
struct Setups {
    secs: Vec<f64>,
    warm_build_ms: Vec<f64>,
}

/// One timed set-up on `socket`.
fn set_up(socket: &Path, setups: &mut Setups, rec: &mut Recorder) -> Result<Daemon, String> {
    let t = Instant::now();
    let d = start_daemon(socket).map_err(|e| format!("daemon set-up: {e}"))?;
    setups.secs.push(t.elapsed().as_secs_f64());
    rec.span("setup", t, Instant::now(), None, None);
    setups.warm_build_ms.push(d.warm_build_ns as f64 / 1e6);
    Ok(d)
}

/// `n` timed set-ups of throwaway daemons on `socket`, each stopped
/// again.
fn sample_setups(
    socket: &Path,
    n: usize,
    setups: &mut Setups,
    rec: &mut Recorder,
) -> Result<(), String> {
    for _ in 0..n {
        let d = set_up(socket, setups, rec)?;
        stop_daemon(d).map_err(|e| format!("daemon stop: {e}"))?;
    }
    Ok(())
}

/// What the timed phases sent and received.
struct Traffic {
    open: Vec<Sent>,
    sweep: Vec<Sent>,
    /// Seconds from a sweep batch's submission to its last terminal
    /// frame.
    makespans: Vec<f64>,
    arrivals: HashMap<u32, Arrivals>,
}

/// Rounds of set-ups of throwaway daemons on `probe`, an open stretch,
/// drained, then sweep batches for the rest of the round: every phase
/// samples the whole run, not one end of it. Stops the daemon
/// afterwards.
fn drive(
    d: Daemon,
    plan: &mut Plan,
    seconds: u64,
    probe: &Path,
    setups: &mut Setups,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Traffic {
    let Daemon { thread, stream, .. } = d;
    let (tx, rx) = channel();
    let reader_stream = stream.try_clone().expect("unix stream clones");
    let keep = plan.sample.iter().copied().collect();
    let reader = std::thread::spawn(move || reader(reader_stream, tx, keep));

    let submit =
        |list: &mut Vec<Sent>, job_id: u32, gen: Gen, due: Instant| -> Result<(), String> {
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            send(
                &stream,
                &Frame::Submit {
                    job_id,
                    spec: gen.spec,
                },
            )?;
            list.push(Sent {
                gen,
                job_id,
                due,
                sent: Instant::now(),
            });
            Ok(())
        };
    let mut open = Vec::new();
    let mut sweep = Vec::new();
    let mut makespans = Vec::new();
    let mut stuck = None;
    let t_run = Instant::now();
    'rounds: for (r, round) in plan.rounds.iter().enumerate() {
        if let Err(e) = sample_setups(probe, SETUPS_PER_ROUND, setups, rec) {
            stuck = Some(e);
            break;
        }
        let t = Instant::now();
        for &(at, gen) in round {
            let id = open.len() as u32;
            if let Err(e) = submit(&mut open, id, gen, t + Duration::from_secs_f64(at)) {
                stuck = Some(format!("submit: {e}"));
                break 'rounds;
            }
        }
        if await_terminals(&rx, round.len()).is_none() {
            stuck = Some("the daemon stopped answering".into());
            break;
        }
        rec.span("open_stretch", t, Instant::now(), None, None);
        let round_end =
            t_run + Duration::from_secs_f64(seconds as f64 * (r + 1) as f64 / ROUNDS as f64);
        loop {
            let t = Instant::now();
            for _ in 0..SWEEP_BATCH {
                let id = (plan.open_jobs + sweep.len()) as u32;
                if let Err(e) = submit(&mut sweep, id, plan.sweep_mix.next(), t) {
                    stuck = Some(format!("submit: {e}"));
                    break 'rounds;
                }
            }
            let Some(end) = await_terminals(&rx, SWEEP_BATCH) else {
                stuck = Some("the daemon stopped answering".into());
                break 'rounds;
            };
            makespans.push((end - t).as_secs_f64());
            rec.span("sweep_batch", t, end, None, None);
            if Instant::now() >= round_end {
                break;
            }
        }
    }
    if let Some(e) = &stuck {
        out.fail(e.clone());
    }
    let stop = send(
        &stream,
        &Frame::Shutdown {
            cancel: stuck.is_some(),
        },
    );
    let mut arrivals = reader.join().expect("reader thread does not panic");
    // A job the daemon never answered still gets an (empty) entry.
    for s in open.iter().chain(&sweep) {
        arrivals.entry(s.job_id).or_default();
    }
    if let Err(e) = stop.and_then(|()| join_daemon(thread)) {
        out.fail(format!("daemon shutdown: {e}"));
    }
    Traffic {
        open,
        sweep,
        makespans,
        arrivals,
    }
}

impl Traffic {
    fn arr(&self, s: &Sent) -> &Arrivals {
        &self.arrivals[&s.job_id]
    }

    /// Latencies in milliseconds of the open-phase jobs whose kind
    /// passes `keep`, from when each was due to its `Done` frame.
    fn latencies(&self, keep: impl Fn(JobKind) -> bool) -> Vec<f64> {
        self.open
            .iter()
            .filter(|s| keep(s.gen.kind))
            .filter_map(|s| self.arr(s).done.map(|d| ms(d - s.due)))
            .collect()
    }

    /// Every job: `Done`, no fault, valid stats JSON, a trace when asked.
    fn check(&self, out: &mut Outcome) {
        for s in self.open.iter().chain(&self.sweep) {
            let a = self.arr(s);
            let verdict = match (&a.summary, &a.error) {
                (_, Some(e)) => Err(format!("ended with {e}")),
                (None, None) => Err("no terminal frame".into()),
                (Some(sum), None) if !sum.fault.is_empty() => Err(format!("fault: {}", sum.fault)),
                (Some(_), None) if s.gen.spec.want_trace && a.trace_bytes == 0 => {
                    Err("asked for a trace, got none".into())
                }
                (Some(_), None) => a.stats_valid.clone(),
            };
            if let Err(e) = verdict {
                out.fail(format!("job {}: {e}", s.job_id));
            }
        }
    }

    /// Spans of the open jobs, from the arrival stamps.
    fn spans(&self, rec: &mut Recorder) {
        for s in &self.open {
            let a = self.arr(s);
            let (Some(acc), Some(first), Some(done)) = (a.accepted, a.first_chunk, a.done) else {
                continue;
            };
            let job = Some(s.job_id);
            let p = rec.span("job", s.due, done, None, job);
            rec.span("generator_lag", s.due, s.sent, Some(p), job);
            rec.span("accept", s.sent, acc, Some(p), job);
            rec.span("queue_setup_run", acc, first, Some(p), job);
            rec.span("stream", first, done, Some(p), job);
        }
    }

    /// The `serve.*` metrics and the traced jobs' trace size, from the
    /// open jobs' arrival stamps and `Done` summaries.
    fn serve_metrics(&self, warm_builds: &[f64], m: &mut Metrics) {
        let done: Vec<(&Sent, &Arrivals, &JobSummary)> = self
            .open
            .iter()
            .filter_map(|s| {
                let a = self.arr(s);
                a.summary.as_ref().map(|sum| (s, a, sum))
            })
            .collect();
        let col = |f: &dyn Fn(&Sent, &Arrivals, &JobSummary) -> Option<f64>| -> Vec<f64> {
            done.iter().filter_map(|(s, a, sum)| f(s, a, sum)).collect()
        };
        let accept = col(&|s, a, _| a.accepted.map(|t| ms(t - s.sent)));
        // Accepted → first chunk, less the daemon-reported set-up and
        // run: the time queued, plus the report encode on the worker.
        let queue = col(&|_, a, sum| {
            let (acc, first) = (a.accepted?, a.first_chunk?);
            Some((ms(first - acc) - (sum.setup_ns + sum.run_ns) as f64 / 1e6).max(0.0))
        });
        let setup_warm = col(&|_, _, sum| sum.warm_used.then_some(sum.setup_ns as f64 / 1e6));
        let setup_cold = col(&|_, _, sum| (!sum.warm_used).then_some(sum.setup_ns as f64 / 1e6));
        let runs = col(&|_, _, sum| Some(sum.run_ns as f64 / 1e6));
        let stream_ms = col(&|_, a, _| Some(ms(a.done? - a.first_chunk?)));
        let trace_bytes = col(&|s, a, _| s.gen.spec.want_trace.then_some(a.trace_bytes as f64));
        let lag: Vec<f64> = self.open.iter().map(|s| ms(s.sent - s.due)).collect();
        let depth = self
            .open
            .iter()
            .chain(&self.sweep)
            .map(|s| self.arr(s).queued)
            .max()
            .unwrap_or(0);
        let lat = self.latencies(|_| true);
        m.set("serve.job_p50_ms", median(&lat));
        m.set("serve.job_p99_ms", pct(&lat, 0.99));
        m.set(
            "serve.sweep_jobs_per_s",
            (SWEEP_BATCH * self.makespans.len()) as f64 / self.makespans.iter().sum::<f64>(),
        );
        m.set("serve.accept_ms_p50", median(&accept));
        m.set("serve.queue_wait_ms_p50", median(&queue));
        m.set("serve.queue_wait_ms_p99", pct(&queue, 0.99));
        m.set("serve.setup_ms_warm_p50", median(&setup_warm));
        m.set("serve.setup_ms_cold_p50", median(&setup_cold));
        m.set("serve.run_ms_p50", median(&runs));
        m.set("serve.stream_ms_p50", median(&stream_ms));
        m.set("serve.queue_depth_max", depth as f64);
        m.set("serve.warm_build_ms", median(warm_builds));
        m.set("serve.generator_lag_ms_p99", pct(&lag, 0.99));
        m.set("obs.trace_bytes_per_traced_job", mean(&trace_bytes));
    }
}

/// Re-runs the sample cold in-process with `run_job`: stats and trace
/// must match the daemon's byte for byte.
fn verify_cold(sample: &[&Sent], traffic: &Traffic, out: &mut Outcome) {
    for s in sample {
        let a = traffic.arr(s);
        let cold = JobSpec {
            warm: None,
            ..s.gen.spec
        };
        let verdict = match run_job(&cold, None) {
            Ok(o) if o.stats_json.as_bytes() != a.stats.as_slice() => {
                Err("cold re-run stats differ from the daemon's".to_string())
            }
            Ok(o) if o.trace_jsonl.as_deref().map(str::as_bytes).unwrap_or(&[]) != a.trace => {
                Err("cold re-run trace differs from the daemon's".to_string())
            }
            Ok(_) => Ok(()),
            Err(e) => Err(format!("re-run refused: {e}")),
        };
        if let Err(e) = verdict {
            out.fail(format!("job {}: {e}", s.job_id));
        }
    }
}

/// The sample again on the bench's own loop, untimed then timed, forking
/// a warm image cut here: the machine, core, mem, net and obs numbers of
/// the job mix, and the timing overhead.
fn rerun_metrics(sample: &[&Sent], traffic: &Traffic, rec: &mut Recorder, out: &mut Outcome) {
    let (snap, checkpoint_ns) = match warm_snapshot() {
        Ok(x) => x,
        Err(e) => {
            out.fail(format!("warm image: {e}"));
            return;
        }
    };
    let mut plain_ns = 0u64;
    let mut timed_runs = Vec::new();
    for s in sample {
        let a = traffic.arr(s);
        for timed in [false, true] {
            match rerun(&s.gen, &snap, timed) {
                Ok(r) => {
                    let trace = r.trace.as_deref().map(str::as_bytes).unwrap_or(&[]);
                    if r.json.as_bytes() != a.stats.as_slice() || trace != a.trace {
                        out.fail(format!(
                            "job {}: in-process fork differs from the daemon's (timed: {timed})",
                            s.job_id
                        ));
                    }
                    if timed {
                        timed_runs.push(r);
                    } else {
                        plain_ns += r.wall_ns;
                    }
                }
                Err(e) => out.fail(format!("job {}: in-process fork: {e}", s.job_id)),
            }
        }
    }
    let mut advance = Agg::default();
    let mut quiesce = Agg::default();
    let mut driver = Agg::default();
    let mut events = 0;
    let mut timed_ns = 0;
    for r in &timed_runs {
        advance.merge(&r.loop_times.advance);
        quiesce.merge(&r.loop_times.quiesce);
        driver.merge(&r.driver);
        events += r.loop_times.events;
        timed_ns += r.wall_ns;
    }
    rec.agg("machine.advance_into", &advance);
    rec.agg("machine.quiesce_check", &quiesce);
    rec.agg("driver.on_event", &driver);
    let cycles: u64 = timed_runs.iter().map(|r| r.cycles).sum();
    let of = |f: &dyn Fn(&ReRun) -> Option<f64>| -> Vec<f64> {
        timed_runs.iter().filter_map(f).collect()
    };
    let m = &mut out.metrics;
    m.set("machine.sim_cycles", cycles as f64);
    m.set("machine.visits", advance.count as f64);
    m.set(
        "machine.visit_ratio",
        advance.count as f64 / cycles.max(1) as f64,
    );
    m.set("machine.advance_ns_per_visit", advance.mean_ns());
    m.set("machine.quiesce_check_ns_per_visit", quiesce.mean_ns());
    m.set(
        "machine.events_per_visit",
        events as f64 / advance.count.max(1) as f64,
    );
    m.set("machine.driver_ns_per_event", driver.mean_ns());
    m.set(
        "machine.sim_cycles_per_s",
        cycles as f64 / (plain_ns.max(1) as f64 / 1e9),
    );
    m.set(
        "machine.build_ms",
        median(&of(&|r| {
            r.restore_ns.is_none().then_some(r.build_ns as f64)
        })) / 1e6,
    );
    m.set("machine.checkpoint_ms", checkpoint_ns as f64 / 1e6);
    m.set(
        "machine.restore_ms",
        median(&of(&|r| r.restore_ns.map(|n| n as f64))) / 1e6,
    );
    m.set("machine.snapshot_bytes", snap.as_bytes().len() as f64);
    m.set(
        "obs.report_ms",
        median(&of(&|r| Some(r.report_ns as f64))) / 1e6,
    );
    m.set(
        "obs.report_bytes",
        mean(&of(&|r| Some(r.json.len() as f64))),
    );
    m.report_counts(&timed_runs.iter().map(|r| &r.report).collect::<Vec<_>>());
    m.set(
        "bench.trace_overhead_ratio",
        timed_ns as f64 / plain_ns.max(1) as f64,
    );
}

pub fn run(seed: u64, seconds: u64, traced: bool, out_dir: &str, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let socket = PathBuf::from(format!("{out_dir}/serve-{}.sock", std::process::id()));
    let probe = PathBuf::from(format!("{out_dir}/serve-{}-setup.sock", std::process::id()));
    let mut plan = Plan::new(seed, seconds);
    let mut setups = Setups::default();
    let daemon = match set_up(&socket, &mut setups, rec) {
        Ok(d) => d,
        Err(e) => {
            out.ops += 1;
            out.fail(e);
            return out;
        }
    };
    let traffic = drive(
        daemon,
        &mut plan,
        seconds,
        &probe,
        &mut setups,
        rec,
        &mut out,
    );
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_file(&probe);
    // The daemon phase's peak, before the checks below allocate their
    // own machines and traces.
    let rss = peak_rss_mb();

    out.ops += (traffic.open.len() + traffic.sweep.len()) as u64;
    traffic.check(&mut out);
    traffic.spans(rec);
    let sample: Vec<&Sent> = plan
        .sample
        .iter()
        .filter_map(|&i| traffic.open.get(i as usize))
        .collect();
    verify_cold(&sample, &traffic, &mut out);
    out.samples = vec![
        ("open_jobs", traffic.open.len()),
        ("sweep_batches", traffic.makespans.len()),
        ("setups", setups.secs.len()),
        ("rerun_jobs", sample.len()),
    ];

    if !traced {
        let m = &mut out.metrics;
        m.set("setup_s", median(&setups.secs));
        m.set("job_ms", least(&traffic.latencies(|k| k == JobKind::Warm)));
        m.set("peak_rss_mb", rss);
        return out;
    }
    traffic.serve_metrics(&setups.warm_build_ms, &mut out.metrics);
    rerun_metrics(&sample, &traffic, rec, &mut out);
    out
}
