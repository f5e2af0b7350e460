//! Timing from outside the crates: a [`Machine`] wrapper for the
//! run-time system, a [`NodeDriver`] wrapper for the switch-spin
//! driver, and a copy of `drive_sequential`'s loop built from the same
//! public calls with a clock around each layer's call.
//!
//! Nothing here does per-visit work proportional to the machine size:
//! each visit costs three clock reads and one histogram update on top
//! of the calls the untimed loop makes anyway.

use crate::measure::{bucket, ns_since, Agg, HIST_BUCKETS};
use april_core::cpu::{Cpu, StepEvent};
use april_core::program::Program;
use april_machine::{
    Alewife, EventCtx, Machine, MachineFault, NodeDriver, Snapshot, SnapshotError,
};
use april_mem::femem::FeMemory;
use april_obs::{StatsReport, Trace, TraceConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A machine whose every state-changing call is timed. Plain reads
/// (`cpu`, `mem`, `now`, `program`, ...) are forwarded untimed: they
/// return a reference or a field, and a clock pair would cost more than
/// the call, so their time stays in the caller's self time.
#[derive(Debug)]
pub struct Timed<M: Machine> {
    inner: M,
    /// `advance_into` calls: one per visited cycle.
    pub advance: Agg,
    /// Every other timed call into the machine.
    other: Agg,
    /// Step events the machine handed back.
    pub events: u64,
}

impl<M: Machine> Timed<M> {
    pub fn new(inner: M) -> Timed<M> {
        Timed {
            inner,
            advance: Agg::default(),
            other: Agg::default(),
            events: 0,
        }
    }

    /// Total nanoseconds spent inside the machine.
    pub fn inside_ns(&self) -> u64 {
        self.advance.total_ns + self.other.total_ns
    }

    /// Calls made into the machine.
    pub fn calls(&self) -> u64 {
        self.advance.count + self.other.count
    }
}

/// Times one non-advance call.
macro_rules! timed {
    ($self:ident, $call:expr) => {{
        let t = Instant::now();
        let r = $call;
        $self.other.record(ns_since(t));
        r
    }};
}

impl<M: Machine> Machine for Timed<M> {
    fn num_procs(&self) -> usize {
        self.inner.num_procs()
    }
    fn now(&self) -> u64 {
        self.inner.now()
    }
    fn advance_into(&mut self, evs: &mut Vec<(usize, StepEvent)>) {
        let t = Instant::now();
        self.inner.advance_into(evs);
        self.advance.record(ns_since(t));
        self.events += evs.len() as u64;
    }
    fn cpu(&self, i: usize) -> &Cpu {
        self.inner.cpu(i)
    }
    fn cpu_mut(&mut self, i: usize) -> &mut Cpu {
        let t = Instant::now();
        let _ = self.inner.cpu_mut(i);
        self.other.record(ns_since(t));
        // The timed call did the work; repeating it is a no-op that
        // hands out the reference the borrow checker would not let the
        // first call return past the clock read.
        self.inner.cpu_mut(i)
    }
    fn mem(&self) -> &FeMemory {
        self.inner.mem()
    }
    fn mem_mut(&mut self) -> &mut FeMemory {
        let t = Instant::now();
        let _ = self.inner.mem_mut();
        self.other.record(ns_since(t));
        self.inner.mem_mut()
    }
    fn program(&self) -> &Program {
        self.inner.program()
    }
    fn charge_handler(&mut self, i: usize, cycles: u64) {
        timed!(self, self.inner.charge_handler(i, cycles))
    }
    fn charge_idle(&mut self, i: usize, cycles: u64) {
        timed!(self, self.inner.charge_idle(i, cycles))
    }
    fn send_ipi(&mut self, from: usize, to: usize) {
        timed!(self, self.inner.send_ipi(from, to))
    }
    fn home_of(&self, addr: u32) -> usize {
        self.inner.home_of(addr)
    }
    fn fault(&self) -> Option<&MachineFault> {
        self.inner.fault()
    }
    fn attach_tracer(&mut self, cfg: TraceConfig) {
        self.inner.attach_tracer(cfg)
    }
    fn collect_trace(&self) -> Trace {
        self.inner.collect_trace()
    }
    fn stats_report(&self) -> StatsReport {
        self.inner.stats_report()
    }
    fn retire_request(&mut self, node: usize, word: u32) -> bool {
        timed!(self, self.inner.retire_request(node, word))
    }
    fn checkpoint(&mut self) -> Result<Snapshot, SnapshotError> {
        timed!(self, self.inner.checkpoint())
    }
    fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        timed!(self, self.inner.restore(snap))
    }
}

/// A driver whose every event is timed. `NodeDriver` takes `&self` and
/// must be `Sync`, so the aggregate lives in relaxed atomics: they
/// publish nothing but the statistic itself.
pub struct TimedDriver<D: NodeDriver> {
    inner: D,
    count: AtomicU64,
    total_ns: AtomicU64,
    hist: [AtomicU64; HIST_BUCKETS],
}

impl<D: NodeDriver> TimedDriver<D> {
    pub fn new(inner: D) -> TimedDriver<D> {
        TimedDriver {
            inner,
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            hist: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    pub fn agg(&self) -> Agg {
        Agg {
            count: self.count.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            hist: std::array::from_fn(|i| self.hist[i].load(Ordering::Relaxed)),
        }
    }
}

impl<D: NodeDriver> NodeDriver for TimedDriver<D> {
    fn on_event(&self, node: usize, ev: StepEvent, ctx: &mut dyn EventCtx) {
        let t = Instant::now();
        self.inner.on_event(node, ev, ctx);
        let ns = ns_since(t);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.hist[bucket(ns)].fetch_add(1, Ordering::Relaxed);
    }
}

/// What the timed loop measured.
#[derive(Debug, Default)]
pub struct LoopTimes {
    /// `advance_into`: one per visited cycle.
    pub advance: Agg,
    /// The quiescence test (`all_halted` + `pending_work`), one per
    /// loop turn.
    pub quiesce: Agg,
    /// Step events handed to the driver.
    pub events: u64,
}

/// The event context `drive_sequential` builds, rebuilt from public
/// `Machine` calls.
struct Ctx<'a> {
    m: &'a mut Alewife,
    node: usize,
}

impl EventCtx for Ctx<'_> {
    fn cpu(&mut self) -> &mut Cpu {
        self.m.cpu_mut(self.node)
    }
    fn charge_handler(&mut self, cycles: u64) {
        self.m.charge_handler(self.node, cycles);
    }
    fn charge_idle(&mut self, cycles: u64) {
        self.m.charge_idle(self.node, cycles);
    }
}

/// `drive_sequential`'s loop with each layer's call timed: runs until
/// the machine faults or quiesces. Panics past `max` cycles, as the
/// original does.
pub fn drive_timed(
    m: &mut Alewife,
    driver: &dyn NodeDriver,
    max: u64,
    t: &mut LoopTimes,
) -> Option<MachineFault> {
    let mut evs = Vec::new();
    loop {
        assert!(m.now() < max, "timeout at cycle {}", m.now());
        if m.fault().is_some() {
            return m.fault().cloned();
        }
        let t0 = Instant::now();
        let quiet = m.all_halted() && !m.pending_work();
        let t1 = Instant::now();
        t.quiesce.record((t1 - t0).as_nanos() as u64);
        if quiet {
            return None;
        }
        m.advance_into(&mut evs);
        t.advance.record(ns_since(t1));
        t.events += evs.len() as u64;
        for (i, ev) in evs.drain(..) {
            driver.on_event(i, ev, &mut Ctx { m, node: i });
        }
    }
}
