//! Host-side measurement: percentiles, per-call aggregates, in-memory
//! spans, and the process's peak resident set.

use std::time::Instant;

/// Median of `v` (upper median for even lengths); 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    pct(v, 0.5)
}

/// Arithmetic mean of `v`; 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Smallest sample of `v`; 0 for an empty slice. `job_ms` is the
/// fastest of many repeats of one kind of job: on a shared host a run's
/// median and mean follow how busy the neighbours were, while its
/// fastest repeat reads the program's own speed.
pub fn least(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Nearest-rank percentile `p` in `[0, 1]`: the smallest sample with at
/// least `p` of the samples at or below it. 0 for an empty slice.
pub fn pct(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Log2 buckets of a per-call nanosecond histogram: bucket `i` counts
/// calls that took `[2^i, 2^(i+1))` ns (bucket 0 also takes 0 ns).
pub const HIST_BUCKETS: usize = 40;

/// Count, total and log2 histogram of one kind of call. Per-visit and
/// per-event calls are kept this way instead of one span each, so the
/// record stays O(1) in memory however long the run.
#[derive(Debug, Clone)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub hist: [u64; HIST_BUCKETS],
}

impl Default for Agg {
    fn default() -> Agg {
        Agg {
            count: 0,
            total_ns: 0,
            hist: [0; HIST_BUCKETS],
        }
    }
}

/// The histogram bucket of a call that took `ns` nanoseconds.
pub fn bucket(ns: u64) -> usize {
    (63 - ns.max(1).leading_zeros() as usize).min(HIST_BUCKETS - 1)
}

impl Agg {
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.hist[bucket(ns)] += 1;
    }

    pub fn merge(&mut self, other: &Agg) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        for (a, b) in self.hist.iter_mut().zip(other.hist.iter()) {
            *a += b;
        }
    }

    /// Mean nanoseconds per call; 0 with no calls.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    fn to_json(&self, name: &str) -> String {
        let last = self.hist.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
        let hist: Vec<String> = self.hist[..last].iter().map(u64::to_string).collect();
        format!(
            "{{\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"log2_ns_hist\":[{}]}}",
            self.count,
            self.total_ns,
            hist.join(",")
        )
    }
}

/// One timed interval at a layer boundary, in nanoseconds since the
/// recorder's epoch.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the span that caused this one.
    parent: Option<usize>,
    /// The serve job the span belongs to.
    job: Option<u32>,
}

/// Spans and aggregates kept in memory for the whole run and written
/// out once at the end.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    aggs: Vec<(&'static str, Agg)>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            aggs: Vec::new(),
        }
    }

    /// Nanoseconds from the recorder's epoch to `t` (0 if earlier).
    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its index for children.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        job: Option<u32>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
            parent,
            job,
        });
        self.spans.len() - 1
    }

    /// Merges `agg` into the aggregate called `name`.
    pub fn agg(&mut self, name: &'static str, agg: &Agg) {
        match self.aggs.iter_mut().find(|(n, _)| *n == name) {
            Some((_, a)) => a.merge(agg),
            None => self.aggs.push((name, agg.clone())),
        }
    }

    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".into(), |p| p.to_string()),
                    s.job.map_or("null".into(), |j| j.to_string()),
                )
            })
            .collect();
        let aggs: Vec<String> = self.aggs.iter().map(|(n, a)| a.to_json(n)).collect();
        format!(
            "{{\"spans\":[{}],\"calls\":[{}]}}\n",
            spans.join(",\n"),
            aggs.join(",\n")
        )
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
