//! What every workload shares: the closed loop that runs it, the
//! correctness tally, and the shape of a workload's results.

use std::time::{Duration, Instant};

use crate::report::Metric;
use crate::spans::Spans;

/// How a workload's operations are traced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trace {
    /// No spans: the end-to-end run.
    Off,
    /// Every operation traced: a rung of the traced ladder.
    On,
    /// Each input runs twice, once traced and once not, alternating
    /// which goes first, so the traced run can price its own spans.
    Ab,
}

/// Operations attempted and failed. A failure is named on stderr.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}: {e}");
        }
    }
}

/// A workload's figures. `e2e` are the gated end-to-end metrics,
/// `report` the same run under the workload's own metric names, and
/// `layers` the per-layer metrics its traced operations give.
#[derive(Debug, Default)]
pub struct Measured {
    pub e2e: Vec<Metric>,
    pub report: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// Wall times of the operations run without and with spans.
    pub plain_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
    /// Process CPU time (every thread, user and system) the operations
    /// took, over the operations run.
    pub cpu_ms_per_op: f64,
}

#[must_use]
pub fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit: unit.into(),
    }
}

/// Runs `op(input, spans)` in a closed loop, one operation at a time,
/// until `budget` has passed and at least `min_ops` have run. `op`
/// returns the operation's timed milliseconds, or `None` if it failed
/// before its timing ended. Times land in `plain_ms` or `traced_ms`.
pub fn drive(
    budget: Duration,
    min_ops: usize,
    trace: Trace,
    spans: &mut Spans,
    out: &mut Measured,
    mut op: impl FnMut(usize, &mut Spans) -> Option<f64>,
) {
    let start = Instant::now();
    let cpu = cpu_ms();
    let mut input = 0;
    let mut ran = 0;
    while start.elapsed() < budget || ran < min_ops {
        let sides: &[bool] = match trace {
            Trace::Off => &[false],
            Trace::On => &[true],
            Trace::Ab if input % 2 == 0 => &[false, true],
            Trace::Ab => &[true, false],
        };
        for &traced in sides {
            spans.set_on(traced);
            ran += 1;
            if let Some(ms) = op(input, spans) {
                if traced {
                    out.traced_ms.push(ms);
                } else {
                    out.plain_ms.push(ms);
                }
            }
        }
        input += 1;
    }
    out.cpu_ms_per_op = (cpu_ms() - cpu) / ran as f64;
    spans.set_on(trace != Trace::Off);
}

/// CPU milliseconds this process has used, user plus system, summed
/// over every thread it has run (exited ones included), from
/// `/proc/self/stat`.
fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("CPU time needs /proc/self/stat");
    // Fields after the parenthesised command name, from field 3 on;
    // utime and stime are fields 14 and 15, in clock ticks.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| -> f64 {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .expect("/proc/self/stat has utime and stime") as f64
    };
    // The kernel reports these fields in USER_HZ, 100 per second on Linux.
    (ticks(11) + ticks(12)) * 10.0
}

/// Repeats `setup` and returns its last result with the median wall
/// seconds of the repetitions.
pub fn set_up<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up"),
        crate::stats::median(&secs),
    )
}

/// `icd_bench::peak_rss_mb`, which only a host without procfs lacks.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    icd_bench::peak_rss_mb().expect("peak RSS needs /proc/self/status")
}

/// Milliseconds since `t`.
#[must_use]
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
