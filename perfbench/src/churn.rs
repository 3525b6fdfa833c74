//! `swarm_churn`: one `Swarm::new` plus `Swarm::run` of the 20,000-peer
//! churned power-law swarm per operation.

use std::time::{Duration, Instant};

use icd_obs::TraceBuf;
use icd_swarm::{ChurnConfig, Swarm, SwarmConfig, SwarmOutcome, TopologyKind};

use crate::spans::Spans;
use crate::stats::median;
use crate::workload::{drive, metric, ms_since, peak_rss_mb, set_up, Measured, Tally, Trace};

const PEERS: usize = 20_000;
const SETUP_REPEATS: usize = 3;
/// Ring capacity of the `TraceBuf` the traced run installs; records
/// past it are counted as dropped.
const TRACE_CAPACITY: usize = 1 << 20;

/// The sharded-executor gate geometry: power-law m=2, 48 blocks, 10%
/// leave with downtime 30 in ticks 5..80, 1% joins, 2% rewires.
fn config() -> SwarmConfig {
    SwarmConfig::new(PEERS, 48, TopologyKind::PowerLaw { m: 2 }).with_churn(ChurnConfig {
        leave_fraction: 0.10,
        downtime: 30,
        window: (5, 80),
        joins: PEERS / 100,
        rewires: PEERS / 50,
    })
}

/// Runs one swarm: (new + run milliseconds, run milliseconds, outcome).
fn swarm(seed: u64, spans: &mut Spans) -> (f64, f64, SwarmOutcome) {
    let op = spans.enter("op.swarm");
    let t0 = Instant::now();
    let mut swarm = spans.time("swarm.new", || Swarm::new(config(), seed));
    let t1 = Instant::now();
    let outcome = spans.time("swarm.run", || swarm.run());
    let (ms, run_ms) = (ms_since(t0), ms_since(t1));
    spans.exit(op);
    (ms, run_ms, outcome)
}

fn check(outcome: &SwarmOutcome, reference: Option<&SwarmOutcome>) -> Result<(), String> {
    if !outcome.all_complete() {
        return Err(format!(
            "{}/{} peers complete",
            outcome.completed, outcome.peers
        ));
    }
    match reference {
        Some(r) if r != outcome => Err(format!(
            "repeating the seed changed the outcome: {r:?} vs {outcome:?}"
        )),
        _ => Ok(()),
    }
}

pub fn measure(
    seed: u64,
    budget: Duration,
    trace: Trace,
    tally: &mut Tally,
    spans: &mut Spans,
) -> Measured {
    // The set-up builds the oracle for operation 0: the same seed, run
    // once before timing starts.
    let (reference, setup_s) = set_up(SETUP_REPEATS, || swarm(seed, &mut Spans::new(false)).2);
    let mut out = Measured::default();
    let mut outcomes: Vec<(f64, SwarmOutcome)> = Vec::new();
    let mut last: Option<(usize, SwarmOutcome)> = None;
    let mut traced_runs: Vec<(f64, u64)> = Vec::new();
    drive(budget, 1, trace, spans, &mut out, |input, spans| {
        let traced = spans.is_on();
        if traced {
            spans.begin_op();
        }
        let (ms, run_ms, outcome) = swarm(seed + input as u64, spans);
        // Operation 0 repeats the set-up's seed; the A/B twin of an
        // input repeats the seed its first run used.
        let twin = match &last {
            Some((i, o)) if *i == input => Some(o.clone()),
            _ if input == 0 => Some(reference.clone()),
            _ => None,
        };
        tally.check("swarm", check(&outcome, twin.as_ref()));
        if traced {
            // The same swarm with the program's own trace recorder on.
            let buf = spans.time("obs.trace_buf", || TraceBuf::shared(TRACE_CAPACITY));
            let mut traced_swarm = Swarm::new(config(), seed + input as u64);
            traced_swarm.set_tracer(buf.clone());
            let t = Instant::now();
            let with_trace = spans.time("swarm.run_traced", || traced_swarm.run());
            let records = spans.time("obs.records", || {
                let b = buf.borrow();
                b.len() as u64 + b.dropped()
            });
            traced_runs.push((ms_since(t), records));
            tally.check("traced swarm", check(&with_trace, Some(&outcome)));
        }
        if traced || trace == Trace::Off {
            outcomes.push((run_ms, outcome.clone()));
        }
        last = Some((input, outcome));
        Some(ms)
    });
    let n = outcomes.len() as f64;
    let mean = |f: fn(&SwarmOutcome) -> f64| outcomes.iter().map(|(_, o)| f(o)).sum::<f64>() / n;
    if trace == Trace::Off {
        let ms = &out.plain_ms;
        let p50 = median(ms);
        let overhead = mean(|o| o.overhead);
        let run_s: f64 = outcomes.iter().map(|(run_ms, _)| run_ms / 1e3).sum();
        let events: f64 = outcomes.iter().map(|(_, o)| o.events as f64).sum();
        let rss = peak_rss_mb();
        out.e2e = vec![
            metric("setup_s", setup_s, "s"),
            metric("op_cpu_ms", out.cpu_ms_per_op, "ms"),
            metric("overhead", overhead, "ratio"),
        ];
        out.report = vec![
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", rss, "MB"),
            metric("swarm_s_p50", p50 / 1e3, "s"),
            metric("swarms", ms.len() as f64, "count"),
            metric("sim_events_per_s", events / run_s, "events/s"),
            metric("sim_ticks_to_complete", mean(|o| o.ticks as f64), "ticks"),
            metric("symbol_overhead", overhead, "packets/needed"),
        ];
    } else {
        let run_ms = spans.calls_ms("swarm.run");
        let with_trace: Vec<f64> = traced_runs.iter().map(|(ms, _)| *ms).collect();
        out.layers = vec![
            metric("swarm.new_ms", median(&spans.calls_ms("swarm.new")), "ms"),
            metric("swarm.run_ms", median(&run_ms), "ms"),
            metric("swarm.events", mean(|o| o.events as f64), "count"),
            metric("swarm.packets", mean(|o| o.packets as f64), "count"),
            metric("swarm.reconnects", mean(|o| o.reconnects as f64), "count"),
            metric(
                "swarm.membership_events",
                mean(|o| f64::from(o.membership_events())),
                "count",
            ),
            metric(
                "obs.trace_overhead_pct",
                (median(&with_trace) / median(&run_ms) - 1.0) * 100.0,
                "%",
            ),
            metric(
                "obs.trace_records",
                traced_runs.iter().map(|(_, r)| *r as f64).sum::<f64>() / traced_runs.len() as f64,
                "count",
            ),
        ];
    }
    out
}
