//! `daemon_small` and `daemon_bulk`: six in-process `icd_node::Node`s
//! distribute one object over loopback TCP, driven round by round the
//! way the crate's in-process harness test drives them.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use icd_node::{
    predict, DistributionSpec, Node, NodeConfig, Prediction, Roster, SwarmPlan, MAX_ROUNDS,
};

use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::workload::{drive, metric, ms_since, peak_rss_mb, set_up, Measured, Tally, Trace};

/// Distributions per run at the least, so a p90 has ten beyond it.
const MIN_OPS: usize = 100;
const SETUP_REPEATS: usize = 3;

/// The spec string operation inputs are parsed from.
fn spec(seed: u64, payload: usize) -> DistributionSpec {
    format!("seed={seed},nodes=6,seeders=1,universe=100,share=35,payload={payload},topo=ring0")
        .parse()
        .expect("the benchmark's spec is valid")
}

/// A spec with everything its distributions are checked against.
struct Oracle {
    plan: SwarmPlan,
    prediction: Prediction,
    /// Whether the simulator completes the spec; only then are its
    /// per-link bytes an exact oracle (the rest stall on Bloom false
    /// positives and finish through the daemon's stall escalation).
    exact: bool,
    universe: Vec<u64>,
}

fn oracles(seed: u64, payload: usize, specs: u64, spans: &mut Spans) -> Vec<Oracle> {
    (0..specs)
        .map(|i| {
            let plan = spans.time("node.plan", || SwarmPlan::new(spec(seed + i, payload)));
            let prediction = spans.time("overlay.predict", || predict(&plan));
            let mut universe = plan.universe.clone();
            universe.sort_unstable();
            Oracle {
                exact: prediction.completed.iter().all(|&c| c),
                plan,
                prediction,
                universe,
            }
        })
        .collect()
}

/// The port every node listens on, below the kernel's ephemeral range.
const LISTEN_PORT: u16 = 29_170;
/// Blocks of eight loopback addresses from 127.1.0.0 up.
const BLOCKS: u64 = (1 << 21) - (1 << 13);

/// Node `i`'s config: loopback, listening on [`LISTEN_PORT`] at its own
/// address in address block `block`, as a peer on its own host would.
///
/// Every distribution takes a fresh block. Listening on port 0 parked
/// every accepted session's TIME_WAIT socket on an ephemeral port for a
/// minute, filling the range later binds and connects search:
/// distributions slowed from 16 to 40 ms within one run. Reusing an
/// address still in TIME_WAIT costs as much, so a run's first block is
/// drawn from the clock — not the seed — and runs started within a
/// minute of each other do not meet. Addresses never reach the wire
/// bytes, so outputs stay a function of the seed.
fn config(i: usize, spec: DistributionSpec, block: u64) -> NodeConfig {
    let a = ((1 << 13) + block % BLOCKS) * 8 + 1 + i as u64;
    NodeConfig {
        listen: format!(
            "127.{}.{}.{}:{LISTEN_PORT}",
            a >> 16 & 0xff,
            a >> 8 & 0xff,
            a & 0xff
        ),
        ..NodeConfig::local(i, spec)
    }
}

/// What one distribution did.
#[derive(Default)]
struct Distribution {
    rounds: u64,
    sessions: u64,
    retries: u64,
    fetch_failures: u64,
    degraded: u64,
    escalated: bool,
    frames: u64,
    control_bytes: u64,
    data_bytes: u64,
    useful_bytes: u64,
}

/// Distributes `oracle`'s spec: the milliseconds from the first
/// `Node::start` to the last leecher complete, what the distribution
/// did, and its check against the oracle. `Err` if a node fails to
/// start.
fn distribute(
    oracle: &Oracle,
    block: u64,
    spans: &mut Spans,
) -> Result<(f64, Distribution, Result<(), String>), String> {
    let spec = oracle.plan.spec;
    let mut d = Distribution::default();
    let op = spans.enter("op.distribution");
    let t0 = Instant::now();
    let started: Result<Vec<Node>, String> = (0..spec.nodes)
        .map(|i| {
            spans
                .time("node.start", || Node::start(config(i, spec, block)))
                .map_err(|e| format!("node {i} failed to start: {e}"))
        })
        .collect();
    let mut nodes = match started {
        Ok(nodes) => nodes,
        Err(e) => {
            spans.exit(op);
            return Err(e);
        }
    };
    let mut roster = Roster::new(spec.nodes);
    for (i, n) in nodes.iter().enumerate() {
        roster.set(i, n.local_addr());
    }
    let mut link_bytes: HashMap<(usize, usize), u64> = HashMap::new();
    let mut errors = Vec::new();
    for round in 0..MAX_ROUNDS {
        if nodes.iter().all(|n| n.shared().is_complete()) {
            break;
        }
        if round > 0 {
            spans.time("node.advance_round", || {
                for n in &nodes {
                    n.advance_round();
                }
            });
        }
        d.rounds += 1;
        for (i, n) in nodes.iter().enumerate() {
            let reports = spans.time("node.run_fetches", || n.run_fetches(&roster));
            for r in reports {
                d.sessions += 1;
                d.retries += u64::from(r.retries);
                d.frames += r.stats.frames;
                d.control_bytes += r.stats.control_bytes;
                d.data_bytes += r.stats.data_bytes;
                match r.outcome {
                    Ok(o) => *link_bytes.entry((r.from, i)).or_default() += o.stats.total(),
                    Err(e) => {
                        d.fetch_failures += 1;
                        errors.push(format!("round {round}: fetch {} -> {i}: {e}", r.from));
                    }
                }
            }
        }
    }
    let ms = ms_since(t0);
    d.escalated = nodes.iter().any(|n| n.stall_escalations() > 0);
    d.degraded = nodes.iter().map(Node::degraded_sessions).sum();
    let leechers = spec.nodes - spec.seeders;
    d.useful_bytes = (leechers * (spec.universe - spec.share) * spec.payload) as u64;
    let mut check = errors;
    for (i, n) in nodes.iter().enumerate() {
        if !n.shared().is_complete() {
            check.push(format!("node {i} incomplete after {} rounds", d.rounds));
        } else if !spec.is_seeder(i) && n.shared().sorted_ids() != oracle.universe {
            check.push(format!("node {i} holds other ids than the plan universe"));
        }
    }
    if oracle.exact {
        for (idx, link) in oracle.plan.links.iter().enumerate() {
            let got = link_bytes.get(&(link.from, link.to)).copied().unwrap_or(0);
            let want = oracle.prediction.link_bytes[idx];
            if got != want {
                check.push(format!(
                    "link {} -> {}: {got} wire bytes, predicted {want}",
                    link.from, link.to
                ));
            }
        }
    }
    for n in &mut nodes {
        spans.time("node.stop", || n.stop());
    }
    spans.exit(op);
    let verdict = if check.is_empty() {
        Ok(())
    } else {
        Err(format!("{spec}: {}", check.join("; ")))
    };
    Ok((ms, d, verdict))
}

/// Runs `specs` distinct specs at `payload` bytes per symbol; operation
/// `i` distributes spec `i % specs`, whose oracle the set-up computed.
pub fn measure(
    seed: u64,
    payload: usize,
    specs: u64,
    budget: Duration,
    trace: Trace,
    tally: &mut Tally,
    spans: &mut Spans,
) -> Measured {
    let (oracles, setup_s) = set_up(SETUP_REPEATS, || oracles(seed, payload, specs, spans));
    let mut out = Measured::default();
    let mut done: Vec<Distribution> = Vec::new();
    let mut block = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    drive(budget, MIN_OPS, trace, spans, &mut out, |input, spans| {
        let oracle = &oracles[input % oracles.len()];
        let traced = spans.is_on();
        if traced {
            spans.begin_op();
        }
        block = block.wrapping_add(1);
        match distribute(oracle, block, spans) {
            Ok((ms, d, verdict)) => {
                tally.check("distribution", verdict);
                if traced || trace == Trace::Off {
                    done.push(d);
                }
                Some(ms)
            }
            Err(e) => {
                tally.check("distribution", Err(e));
                None
            }
        }
    });
    let n = done.len().max(1) as f64;
    let sum = |f: fn(&Distribution) -> u64| done.iter().map(f).sum::<u64>() as f64;
    let wire = sum(|d| d.control_bytes + d.data_bytes);
    if trace == Trace::Off {
        let ms = &out.plain_ms;
        let total_ms: f64 = ms.iter().sum();
        let useful = sum(|d| d.useful_bytes);
        let p50 = median(ms);
        let rss = peak_rss_mb();
        out.e2e = vec![
            metric("setup_s", setup_s, "s"),
            metric("op_cpu_ms", out.cpu_ms_per_op, "ms"),
            metric("overhead", wire / useful, "ratio"),
        ];
        out.report = vec![
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", rss, "MB"),
            metric("distribute_ms_p50", p50, "ms"),
            metric("distributions", ms.len() as f64, "count"),
            metric("goodput_mb_s", useful / 1e6 / (total_ms / 1e3), "MB/s"),
            metric("wire_per_useful", wire / useful, "ratio"),
        ];
        // At least 100 distributions ran, so only failed ones leave too
        // few for a p90; the failures are already counted.
        match percentile(ms, 90.0) {
            Ok(p90) => out.report.push(metric("distribute_ms_p90", p90, "ms")),
            Err(e) => eprintln!("perfbench: no distribute_ms_p90: {e}"),
        }
    } else {
        let control = sum(|d| d.control_bytes);
        out.layers = vec![
            metric("node.start_ms", spans.total_ms("node.start") / n, "ms"),
            metric(
                "node.advance_round_ms",
                spans.total_ms("node.advance_round") / n,
                "ms",
            ),
            metric(
                "node.run_fetches_ms",
                spans.total_ms("node.run_fetches") / n,
                "ms",
            ),
            metric("node.stop_ms", spans.total_ms("node.stop") / n, "ms"),
            metric("node.plan_ms", median(&spans.calls_ms("node.plan")), "ms"),
            metric("node.rounds", sum(|d| d.rounds) / n, "count"),
            metric("node.sessions", sum(|d| d.sessions) / n, "count"),
            metric(
                "node.escalated_share",
                sum(|d| u64::from(d.escalated)) / n,
                "ratio",
            ),
            metric("node.retries", sum(|d| d.retries), "count"),
            metric("node.fetch_failures", sum(|d| d.fetch_failures), "count"),
            metric("node.degraded_sessions", sum(|d| d.degraded), "count"),
            metric("wire.frames", sum(|d| d.frames) / n, "count"),
            metric("wire.control_bytes", control / n, "B"),
            metric("wire.data_bytes", sum(|d| d.data_bytes) / n, "B"),
            metric("wire.control_share", control / wire, "ratio"),
            metric(
                "overlay.predict_ms",
                median(&spans.calls_ms("overlay.predict")),
                "ms",
            ),
        ];
    }
    out
}
