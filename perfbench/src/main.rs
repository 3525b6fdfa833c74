//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <daemon_small|daemon_bulk|swarm_churn|fig5_sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --summarize <out files>
//! ```
//!
//! Every workload is a closed loop with one client. With `--trace 0`
//! the run measures its workload untraced for `--seconds` and prints
//! the end-to-end metrics. With `--trace 1` it runs the traced ladder:
//! the workload itself, each input once with spans and once without
//! (the gap is `span_overhead_pct`), then one short traced rung of
//! each workload family the workload does not exercise, so every
//! per-layer metric is measured in every traced run. Spans are written
//! to `perfbench/out/`. The last stdout line is the JSON result.

mod churn;
mod daemon;
mod fig5;
mod host;
mod report;
mod spans;
mod stats;
mod workload;

use std::time::Duration;

use report::{Metric, Outcome};
use spans::Spans;
use workload::{metric, Measured, Tally, Trace};

/// The gated end-to-end metrics, in output order.
const E2E: [&str; 3] = ["setup_s", "op_cpu_ms", "overhead"];

/// Every per-layer metric, in output order.
const LAYERS: [&str; 36] = [
    "node.start_ms",
    "node.advance_round_ms",
    "node.run_fetches_ms",
    "node.stop_ms",
    "node.plan_ms",
    "node.rounds",
    "node.sessions",
    "node.escalated_share",
    "node.retries",
    "node.fetch_failures",
    "node.degraded_sessions",
    "wire.frames",
    "wire.control_bytes",
    "wire.data_bytes",
    "wire.control_share",
    "overlay.predict_ms",
    "overlay.scenario_build_ms",
    "overlay.transfer_ms.random",
    "overlay.transfer_ms.random_bf",
    "overlay.transfer_ms.recode",
    "overlay.transfer_ms.recode_bf",
    "overlay.transfer_ms.recode_mw",
    "overlay.ticks_per_s",
    "swarm.new_ms",
    "swarm.run_ms",
    "swarm.events",
    "swarm.packets",
    "swarm.reconnects",
    "swarm.membership_events",
    "bloom.build_ms",
    "bloom.probe_ns",
    "sketch.minwise_build_ms",
    "bench.grid_busy_share",
    "obs.trace_overhead_pct",
    "obs.trace_records",
    "span_overhead_pct",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    DaemonSmall,
    DaemonBulk,
    SwarmChurn,
    Fig5Sweep,
}

const WORKLOADS: [(&str, Workload); 4] = [
    ("daemon_small", Workload::DaemonSmall),
    ("daemon_bulk", Workload::DaemonBulk),
    ("swarm_churn", Workload::SwarmChurn),
    ("fig5_sweep", Workload::Fig5Sweep),
];

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        WORKLOADS.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    fn name(self) -> &'static str {
        WORKLOADS
            .iter()
            .find(|(_, w)| *w == self)
            .map_or("", |&(n, _)| n)
    }

    /// The rung of the traced ladder that exercises the same layers.
    fn rung(self) -> Self {
        match self {
            Self::DaemonBulk => Self::DaemonSmall,
            other => other,
        }
    }

    fn measure(
        self,
        seed: u64,
        budget: Duration,
        trace: Trace,
        tally: &mut Tally,
        spans: &mut Spans,
    ) -> Measured {
        match self {
            Self::DaemonSmall => daemon::measure(seed, 64, 400, budget, trace, tally, spans),
            Self::DaemonBulk => daemon::measure(seed, 16_384, 100, budget, trace, tally, spans),
            Self::SwarmChurn => churn::measure(seed, budget, trace, tally, spans),
            Self::Fig5Sweep => fig5::measure(seed, budget, trace, tally, spans),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn print_metrics(kind: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{kind} {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// Picks `names` out of `metrics`, in `names` order.
///
/// # Panics
/// If one is missing: every run reports every metric of its kind.
fn select(names: &[&str], metrics: &[Metric]) -> Vec<Metric> {
    names
        .iter()
        .map(|name| {
            metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
                .clone()
        })
        .collect()
}

fn run(args: &Args) -> Outcome {
    println!(
        "{}",
        host::stamp(args.workload.name(), args.seed, args.seconds, args.trace)
    );
    let budget = Duration::from_secs(args.seconds);
    let mut tally = Tally::default();
    if !args.trace {
        let mut spans = Spans::new(false);
        let m = args
            .workload
            .measure(args.seed, budget, Trace::Off, &mut tally, &mut spans);
        let report = m.report.iter().cloned().chain([metric(
            "failed_share",
            stats::failed_share(tally.failed, tally.attempted),
            "ratio",
        )]);
        print_metrics("report", &report.collect::<Vec<_>>());
        let e2e = select(&E2E, &m.e2e);
        print_metrics("e2e", &e2e);
        return Outcome {
            attempted: tally.attempted,
            failed: tally.failed,
            metrics: e2e,
        };
    }

    let mut spans = Spans::new(true);
    let main = args
        .workload
        .measure(args.seed, budget, Trace::Ab, &mut tally, &mut spans);
    let overhead = (stats::median(&main.traced_ms) / stats::median(&main.plain_ms) - 1.0) * 100.0;
    let mut layers = main.layers;
    layers.push(metric("span_overhead_pct", overhead, "%"));
    for rung in [
        Workload::DaemonSmall,
        Workload::SwarmChurn,
        Workload::Fig5Sweep,
    ] {
        if rung != args.workload.rung() {
            let m = rung.measure(args.seed, Duration::ZERO, Trace::On, &mut tally, &mut spans);
            layers.extend(m.layers);
        }
    }
    for (layer, ms) in spans.self_ms_by_layer() {
        println!("self {layer:<8} {ms:>12.3} ms");
    }
    let out_dir = std::path::Path::new("perfbench/out");
    let path = out_dir.join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, spans.to_jsonl()))
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("spans written to {}", path.display());
    let layers = select(&LAYERS, &layers);
    print_metrics("layer", &layers);
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: layers,
    }
}

/// `--summarize FILE...`: reads the result line at the end of each
/// saved run output and prints, per metric, the median, the quartiles
/// and their distance as a share of the median.
fn summarize(files: &[String]) -> Result<(), String> {
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let line = text
            .lines()
            .last()
            .ok_or_else(|| format!("{file} is empty"))?;
        let outcome = Outcome::parse(line).map_err(|e| format!("{file}: {e}"))?;
        if outcome.failed > 0 {
            return Err(format!(
                "{file}: {} of {} operations failed",
                outcome.failed, outcome.attempted
            ));
        }
        for m in outcome.metrics {
            match values.iter_mut().find(|(name, _, _)| *name == m.name) {
                Some((_, _, v)) => v.push(m.value),
                None => values.push((m.name, m.unit, vec![m.value])),
            }
        }
    }
    println!(
        "{:<32} {:>5} {:>14} {:>14} {:>14} {:>8}",
        "metric", "runs", "q1", "median", "q3", "spread"
    );
    for (name, unit, v) in values {
        if v.len() < 2 {
            println!("{name:<32} {:>5} {:>44.6} {unit}", v.len(), v[0]);
            continue;
        }
        let [q1, q2, q3] = stats::quartiles(&v);
        println!(
            "{name:<32} {:>5} {q1:>14.6} {q2:>14.6} {q3:>14.6} {:>8.4} {unit}",
            v.len(),
            stats::spread(&v)
        );
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--summarize") {
        if let Err(e) = summarize(&args[1..]) {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
        return;
    }
    let args = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let outcome = run(&args);
    println!("{}", outcome.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "fig5_sweep",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid arguments");
        assert_eq!(args.workload, Workload::Fig5Sweep);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--workload", "nope", "--seed", "1", "--seconds", "1"][..],
            &["--workload", "daemon_small", "--seconds", "1"],
            &[
                "--workload",
                "daemon_small",
                "--seed",
                "x",
                "--seconds",
                "1",
            ],
            &[
                "--workload",
                "daemon_small",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &["--workload"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn select_orders_and_requires_every_metric() {
        let ms = vec![metric("b", 2.0, "s"), metric("a", 1.0, "ms")];
        let picked = select(&["a", "b"], &ms);
        assert_eq!(picked[0].name, "a");
        assert_eq!(picked[1].value, 2.0);
    }

    #[test]
    #[should_panic(expected = "metric c was not measured")]
    fn select_panics_on_a_missing_metric() {
        let _ = select(&["c"], &[metric("a", 1.0, "ms")]);
    }
}
