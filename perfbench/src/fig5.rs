//! `fig5_sweep`: the full Figure 5 sweep per operation — both system
//! shapes × 10 correlations × 5 strategies × 3 trials at the paper's
//! 23,968 blocks, through `ExperimentGrid` with
//! `TwoPeerScenario::build` and `run_transfer` per cell.

use std::hint::black_box;
use std::time::{Duration, Instant};

use icd_bench::engine::thread_count;
use icd_bench::experiments::transfers::{fig5, SystemShape};
use icd_bench::output::f3;
use icd_bench::{ExpConfig, ExperimentGrid, Table};
use icd_bloom::BloomFilter;
use icd_overlay::{run_transfer, ScenarioParams, StrategyKind, TransferOutcome, TwoPeerScenario};
use icd_sketch::{MinwiseSketch, PermutationFamily};

use crate::spans::Spans;
use crate::stats::median;
use crate::workload::{drive, metric, ms_since, peak_rss_mb, set_up, Measured, Tally, Trace};

const BLOCKS: usize = 23_968;
const TRIALS: usize = 3;
const SETUP_REPEATS: usize = 3;
const SHAPES: [(SystemShape, &str); 2] = [
    (SystemShape::Compact, "compact (1.1n)"),
    (SystemShape::Stretched, "stretched (1.5n)"),
];
/// Span names of `run_transfer` per strategy, in `StrategyKind::ALL`
/// order.
const TRANSFER_SPANS: [&str; 5] = [
    "overlay.transfer.random",
    "overlay.transfer.random_bf",
    "overlay.transfer.recode",
    "overlay.transfer.recode_bf",
    "overlay.transfer.recode_mw",
];

fn params(shape: SystemShape, seed: u64) -> ScenarioParams {
    match shape {
        SystemShape::Compact => ScenarioParams::compact(BLOCKS, seed),
        SystemShape::Stretched => ScenarioParams::stretched(BLOCKS, seed),
    }
}

/// The figure's correlation axis for `shape`: ten points up to the
/// two-peer cap.
fn correlations(shape: SystemShape) -> Vec<f64> {
    let max = params(shape, 0).max_two_peer_correlation() - 1e-9;
    (0..10).map(|i| max * f64::from(i) / 9.0).collect()
}

/// One cell's result: the outcome and when its build started, its
/// transfer started, and its transfer ended.
type CellRun = (TransferOutcome, Instant, Instant, Instant);

/// What one sweep produced.
struct Sweep {
    ms: f64,
    tables: String,
    cells: Vec<CellRun>,
}

fn sweep(cfg: &ExpConfig, spans: &mut Spans) -> Sweep {
    let scenarios: Vec<(usize, f64)> = SHAPES
        .iter()
        .enumerate()
        .flat_map(|(s, &(shape, _))| correlations(shape).into_iter().map(move |c| (s, c)))
        .collect();
    let grid = ExperimentGrid::new(scenarios, StrategyKind::ALL.to_vec(), cfg.seeds());
    let op = spans.enter("op.sweep");
    let t0 = Instant::now();
    let results = spans.time("bench.grid_run", || {
        grid.run(|cell| {
            let (s, c) = *cell.scenario;
            let start = Instant::now();
            let scenario = TwoPeerScenario::build(&params(SHAPES[s].0, cell.seed), c);
            let built = Instant::now();
            let outcome = run_transfer(&scenario, *cell.strategy, cell.seed ^ 0x5A5A);
            (outcome, start, built, Instant::now())
        })
    });
    let ms = ms_since(t0);
    let strategies: Vec<usize> = results.iter().map(|(_, g, _, _)| g).collect();
    if spans.is_on() {
        for (&(_, start, built, end), &g) in results.cells().iter().zip(&strategies) {
            let cell = spans.new_op();
            spans.record("overlay.scenario_build", start, built, cell);
            spans.record(TRANSFER_SPANS[g], built, end, cell);
        }
    }
    spans.exit(op);
    // The figure's tables, rendered exactly as `transfers::fig5` does.
    let data = results.summaries(|r| r.0.overhead());
    let mut tables = String::new();
    for (s, &(shape, label)) in SHAPES.iter().enumerate() {
        let mut table = Table::new(
            format!("Figure 5 ({label}): overhead vs correlation"),
            &[
                "correlation",
                "Random",
                "Random/BF",
                "Recode",
                "Recode/BF",
                "Recode/MW",
            ],
        );
        for (i, c) in correlations(shape).iter().enumerate() {
            let mut row = vec![f3(*c)];
            row.extend(data[s * 10 + i].iter().map(|summary| f3(summary.mean())));
            table.push_row(row);
        }
        tables.push_str(&table.render());
    }
    Sweep {
        ms,
        tables,
        cells: results.into_cells(),
    }
}

fn check(sweep: &Sweep, reference: &str) -> Result<(), String> {
    let incomplete = sweep.cells.iter().filter(|c| !c.0.completed).count();
    if incomplete > 0 {
        return Err(format!("{incomplete} transfers did not complete"));
    }
    if sweep.tables != reference {
        return Err(format!(
            "tables differ from transfers::fig5:\n{}\nvs\n{reference}",
            sweep.tables
        ));
    }
    Ok(())
}

/// Times the summaries the informed strategies build, over the cells'
/// own sets: a Bloom filter of the sender's set probed with the
/// receiver's, and the sender's min-wise sketch. Returns the per-probe
/// nanoseconds of each Bloom probe pass.
fn summary_probes(cfg: &ExpConfig, spans: &mut Spans) -> Vec<f64> {
    let seed = cfg.base_seed;
    let family = PermutationFamily::standard(seed);
    let mut probe_ns = Vec::new();
    for &(shape, _) in &SHAPES {
        for c in correlations(shape) {
            spans.begin_op();
            let scenario = TwoPeerScenario::build(&params(shape, seed), c);
            let filter = spans.time("bloom.build", || {
                let mut f =
                    BloomFilter::with_bits_per_element(scenario.sender_set.len(), 8.0, seed);
                for &id in &scenario.sender_set {
                    f.insert(id);
                }
                f
            });
            let t = Instant::now();
            let hits = spans.time("bloom.probe", || {
                scenario
                    .receiver_set
                    .iter()
                    .filter(|&&id| filter.contains(black_box(id)))
                    .count()
            });
            probe_ns.push(t.elapsed().as_secs_f64() * 1e9 / scenario.receiver_set.len() as f64);
            black_box(hits);
            let sketch = spans.time("sketch.minwise_build", || {
                MinwiseSketch::from_keys(&family, scenario.sender_set.iter().copied())
            });
            black_box(sketch);
        }
    }
    probe_ns
}

pub fn measure(
    seed: u64,
    budget: Duration,
    trace: Trace,
    tally: &mut Tally,
    spans: &mut Spans,
) -> Measured {
    let cfg = ExpConfig {
        num_blocks: BLOCKS,
        trials: TRIALS,
        base_seed: seed,
    };
    let (reference, setup_s) = set_up(SETUP_REPEATS, || {
        SHAPES
            .iter()
            .map(|&(shape, _)| fig5(&cfg, shape).render())
            .collect::<String>()
    });
    let mut out = Measured::default();
    let mut overheads: Vec<f64> = Vec::new();
    let mut busy_share: Vec<f64> = Vec::new();
    let mut ticks = 0u64;
    let mut transfer_s = 0.0;
    drive(budget, 1, trace, spans, &mut out, |_, spans| {
        let traced = spans.is_on();
        if traced {
            spans.begin_op();
        }
        let s = sweep(&cfg, spans);
        tally.check("sweep", check(&s, &reference));
        if traced || trace == Trace::Off {
            overheads.extend(s.cells.iter().map(|c| c.0.overhead()));
            let busy: f64 = s.cells.iter().map(|c| (c.3 - c.1).as_secs_f64()).sum();
            busy_share.push(busy / (thread_count() as f64 * s.ms / 1e3));
            ticks += s.cells.iter().map(|c| c.0.ticks).sum::<u64>();
            transfer_s += s
                .cells
                .iter()
                .map(|c| (c.3 - c.2).as_secs_f64())
                .sum::<f64>();
        }
        Some(s.ms)
    });
    let overhead = overheads.iter().sum::<f64>() / overheads.len() as f64;
    if trace == Trace::Off {
        let ms = &out.plain_ms;
        let p50 = median(ms);
        let rss = peak_rss_mb();
        out.e2e = vec![
            metric("setup_s", setup_s, "s"),
            metric("op_cpu_ms", out.cpu_ms_per_op, "ms"),
            metric("overhead", overhead, "ratio"),
        ];
        out.report = vec![
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", rss, "MB"),
            metric("fig5_sweep_s", p50 / 1e3, "s"),
            metric("sweeps", ms.len() as f64, "count"),
            metric("symbol_overhead", overhead, "packets/needed"),
        ];
    } else {
        let probe_ns = summary_probes(&cfg, spans);
        out.layers = vec![
            metric(
                "overlay.scenario_build_ms",
                median(&spans.calls_ms("overlay.scenario_build")),
                "ms",
            ),
            metric("overlay.ticks_per_s", ticks as f64 / transfer_s, "1/s"),
            metric("bench.grid_busy_share", median(&busy_share), "ratio"),
            metric(
                "bloom.build_ms",
                median(&spans.calls_ms("bloom.build")),
                "ms",
            ),
            metric("bloom.probe_ns", median(&probe_ns), "ns"),
            metric(
                "sketch.minwise_build_ms",
                median(&spans.calls_ms("sketch.minwise_build")),
                "ms",
            ),
        ];
        for (name, strategy) in
            TRANSFER_SPANS
                .iter()
                .zip(["random", "random_bf", "recode", "recode_bf", "recode_mw"])
        {
            out.layers.push(metric(
                &format!("overlay.transfer_ms.{strategy}"),
                median(&spans.calls_ms(name)),
                "ms",
            ));
        }
    }
    out
}
