//! `dlpbench`: one workload of the benchmark, in its own process.
//!
//! ```text
//! dlpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!          [--setup-only | --describe | --model]
//! ```
//!
//! * Default mode sets the workload up (inputs, service, one untimed
//!   warm-up pass that records every op's reference output), then runs
//!   checked ops for `--seconds` and prints the end-to-end metrics as
//!   the last line of stdout: `setup_s`, `peak_rss_mb`, `ops_per_s`,
//!   `p50_ms`, `p99_ms`, plus ops attempted and failed.
//! * `--trace 1` instead runs the traced per-layer pass and prints the
//!   per-layer metrics (see `probe.rs`), writing its spans to
//!   `.dlpbench/spans-<workload>-<seed>.jsonl`.
//! * `--setup-only` sets up and prints only `setup_s`.
//! * `--describe` prints a digest of the op sequence without running it.
//! * `--model` prints only the `model.*` counts of the traced grids.
//!
//! Every metric is host wall time except the `model.*` counts, which
//! are simulated quantities and must repeat exactly.

mod forge;
mod grid;
mod probe;
mod serve;
mod spans;

use std::collections::HashMap;
use std::time::Instant;

use grid::{Grid, GridKind};

/// The workloads, in `BENCHMARK.json` order; `forge-campaign` runs but
/// is not in the contract (see the README).
pub const WORKLOADS: [&str; 4] = ["scalar-grid", "dsa-grid", "forge-campaign", "serve-steady"];

/// Fewest ops a timed run may hold: its p99 has 15 samples beyond it,
/// and each dsa-grid op kind runs at least 48 times, so that its fastest
/// time is found even when the host is slow most of the run.
const MIN_OPS: usize = 1_500;

/// Forge rounds per second of `--seconds`, times ten: a fixed program
/// count that takes about `--seconds` on a 2-core x86-64 host.
const FORGE_ROUNDS_PER_10S: u64 = 15;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_only: bool,
    describe: bool,
    model: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        setup_only: false,
        describe: false,
        model: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--setup-only" => args.setup_only = true,
            "--describe" => args.describe = true,
            "--model" => args.model = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: dlpbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--setup-only | --describe | --model]\n{e}");
            std::process::exit(2);
        }
    };
    let line = if args.describe {
        Ok(describe(&args))
    } else if args.model {
        probe::model(&args.workload).map(|r| r.to_json())
    } else if args.trace {
        probe::run(&args.workload, args.seed).map(|r| r.to_json())
    } else {
        measure(&args, start)
    };
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("dlpbench: {e}");
            std::process::exit(1);
        }
    }
}

/// A workload set up and ready to time.
pub enum Bench {
    /// `scalar-grid` or `dsa-grid`.
    Grid(Grid),
    /// `forge-campaign`.
    Forge(forge::Forge),
    /// `serve-steady`, with the block being run.
    Serve(serve::Serve, Vec<dsa_serve::JobSpec>),
}

impl Bench {
    /// Sets `workload` up: inputs, service, and one untimed warm-up
    /// pass recording the reference of every op. Grids ignore the seed.
    pub fn setup(workload: &str, seed: u64, seconds: u64) -> Result<Bench, String> {
        Ok(match workload {
            "scalar-grid" => Bench::Grid(Grid::setup(GridKind::Scalar)?),
            "dsa-grid" => Bench::Grid(Grid::setup(GridKind::Dsa)?),
            "forge-campaign" => Bench::Forge(forge::Forge::setup(seed, forge_rounds(seconds))?),
            _ => {
                let rate = dsa_serve::ServiceConfig::default().sample_rate;
                Bench::Serve(serve::Serve::setup(serve::pool(), seed, rate)?, Vec::new())
            }
        })
    }

    /// Starts pass `pass`; returns its op count, or `None` when a
    /// fixed-length workload has run all its passes.
    fn start_pass(&mut self, pass: u64) -> Option<usize> {
        match self {
            Bench::Grid(g) => Some(g.ops.len()),
            Bench::Forge(f) => f.rounds.get(pass as usize).map(Vec::len),
            Bench::Serve(s, block) => {
                *block = s.block(pass);
                Some(block.len())
            }
        }
    }

    /// Runs and checks op `i` of pass `pass`.
    fn run_op(&self, pass: u64, i: usize) -> Result<(), String> {
        match self {
            Bench::Grid(g) => g.run_op(i),
            Bench::Forge(f) => f.run_op(pass as usize, i),
            Bench::Serve(s, block) => s.run_job(block[i]).map(|_| ()),
        }
    }

    /// The kind of op `i` of pass `pass`: ops of one kind do the same
    /// work (a grid op's index, a served job's combo and cacheability);
    /// a forge program never repeats.
    fn kind(&self, pass: u64, i: usize) -> u64 {
        match self {
            Bench::Grid(_) => i as u64,
            Bench::Forge(_) => pass << 32 | i as u64,
            Bench::Serve(s, block) => {
                let job = block[i];
                let combo = s
                    .combos
                    .iter()
                    .position(|c| *c == (job.workload, job.system));
                combo.unwrap_or(usize::MAX) as u64 * 2 + u64::from(job.cacheable)
            }
        }
    }

    /// Whether the timed loop may stop after `ops` ops in `elapsed`
    /// seconds (checked only at pass boundaries, so every pass runs
    /// whole and the op mix is exact).
    fn done(&self, elapsed: f64, seconds: u64, ops: usize) -> bool {
        match self {
            Bench::Forge(_) => false,
            _ => elapsed >= seconds as f64 && ops >= MIN_OPS,
        }
    }
}

/// The fixed round count of a forge run of `seconds`.
pub fn forge_rounds(seconds: u64) -> u64 {
    (seconds * FORGE_ROUNDS_PER_10S).div_ceil(10).max(2)
}

/// One pass of the timed loop.
pub struct Pass {
    /// Each op's latency in seconds (a failed op's is infinite).
    pub latencies: Vec<f64>,
    /// Each op's kind (see `Bench::kind`).
    pub kinds: Vec<u64>,
}

/// Per-op latencies and counts of one timed loop, pass by pass.
pub struct Timed {
    /// The passes, in order.
    pub passes: Vec<Pass>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed their check.
    pub failed: u64,
}

/// Runs whole passes until `bench.done`, timing and checking each op.
pub fn timed_loop(bench: &mut Bench, seconds: u64) -> Timed {
    let start = Instant::now();
    let mut t = Timed {
        passes: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let mut ops = 0;
    for pass in 0.. {
        let Some(n) = bench.start_pass(pass) else {
            break;
        };
        let mut latencies = Vec::with_capacity(n);
        for i in 0..n {
            let op = Instant::now();
            let r = bench.run_op(pass, i);
            let dt = op.elapsed().as_secs_f64();
            t.attempted += 1;
            match r {
                Ok(()) => latencies.push(dt),
                Err(e) => {
                    if t.failed < 5 {
                        eprintln!("dlpbench: op failed: {e}");
                    }
                    t.failed += 1;
                    latencies.push(f64::INFINITY);
                }
            }
        }
        ops += n;
        let kinds = (0..n).map(|i| bench.kind(pass, i)).collect();
        t.passes.push(Pass { latencies, kinds });
        if bench.done(start.elapsed().as_secs_f64(), seconds, ops) {
            break;
        }
    }
    t
}

/// The timed metrics, robust to host contention. Ops of one kind do the
/// same deterministic work (see `Bench::kind`), so any time one of them
/// takes beyond its kind's fastest run is host noise, not the program;
/// on a shared 2-vCPU host that noise comes in bursts of seconds to tens
/// of seconds that slow every op by up to 2×, and it only ever adds
/// time. So each op is timed at the fastest run of its kind over the
/// run (a forge program, which never repeats, at its own time), and
/// then:
///
/// * `ops_per_s`: a pass's checked ops ÷ the sum of their times,
///   median over passes;
/// * `p50_ms`: a pass's median op time, median over passes;
/// * `p99_ms`: the nearest-rank p99 in windows of whole consecutive
///   passes holding at least [`MIN_OPS`] ops — so each window's p99 has
///   ten samples beyond it — median over windows.
///
/// A grid or serve pass repeats the same kinds, so its passes agree.
/// The forge has only its medians over rounds against bursts.
pub fn timed_metrics(t: &Timed) -> [(&'static str, f64, &'static str); 3] {
    let mut fastest: HashMap<u64, f64> = HashMap::new();
    for p in &t.passes {
        for (k, l) in p.kinds.iter().zip(&p.latencies) {
            let best = fastest.entry(*k).or_insert(f64::INFINITY);
            *best = best.min(*l);
        }
    }
    let mut per_s = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut window: Vec<f64> = Vec::new();
    for (i, p) in t.passes.iter().enumerate() {
        let mut times: Vec<f64> = p.kinds.iter().map(|k| fastest[k]).collect();
        let checked: Vec<f64> = times
            .iter()
            .zip(&p.latencies)
            .filter(|(_, l)| l.is_finite())
            .map(|(t, _)| *t)
            .collect();
        let busy: f64 = checked.iter().sum();
        per_s.push(if checked.is_empty() {
            0.0
        } else {
            checked.len() as f64 / busy
        });
        times.sort_by(f64::total_cmp);
        p50.push(percentile(&times, 0.50));
        window.extend(times);
        let rest: usize = t.passes[i + 1..].iter().map(|p| p.latencies.len()).sum();
        if window.len() >= MIN_OPS && rest >= MIN_OPS || i + 1 == t.passes.len() {
            window.sort_by(f64::total_cmp);
            p99.push(percentile(&window, 0.99));
            window.clear();
        }
    }
    [
        ("ops_per_s", median(&mut per_s), "1/s"),
        ("p50_ms", median(&mut p50) * 1e3, "ms"),
        ("p99_ms", median(&mut p99) * 1e3, "ms"),
    ]
}

fn measure(args: &Args, start: Instant) -> Result<String, String> {
    let mut bench = Bench::setup(&args.workload, args.seed, args.seconds)?;
    let setup_s = start.elapsed().as_secs_f64();
    if args.setup_only {
        return Ok(format!("{{\"setup_s\": {}}}", num(setup_s)));
    }
    let t = timed_loop(&mut bench, args.seconds);
    drop(bench);
    let mut metrics = vec![
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    metrics.extend(timed_metrics(&t));
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.failed == 0,
        t.attempted,
        t.failed,
        body.join(", ")
    ))
}

/// Median of `v` (mean of the middle two when even; 0 when empty).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of sorted samples (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// This process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON number with every digit; non-finite values (a failed op's
/// latency) print as the largest finite double.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

/// A digest of the op sequence: grids list their fixed ops, forge its
/// round seeds and program hashes, serve its first two blocks.
fn describe(args: &Args) -> String {
    let mut items: Vec<String> = Vec::new();
    match args.workload.as_str() {
        "scalar-grid" | "dsa-grid" => {
            let kind = if args.workload == "scalar-grid" {
                GridKind::Scalar
            } else {
                GridKind::Dsa
            };
            items.extend(grid::combos(kind).iter().map(|(w, s)| serve::label(*w, *s)));
        }
        "forge-campaign" => {
            for r in 0..forge_rounds(args.seconds) {
                let (corpus, _) = forge::corpus(forge::round_seed(args.seed, r));
                items.extend(
                    corpus
                        .iter()
                        .map(|p| format!("{:016x}", p.structural_hash())),
                );
            }
        }
        _ => {
            let pool = serve::pool();
            for pass in 0..2 {
                items.extend(
                    serve::block(&pool, args.seed, pass)
                        .iter()
                        .map(|j| format!("{}:{}", serve::label(j.workload, j.system), j.cacheable)),
                );
            }
        }
    }
    let digest = items.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, s| {
        s.bytes()
            .chain([0])
            .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
    });
    format!(
        "{{\"ops\": {}, \"digest\": \"{digest:016x}\"}}",
        items.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=MIN_OPS).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.5), 750.0);
        assert_eq!(percentile(&v, 0.99), 1485.0);
        assert!(
            v.len() - 1485 >= 10,
            "ten samples beyond p99 at the minimum op count"
        );
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }

    /// A pass of `n` ops of kinds `kind0..kind0+n`, op `i` taking
    /// `ms * (1 + i/n)` milliseconds.
    fn pass(n: usize, kind0: u64, ms: f64) -> Pass {
        Pass {
            latencies: (0..n)
                .map(|i| ms * (1.0 + i as f64 / n as f64) / 1e3)
                .collect(),
            kinds: (0..n as u64).map(|i| kind0 + i).collect(),
        }
    }

    #[test]
    fn windows_hold_enough_ops_for_p99() {
        // 15 forge-like passes of 512 distinct programs: windows of 3
        // passes, so every window has >= MIN_OPS ops.
        let passes = (0..15)
            .map(|p| pass(512, p << 32, 1.0 + p as f64))
            .collect();
        let t = Timed {
            passes,
            attempted: 7680,
            failed: 0,
        };
        let [(_, per_s, _), (_, p50, _), (_, p99, _)] = timed_metrics(&t);
        let median_pass: f64 = t.passes[7].latencies.iter().sum();
        assert!(
            (per_s - 512.0 / median_pass).abs() < 1e-9,
            "median pass is the 8th: {per_s}"
        );
        assert!(
            (p50 - 8.0 * 1.5).abs() < 0.05,
            "median pass is the 8th: {p50}"
        );
        assert!(p99 > p50);
        let one = Timed {
            passes: vec![pass(512, 0, 1.0)],
            attempted: 512,
            failed: 0,
        };
        assert!(
            timed_metrics(&one)[2].1 > 0.0,
            "a short run still reports its pooled p99"
        );
    }

    #[test]
    fn repeated_ops_are_timed_at_their_fastest() {
        // Grid-like: the same 100 ops each pass; a host burst runs ten
        // passes of eleven twice as slow and must move no metric.
        let passes = (0..11)
            .map(|p| pass(100, 0, if p == 3 { 1.0 } else { 2.0 }))
            .collect();
        let t = Timed {
            passes,
            attempted: 1100,
            failed: 0,
        };
        let [(_, per_s, _), (_, p50, _), (_, p99, _)] = timed_metrics(&t);
        // One pass at 1 ms × (1 + i/100) takes 149.5 ms.
        assert!((per_s - 100.0 / 0.1495).abs() < 1e-6, "{per_s}");
        assert!((p50 - 1.49).abs() < 1e-9, "op 49 at its fastest: {p50}");
        // Rank ceil(0.99 * 1100) = 1089 is the last copy of op 98.
        assert!((p99 - 1.98).abs() < 1e-9, "op 98 at its fastest: {p99}");
    }

    #[test]
    fn a_failed_op_is_not_a_checked_op() {
        let mut p = pass(100, 0, 1.0);
        p.latencies[0] = f64::INFINITY;
        let t = Timed {
            passes: vec![p],
            attempted: 100,
            failed: 1,
        };
        let per_s = timed_metrics(&t)[0].1;
        // 99 checked ops in 149.5 - 1 ms.
        assert!((per_s - 99.0 / 0.1485).abs() < 1e-6, "{per_s}");
    }

    #[test]
    fn forge_length_is_a_program_count() {
        assert_eq!(forge_rounds(10), 15);
        assert_eq!(
            forge_rounds(1),
            2,
            "at least two rounds, so p99 has ten samples beyond it"
        );
    }
}
