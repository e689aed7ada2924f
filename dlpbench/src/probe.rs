//! The traced per-layer run (`--trace 1`).
//!
//! It traces one pass of the chosen workload's own ops, split into
//! their public layer calls, and derives from those spans the self
//! time of each layer (`self_frac.*`) and the tracing overhead
//! (`harness.trace_overhead_frac`: traced vs untraced wall of the same
//! ops). Every other per-layer metric comes from that same pass where
//! the workload exercises the layer, and otherwise from a fixed probe
//! of the layer, so every traced run reports every metric:
//!
//! * both grids, traced at paper scale (build, check, predecode, block
//!   and DSA MIPS, energy, and the `model.*` counts, which are
//!   simulated quantities and repeat exactly);
//! * the snapshot probe: each app under DSA full, captured at every
//!   service checkpoint interval;
//! * a forge round (512 programs for `forge-campaign`, else 128);
//! * a one-shard service block (the full pool for `serve-steady`, else
//!   17 workloads × {Original, DSA full}), plus direct runs, captures
//!   and a sampling-off replay of its misses.

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use dsa_bench::cache::Workload;
use dsa_bench::{improvement_pct, run_built, System};
use dsa_core::{Dsa, DsaConfig, Snapshot};
use dsa_cpu::{BoundedOutcome, CpuConfig, DecodedProgram, NullHook, Simulator};
use dsa_isa::Program;
use dsa_serve::service::ServiceConfig;
use dsa_serve::JobSpec;
use dsa_workloads::{micro::Micro, BuiltWorkload, Scale, WorkloadId};

use crate::forge::{self, Forge};
use crate::grid::{Grid, GridKind};
use crate::serve::{self, Serve};
use crate::spans::{Layer, Spans};
use crate::{num, percentile};

/// Programs in the forge probe when the workload is not the forge.
const FORGE_PROBE: usize = 128;

/// The per-layer metrics of one traced run.
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn new() -> Report {
        Report {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Counts one traced op, reporting a failure on stderr.
    fn op<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("dlpbench: traced op failed: {e}");
                self.failed += 1;
                None
            }
        }
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v, u)| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// Runs the traced pass of `workload` and every layer probe.
pub fn run(workload: &str, seed: u64) -> Result<Report, String> {
    let mut p = Probe::new(workload);
    p.grids()?;
    p.snapshots()?;
    p.forge(seed)?;
    p.serve(seed)?;
    if p.workload == "serve-steady" {
        // Serve ops never predecode themselves; report the pool's.
        let programs: Vec<Program> = serve::pool()
            .iter()
            .map(|(w, s)| w.build(*s, Scale::Paper).kernel.program)
            .collect();
        predecode(&programs, &mut p.own);
    }
    let Probe {
        own,
        other,
        overhead: (traced, untraced),
        mut rep,
        ..
    } = p;
    rep.put("cpu.predecode_ms", own.mean_ms("decode"), "ms");
    let op_ns = own.op_ns() as f64;
    for layer in Layer::REPORTED {
        rep.put(
            format!("self_frac.{}", layer.name()),
            own.self_ns(layer) as f64 / op_ns,
            "frac",
        );
    }
    rep.put(
        "harness.trace_overhead_frac",
        traced / untraced - 1.0,
        "frac",
    );

    let dir = Path::new(".dlpbench");
    own.write_jsonl(&dir.join(format!("spans-{workload}-{seed}.jsonl")))
        .and_then(|()| {
            other.write_jsonl(&dir.join(format!("spans-{workload}-{seed}-probes.jsonl")))
        })
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(rep)
}

/// Only the `model.*` counts: both grids traced, nothing else.
pub fn model(workload: &str) -> Result<Report, String> {
    let mut p = Probe::new(workload);
    p.grids()?;
    p.rep.metrics.retain(|(k, _, _)| k.starts_with("model."));
    Ok(p.rep)
}

/// One traced run's state: spans of the workload's own ops (`own`) and
/// of the other layer probes (`other`), the traced and untraced wall
/// of the same ops of the workload, and the metrics so far.
struct Probe<'a> {
    workload: &'a str,
    own: Spans,
    other: Spans,
    overhead: (f64, f64),
    rep: Report,
}

impl Probe<'_> {
    fn new(workload: &str) -> Probe<'_> {
        Probe {
            workload,
            own: Spans::new(),
            other: Spans::new(),
            overhead: (0.0, 0.0),
            rep: Report::new(),
        }
    }

    /// Both grids, traced (the model counts need the scalar and the
    /// DSA runs); the workload's own grid follows an untraced pass of
    /// the same ops.
    fn grids(&mut self) -> Result<(), String> {
        let mut facts = Vec::new();
        for (kind, name) in [
            (GridKind::Scalar, "scalar-grid"),
            (GridKind::Dsa, "dsa-grid"),
        ] {
            let grid = Grid::setup(kind)?;
            let is_own = self.workload == name;
            if is_own {
                self.overhead.1 = untraced_pass(|i| grid.run_op(i), grid.ops.len(), &mut self.rep);
            }
            let spans = if is_own {
                &mut self.own
            } else {
                &mut self.other
            };
            for (i, op) in grid.ops.iter().enumerate() {
                if let Some((outcome, run_s)) = self.rep.op(grid.traced_op(i, spans)) {
                    facts.push(Fact {
                        workload: op.workload,
                        system: op.system,
                        outcome,
                        detection_cycles: op.reference.dsa.map_or(0, |d| d.detection_cycles),
                        run_s,
                    });
                }
            }
            if is_own {
                self.overhead.0 = self.own.op_ns() as f64 / 1e9;
                let programs: Vec<Program> = grid
                    .ops
                    .iter()
                    .map(|op| op.workload.build(op.system, Scale::Paper).kernel.program)
                    .collect();
                predecode(&programs, &mut self.own);
            }
        }
        let spans = if self.workload.ends_with("grid") {
            &self.own
        } else {
            &self.other
        };
        self.rep
            .put("workloads.build_ms", spans.mean_ms("build"), "ms");
        self.rep
            .put("workloads.check_ms", spans.mean_ms("check"), "ms");
        self.rep
            .put("energy.evaluate_us", spans.mean_ms("evaluate") * 1e3, "us");
        grid_metrics(&facts, &mut self.rep);
        Ok(())
    }

    /// Snapshot cost at service checkpoints: every app under DSA full,
    /// captured after every `checkpoint_every` commits.
    fn snapshots(&mut self) -> Result<(), String> {
        let mut total = Captures::default();
        for id in WorkloadId::all() {
            let w = Workload::App(id).build(System::DsaFull, Scale::Paper);
            total.add(&sliced_captures(&w, System::DsaFull)?);
        }
        let rep = &mut self.rep;
        rep.put(
            "core.snapshot_capture_ms",
            total.secs / total.count as f64 * 1e3,
            "ms",
        );
        rep.put(
            "core.snapshot_bytes",
            total.bytes as f64 / total.count as f64,
            "bytes",
        );
        rep.put(
            "core.snapshot_mb_per_s",
            total.bytes as f64 / total.secs / 1e6,
            "MB/s",
        );
        Ok(())
    }

    /// The forge round: `forge-campaign` traces a full cold round after
    /// its warm-up round, then replays it warm, each program once
    /// untraced and once traced, for the overhead; other workloads
    /// trace [`FORGE_PROBE`] programs.
    fn forge(&mut self, seed: u64) -> Result<(), String> {
        let is_own = self.workload == "forge-campaign";
        let t = Instant::now();
        let (corpus, generated) = forge::corpus(forge::round_seed(seed, 0));
        self.rep
            .put("forge.corpus_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
        self.rep.put(
            "forge.dedup_yield",
            corpus.len() as f64 / generated as f64,
            "frac",
        );
        let f = Forge::setup(seed, u64::from(is_own))?;
        let programs = if is_own {
            &f.rounds[0][..]
        } else {
            &corpus[..FORGE_PROBE]
        };
        let target = if is_own {
            &mut self.own
        } else {
            &mut self.other
        };
        let spans = RefCell::new(std::mem::take(target));
        let mut inconclusive = 0;
        for (i, spec) in programs.iter().enumerate() {
            inconclusive += self
                .rep
                .op(f.traced_op(i as u64, spec, &spans))
                .unwrap_or(0);
        }
        if is_own {
            let warm = RefCell::new(Spans::new());
            let mut untraced = 0.0;
            for (i, spec) in programs.iter().enumerate() {
                let traced = |rep: &mut Report| rep.op(f.traced_op(i as u64, spec, &warm));
                if i % 2 == 1 {
                    traced(&mut self.rep);
                }
                untraced += untraced_pass(|_| f.run_op(0, i), 1, &mut self.rep);
                if i % 2 == 0 {
                    traced(&mut self.rep);
                }
            }
            self.overhead = (warm.into_inner().op_ns() as f64 / 1e9, untraced);
        }
        let spans = spans.into_inner();
        let rep = &mut self.rep;
        rep.put("compiler.lower_ms", spans.mean_ms("lower"), "ms");
        rep.put("core.oracle_clean_ms", spans.mean_ms("oracle_clean"), "ms");
        rep.put("core.oracle_fault_ms", spans.mean_ms("oracle_fault"), "ms");
        rep.put(
            "core.oracle_resume_ms",
            spans.mean_ms("oracle_resume"),
            "ms",
        );
        rep.put("core.restore_ms", spans.mean_ms("restore"), "ms");
        let phases = (3 * programs.len()) as f64;
        rep.put(
            "forge.inconclusive_frac",
            inconclusive as f64 / phases,
            "frac",
        );
        *(if is_own {
            &mut self.own
        } else {
            &mut self.other
        }) = spans;
        Ok(())
    }

    /// The service block: `serve-steady` traces one full-pool block
    /// after timing another block untraced for the overhead; other
    /// workloads trace one block over 17 workloads × {Original, DSA
    /// full}.
    fn serve(&mut self, seed: u64) -> Result<(), String> {
        let is_own = self.workload == "serve-steady";
        let combos = if is_own {
            serve::pool()
        } else {
            let workloads = WorkloadId::all()
                .map(Workload::App)
                .into_iter()
                .chain(Micro::all().map(Workload::Micro));
            workloads
                .flat_map(|w| [(w, System::Original), (w, System::DsaFull)])
                .collect()
        };
        let s = Serve::setup(combos, seed, ServiceConfig::default().sample_rate)?;
        let rep = &mut self.rep;
        if is_own {
            let block = s.block(1);
            self.overhead.1 = untraced_pass(|i| s.run_job(block[i]).map(|_| ()), block.len(), rep);
        }
        let spans = if is_own {
            &mut self.own
        } else {
            &mut self.other
        };
        let before = s.service.stats();
        let mut hit_ms = Vec::new();
        let mut misses: Vec<(f64, JobSpec)> = Vec::new();
        let block = s.block(0);
        for (i, &job) in block.iter().enumerate() {
            let t = Instant::now();
            let out = spans.op(i as u64, |sp| {
                let rx = sp.leaf(Layer::Serve, "submit", || s.submit(job))?;
                sp.leaf(Layer::Serve, "reply", || s.wait(job, rx))
            });
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match rep.op(out) {
                Some(out) if out.cache_hit => hit_ms.push(ms),
                Some(_) => misses.push((ms, job)),
                None => {}
            }
        }
        if is_own {
            self.overhead.0 = spans.op_ns() as f64 / 1e9;
        }
        let after = s.service.stats();
        let cacheable = block.iter().filter(|j| j.cacheable).count();
        let mut miss_ms: Vec<f64> = misses.iter().map(|m| m.0).collect();
        miss_ms.sort_by(f64::total_cmp);
        let miss_total: f64 = miss_ms.iter().sum();
        let mean_hit = hit_ms.iter().sum::<f64>() / hit_ms.len().max(1) as f64;
        let checkpoints = (after.checkpoints - before.checkpoints) as f64;
        let offered = (after.admitted + after.shed) - (before.admitted + before.shed);
        rep.put("serve.submit_us", spans.mean_ms("submit") * 1e3, "us");
        rep.put("serve.hit_ms", mean_hit, "ms");
        rep.put("serve.miss_p50_ms", percentile(&miss_ms, 0.50), "ms");
        rep.put("serve.miss_p99_ms", percentile(&miss_ms, 0.99), "ms");
        rep.put(
            "serve.store_hit_rate",
            hit_ms.len() as f64 / cacheable.max(1) as f64,
            "frac",
        );
        rep.put(
            "serve.checkpoints_per_job",
            checkpoints / misses.len().max(1) as f64,
            "count",
        );
        let shed = (after.shed - before.shed) as f64;
        rep.put("serve.shed_frac", shed / offered.max(1) as f64, "frac");

        // Per distinct missed combo: a direct run_built, the shard's
        // checkpoint captures, and an A/B/B/A replay of the job with
        // sampling on (A, this service) and off (B).
        let off = s.sibling(0);
        let mut direct: HashMap<(Workload, System), f64> = HashMap::new();
        let mut capture: HashMap<(Workload, System), f64> = HashMap::new();
        let (mut on_s, mut off_s) = (0.0, 0.0);
        for &(_, job) in &misses {
            let key = (job.workload, job.system);
            if direct.contains_key(&key) {
                continue;
            }
            let built = job.workload.build(job.system, Scale::Paper);
            let label = serve::label(job.workload, job.system);
            let t = Instant::now();
            rep.op(run_built(&built, job.system).map_err(|e| format!("{label}: {e}")));
            direct.insert(key, t.elapsed().as_secs_f64() * 1e3);
            let c = rep
                .op(sliced_captures(&built, job.system))
                .unwrap_or_default();
            capture.insert(key, c.secs * 1e3);
            for on in [true, false, false, true] {
                let t = Instant::now();
                rep.op(if on { &s } else { &off }.run_job(job));
                *(if on { &mut on_s } else { &mut off_s }) += t.elapsed().as_secs_f64();
            }
        }
        let sum = |m: &HashMap<(Workload, System), f64>| -> f64 {
            misses.iter().map(|(_, j)| m[&(j.workload, j.system)]).sum()
        };
        rep.put(
            "serve.overhead_frac",
            1.0 - sum(&direct) / miss_total,
            "frac",
        );
        rep.put("serve.checkpoint_frac", sum(&capture) / miss_total, "frac");
        rep.put("trace.sample_overhead_frac", on_s / off_s - 1.0, "frac");
        Ok(())
    }
}

/// Times `n` untraced ops, returning their summed latency in seconds.
fn untraced_pass(op: impl Fn(usize) -> Result<(), String>, n: usize, rep: &mut Report) -> f64 {
    let mut total = 0.0;
    for i in 0..n {
        let t = Instant::now();
        let r = op(i);
        total += t.elapsed().as_secs_f64();
        rep.op(r);
    }
    total
}

/// Times `DecodedProgram::decode` once per distinct program.
fn predecode(programs: &[Program], spans: &mut Spans) {
    let mut seen = std::collections::HashSet::new();
    for p in programs {
        if seen.insert(p.content_hash()) {
            spans.leaf(Layer::Cpu, "decode", || DecodedProgram::decode(p));
        }
    }
}

/// One traced grid run.
struct Fact {
    workload: Workload,
    system: System,
    outcome: dsa_cpu::RunOutcome,
    detection_cycles: u64,
    run_s: f64,
}

/// Block and DSA MIPS, DSA-vs-scalar ratios and the model counts.
fn grid_metrics(facts: &[Fact], rep: &mut Report) {
    let mips = |fs: &mut dyn Iterator<Item = &Fact>| {
        let (c, s) = fs.fold((0u64, 0.0), |(c, s), f| {
            (c + f.outcome.committed, s + f.run_s)
        });
        c as f64 / s / 1e6
    };
    let dsa = |f: &&Fact| f.system.dsa_config().is_some();
    rep.put(
        "cpu.block_mips",
        mips(&mut facts.iter().filter(|f| !dsa(f))),
        "MIPS",
    );
    rep.put("core.dsa_mips", mips(&mut facts.iter().filter(dsa)), "MIPS");
    let find = |w: WorkloadId, s: System| {
        facts
            .iter()
            .find(|f| f.workload == Workload::App(w) && f.system == s)
    };
    let mut auto = Vec::new();
    let mut full = Vec::new();
    for (id, key) in WorkloadId::all().into_iter().zip(APP_KEYS) {
        let (Some(o), Some(a), Some(d)) = (
            find(id, System::Original),
            find(id, System::AutoVec),
            find(id, System::DsaFull),
        ) else {
            continue;
        };
        rep.put(
            format!("core.dsa_vs_scalar.{key}"),
            mips(&mut std::iter::once(d)) / mips(&mut std::iter::once(o)),
            "ratio",
        );
        auto.push(improvement_pct(o.outcome.cycles, a.outcome.cycles));
        full.push(improvement_pct(o.outcome.cycles, d.outcome.cycles));
    }
    let sum = |f: fn(&Fact) -> u64| facts.iter().map(f).sum::<u64>();
    let cycles = sum(|f| f.outcome.cycles);
    let l1d_misses = sum(|f| f.outcome.mem.l1d.misses);
    let l1d = sum(|f| f.outcome.mem.l1d.accesses());
    let dsa_cycles: u64 = facts.iter().filter(dsa).map(|f| f.outcome.cycles).sum();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    rep.put("model.cycles", cycles as f64, "cycles");
    rep.put(
        "model.ipc",
        sum(|f| f.outcome.committed) as f64 / cycles as f64,
        "instr/cycle",
    );
    rep.put(
        "model.l1d_miss_rate",
        l1d_misses as f64 / l1d as f64,
        "frac",
    );
    rep.put(
        "model.detect_frac",
        sum(|f| f.detection_cycles) as f64 / dsa_cycles as f64,
        "frac",
    );
    rep.put(
        "model.dsa_over_autovec_pts",
        mean(&full) - mean(&auto),
        "pts",
    );
}

/// Metric-name keys of the seven apps, in `WorkloadId::all` order.
const APP_KEYS: [&str; 7] = [
    "mm",
    "rgb-gray",
    "gaussian",
    "susan",
    "qsort",
    "dijkstra",
    "bitcounts",
];

/// Checkpoint captures of one sliced run.
#[derive(Debug, Clone, Copy, Default)]
struct Captures {
    count: u64,
    secs: f64,
    bytes: u64,
}

impl Captures {
    fn add(&mut self, o: &Captures) {
        self.count += o.count;
        self.secs += o.secs;
        self.bytes += o.bytes;
    }
}

/// Runs `w` the way a service shard does — slices of
/// `checkpoint_every` commits, a `Snapshot::capture(..).to_bytes()`
/// after each one that does not halt — timing only the captures.
fn sliced_captures(w: &BuiltWorkload, system: System) -> Result<Captures, String> {
    let every = ServiceConfig::default().checkpoint_every;
    let mut sim = Simulator::new(w.kernel.program.clone(), CpuConfig::default());
    (w.init)(sim.machine_mut());
    for buf in w.kernel.layout.bufs() {
        sim.warm_region(buf.base, buf.size_bytes());
    }
    let attached = system.dsa_config();
    let mut dsa = Dsa::new(attached.unwrap_or_else(DsaConfig::full));
    let mut c = Captures::default();
    loop {
        let slice = match attached {
            Some(_) => sim.run_bounded(every, &mut dsa),
            None => sim.run_bounded(every, &mut NullHook),
        }
        .map_err(|e| format!("sliced run: {e}"))?;
        match slice {
            BoundedOutcome::Halted(_) if w.check(sim.machine()) => return Ok(c),
            BoundedOutcome::Halted(_) => return Err("sliced run missed its golden output".into()),
            BoundedOutcome::Paused => {
                let t = Instant::now();
                let bytes = Snapshot::capture(&dsa, sim.machine()).to_bytes();
                c.secs += t.elapsed().as_secs_f64();
                c.count += 1;
                c.bytes += bytes.len() as u64;
            }
        }
    }
}
