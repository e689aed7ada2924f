//! Guards the tentpole performance promise: with tracing disabled the
//! DSA hot loop must run at the same speed as before the observability
//! layer existed, and even the cheapest attached sink must stay within
//! a small envelope.
//!
//! Two configurations are timed back-to-back on the same workload:
//!
//! * **off** — `Tracer::Off`, the default; every `emit` is a dead
//!   branch the optimizer removes from the monomorphized
//!   `run_with_hook` loop.
//! * **null** — a [`NullSink`] attached; events are built and dropped.
//!
//! Both runs must produce *identical cycle counts and checksums* (the
//! tracer is observation only), and in `--check` mode the off-vs-null
//! wall-clock gap must stay under the threshold (default 2%). The same
//! off-vs-null comparison is then repeated on a run **resumed from a
//! mid-run snapshot** — the restore path must not tax the hot loop
//! either, and restored runs must stay observation-only too — and on
//! the **superblock fast path** (a scalar `NullHook` run, traced at the
//! run brackets via `run_traced`): engaging tracing must neither
//! disengage the fast path nor perturb cycles or checksums.
//!
//! ```text
//! cargo run --release -p dsa-bench --bin trace_overhead_guard -- --check
//! ```

use std::time::Instant;

use dsa_core::{Dsa, Snapshot};
use dsa_cpu::{BoundedOutcome, CpuConfig, RunOutcome, Simulator};
use dsa_trace::{NullSink, SamplingSink};
use dsa_workloads::{build, BuiltWorkload, Scale, WorkloadId};

const USAGE: &str =
    "usage: trace_overhead_guard [--check] [--reps N] [--threshold PCT]";

/// Instruction budget — same as the harness.
const FUEL: u64 = 2_000_000_000;

/// Commits before the snapshot in the restored-path measurement.
const SPLIT: u64 = 40_000;

/// Commits per slice in the sampled serve-path measurement (the
/// `ServiceConfig::checkpoint_every` default).
const SLICE: u64 = 20_000;

/// Seed and rate for the sampled-path measurement (the serve defaults).
const SAMPLE_SEED: u64 = 0xD5A7_0ACE_05EE_D001;
const SAMPLE_RATE: u32 = 8;

fn usage_error(msg: &str) -> ! {
    eprintln!("trace_overhead_guard: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    dsa_bench::fail(&format!("trace_overhead_guard: {msg}"));
}

fn run_once(w: &BuiltWorkload, with_sink: bool) -> (RunOutcome, u64, f64) {
    let cfg = dsa_core::DsaConfig::full();
    let mut sim = Simulator::new(w.kernel.program.clone(), CpuConfig::default());
    (w.init)(sim.machine_mut());
    for buf in w.kernel.layout.bufs() {
        sim.warm_region(buf.base, buf.size_bytes());
    }
    let mut dsa = Dsa::new(if with_sink { cfg.with_trace() } else { cfg });
    if with_sink {
        dsa.attach_sink(NullSink);
    }
    let t = Instant::now();
    let outcome = sim
        .run_with_hook(FUEL, &mut dsa)
        .unwrap_or_else(|e| fail(&format!("simulation failed: {e}")));
    let secs = t.elapsed().as_secs_f64();
    if !w.check(sim.machine()) {
        fail(&format!("wrong result (sink={with_sink})"));
    }
    (outcome, w.actual(sim.machine()), secs)
}

/// One scalar-baseline run on the superblock fast path (`NullHook`,
/// whose interest is `Nothing`), with tracing either off entirely or
/// attached as run-bracket telemetry through `run_traced` + [`NullSink`].
fn run_scalar_block(w: &BuiltWorkload, with_sink: bool) -> (RunOutcome, u64, f64) {
    let mut sim = Simulator::new(w.kernel.program.clone(), CpuConfig::default());
    (w.init)(sim.machine_mut());
    for buf in w.kernel.layout.bufs() {
        sim.warm_region(buf.base, buf.size_bytes());
    }
    let t = Instant::now();
    let outcome = if with_sink {
        let mut sink = NullSink;
        sim.run_traced(FUEL, &mut dsa_cpu::NullHook, &mut sink)
    } else {
        sim.run_with_hook(FUEL, &mut dsa_cpu::NullHook)
    }
    .unwrap_or_else(|e| fail(&format!("scalar block simulation failed: {e}")));
    let secs = t.elapsed().as_secs_f64();
    if !w.check(sim.machine()) {
        fail(&format!("wrong scalar result (sink={with_sink})"));
    }
    (outcome, w.actual(sim.machine()), secs)
}

/// One run driven in [`SLICE`]-commit slices — the serve path's shape —
/// either bare (`run_bounded`, no sink) or with the always-on sampler
/// attached exactly as a shard attaches it: a seed-derived
/// [`SamplingSink`] on the engine plus sampled run brackets through
/// `run_bounded_traced`.
fn run_sliced(w: &BuiltWorkload, with_sampling: bool) -> (RunOutcome, u64, f64) {
    let cfg = dsa_core::DsaConfig::full();
    let mut sim = Simulator::new(w.kernel.program.clone(), CpuConfig::default());
    (w.init)(sim.machine_mut());
    for buf in w.kernel.layout.bufs() {
        sim.warm_region(buf.base, buf.size_bytes());
    }
    let mut dsa = Dsa::new(cfg);
    if with_sampling {
        dsa.attach_sink(SamplingSink::new(NullSink, SAMPLE_SEED, SAMPLE_RATE));
    }
    let t = Instant::now();
    let outcome = loop {
        let bounded = if with_sampling {
            let mut bracket = SamplingSink::new(NullSink, SAMPLE_SEED, SAMPLE_RATE);
            sim.run_bounded_traced(SLICE, &mut dsa, &mut bracket)
        } else {
            sim.run_bounded(SLICE, &mut dsa)
        }
        .unwrap_or_else(|e| fail(&format!("sliced simulation failed: {e}")));
        match bounded {
            BoundedOutcome::Halted(out) => break out,
            BoundedOutcome::Paused => {}
        }
    };
    let secs = t.elapsed().as_secs_f64();
    if !w.check(sim.machine()) {
        fail(&format!("wrong sliced result (sampling={with_sampling})"));
    }
    (outcome, w.actual(sim.machine()), secs)
}

/// A mid-run snapshot image of `w` at [`SPLIT`] commits.
fn snapshot_image(w: &BuiltWorkload) -> Vec<u8> {
    let cfg = dsa_core::DsaConfig::full();
    let mut sim = Simulator::new(w.kernel.program.clone(), CpuConfig::default());
    (w.init)(sim.machine_mut());
    for buf in w.kernel.layout.bufs() {
        sim.warm_region(buf.base, buf.size_bytes());
    }
    let mut dsa = Dsa::new(cfg);
    match sim.run_bounded(SPLIT, &mut dsa) {
        Ok(BoundedOutcome::Paused) => {}
        Ok(BoundedOutcome::Halted(_)) => fail("workload halted before the snapshot split"),
        Err(e) => fail(&format!("snapshot-prep run failed: {e}")),
    }
    Snapshot::capture(&dsa, sim.machine()).to_bytes()
}

/// Times the remainder of a run restored from `image`.
fn run_resumed(w: &BuiltWorkload, image: &[u8], with_sink: bool) -> (RunOutcome, u64, f64) {
    let cfg = dsa_core::DsaConfig::full();
    let cfg = if with_sink { cfg.with_trace() } else { cfg };
    let (mut dsa, machine) = Dsa::restore(image, cfg)
        .unwrap_or_else(|e| fail(&format!("snapshot restore failed: {e}")));
    if with_sink {
        dsa.attach_sink(NullSink);
    }
    let mut sim = Simulator::with_machine(w.kernel.program.clone(), CpuConfig::default(), machine);
    for buf in w.kernel.layout.bufs() {
        sim.warm_region(buf.base, buf.size_bytes());
    }
    let t = Instant::now();
    let outcome = sim
        .run_with_hook(FUEL, &mut dsa)
        .unwrap_or_else(|e| fail(&format!("resumed simulation failed: {e}")));
    let secs = t.elapsed().as_secs_f64();
    if !w.check(sim.machine()) {
        fail(&format!("wrong result after restore (sink={with_sink})"));
    }
    (outcome, w.actual(sim.machine()), secs)
}

fn main() {
    let mut check = false;
    let mut reps: u32 = 9;
    let mut threshold: f64 = 2.0;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let take = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
            it.next().unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--check" => check = true,
            "--reps" => {
                reps = take(&mut it, "--reps")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--reps needs an integer"));
            }
            "--threshold" => {
                threshold = take(&mut it, "--threshold")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--threshold needs a number"));
            }
            "--help" => {
                println!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    if reps == 0 {
        usage_error("--reps must be at least 1");
    }

    let w = build(WorkloadId::BitCounts, dsa_compiler::Variant::Scalar, Scale::Paper);

    // One warm-up pass per path (page-in, branch predictors, etc.), then
    // interleaved timed reps; keep the minimum of each — the least-noise
    // estimator for "how fast can this path go".
    let _ = run_once(&w, false);
    let _ = run_once(&w, true);
    let mut best_off = f64::INFINITY;
    let mut best_null = f64::INFINITY;
    let mut cycles = (0u64, 0u64);
    let mut sums = (0u64, 0u64);
    for _ in 0..reps {
        let (out, sum, secs) = run_once(&w, false);
        best_off = best_off.min(secs);
        cycles.0 = out.cycles;
        sums.0 = sum;
        let (out, sum, secs) = run_once(&w, true);
        best_null = best_null.min(secs);
        cycles.1 = out.cycles;
        sums.1 = sum;
    }

    let overhead = 100.0 * (best_null / best_off - 1.0);
    println!("workload:     bitcounts (paper scale), {reps} reps, min-of-N wall clock");
    println!("tracer off:   {:.3} ms ({} simulated cycles)", best_off * 1e3, cycles.0);
    println!("null sink:    {:.3} ms ({} simulated cycles)", best_null * 1e3, cycles.1);
    println!("overhead:     {overhead:+.2}% (threshold {threshold:.1}%)");

    if cycles.0 != cycles.1 || sums.0 != sums.1 {
        fail(&format!(
            "tracing changed the simulation! cycles {} vs {}, checksum {:#x} vs {:#x}",
            cycles.0, cycles.1, sums.0, sums.1
        ));
    }
    if check && overhead > threshold {
        fail(&format!("null-sink overhead {overhead:+.2}% exceeds {threshold:.1}%"));
    }

    // The restored-from-snapshot path: resume the same workload from a
    // mid-run image with tracer off vs null sink.
    let image = snapshot_image(&w);
    let _ = run_resumed(&w, &image, false);
    let _ = run_resumed(&w, &image, true);
    let mut best_off_r = f64::INFINITY;
    let mut best_null_r = f64::INFINITY;
    let mut cycles_r = (0u64, 0u64);
    let mut sums_r = (0u64, 0u64);
    for _ in 0..reps {
        let (out, sum, secs) = run_resumed(&w, &image, false);
        best_off_r = best_off_r.min(secs);
        cycles_r.0 = out.cycles;
        sums_r.0 = sum;
        let (out, sum, secs) = run_resumed(&w, &image, true);
        best_null_r = best_null_r.min(secs);
        cycles_r.1 = out.cycles;
        sums_r.1 = sum;
    }
    let overhead_r = 100.0 * (best_null_r / best_off_r - 1.0);
    println!("restored path (snapshot at {SPLIT} commits, {} byte image):", image.len());
    println!("tracer off:   {:.3} ms ({} simulated cycles)", best_off_r * 1e3, cycles_r.0);
    println!("null sink:    {:.3} ms ({} simulated cycles)", best_null_r * 1e3, cycles_r.1);
    println!("overhead:     {overhead_r:+.2}% (threshold {threshold:.1}%)");

    if cycles_r.0 != cycles_r.1 || sums_r.0 != sums_r.1 {
        fail(&format!(
            "tracing changed the restored simulation! cycles {} vs {}, checksum {:#x} vs {:#x}",
            cycles_r.0, cycles_r.1, sums_r.0, sums_r.1
        ));
    }
    if sums_r.0 != sums.0 {
        fail(&format!(
            "restored run diverged from the uninterrupted run: checksum {:#x} vs {:#x}",
            sums_r.0, sums.0
        ));
    }
    if check && overhead_r > threshold {
        fail(&format!(
            "restored-path null-sink overhead {overhead_r:+.2}% exceeds {threshold:.1}%"
        ));
    }
    // The superblock fast path: a scalar `NullHook` run takes the
    // block-stepping loop; attaching run-bracket tracing via
    // `run_traced` must leave it engaged and untouched.
    let _ = run_scalar_block(&w, false);
    let _ = run_scalar_block(&w, true);
    let mut best_off_b = f64::INFINITY;
    let mut best_null_b = f64::INFINITY;
    let mut cycles_b = (0u64, 0u64);
    let mut sums_b = (0u64, 0u64);
    for _ in 0..reps {
        let (out, sum, secs) = run_scalar_block(&w, false);
        best_off_b = best_off_b.min(secs);
        cycles_b.0 = out.cycles;
        sums_b.0 = sum;
        let (out, sum, secs) = run_scalar_block(&w, true);
        best_null_b = best_null_b.min(secs);
        cycles_b.1 = out.cycles;
        sums_b.1 = sum;
    }
    let overhead_b = 100.0 * (best_null_b / best_off_b - 1.0);
    println!("block fast path (scalar NullHook run):");
    println!("tracer off:   {:.3} ms ({} simulated cycles)", best_off_b * 1e3, cycles_b.0);
    println!("null sink:    {:.3} ms ({} simulated cycles)", best_null_b * 1e3, cycles_b.1);
    println!("overhead:     {overhead_b:+.2}% (threshold {threshold:.1}%)");

    if cycles_b.0 != cycles_b.1 || sums_b.0 != sums_b.1 {
        fail(&format!(
            "tracing changed the block fast path! cycles {} vs {}, checksum {:#x} vs {:#x}",
            cycles_b.0, cycles_b.1, sums_b.0, sums_b.1
        ));
    }
    if sums_b.0 != sums.0 {
        fail(&format!(
            "block fast path diverged from the per-commit run: checksum {:#x} vs {:#x}",
            sums_b.0, sums.0
        ));
    }
    if check && overhead_b > threshold {
        fail(&format!(
            "block-path null-sink overhead {overhead_b:+.2}% exceeds {threshold:.1}%"
        ));
    }
    // The sampled serve path: the same workload driven in
    // checkpoint-sized slices, bare vs with the always-on sampler —
    // exactly what every shard pays when `sample_rate > 0`.
    let _ = run_sliced(&w, false);
    let _ = run_sliced(&w, true);
    let mut best_off_s = f64::INFINITY;
    let mut best_samp = f64::INFINITY;
    let mut cycles_s = (0u64, 0u64);
    let mut sums_s = (0u64, 0u64);
    for _ in 0..reps {
        let (out, sum, secs) = run_sliced(&w, false);
        best_off_s = best_off_s.min(secs);
        cycles_s.0 = out.cycles;
        sums_s.0 = sum;
        let (out, sum, secs) = run_sliced(&w, true);
        best_samp = best_samp.min(secs);
        cycles_s.1 = out.cycles;
        sums_s.1 = sum;
    }
    let overhead_s = 100.0 * (best_samp / best_off_s - 1.0);
    println!("sampled serve path ({SLICE}-commit slices, 1/{SAMPLE_RATE} loop sampling):");
    println!("sampling off: {:.3} ms ({} simulated cycles)", best_off_s * 1e3, cycles_s.0);
    println!("sampled:      {:.3} ms ({} simulated cycles)", best_samp * 1e3, cycles_s.1);
    println!("overhead:     {overhead_s:+.2}% (threshold {threshold:.1}%)");

    if cycles_s.0 != cycles_s.1 || sums_s.0 != sums_s.1 {
        fail(&format!(
            "sampling changed the sliced simulation! cycles {} vs {}, checksum {:#x} vs {:#x}",
            cycles_s.0, cycles_s.1, sums_s.0, sums_s.1
        ));
    }
    if sums_s.0 != sums.0 {
        fail(&format!(
            "sliced run diverged from the uninterrupted run: checksum {:#x} vs {:#x}",
            sums_s.0, sums.0
        ));
    }
    if check && overhead_s > threshold {
        fail(&format!(
            "sampled serve-path overhead {overhead_s:+.2}% exceeds {threshold:.1}%"
        ));
    }
    if check {
        println!(
            "OK: observation layer is within budget and observation-only \
             (incl. restore, block fast path, and sampled slices)"
        );
    }
}
