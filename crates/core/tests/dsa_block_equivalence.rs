//! The acceptance gate for letting the DSA ride the superblock path: a
//! DSA-attached run, in which the driver follows the engine's
//! [`Interest`](dsa_cpu::Interest) — whole blocks while it probes for
//! loops or executes a plain covered loop — must be **bit-identical** to
//! the same run pinned to per-commit stepping ([`Stepped`]). Compared:
//! cycles, committed count, `TimingStats` (covered count included),
//! `MemoryStats`, `DsaStats`, the loop census, the architectural digest
//! and the bytes of a sampled trace of the run.
//!
//! Inputs: every DSA grid combo (the seven paper applications under DSA
//! original/extended/full and the ten loop-class microkernels under DSA
//! full), forge-generated programs covering all eight loop classes,
//! every fault site (the skipped rollback flush drives the engine's
//! stale-coverage recovery) and seeded fault schedules, and pauses that
//! land mid-block, where the engine's snapshot must match at every split.

use dsa_bench::forge::campaign::fault_schedule;
use dsa_bench::forge::gen::generate_nth;
use dsa_bench::forge::lower::lower;
use dsa_bench::forge::spec::Shape;
use dsa_compiler::Variant;
use dsa_core::{
    Dsa, DsaConfig, DsaStats, FaultPlan, FaultSchedule, FaultSite, LoopCensus, Snapshot,
};
use dsa_cpu::{BoundedOutcome, CommitHook, CpuConfig, Machine, RunOutcome, Simulator, Stepped};
use dsa_isa::Program;
use dsa_trace::{Collector, SamplingSink, Shared};
use dsa_workloads::{build, micro, BuiltWorkload, Scale, WorkloadId};

const FUEL: u64 = 50_000_000;

/// Everything a DSA-attached run must reproduce.
#[derive(Debug, PartialEq)]
struct Facts {
    outcome: RunOutcome,
    dsa: DsaStats,
    census: LoopCensus,
    digest: u64,
    /// The run's trace, 1-in-2 loop lifecycles, columnar-encoded.
    trace: Vec<u8>,
}

/// The two hook shapes under comparison, each exposing its engine.
trait Drive: CommitHook {
    fn dsa(&self) -> &Dsa;
}

impl Drive for Dsa {
    fn dsa(&self) -> &Dsa {
        self
    }
}

impl Drive for Stepped<Dsa> {
    fn dsa(&self) -> &Dsa {
        &self.0
    }
}

/// A prepared simulator over `program` with `init` applied.
fn sim_for(program: &Program, init: &dyn Fn(&mut Machine), warm: &[(u32, u32)]) -> Simulator {
    let mut sim = Simulator::new(program.clone(), CpuConfig::default());
    init(sim.machine_mut());
    for &(base, len) in warm {
        sim.warm_region(base, len);
    }
    sim
}

/// Runs `hook` over `program`, pausing after each of `splits` commits
/// (then to the end), and returns the run's facts plus the engine's
/// snapshot bytes at every pause.
fn run<H: Drive>(
    program: &Program,
    init: &dyn Fn(&mut Machine),
    warm: &[(u32, u32)],
    hook: &mut H,
    splits: &[u64],
    sink: &Shared<Collector>,
) -> (Facts, Vec<Vec<u8>>) {
    let mut sim = sim_for(program, init, warm);
    let mut snaps = Vec::new();
    for &n in splits {
        match sim.run_bounded(n, hook).expect("no executor error") {
            BoundedOutcome::Paused => {
                snaps.push(Snapshot::capture(hook.dsa(), sim.machine()).to_bytes());
            }
            BoundedOutcome::Halted(_) => break,
        }
    }
    let outcome = sim.run_with_hook(FUEL, hook).expect("halts within fuel");
    let trace = sink.with(|c| dsa_trace::encode(&c.events));
    let facts = Facts {
        outcome,
        dsa: hook.dsa().stats(),
        census: hook.dsa().census(),
        digest: sim.machine().arch_digest(),
        trace,
    };
    (facts, snaps)
}

/// A traced engine under `config`, optionally with a fault schedule,
/// plus the shared collector behind its sampling sink.
fn engine(config: DsaConfig, schedule: Option<FaultSchedule>) -> (Dsa, Shared<Collector>) {
    let sink = Shared::new(Collector::new());
    let mut dsa = Dsa::new(config.with_trace());
    dsa.attach_sink(SamplingSink::new(sink.clone(), 7, 2));
    if let Some(s) = schedule {
        dsa.arm_schedule(s);
    }
    (dsa, sink)
}

/// Runs `program` stepped and on blocks, asserts every fact and every
/// pause snapshot match, and returns the block run's facts.
fn assert_equivalent(
    label: &str,
    program: &Program,
    init: &dyn Fn(&mut Machine),
    warm: &[(u32, u32)],
    config: DsaConfig,
    schedule: Option<FaultSchedule>,
    splits: &[u64],
) -> Facts {
    let (dsa, step_sink) = engine(config, schedule.clone());
    let (stepped, step_snaps) = run(program, init, warm, &mut Stepped(dsa), splits, &step_sink);
    let (mut dsa, block_sink) = engine(config, schedule);
    let (block, block_snaps) = run(program, init, warm, &mut dsa, splits, &block_sink);
    assert_eq!(step_snaps.len(), block_snaps.len(), "{label}: pause count");
    for (i, (s, b)) in step_snaps.iter().zip(&block_snaps).enumerate() {
        assert!(s == b, "{label}: engine snapshot differs at pause {i}");
    }
    assert_eq!(stepped.outcome, block.outcome, "{label}: run outcome");
    assert_eq!(stepped.dsa, block.dsa, "{label}: DSA statistics");
    assert_eq!(stepped.census, block.census, "{label}: loop census");
    assert_eq!(
        stepped.digest, block.digest,
        "{label}: architectural digest"
    );
    assert!(stepped.trace == block.trace, "{label}: sampled trace bytes");
    assert!(block.outcome.halted, "{label}: halted");
    block
}

fn warm_of(w: &BuiltWorkload) -> Vec<(u32, u32)> {
    w.kernel
        .layout
        .bufs()
        .iter()
        .map(|b| (b.base, b.size_bytes()))
        .collect()
}

fn check_workload(label: &str, w: &BuiltWorkload, config: DsaConfig, splits: &[u64]) -> Facts {
    let facts = assert_equivalent(
        label,
        &w.kernel.program,
        &*w.init,
        &warm_of(w),
        config,
        None,
        splits,
    );
    assert_eq!(
        facts.outcome.committed,
        facts.outcome.timing.committed + facts.outcome.timing.covered
    );
    facts
}

#[test]
fn dsa_grid_combos_ride_blocks_bit_identically() {
    let configs = [
        ("original", DsaConfig::original()),
        ("extended", DsaConfig::extended()),
        ("full", DsaConfig::full()),
    ];
    let mut covered = 0;
    for id in WorkloadId::all() {
        let w = build(id, Variant::Scalar, Scale::Small);
        for (name, config) in configs {
            let f = check_workload(&format!("{}/{name}", id.name()), &w, config, &[]);
            covered += f.outcome.timing.covered;
        }
    }
    for m in micro::Micro::all() {
        let w = micro::build(m, Variant::Scalar, Scale::Small);
        let f = check_workload(&format!("{}/full", m.name()), &w, DsaConfig::full(), &[]);
        covered += f.outcome.timing.covered;
    }
    assert!(covered > 0, "the grid vectorizes something");
}

/// The seven paper applications and the ten microkernels, small scale.
fn all_workloads() -> Vec<(&'static str, BuiltWorkload)> {
    let apps = WorkloadId::all().map(|id| (id.name(), build(id, Variant::Scalar, Scale::Small)));
    let micros =
        micro::Micro::all().map(|m| (m.name(), micro::build(m, Variant::Scalar, Scale::Small)));
    apps.into_iter().chain(micros).collect()
}

#[test]
fn every_fault_site_rides_blocks_bit_identically() {
    let workloads = all_workloads();
    for site in FaultSite::ALL {
        let mut fired = 0;
        for (name, w) in &workloads {
            for seed in [1, 2] {
                let config = DsaConfig::full().with_faults(FaultPlan::only(seed, site));
                let f = check_workload(&format!("{name}/{}/{seed}", site.name()), w, config, &[]);
                fired += f.dsa.faults_injected;
            }
        }
        assert!(fired > 0, "{} never fired", site.name());
    }
    // Seeded schedules arm every site in bursts, as the chaos harness does.
    for (name, w) in &workloads {
        for seed in [3, 4, 5] {
            assert_equivalent(
                &format!("{name}/schedule-{seed}"),
                &w.kernel.program,
                &*w.init,
                &warm_of(w),
                DsaConfig::full(),
                Some(FaultSchedule::generate(seed, 3, 40)),
                &[],
            );
        }
    }
}

#[test]
fn stale_coverage_recovery_rides_blocks_bit_identically() {
    // A skipped rollback flush leaves coverage on in Probing; the engine
    // must see the very next commit to recover it (and count it as a
    // degradation).
    let mut recovered = 0;
    for (name, w) in all_workloads() {
        let config =
            DsaConfig::full().with_faults(FaultPlan::only(9, FaultSite::SkipRollbackFlush));
        let f = check_workload(&format!("{name}/skip-rollback-flush"), &w, config, &[]);
        if f.dsa.faults_injected > 0 {
            recovered += f.dsa.degradations;
        }
    }
    assert!(recovered > 0, "no stale coverage was recovered");
}

#[test]
fn forge_programs_of_every_class_ride_blocks_bit_identically() {
    let mut shapes_seen = std::collections::HashSet::new();
    let mut index = 0;
    while shapes_seen.len() < Shape::ALL.len() {
        assert!(
            index < 400,
            "400 programs never covered every shape: {shapes_seen:?}"
        );
        let spec = generate_nth(0x5eed_b10c, index);
        index += 1;
        let fresh = spec.loops.iter().any(|l| !shapes_seen.contains(&l.shape));
        if !fresh {
            continue;
        }
        shapes_seen.extend(spec.loops.iter().map(|l| l.shape));
        let prog = lower(&spec);
        let init = prog.init();
        let label = format!("forge seed {:#x}", spec.seed);
        assert_equivalent(
            &label,
            &prog.kernel.program,
            &init,
            &[],
            DsaConfig::full(),
            None,
            &[],
        );
        assert_equivalent(
            &format!("{label} faulted"),
            &prog.kernel.program,
            &init,
            &[],
            DsaConfig::full(),
            Some(fault_schedule(spec.seed)),
            &[],
        );
        // Pauses every 37 commits land mid-block throughout the run.
        let splits = vec![37; 64];
        assert_equivalent(
            &format!("{label} paused"),
            &prog.kernel.program,
            &init,
            &[],
            DsaConfig::full(),
            None,
            &splits,
        );
    }
}

#[test]
fn pauses_mid_block_snapshot_identically() {
    // Slice lengths that are not multiples of any block length, so the
    // pauses fall inside blocks, inside covered loops and inside
    // analysis windows.
    let splits: Vec<u64> = [997u64, 13, 1009, 1, 4099, 57, 2003, 7, 8191, 311]
        .iter()
        .cycle()
        .take(60)
        .copied()
        .collect();
    for (name, w) in all_workloads() {
        check_workload(&format!("{name} paused"), &w, DsaConfig::full(), &splits);
    }
}

#[test]
fn warm_engine_moves_to_a_new_run_bit_identically() {
    // The watchdog stops the first run at arbitrary points — often in
    // the middle of a covered loop — and the same engine, caches warm,
    // then runs the program again on a fresh simulator: the engine must
    // not trust what it last saw of the old run.
    for (name, w) in all_workloads() {
        let warm = warm_of(&w);
        for fuel in [150u64, 1_000, 4_321] {
            let first = |hook: &mut dyn CommitHook| {
                let mut sim = sim_for(&w.kernel.program, &*w.init, &warm);
                let _ = sim.run_with_hook(fuel, hook);
                let mut sim = sim_for(&w.kernel.program, &*w.init, &warm);
                let out = sim.run_with_hook(FUEL, hook).expect("second run halts");
                (out, sim.machine().arch_digest())
            };
            let mut stepped = Stepped(Dsa::new(DsaConfig::full()));
            let s = first(&mut stepped);
            let mut riding = Dsa::new(DsaConfig::full());
            let b = first(&mut riding);
            assert_eq!(s, b, "{name} after {fuel}: second run");
            assert_eq!(
                stepped.0.stats(),
                riding.stats(),
                "{name} after {fuel}: DSA statistics"
            );
        }
    }
}
