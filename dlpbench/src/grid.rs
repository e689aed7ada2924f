//! The two grid workloads: fixed `(app, system)` runs at paper scale,
//! one `run_built` per op, in a fixed order. Their inputs are fixed, so
//! they take no seed.
//!
//! * `scalar-grid`: the 7 paper apps × {ARM Original, NEON AutoVec,
//!   NEON Hand-Coded} — the hook-free superblock path, timing replay
//!   and memory model, with no DSA attached.
//! * `dsa-grid`: the 7 apps × {DSA original, extended, full} plus the
//!   10 loop-class microkernels × DSA full — the per-commit DSA path.

use dsa_bench::cache::Workload;
use dsa_bench::{run_built, System, FUEL};
use dsa_core::{Dsa, DsaStats};
use dsa_cpu::{CpuConfig, RunOutcome, Simulator};
use dsa_energy::{EnergyModel, EnergyTable};
use dsa_workloads::{micro::Micro, BuiltWorkload, Scale, WorkloadId};

use crate::spans::{Layer, Spans};

/// Which grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridKind {
    /// Scalar and statically vectorized binaries, no DSA.
    Scalar,
    /// DSA-attached runs of the scalar binaries.
    Dsa,
}

/// The `(workload, system)` pairs of a grid, in op order.
pub fn combos(kind: GridKind) -> Vec<(Workload, System)> {
    let apps = WorkloadId::all().map(Workload::App);
    match kind {
        GridKind::Scalar => cross(&apps, &[System::Original, System::AutoVec, System::HandVec]),
        GridKind::Dsa => {
            let mut v = cross(
                &apps,
                &[System::DsaOriginal, System::DsaExtended, System::DsaFull],
            );
            v.extend(Micro::all().map(|m| (Workload::Micro(m), System::DsaFull)));
            v
        }
    }
}

fn cross(workloads: &[Workload], systems: &[System]) -> Vec<(Workload, System)> {
    workloads
        .iter()
        .flat_map(|w| systems.iter().map(move |s| (*w, *s)))
        .collect()
}

/// What one run must reproduce: the golden checksum plus the exact
/// simulated counts recorded by the set-up pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// Output checksum (the workload's golden value).
    pub checksum: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub committed: u64,
    /// DSA counters, for DSA-attached systems.
    pub dsa: Option<DsaStats>,
}

/// One grid op: a prebuilt workload, its system and its reference.
pub struct GridOp {
    /// The workload.
    pub workload: Workload,
    /// The system it runs under.
    pub system: System,
    built: BuiltWorkload,
    /// Recorded by the set-up pass.
    pub reference: Reference,
}

impl GridOp {
    /// `workload/system`, for error messages and op digests.
    pub fn label(&self) -> String {
        format!("{}/{}", self.workload.describe(), self.system.name())
    }
}

/// A built grid, ready to time.
pub struct Grid {
    /// The ops, in order.
    pub ops: Vec<GridOp>,
}

impl Grid {
    /// Builds every input, then runs one untimed warm-up pass that
    /// records each op's reference.
    pub fn setup(kind: GridKind) -> Result<Grid, String> {
        let mut ops = Vec::new();
        for (workload, system) in combos(kind) {
            let built = workload.build(system, Scale::Paper);
            let r = run_built(&built, system)
                .map_err(|e| format!("{}/{}: {e}", workload.describe(), system.name()))?;
            let reference = Reference {
                checksum: built.expected,
                cycles: r.outcome.cycles,
                committed: r.outcome.committed,
                dsa: r.dsa,
            };
            ops.push(GridOp {
                workload,
                system,
                built,
                reference,
            });
        }
        Ok(Grid { ops })
    }

    /// Runs op `i` through `run_built` and checks it against its
    /// reference: golden output, identical cycles, committed
    /// instructions and DSA counters.
    pub fn run_op(&self, i: usize) -> Result<(), String> {
        let op = &self.ops[i];
        let r = run_built(&op.built, op.system).map_err(|e| format!("{}: {e}", op.label()))?;
        let got = Reference {
            checksum: op.built.expected,
            cycles: r.outcome.cycles,
            committed: r.outcome.committed,
            dsa: r.dsa,
        };
        if got != op.reference {
            return Err(format!(
                "{}: {got:?} differs from set-up {:?}",
                op.label(),
                op.reference
            ));
        }
        Ok(())
    }

    /// Op `i` split into its public layer calls, each in a span: build
    /// (outside the op root, since the timed op reuses the set-up
    /// build), then init/warm → predecode → run → check → evaluate
    /// inside it. The split must reproduce `run_built` bit for bit:
    /// any difference from the reference is an error. Returns the
    /// outcome and the host seconds of the simulation call.
    pub fn traced_op(&self, i: usize, spans: &mut Spans) -> Result<(RunOutcome, f64), String> {
        let op = &self.ops[i];
        spans.set_op(i as u64);
        let w = spans.leaf(Layer::Workloads, "build", || {
            op.workload.build(op.system, Scale::Paper)
        });
        let (outcome, stats, ok) = spans.op(i as u64, |s| run_split(&w, op.system, s));
        let outcome = outcome.map_err(|e| format!("{}: {e}", op.label()))?;
        let got = Reference {
            checksum: if ok { w.expected } else { !w.expected },
            cycles: outcome.cycles,
            committed: outcome.committed,
            dsa: stats,
        };
        if got != op.reference {
            return Err(format!(
                "{}: split run {got:?} differs from {:?}",
                op.label(),
                op.reference
            ));
        }
        let run = if stats.is_some() {
            "run_with_hook"
        } else {
            "run"
        };
        Ok((outcome, spans.last_secs(run)))
    }
}

/// `run_built`'s steps as separate public calls, each in a span.
fn run_split(
    w: &BuiltWorkload,
    system: System,
    s: &mut Spans,
) -> (
    Result<RunOutcome, dsa_cpu::SimError>,
    Option<DsaStats>,
    bool,
) {
    let mut sim = s.leaf(Layer::Cpu, "sim_new", || {
        Simulator::new(w.kernel.program.clone(), CpuConfig::default())
    });
    s.leaf(Layer::Workloads, "init", || (w.init)(sim.machine_mut()));
    s.leaf(Layer::Cpu, "warm", || {
        for buf in w.kernel.layout.bufs() {
            sim.warm_region(buf.base, buf.size_bytes());
        }
    });
    let (outcome, dsa) = match system.dsa_config() {
        None => {
            s.leaf(Layer::Cpu, "predecode", || sim.predecode());
            (s.leaf(Layer::Cpu, "run", || sim.run(FUEL)), None)
        }
        Some(cfg) => {
            let mut dsa = Dsa::new(cfg);
            (
                s.leaf(Layer::Core, "run_with_hook", || {
                    sim.run_with_hook(FUEL, &mut dsa)
                }),
                Some(dsa),
            )
        }
    };
    let Ok(outcome) = outcome else {
        return (outcome, None, false);
    };
    let ok = s.leaf(Layer::Workloads, "check", || w.check(sim.machine()));
    let stats = dsa.as_ref().map(Dsa::stats);
    let model = EnergyModel::new(EnergyTable::default());
    s.leaf(Layer::Energy, "evaluate", || {
        std::hint::black_box(model.evaluate(&outcome, stats.as_ref()));
    });
    (Ok(outcome), stats, ok)
}
