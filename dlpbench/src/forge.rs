//! The `forge-campaign` workload: a fixed number of rounds of 512
//! generated programs, each round from a fresh `Campaign` seed derived
//! from the benchmark seed, run under `DsaConfig::full` on one worker.
//! An op is one program through `run_program`'s three oracle phases,
//! via the supervised call `Campaign::run` makes.
//!
//! The length is a program count, never a deadline: `decode_cached`
//! never evicts, so resident memory grows with the number of distinct
//! programs run, and a deadline would tie peak RSS to host speed.

use std::cell::RefCell;

use dsa_bench::forge::campaign::{fault_schedule, kill_at, FORGE_FUEL};
use dsa_bench::forge::{lower, run_program, Campaign, ForgeProgram, ProgramSpec};
use dsa_bench::{cache, Supervisor, SupervisorPolicy};
use dsa_core::{splitmix64, DifferentialOracle, Dsa, DsaConfig, OracleVerdict, Snapshot};
use dsa_cpu::{BoundedOutcome, CpuConfig, DecodedProgram, Simulator};
use dsa_trace::{Collector, Shared};

use crate::spans::{Layer, Spans};

/// Programs per round (the `forge --budget` CI size).
pub const ROUND: usize = 512;

/// The campaign seed of round `round` (`u64::MAX` is the warm-up round).
pub fn round_seed(seed: u64, round: u64) -> u64 {
    let mut s = seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    splitmix64(&mut s)
}

/// The breaker key `Campaign::run` uses: the first loop's class.
fn breaker(spec: &ProgramSpec) -> &'static str {
    spec.loops
        .first()
        .map(|l| l.shape.expected_class().name())
        .unwrap_or("empty")
}

/// Generated corpora plus the supervisor the ops run behind.
pub struct Forge {
    /// One deduplicated corpus per timed round.
    pub rounds: Vec<Vec<ProgramSpec>>,
    supervisor: Supervisor<'static>,
}

impl Forge {
    /// Generates the corpora of `rounds` timed rounds, then runs one
    /// untimed warm-up round of its own seed, so the timed programs
    /// are still unseen (cold predecode) when they run.
    pub fn setup(seed: u64, rounds: u64) -> Result<Forge, String> {
        let forge = Forge {
            rounds: (0..rounds).map(|r| corpus(round_seed(seed, r)).0).collect(),
            supervisor: Supervisor::new(cache::global(), SupervisorPolicy::default()),
        };
        for spec in &corpus(round_seed(seed, u64::MAX)).0 {
            forge.run(spec)?;
        }
        Ok(forge)
    }

    /// Runs program `i` of round `round`; a divergence or an infra
    /// failure is an error.
    pub fn run_op(&self, round: usize, i: usize) -> Result<(), String> {
        self.run(&self.rounds[round][i])
    }

    fn run(&self, spec: &ProgramSpec) -> Result<(), String> {
        let out = self
            .supervisor
            .call(breaker(spec), || Ok(run_program(spec, DsaConfig::full())))
            .map_err(|e| format!("program seed {:#x}: infra failure: {e}", spec.seed))?;
        match out.failure {
            None => Ok(()),
            Some(f) => Err(format!("program seed {:#x}: {}", spec.seed, f.kind())),
        }
    }

    /// Program `spec` split into its public layer calls inside the
    /// supervised call: lower → clean check → faulted check → resume
    /// check. Outside the op root it also times the cold predecode and
    /// one snapshot capture + restore at the resume phase's kill point.
    /// Returns the number of inconclusive phases.
    pub fn traced_op(
        &self,
        op: u64,
        spec: &ProgramSpec,
        spans: &RefCell<Spans>,
    ) -> Result<u32, String> {
        spans.borrow_mut().set_op(op);
        let root = spans.borrow_mut().enter(Layer::Harness, "op");
        let call = spans.borrow_mut().enter(Layer::Bench, "supervised_call");
        let out = self
            .supervisor
            .call(breaker(spec), || Ok(split_program(spec, spans)));
        spans.borrow_mut().exit(call);
        spans.borrow_mut().exit(root);
        let (failure, inconclusive, prog) =
            out.map_err(|e| format!("program seed {:#x}: infra failure: {e}", spec.seed))?;
        if let Some(f) = failure {
            return Err(format!("program seed {:#x}: {f}", spec.seed));
        }
        let mut s = spans.borrow_mut();
        s.leaf(Layer::Cpu, "decode", || {
            DecodedProgram::decode(&prog.kernel.program)
        });
        let config = DsaConfig::full();
        let mut sim = Simulator::new(prog.kernel.program.clone(), CpuConfig::default());
        prog.init()(sim.machine_mut());
        let mut dsa = Dsa::new(config);
        if let Ok(BoundedOutcome::Paused) = sim.run_bounded(kill_at(spec.seed), &mut dsa) {
            let bytes = s.leaf(Layer::Core, "capture", || {
                Snapshot::capture(&dsa, sim.machine()).to_bytes()
            });
            s.leaf(Layer::Core, "restore", || Dsa::restore(&bytes, config))
                .map_err(|e| format!("program seed {:#x}: restore: {e}", spec.seed))?;
        }
        Ok(inconclusive)
    }
}

/// The deduplicated corpus of one round and its generation count.
pub fn corpus(round_seed: u64) -> (Vec<ProgramSpec>, usize) {
    Campaign::new(round_seed, ROUND, DsaConfig::full()).corpus()
}

/// `run_program`'s three phases as separate public calls, each in a
/// span. Returns the first failing phase, the inconclusive count and
/// the lowered program.
fn split_program(
    spec: &ProgramSpec,
    spans: &RefCell<Spans>,
) -> (Option<&'static str>, u32, ForgeProgram) {
    const PHASES: [&str; 3] = ["oracle_clean", "oracle_fault", "oracle_resume"];
    let config = DsaConfig::full();
    let prog = spans
        .borrow_mut()
        .leaf(Layer::Compiler, "lower", || lower(spec));
    let oracle = DifferentialOracle::new(FORGE_FUEL);
    let program = &prog.kernel.program;
    let mut inconclusive = 0;
    let mut failure = None;
    for (phase, name) in PHASES.into_iter().enumerate() {
        let verdict = spans.borrow_mut().leaf(Layer::Core, name, || match phase {
            0 => {
                let mut dsa = Dsa::new(config);
                dsa.attach_sink(Shared::new(Collector::new()));
                oracle.check_with(program, &mut dsa, prog.init()).verdict
            }
            1 => {
                let mut dsa = Dsa::new(config);
                dsa.arm_schedule(fault_schedule(spec.seed));
                oracle.check_with(program, &mut dsa, prog.init()).verdict
            }
            _ => {
                oracle
                    .check_resume(program, config, prog.init(), kill_at(spec.seed))
                    .verdict
            }
        });
        match verdict {
            OracleVerdict::Match => {}
            OracleVerdict::Inconclusive(_) => inconclusive += 1,
            _ => {
                failure = Some(name);
                break;
            }
        }
    }
    (failure, inconclusive, prog)
}
