//! The `serve-steady` workload: an in-process `Service` with one shard
//! and default checkpointing and sampling, driven by one closed-loop
//! client (the benchmark's main thread).
//!
//! The job stream covers the `dsa_loadgen` pool — 7 apps + 10
//! microkernels × 6 systems at paper scale — in *blocks*: each block
//! holds every `(workload, system)` combo five times, three
//! non-cacheable and two cacheable (the loadgen's 60% non-cacheable
//! mix), in a seeded shuffle. A block's work is therefore the same for
//! every seed; only its order changes. The store is warmed with every
//! combo during set-up, so every cacheable job is a store hit and every
//! non-cacheable one runs through the shard's checkpointed slices.

use std::collections::HashMap;
use std::sync::mpsc::Receiver;

use dsa_bench::cache::Workload;
use dsa_bench::{run_built, System};
use dsa_core::splitmix64;
use dsa_serve::protocol::JobOutcome;
use dsa_serve::service::{Service, ServiceConfig};
use dsa_serve::session::{JobSpec, SessionResult};
use dsa_workloads::{micro::Micro, Scale, WorkloadId};

/// The loadgen's six systems.
pub const SYSTEMS: [System; 6] = [
    System::Original,
    System::AutoVec,
    System::HandVec,
    System::DsaOriginal,
    System::DsaExtended,
    System::DsaFull,
];

/// Non-cacheable jobs per combo per block.
pub const FRESH: usize = 3;
/// Cacheable jobs per combo per block.
pub const CACHEABLE: usize = 2;

/// Every `(workload, system)` combo of the loadgen pool.
pub fn pool() -> Vec<(Workload, System)> {
    let workloads = WorkloadId::all()
        .map(Workload::App)
        .into_iter()
        .chain(Micro::all().map(Workload::Micro));
    workloads
        .flat_map(|w| SYSTEMS.map(move |s| (w, s)))
        .collect()
}

/// Block `pass` of the stream over `combos`: each combo [`FRESH`] +
/// [`CACHEABLE`] times, shuffled by a splitmix64 stream of `seed` and
/// `pass`.
pub fn block(combos: &[(Workload, System)], seed: u64, pass: u64) -> Vec<JobSpec> {
    let mut jobs: Vec<JobSpec> = combos
        .iter()
        .flat_map(|&(w, s)| (0..FRESH + CACHEABLE).map(move |k| job(w, s, k >= FRESH)))
        .collect();
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ pass.rotate_left(32);
    for i in (1..jobs.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        jobs.swap(i, j);
    }
    jobs
}

/// A one-shard service with default settings but `sample_rate`.
fn start(sample_rate: u32) -> Service {
    Service::start(ServiceConfig {
        shards: 1,
        sample_rate,
        ..ServiceConfig::default()
    })
}

fn job(workload: Workload, system: System, cacheable: bool) -> JobSpec {
    JobSpec {
        workload,
        system,
        scale: Scale::Paper,
        deadline_ms: 0,
        cacheable,
        panic_slices: 0,
    }
}

/// What a served job must reproduce: the golden checksum, and for an
/// uninterrupted run the cycles and commits of a direct `run_built`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// Golden checksum.
    pub checksum: u64,
    /// Cycles of the direct run.
    pub cycles: u64,
    /// Committed instructions of the direct run.
    pub committed: u64,
}

/// A started service with its references and a warmed store.
pub struct Serve {
    /// The service under test.
    pub service: Service,
    /// Combos the stream draws from.
    pub combos: Vec<(Workload, System)>,
    refs: HashMap<(Workload, System), Reference>,
    seed: u64,
}

impl Serve {
    /// Records each combo's reference with a direct `run_built`, starts
    /// the service (one shard, `sample_rate` as given, everything else
    /// default) and warms its store with one cacheable job per combo.
    pub fn setup(
        combos: Vec<(Workload, System)>,
        seed: u64,
        sample_rate: u32,
    ) -> Result<Serve, String> {
        let mut refs = HashMap::new();
        for &(w, s) in &combos {
            let built = w.build(s, Scale::Paper);
            let r = run_built(&built, s).map_err(|e| format!("{}: {e}", label(w, s)))?;
            refs.insert(
                (w, s),
                Reference {
                    checksum: built.expected,
                    cycles: r.outcome.cycles,
                    committed: r.outcome.committed,
                },
            );
        }
        let serve = Serve {
            service: start(sample_rate),
            combos,
            refs,
            seed,
        };
        for &(w, s) in &serve.combos {
            serve.run_job(job(w, s, true))?;
        }
        Ok(serve)
    }

    /// A second service over the same combos and references, with its
    /// own `sample_rate` and an empty store.
    pub fn sibling(&self, sample_rate: u32) -> Serve {
        Serve {
            service: start(sample_rate),
            combos: self.combos.clone(),
            refs: self.refs.clone(),
            seed: self.seed,
        }
    }

    /// Block `pass` of this run's stream.
    pub fn block(&self, pass: u64) -> Vec<JobSpec> {
        block(&self.combos, self.seed, pass)
    }

    /// Submits `spec`, waits for its outcome and checks it.
    pub fn run_job(&self, spec: JobSpec) -> Result<JobOutcome, String> {
        let rx = self.submit(spec)?;
        self.wait(spec, rx)
    }

    /// Admits `spec`.
    pub fn submit(&self, spec: JobSpec) -> Result<Receiver<SessionResult>, String> {
        let (_, rx) = self
            .service
            .submit(spec)
            .map_err(|e| format!("{}: submit: {e}", label(spec.workload, spec.system)))?;
        Ok(rx)
    }

    /// Waits for `spec`'s outcome and checks it against its reference:
    /// the golden checksum always, and for a run that was neither
    /// resumed nor migrated, the direct run's cycles and commits.
    pub fn wait(&self, spec: JobSpec, rx: Receiver<SessionResult>) -> Result<JobOutcome, String> {
        let name = label(spec.workload, spec.system);
        let out = rx
            .recv()
            .map_err(|_| format!("{name}: reply channel closed"))?
            .map_err(|e| format!("{name}: {e}"))?;
        let r = &self.refs[&(spec.workload, spec.system)];
        if out.checksum != r.checksum || out.expected != r.checksum {
            return Err(format!(
                "{name}: checksum {:#x}, want {:#x}",
                out.checksum, r.checksum
            ));
        }
        let uninterrupted = !out.cache_hit && !out.resumed && out.migrations == 0;
        if uninterrupted && (out.cycles, out.committed) != (r.cycles, r.committed) {
            return Err(format!(
                "{name}: served {} cycles / {} commits, direct run_built {} / {}",
                out.cycles, out.committed, r.cycles, r.committed
            ));
        }
        Ok(out)
    }
}

/// `workload/system`.
pub fn label(w: Workload, s: System) -> String {
    format!("{}/{}", w.describe(), s.name())
}
