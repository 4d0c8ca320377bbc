//! One invocation's measurements: a batch of simulations, one per sub-seed,
//! run round-robin until the measured span is over.

use crate::run::{run_once, Counters, Fingerprint, Run, Trace};
use crate::workloads::Workload;
use bdps::sim::prelude::SimulationBuilder;
use std::time::Instant;

/// Share of the measured span spent warming up before the first pass.
const WARMUP_SHARE: f64 = 0.1;

/// The seeds of one invocation's batch: the invocation's own seed first,
/// then seeds drawn from it, so the same seed always gives the same batch.
pub fn batch_seeds(seed: u64, size: usize) -> Vec<u64> {
    let mut state = seed;
    let mut seeds = vec![seed];
    while seeds.len() < size {
        // SplitMix64.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        seeds.push(z ^ (z >> 31));
    }
    seeds
}

/// The runs of one member of the batch.
pub struct Member {
    pub seed: u64,
    builder: SimulationBuilder,
    /// The first successful run's fingerprint; every later run must match.
    pub reference: Option<Fingerprint>,
    /// Simulated seconds of the reference run.
    pub sim_s: f64,
    /// Per-layer counters of the reference run.
    pub counters: Counters,
    pub untraced_wall_s: Vec<f64>,
    pub traced_wall_s: Vec<f64>,
    pub traces: Vec<Trace>,
}

/// Everything one invocation measured.
pub struct Session {
    pub attempted: u64,
    pub failed: u64,
    /// Every timed build, of every member.
    pub setup_s: Vec<f64>,
    pub members: Vec<Member>,
}

impl Session {
    fn new(workload: &Workload, seed: u64) -> Self {
        let members = batch_seeds(seed, workload.batch)
            .into_iter()
            .map(|seed| Member {
                seed,
                builder: workload.builder(seed),
                reference: None,
                sim_s: 0.0,
                counters: Counters::default(),
                untraced_wall_s: Vec::new(),
                traced_wall_s: Vec::new(),
                traces: Vec::new(),
            })
            .collect();
        Session {
            attempted: 0,
            failed: 0,
            setup_s: Vec::new(),
            members,
        }
    }

    /// Records one run of `member`: its set-up time, and its wall time unless
    /// it is a warm-up run. A run that fails or whose fingerprint differs
    /// from the member's first run counts as failed.
    fn record(&mut self, member: usize, kind: Kind, result: Result<Run, String>) {
        self.attempted += 1;
        let label = kind.label();
        let m = &mut self.members[member];
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                self.failed += 1;
                eprintln!(
                    "run {} (seed {}): {label}: FAILED: {e}",
                    self.attempted, m.seed
                );
                return;
            }
        };
        eprintln!(
            "run {} (seed {}): {label}: setup {:.3} s, wall {:.3} s, {}",
            self.attempted, m.seed, run.setup_s, run.wall_s, run.fingerprint
        );
        match m.reference {
            None => {
                m.reference = Some(run.fingerprint);
                m.sim_s = run.outcome.finished_at.as_secs_f64();
                m.counters = Counters::of(&run.outcome);
            }
            Some(reference) if reference != run.fingerprint => {
                self.failed += 1;
                eprintln!(
                    "run {} (seed {}): {label}: FAILED: fingerprint differs from the first run\n  first: {reference}\n  this:  {}",
                    self.attempted, m.seed, run.fingerprint
                );
                return;
            }
            Some(_) => {}
        }
        self.setup_s.push(run.setup_s);
        match run.trace {
            _ if kind == Kind::WarmUp => {}
            Some(trace) => {
                m.traced_wall_s.push(run.wall_s);
                m.traces.push(trace);
            }
            None => m.untraced_wall_s.push(run.wall_s),
        }
    }

    /// Whether every member has what the metrics need: a fingerprint, an
    /// untraced wall time and, if `traced`, a trace.
    pub fn complete(&self, traced: bool) -> Result<(), String> {
        for m in &self.members {
            if m.reference.is_none()
                || m.untraced_wall_s.is_empty()
                || (traced && m.traces.is_empty())
            {
                return Err(format!("no successful run of seed {}", m.seed));
            }
        }
        Ok(())
    }
}

/// The three kinds of run. Warm-up runs are untraced and their wall time
/// is not kept.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    WarmUp,
    Untraced,
    Traced,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::WarmUp => "warm-up",
            Kind::Untraced => "untraced",
            Kind::Traced => "traced",
        }
    }
}

/// Runs the workload's batch until `seconds` of host time have gone: first
/// untimed warm-up runs (the first runs of a process pay for growing its
/// heap), then passes over the batch — untraced runs only, or an untraced
/// and a traced run of each member. A pass is started only while at least
/// half of it is expected to fit in the span; the first pass always runs.
pub fn measure(workload: &Workload, seed: u64, seconds: f64, traced: bool) -> Session {
    let mut session = Session::new(workload, seed);
    let start = Instant::now();
    let mut next = 0;
    while next == 0 || start.elapsed().as_secs_f64() < WARMUP_SHARE * seconds {
        let member = next % session.members.len();
        let result = run_once(&session.members[member].builder, false);
        session.record(member, Kind::WarmUp, result);
        next += 1;
    }
    let mut last = 0.0;
    let mut pass = 0usize;
    while pass == 0 || start.elapsed().as_secs_f64() + last / 2.0 < seconds {
        let before = Instant::now();
        // Alternate which side goes first so drift in the host's speed does
        // not bias the trace overhead.
        let order: &[Kind] = match (traced, pass % 2) {
            (false, _) => &[Kind::Untraced],
            (true, 0) => &[Kind::Untraced, Kind::Traced],
            (true, _) => &[Kind::Traced, Kind::Untraced],
        };
        for member in 0..session.members.len() {
            for &kind in order {
                let result = run_once(&session.members[member].builder, kind == Kind::Traced);
                session.record(member, kind, result);
            }
        }
        last = before.elapsed().as_secs_f64();
        pass += 1;
    }
    session
}
