//! One measured run of a workload, untraced or traced, with the output
//! checks every run must pass.
//!
//! The untraced run is `Simulation::try_run()`. The traced run drives the
//! engine through its public stepping API instead — `take_frontier`, then
//! `apply` on the first event and `push_back` on the rest — which is the
//! same `(time, seq)` order `try_run` pops in, and times each `apply` by the
//! layer that handles the event. Time in `take_frontier` and `push_back` is
//! charged to the event queue.

use bdps::sim::engine::EventKind;
use bdps::sim::prelude::*;
use std::time::{Duration, Instant};

/// The deterministic outputs of a run. Two runs of one workload and seed
/// must agree on all of it, traced or not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fingerprint {
    pub events: u64,
    pub published: u64,
    pub on_time_pairs: u64,
    pub transmissions: u64,
    /// Total earning (eq. 2 of the paper), in units.
    pub earning: f64,
    /// `ObjectiveTracker::state_digest` — every delivered pair, per-message
    /// and per-subscriber counts, earning and delay accumulators.
    pub digest: u64,
}

impl Fingerprint {
    fn of(outcome: &SimulationOutcome) -> Self {
        Fingerprint {
            events: outcome.events_processed,
            published: outcome.published,
            on_time_pairs: outcome.tracker.total_on_time(),
            transmissions: outcome.transmissions,
            earning: outcome.tracker.total_earning().as_f64(),
            digest: outcome.tracker.state_digest(),
        }
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "events={} published={} on_time_pairs={} transmissions={} earning={} digest={:016x}",
            self.events,
            self.published,
            self.on_time_pairs,
            self.transmissions,
            self.earning,
            self.digest
        )
    }
}

/// The layers a traced run splits its wall time across. Each event is
/// charged to exactly one layer; scenario events by their action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Publish`: filter matching and cover probes.
    Publish,
    /// `Process`: arrival resolution, edge expansion, strategy scoring.
    Process,
    /// `SendComplete`: link completion, next pick and the ε-purge.
    Transfer,
    /// `FlowComplete`: fair-share flow completion and rescheduling.
    Flow,
    /// `LinkDown` / `LinkUp`: routing update and table/aggregate sync.
    LinkEvent,
    /// `SubscriptionJoin` / `SubscriptionLeave`.
    Churn,
    /// Rate changes and phase marks.
    Other,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Publish,
        Layer::Process,
        Layer::Transfer,
        Layer::Flow,
        Layer::LinkEvent,
        Layer::Churn,
        Layer::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Publish => "publish",
            Layer::Process => "process",
            Layer::Transfer => "transfer",
            Layer::Flow => "flow",
            Layer::LinkEvent => "linkevent",
            Layer::Churn => "churn",
            Layer::Other => "other",
        }
    }

    fn of(event: &EventKind) -> Layer {
        match event {
            EventKind::Publish { .. } => Layer::Publish,
            EventKind::Process { .. } => Layer::Process,
            EventKind::SendComplete { .. } => Layer::Transfer,
            EventKind::FlowComplete { .. } => Layer::Flow,
            EventKind::Scenario { action } => match action {
                ScenarioAction::LinkDown { .. } | ScenarioAction::LinkUp { .. } => Layer::LinkEvent,
                ScenarioAction::SubscriptionJoin { .. }
                | ScenarioAction::SubscriptionLeave { .. } => Layer::Churn,
                ScenarioAction::PublisherRate { .. } | ScenarioAction::PhaseMark { .. } => {
                    Layer::Other
                }
            },
        }
    }
}

/// Per-layer timings of one traced run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Duration of every `apply`, in nanoseconds, indexed like [`Layer::ALL`].
    pub samples_ns: [Vec<u64>; 7],
    /// Time spent in `take_frontier` and `push_back`.
    pub queue: Duration,
}

impl Trace {
    pub fn self_time(&self, layer: Layer) -> Duration {
        Duration::from_nanos(self.samples(layer).iter().sum())
    }

    pub fn samples(&self, layer: Layer) -> &[u64] {
        &self.samples_ns[layer as usize]
    }
}

/// Per-layer counters the engine reports in its outcome, in a form that
/// adds up over the members of a batch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub scope_interns: u64,
    pub scope_intern_hits: u64,
    pub false_positive_forwards: u64,
    pub transmissions: u64,
    pub completed_transfers: u64,
    pub enqueued: u64,
    pub requeued: u64,
    pub expanded_at_edge: u64,
    pub shed_unlikely: u64,
    pub shed_expired: u64,
    /// Sum over links that carried traffic of busy time / run time.
    pub link_util_sum: f64,
    /// Links that carried traffic.
    pub links_used: u64,
    pub peak_queue_max: u64,
    pub entries_retargeted: u64,
    pub rebuilt_full: u64,
    pub aggregate_entries: u64,
    pub table_bytes_max: u64,
    pub events: u64,
    pub peak_pending_max: u64,
}

impl Counters {
    pub fn of(outcome: &SimulationOutcome) -> Self {
        let run_us = outcome.finished_at.as_secs_f64() * 1e6;
        let used: Vec<&LinkLoad> = outcome
            .link_loads
            .iter()
            .filter(|l| l.transmissions > 0)
            .collect();
        Counters {
            scope_interns: outcome.scope_interns,
            scope_intern_hits: outcome.scope_intern_hits,
            false_positive_forwards: outcome.false_positive_forwards(),
            transmissions: outcome.transmissions,
            completed_transfers: outcome.completed_transfers,
            enqueued: outcome.enqueued(),
            requeued: outcome.requeued(),
            expanded_at_edge: outcome.expanded_at_edge(),
            shed_unlikely: outcome.dropped_unlikely(),
            shed_expired: outcome.dropped_expired(),
            link_util_sum: used.iter().map(|l| l.busy_us as f64 / run_us).sum(),
            links_used: used.len() as u64,
            peak_queue_max: outcome
                .link_loads
                .iter()
                .map(|l| l.peak_queue)
                .max()
                .unwrap_or(0),
            entries_retargeted: outcome.entries_retargeted,
            rebuilt_full: outcome.tables_rebuilt_full,
            aggregate_entries: outcome.aggregate_entries,
            table_bytes_max: outcome.table_bytes_estimate,
            events: outcome.events_processed,
            peak_pending_max: outcome.peak_pending_events,
        }
    }

    /// Adds another member's counters: counts add up, peaks take the max.
    pub fn add(&mut self, o: &Counters) {
        self.scope_interns += o.scope_interns;
        self.scope_intern_hits += o.scope_intern_hits;
        self.false_positive_forwards += o.false_positive_forwards;
        self.transmissions += o.transmissions;
        self.completed_transfers += o.completed_transfers;
        self.enqueued += o.enqueued;
        self.requeued += o.requeued;
        self.expanded_at_edge += o.expanded_at_edge;
        self.shed_unlikely += o.shed_unlikely;
        self.shed_expired += o.shed_expired;
        self.link_util_sum += o.link_util_sum;
        self.links_used += o.links_used;
        self.peak_queue_max = self.peak_queue_max.max(o.peak_queue_max);
        self.entries_retargeted += o.entries_retargeted;
        self.rebuilt_full += o.rebuilt_full;
        self.aggregate_entries += o.aggregate_entries;
        self.table_bytes_max = self.table_bytes_max.max(o.table_bytes_max);
        self.events += o.events;
        self.peak_pending_max = self.peak_pending_max.max(o.peak_pending_max);
    }
}

/// One completed, checked run.
pub struct Run {
    /// Host seconds in `SimulationBuilder::build()`.
    pub setup_s: f64,
    /// Host seconds from the first event to the outcome.
    pub wall_s: f64,
    pub fingerprint: Fingerprint,
    pub outcome: SimulationOutcome,
    /// Present on traced runs only.
    pub trace: Option<Trace>,
}

/// Builds and runs once, untraced or traced, and checks the outcome. Any
/// failure — a `SimError`, a failed audit, or a panic inside the engine —
/// comes back as an error message.
pub fn run_once(builder: &SimulationBuilder, traced: bool) -> Result<Run, String> {
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let start = Instant::now();
        let sim = builder.build();
        let setup_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let (outcome, trace) = if traced {
            let (outcome, trace) = run_traced(sim).map_err(|e| e.to_string())?;
            (outcome, Some(trace))
        } else {
            (sim.try_run().map_err(|e| e.to_string())?, None)
        };
        let wall_s = start.elapsed().as_secs_f64();
        check(&outcome)?;
        Ok(Run {
            setup_s,
            wall_s,
            fingerprint: Fingerprint::of(&outcome),
            outcome,
            trace,
        })
    }));
    attempt.unwrap_or_else(|panic| {
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panic: {message}"))
    })
}

/// The event loop of `Simulation::try_run`, stepped from outside and timed
/// per layer.
fn run_traced(mut sim: Simulation) -> Result<(SimulationOutcome, Trace), SimError> {
    let mut trace = Trace::default();
    let hard_stop = sim.hard_stop();
    loop {
        let t0 = Instant::now();
        let mut frontier = sim.take_frontier(hard_stop).into_iter();
        let Some(first) = frontier.next() else {
            trace.queue += t0.elapsed();
            break;
        };
        for rest in frontier {
            sim.push_back(rest);
        }
        let layer = Layer::of(&first.item);
        let t1 = Instant::now();
        sim.try_apply(first)?;
        let t2 = Instant::now();
        trace.queue += t1 - t0;
        trace.samples_ns[layer as usize].push((t2 - t1).as_nanos() as u64);
    }
    Ok((sim.into_outcome(), trace))
}

/// The output checks every run must pass: copy conservation, no duplicate
/// delivery, and delivery counts that are internally consistent.
fn check(outcome: &SimulationOutcome) -> Result<(), String> {
    outcome
        .check_conservation()
        .map_err(|v| format!("conservation audit failed: {v:?}"))?;
    outcome
        .check_no_duplicates()
        .map_err(|v| format!("duplicate-delivery audit failed: {v:?}"))?;
    let tracker = &outcome.tracker;
    let delivered = tracker.total_on_time() + tracker.total_late();
    if outcome.expanded_at_edge() != delivered {
        return Err(format!(
            "edge expansions ({}) differ from deliveries ({delivered})",
            outcome.expanded_at_edge()
        ));
    }
    if outcome.published == 0 || tracker.total_on_time() == 0 {
        return Err("the run published or delivered nothing".into());
    }
    Ok(())
}
