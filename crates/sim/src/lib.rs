//! # bdps-sim
//!
//! The discrete-event simulator that reproduces the paper's evaluation
//! (§6): it builds an overlay topology, populates publishers and subscribers
//! according to the workload description of §6.1, drives every broker's
//! [`bdps_core::BrokerState`] through publish / arrival / transmission
//! events, and reports the paper's three metrics — delivery rate, total
//! earning and message number.
//!
//! * [`workload`] — workload configuration and generators (publishing rate,
//!   message heads, subscription filters, PSD/SSD delay requirements);
//! * [`engine`] — the event-driven simulation core (event queue, link
//!   occupancy, broker driving, objective tracking);
//! * [`sched`] — the pending-event set, a [`BinaryHeapQueue`] popping in
//!   deterministic `(time, seq)` order;
//! * [`scenario`] — dynamic scenarios (subscription churn, publisher
//!   bursts, link failures, blackouts) materialised into a deterministic
//!   event stream, plus the name-based [`ScenarioRegistry`];
//! * [`builder`] — the fluent [`SimulationBuilder`] experiment API
//!   (`Simulation::builder().topology(..).workload(..).strategy(..).scenario(..).seed(..)`),
//!   the one place runs are assembled;
//! * [`runner`] — thin wrappers over the builder: one-call execution of a
//!   materialised config plus parallel parameter sweeps across strategies,
//!   rates and seeds;
//! * [`report`] — result records and Markdown/CSV rendering helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod engine;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod sched;
pub mod workload;

pub use bdps_net::linkmodel::{LinkModel, LinkModelKind, LinkModelRegistry};
pub use bdps_overlay::sparse::TableLayout;
pub use builder::SimulationBuilder;
#[cfg(feature = "fault-injection")]
pub use engine::InjectedFault;
pub use engine::{
    ConservationBalance, ConservationViolation, DuplicateDeliveryViolation, ForwardingMode,
    LinkLoad, PhaseOutcome, RebuildPolicy, SimError, Simulation, SimulationOutcome,
};
pub use report::{render_csv, render_markdown_table, LinkReport, PhaseReport, SimulationReport};
pub use runner::{run, sweep, SimulationConfig, SweepCell, TopologySpec};
pub use scenario::{DynamicScenario, ScenarioAction, ScenarioEvent, ScenarioRegistry};
pub use sched::{BinaryHeapQueue, Scheduled};
pub use workload::{
    ArrivalKind, BlackoutWindow, BurstConfig, ChurnConfig, LinkFailureConfig, Scenario,
    WorkloadConfig,
};

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::builder::SimulationBuilder;
    pub use crate::engine::{
        ForwardingMode, LinkLoad, PhaseOutcome, RebuildPolicy, SimError, Simulation,
        SimulationOutcome,
    };
    pub use crate::report::{
        render_csv, render_markdown_table, LinkReport, PhaseReport, SimulationReport,
    };
    pub use crate::runner::{run, sweep, SimulationConfig, SweepCell, TopologySpec};
    pub use crate::scenario::{DynamicScenario, ScenarioAction, ScenarioEvent, ScenarioRegistry};
    pub use crate::workload::{
        ArrivalKind, BlackoutWindow, BurstConfig, ChurnConfig, LinkFailureConfig, Scenario,
        WorkloadConfig,
    };
    pub use bdps_net::linkmodel::{LinkModel, LinkModelKind, LinkModelRegistry};
    pub use bdps_overlay::sparse::TableLayout;
}
