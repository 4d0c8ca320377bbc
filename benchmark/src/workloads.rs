//! The benchmark's workloads: each one is a fixed set of `SimulationBuilder`
//! calls, parameterised only by the seed. Why each workload exists, and
//! which layer it is meant to load, is recorded in `NOTES.md`.

use bdps::core::config::StrategyKind;
use bdps::overlay::topology::LayeredMeshConfig;
use bdps::sim::prelude::*;
use bdps::types::time::Duration;

/// Publishing rate of the paper's subscriber-specified-delay workload, per
/// publisher per minute.
const SSD_RATE_PER_MIN: f64 = 30.0;

/// Which dynamic scenario a workload runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioSpec {
    /// A built-in scenario, resolved by name through [`ScenarioRegistry`].
    Builtin(&'static str),
    /// Subscription churn at an explicit rate (joins and leaves per minute,
    /// each). The built-in `churn` scenario runs at one of each per minute,
    /// which fires almost no event in a 30 s run.
    Churn { per_min: f64 },
}

impl ScenarioSpec {
    fn scenario(self) -> DynamicScenario {
        match self {
            ScenarioSpec::Builtin(name) => ScenarioRegistry::builtin()
                .resolve(name)
                .expect("workload names a built-in scenario"),
            ScenarioSpec::Churn { per_min } => DynamicScenario::named(format!("churn-{per_min}"))
                .with_churn(ChurnConfig {
                    joins_per_min: per_min,
                    leaves_per_min: per_min,
                }),
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The name passed with `--workload`.
    pub name: &'static str,
    /// Requested subscriber population; the mesh rounds it up to a
    /// multiple of the edge-broker count (see [`mesh_for`]).
    pub population: usize,
    /// Forwarding mode.
    pub forwarding: ForwardingMode,
    /// Link model.
    pub link_model: LinkModelKind,
    /// Dynamic scenario.
    pub scenario: ScenarioSpec,
    /// Publication period, simulated seconds.
    pub duration_secs: u64,
    /// Simulations per invocation, each with its own seed drawn from the
    /// invocation's seed (see `session::batch_seeds`).
    pub batch: usize,
}

/// Every workload, in `BENCHMARK.json` order. `NOTES.md` says why each
/// exists, and why the batches are as large as they are.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "exact-churn-10k",
        population: 10_000,
        forwarding: ForwardingMode::Exact,
        link_model: LinkModelKind::Constant,
        scenario: ScenarioSpec::Churn { per_min: 600.0 },
        duration_secs: 30,
        batch: 24,
    },
    Workload {
        name: "aggregate-storm-10k",
        population: 10_000,
        forwarding: ForwardingMode::Aggregate,
        link_model: LinkModelKind::Constant,
        scenario: ScenarioSpec::Builtin("link-storm"),
        duration_secs: 30,
        batch: 48,
    },
    Workload {
        name: "congested-1k-fairshare",
        population: 992,
        forwarding: ForwardingMode::Exact,
        link_model: LinkModelKind::FairShare,
        scenario: ScenarioSpec::Builtin("churn"),
        duration_secs: 600,
        batch: 24,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The builder of one run of this workload. Event queue, rebuild policy
    /// and shard count stay at their defaults.
    pub fn builder(&self, seed: u64) -> SimulationBuilder {
        Simulation::builder()
            .layered_mesh(mesh_for(self.population))
            .ssd(SSD_RATE_PER_MIN)
            .duration(Duration::from_secs(self.duration_secs))
            .strategy(StrategyKind::MaxEb)
            .scenario(self.scenario.scenario())
            .table_layout(TableLayout::Sparse)
            .link_model(self.link_model)
            .forwarding(self.forwarding)
            .seed(seed)
    }
}

/// The paper's four-layer mesh grown with the population, exactly as the
/// `scale` experiment binary builds it: the edge layer scales as
/// √population, the middle layers follow it, and the paper's
/// 160-subscriber configuration is reproduced at the low end.
pub fn mesh_for(population: usize) -> LayeredMeshConfig {
    if population <= 160 {
        let mut paper = LayeredMeshConfig::paper();
        paper.subscribers_per_edge_broker = population.div_ceil(16).max(1);
        paper
    } else {
        let edges = ((population as f64).sqrt().round() as usize).max(16);
        LayeredMeshConfig {
            layer_sizes: vec![4, (edges / 8).max(4), (edges / 2).max(8), edges],
            fan_in: vec![0, 2, 2],
            publishers_per_first_layer_broker: 1,
            subscribers_per_edge_broker: population.div_ceil(edges),
        }
    }
}
