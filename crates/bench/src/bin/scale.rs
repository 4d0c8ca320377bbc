//! Population-scaling benchmark: events/sec from paper scale to 10⁵
//! subscribers.
//!
//! The paper stops at 32 brokers / 160 subscribers; the ROADMAP's north star
//! is a production-scale simulator. This binary sweeps the subscriber
//! population (160 → ~1k → 10k → 100k, the paper's mesh shape with more
//! subscribers per edge broker) under dynamic scenarios, runs each cell
//! through the engine's sequential event loop and writes a machine-readable
//! `BENCH_scale.json` that CI tracks for regressions.
//!
//! Usage: `cargo run --release -p bdps-bench --bin scale -- [--quick]
//! [--populations 160,992,10000]
//! [--scenarios churn,chaos] [--strategies fifo] [--seed N]
//! [--rebuild-policy full|incremental] [--table-layout dense,sparse]
//! [--link-model constant,fair-share] [--forwarding exact,aggregate]
//! [--out BENCH_scale.json]
//! [--check bench/baseline.json] [--max-regression 0.25]`.
//!
//! Each cell is keyed by population, scenario, rebuild policy, table layout,
//! link model and forwarding mode, so the gate never compares across modes
//! (baselines from before an axis existed default to its historical value).
//! `--forwarding aggregate` measures edge-only scope expansion: aggregate
//! cells are skipped under the dense layout (rejected by the engine), and
//! the run reports each aggregate cell's false-positive forwarding rate.
//!
//! With `--check <baseline>`, every cell present in the baseline is checked
//! twice, and the process exits non-zero when either check fails — the
//! contract of the `bench-perf` CI job:
//!
//! * **behaviour** — `published`, `on_time` and `transmissions` must equal
//!   the baseline's exactly (the simulation is deterministic, so any drift
//!   is a behaviour change, not noise);
//! * **speed** — events/sec must not regress by more than
//!   `--max-regression` (25 % by default) on cells that run long enough to
//!   measure.

use bdps_bench::{ArgParser, ExperimentOptions, COMMON_FLAGS_HELP};
use bdps_overlay::topology::LayeredMeshConfig;
use bdps_sim::prelude::*;
use bdps_sim::{RebuildPolicy, TableLayout};
use bdps_types::time::Duration;
use std::time::Instant;

const SCALE_FLAGS_HELP: &str = "--quick | --populations <n,n,..> \
     | --rebuild-policy <full|incremental> | --table-layout <dense,sparse> \
     | --forwarding <exact,aggregate> | --passes <n> | --out <path> \
     | --check <baseline.json> | --max-regression <frac>";

/// Default populations of the full sweep (paper mesh: multiples of the 16
/// edge brokers).
const FULL_POPULATIONS: [usize; 4] = [160, 992, 10_000, 100_000];
/// Populations of the CI-friendly `--quick` sweep.
const QUICK_POPULATIONS: [usize; 3] = [160, 992, 10_000];

struct ScaleOptions {
    common: ExperimentOptions,
    quick: bool,
    populations: Vec<usize>,
    rebuild_policy: RebuildPolicy,
    layouts: Vec<TableLayout>,
    forwardings: Vec<ForwardingMode>,
    out: String,
    check: Option<String>,
    max_regression: f64,
    duration_pinned: bool,
    passes: u32,
}

impl ScaleOptions {
    fn from_args() -> Self {
        let mut parser = ArgParser::from_env();
        let mut opts = ScaleOptions {
            common: ExperimentOptions::default(),
            quick: false,
            populations: Vec::new(),
            rebuild_policy: RebuildPolicy::default(),
            layouts: TableLayout::ALL.to_vec(),
            forwardings: vec![ForwardingMode::Exact],
            out: "BENCH_scale.json".to_string(),
            check: None,
            max_regression: 0.25,
            duration_pinned: false,
            passes: 2,
        };
        let result = (|| -> Result<(), String> {
            while let Some(flag) = parser.next_flag() {
                if flag == "--duration" || flag == "--full" {
                    opts.duration_pinned = true;
                }
                if opts.common.apply(&flag, &mut parser)? {
                    continue;
                }
                match flag.as_str() {
                    "--quick" => opts.quick = true,
                    "--populations" => {
                        opts.populations = parser
                            .list_value(&flag)?
                            .iter()
                            .map(|v| {
                                v.parse::<usize>()
                                    .map_err(|_| format!("--populations got invalid count {v:?}"))
                            })
                            .collect::<Result<_, _>>()?;
                    }
                    "--rebuild-policy" => {
                        let name = parser.value(&flag)?;
                        opts.rebuild_policy = RebuildPolicy::from_name(&name).ok_or_else(|| {
                            format!("unknown rebuild policy {name:?}; known: full, incremental")
                        })?;
                    }
                    "--table-layout" => {
                        opts.layouts = parser
                            .list_value(&flag)?
                            .iter()
                            .map(|name| {
                                TableLayout::from_name(name).ok_or_else(|| {
                                    format!("unknown table layout {name:?}; known: dense, sparse")
                                })
                            })
                            .collect::<Result<_, _>>()?;
                    }
                    "--forwarding" => {
                        opts.forwardings = parser
                            .list_value(&flag)?
                            .iter()
                            .map(|name| {
                                ForwardingMode::from_name(name).ok_or_else(|| {
                                    format!(
                                        "unknown forwarding mode {name:?}; known: exact, aggregate"
                                    )
                                })
                            })
                            .collect::<Result<_, _>>()?;
                    }
                    "--passes" => {
                        opts.passes = parser.parse_value(&flag)?;
                        if opts.passes == 0 {
                            return Err("--passes must be at least 1".to_string());
                        }
                    }
                    "--out" => opts.out = parser.value(&flag)?,
                    "--check" => opts.check = Some(parser.value(&flag)?),
                    "--max-regression" => opts.max_regression = parser.parse_value(&flag)?,
                    _ => {
                        return Err(format!(
                            "unknown flag {flag:?}; known: {COMMON_FLAGS_HELP} | {SCALE_FLAGS_HELP}"
                        ))
                    }
                }
            }
            Ok(())
        })();
        if let Err(message) = result {
            eprintln!("{message}");
            std::process::exit(2);
        }
        if opts.populations.is_empty() {
            opts.populations = if opts.quick {
                QUICK_POPULATIONS.to_vec()
            } else {
                FULL_POPULATIONS.to_vec()
            };
        }
        opts
    }

    /// Simulated seconds per run, shrinking with the population so the
    /// whole sweep stays tractable (each message fans out to ~25 % of the
    /// population, so per-message work grows linearly with it).
    fn duration_secs(&self, population: usize) -> u64 {
        if self.duration_pinned {
            return self.common.duration_secs;
        }
        match population {
            0..=1_000 => 300,
            1_001..=20_000 => 120,
            _ => 30,
        }
    }
}

/// One measured (population, scenario, layout, model, forwarding) cell.
#[derive(Default)]
struct Cell {
    population: usize,
    scenario: String,
    strategy: String,
    rebuild_policy: RebuildPolicy,
    table_layout: TableLayout,
    link_model: LinkModelKind,
    forwarding: ForwardingMode,
    duration_secs: u64,
    build_secs: f64,
    wall_secs: f64,
    events: u64,
    events_per_sec: f64,
    peak_pending_events: u64,
    published: u64,
    on_time: u64,
    transmissions: u64,
    false_positive_forwards: u64,
    scope_interns: u64,
    scope_intern_hits: u64,
    tables_rebuilt_full: u64,
    entries_retargeted: u64,
    aggregate_entries: u64,
    expanded_at_edge: u64,
    table_bytes_estimate: u64,
}

impl Cell {
    fn key(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}/{}",
            self.population,
            self.scenario,
            self.rebuild_policy.name(),
            self.table_layout.name(),
            self.link_model.name(),
            self.forwarding.name()
        )
    }

    /// Fraction of transmissions that were false-positive forwards — interior
    /// copies the covering summaries admitted but no edge subscriber matched.
    fn false_positive_rate(&self) -> f64 {
        self.false_positive_forwards as f64 / self.transmissions.max(1) as f64
    }

    fn to_json_line(&self) -> String {
        format!(
            "    {{\"population\": {}, \"scenario\": \"{}\", \
             \"strategy\": \"{}\", \"rebuild_policy\": \"{}\", \"table_layout\": \"{}\", \
             \"link_model\": \"{}\", \"forwarding\": \"{}\", \
             \"duration_secs\": {}, \"build_secs\": {:.3}, \
             \"wall_secs\": {:.3}, \"events\": {}, \"events_per_sec\": {:.1}, \
             \"peak_pending_events\": {}, \"published\": {}, \"on_time\": {}, \
             \"transmissions\": {}, \"false_positive_forwards\": {}, \
             \"scope_interns\": {}, \"scope_intern_hits\": {}, \
             \"tables_rebuilt_full\": {}, \"entries_retargeted\": {}, \
             \"aggregate_entries\": {}, \"expanded_at_edge\": {}, \
             \"table_bytes_estimate\": {}}}",
            self.population,
            self.scenario,
            self.strategy,
            self.rebuild_policy.name(),
            self.table_layout.name(),
            self.link_model.name(),
            self.forwarding.name(),
            self.duration_secs,
            self.build_secs,
            self.wall_secs,
            self.events,
            self.events_per_sec,
            self.peak_pending_events,
            self.published,
            self.on_time,
            self.transmissions,
            self.false_positive_forwards,
            self.scope_interns,
            self.scope_intern_hits,
            self.tables_rebuilt_full,
            self.entries_retargeted,
            self.aggregate_entries,
            self.expanded_at_edge,
            self.table_bytes_estimate,
        )
    }
}

/// The paper's four-layer mesh shape, grown with the population: the edge
/// layer scales as √population (so both the broker overlay and the
/// per-broker subscriber load grow), the middle layers follow it, and the
/// paper's 160-subscriber configuration is reproduced exactly at the low
/// end. Returns the configuration and the actual population (a multiple of
/// the edge-broker count).
fn mesh_for(population: usize) -> (LayeredMeshConfig, usize) {
    let config = if population <= 160 {
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
    };
    let actual = config.subscriber_count();
    (config, actual)
}

/// Builds and runs one cell `opts.passes` times and keeps the fastest pass
/// — the first run at a new population pays one-off allocator/page-cache
/// warmup that would otherwise be misread as a throughput difference.
fn run_cell(
    opts: &ScaleOptions,
    population: usize,
    scenario: &DynamicScenario,
    layout: TableLayout,
    link_model: LinkModelKind,
    forwarding: ForwardingMode,
    strategy: &bdps_core::strategy::StrategyHandle,
) -> Cell {
    let (mesh, actual_population) = mesh_for(population);
    let duration_secs = opts.duration_secs(population);
    let builder = Simulation::builder()
        .layered_mesh(mesh)
        .ssd(30.0)
        .duration(Duration::from_secs(duration_secs))
        .strategy(strategy.clone())
        .scenario(scenario.clone())
        .rebuild_policy(opts.rebuild_policy)
        .table_layout(layout)
        .link_model(link_model)
        .forwarding(forwarding)
        .seed(opts.common.seed);
    let mut best: Option<Cell> = None;
    for _ in 0..opts.passes {
        let build_start = Instant::now();
        let sim = builder.build();
        let build_secs = build_start.elapsed().as_secs_f64();
        let run_start = Instant::now();
        let outcome = sim.run();
        let wall_secs = run_start.elapsed().as_secs_f64();
        let cell = Cell {
            population: actual_population,
            scenario: scenario.name.clone(),
            strategy: strategy.label().to_string(),
            rebuild_policy: opts.rebuild_policy,
            table_layout: layout,
            link_model,
            forwarding,
            duration_secs,
            build_secs,
            wall_secs,
            events: outcome.events_processed,
            events_per_sec: outcome.events_processed as f64 / wall_secs.max(1e-9),
            peak_pending_events: outcome.peak_pending_events,
            published: outcome.published,
            on_time: outcome.tracker.total_on_time(),
            transmissions: outcome.transmissions,
            false_positive_forwards: outcome.false_positive_forwards(),
            scope_interns: outcome.scope_interns,
            scope_intern_hits: outcome.scope_intern_hits,
            tables_rebuilt_full: outcome.tables_rebuilt_full,
            entries_retargeted: outcome.entries_retargeted,
            aggregate_entries: outcome.aggregate_entries,
            expanded_at_edge: outcome.expanded_at_edge(),
            table_bytes_estimate: outcome.table_bytes_estimate,
        };
        if best.as_ref().is_none_or(|b| cell.wall_secs < b.wall_secs) {
            best = Some(cell);
        }
    }
    best.expect("at least one pass")
}

fn write_json(opts: &ScaleOptions, cells: &[Cell]) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"scale\",\n");
    out.push_str(&format!("  \"seed\": {},\n", opts.common.seed));
    out.push_str(&format!("  \"quick\": {},\n", opts.quick));
    out.push_str("  \"cells\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        out.push_str(&cell.to_json_line());
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&opts.out, out)
}

/// Extracts `"key": value` from a single-line JSON object without a JSON
/// dependency (the container builds offline; the format is produced by this
/// same binary, one cell object per line).
fn extract(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":");
    let rest = &line[line.find(&marker)? + marker.len()..];
    let rest = rest.trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.split('"').next().map(|s| s.to_string())
    } else {
        rest.split([',', '}']).next().map(|s| s.trim().to_string())
    }
}

/// One cell of a baseline file: its key, its throughput and the behaviour
/// counts the gate holds exactly.
#[derive(Debug)]
struct BaselineCell {
    key: String,
    events_per_sec: f64,
    published: u64,
    on_time: u64,
    transmissions: u64,
}

/// The cells of a baseline file, keyed
/// `population/scenario/policy/layout/model/forwarding`. The rebuild
/// policy, table layout, link model and forwarding mode are part of the key
/// so a full-policy, sparse-layout, fair-share or aggregate-forwarding run
/// is never gated against baselines measured under another mode (their
/// events/sec are not comparable); baselines from before an axis existed
/// default to its historical value ("incremental" / "dense" / "constant" /
/// "exact"). A cell line missing its throughput or a behaviour count is an
/// error, so the behaviour gate can never silently skip a cell.
fn parse_baseline(text: &str) -> Result<Vec<BaselineCell>, String> {
    text.lines()
        .filter(|line| line.contains("\"population\""))
        .map(|line| {
            let field = |key: &str| {
                extract(line, key).ok_or_else(|| format!("baseline cell lacks {key:?}: {line}"))
            };
            let count = |key: &str| {
                field(key)?
                    .parse::<u64>()
                    .map_err(|_| format!("baseline cell has a non-integer {key:?}: {line}"))
            };
            let population = field("population")?;
            let scenario = field("scenario")?;
            let policy =
                extract(line, "rebuild_policy").unwrap_or_else(|| "incremental".to_string());
            let layout = extract(line, "table_layout").unwrap_or_else(|| "dense".to_string());
            let model = extract(line, "link_model").unwrap_or_else(|| "constant".to_string());
            let forwarding = extract(line, "forwarding").unwrap_or_else(|| "exact".to_string());
            Ok(BaselineCell {
                key: format!("{population}/{scenario}/{policy}/{layout}/{model}/{forwarding}"),
                events_per_sec: field("events_per_sec")?.parse().map_err(|_| {
                    format!("baseline cell has a non-numeric events_per_sec: {line}")
                })?,
                published: count("published")?,
                on_time: count("on_time")?,
                transmissions: count("transmissions")?,
            })
        })
        .collect()
}

/// Cells faster than this cannot measure throughput within the gate's
/// tolerance (the 160-population cells finish in ~40 ms, where run-to-run
/// swings already exceed 25 %); their speed is reported but never fails the
/// gate. Their behaviour counts are still held exactly.
const MIN_GATED_WALL_SECS: f64 = 0.5;

/// The outcome of comparing a run against its baseline.
struct GateResult {
    /// One table row per baseline cell the run measured.
    rows: Vec<Vec<String>>,
    /// Behaviour and speed failures, one message each.
    failures: Vec<String>,
    /// Baseline cells the run did not measure.
    missing: Vec<String>,
    /// Matched cells slow enough to gate on speed.
    speed_gated: usize,
}

/// Holds every measured cell to its baseline twin: exact `published`,
/// `on_time` and `transmissions`, and events/sec within `max_regression`
/// when the cell ran at least [`MIN_GATED_WALL_SECS`].
fn gate(baseline: &[BaselineCell], cells: &[Cell], max_regression: f64) -> GateResult {
    let mut result = GateResult {
        rows: Vec::new(),
        failures: Vec::new(),
        missing: Vec::new(),
        speed_gated: 0,
    };
    for base in baseline {
        let key = &base.key;
        let Some(cell) = cells.iter().find(|c| &c.key() == key) else {
            result.missing.push(key.clone());
            continue;
        };
        let mut same_behaviour = true;
        for (name, was, now) in [
            ("published", base.published, cell.published),
            ("on_time", base.on_time, cell.on_time),
            ("transmissions", base.transmissions, cell.transmissions),
        ] {
            if was != now {
                same_behaviour = false;
                result.failures.push(format!(
                    "{key}: behaviour changed — {name} is {now}, baseline has {was}"
                ));
            }
        }
        let ratio = cell.events_per_sec / base.events_per_sec;
        let gated = cell.wall_secs >= MIN_GATED_WALL_SECS;
        result.rows.push(vec![
            key.clone(),
            if same_behaviour { "same" } else { "CHANGED" }.to_string(),
            format!("{:.0}", base.events_per_sec),
            format!("{:.0}", cell.events_per_sec),
            format!("{ratio:.2}x"),
            if gated { "yes" } else { "too fast to gate" }.to_string(),
        ]);
        if !gated {
            continue;
        }
        result.speed_gated += 1;
        if ratio < 1.0 - max_regression {
            result.failures.push(format!(
                "{key}: events/sec regressed to {:.0} from baseline {:.0} ({:.0} %)",
                cell.events_per_sec,
                base.events_per_sec,
                ratio * 100.0
            ));
        }
    }
    result
}

/// Compares against a committed baseline; returns the failure messages.
fn check_regressions(opts: &ScaleOptions, cells: &[Cell]) -> Result<Vec<String>, String> {
    let path = opts.check.as_deref().expect("check mode");
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path:?}: {e}"))?;
    let baseline = parse_baseline(&text)?;
    if baseline.is_empty() {
        return Err(format!("baseline {path:?} contains no cells"));
    }
    println!(
        "\n## Baseline comparison ({path}, exact behaviour counts, max regression {:.0} %)\n",
        opts.max_regression * 100.0
    );
    let result = gate(&baseline, cells, opts.max_regression);
    for key in &result.missing {
        println!("- note: baseline cell {key} was not part of this run");
    }
    println!(
        "{}",
        render_markdown_table(
            &[
                "cell",
                "behaviour",
                "baseline ev/s",
                "now ev/s",
                "ratio",
                "speed gated"
            ],
            &result.rows
        )
    );
    if result.speed_gated == 0 {
        // A gate that matches nothing must fail loudly, not pass silently —
        // otherwise a renamed scenario or drifted population label would
        // turn the whole perf check into a no-op.
        return Err(format!(
            "baseline {path:?} has no gateable cell in common with this run \
             (populations/scenarios drifted, or every matching cell ran under \
             {MIN_GATED_WALL_SECS} s); regenerate the baseline"
        ));
    }
    Ok(result.failures)
}

fn main() {
    let opts = ScaleOptions::from_args();
    println!(
        "# Scale — engine throughput vs subscriber population\n\n\
         populations: {:?}, rebuild policy: {}, layouts: {:?}, seed: {}\n",
        opts.populations,
        opts.rebuild_policy.name(),
        opts.layouts.iter().map(|l| l.name()).collect::<Vec<_>>(),
        opts.common.seed
    );

    // Quick includes link-flap so the CI regression gate also tracks the
    // rebuild path, not just the static-topology hot loop; the full sweep
    // adds the link-storm (overlapping ~5 s outages every ~2 s), the
    // scenario the incremental rebuild exists for.
    let default_scenarios: &[&str] = if opts.quick {
        &["churn", "link-flap"]
    } else {
        &["churn", "chaos", "link-storm"]
    };
    let scenarios = opts.common.scenarios_or(default_scenarios);
    let link_models = opts.common.link_models_or(&[LinkModelKind::Constant]);
    let strategies = opts
        .common
        .strategies_or(&[bdps_core::config::StrategyKind::MaxEb]);
    let strategy = &strategies[0];
    if strategies.len() > 1 {
        eprintln!(
            "note: scale uses one strategy per sweep; running {} and ignoring the rest",
            strategy.label()
        );
    }

    // Link-failure scenarios used to be capped at 20k subscribers because a
    // full rebuild is O(brokers × population) per link event; the
    // incremental rebuild lifted that cap. Warn loudly when someone asks the
    // oracle policy to do the old quadratic work at scale.
    const FULL_REBUILD_WARN_POPULATION: usize = 20_000;

    let mut cells = Vec::new();
    for &population in &opts.populations {
        for scenario in &scenarios {
            let uses_links = scenario.link_failures.is_some() || !scenario.blackouts.is_empty();
            if uses_links
                && opts.rebuild_policy == RebuildPolicy::Full
                && population > FULL_REBUILD_WARN_POPULATION
            {
                println!(
                    "- note: {} at {} subscribers under the full rebuild policy rebuilds \
                     every table per link event (O(brokers x population)); expect a long run \
                     (drop --rebuild-policy full for the incremental default)",
                    scenario.name, population
                );
            }
            for &layout in &opts.layouts {
                for &model in &link_models {
                    for &forwarding in &opts.forwardings {
                        if forwarding == ForwardingMode::Aggregate && layout == TableLayout::Dense {
                            println!(
                                "- note: skipping aggregate forwarding under the dense \
                                 layout (needs the shared-population registry)"
                            );
                            continue;
                        }
                        let cell = run_cell(
                            &opts, population, scenario, layout, model, forwarding, strategy,
                        );
                        println!(
                            "- {:>7} subs · {:<11} · {:<6} · {:<10} · {:<9}: {:>9.0} events/sec ({} events in {:.2} s wall, peak queue {}, scope hit rate {:.0} %, {} entries retargeted, {} full table rebuilds, {} aggregates, {:.1} MB tables, fp rate {:.1} %)",
                            cell.population,
                            cell.scenario,
                            cell.table_layout.name(),
                            cell.link_model.name(),
                            cell.forwarding.name(),
                            cell.events_per_sec,
                            cell.events,
                            cell.wall_secs,
                            cell.peak_pending_events,
                            100.0 * cell.scope_intern_hits as f64 / cell.scope_interns.max(1) as f64,
                            cell.entries_retargeted,
                            cell.tables_rebuilt_full,
                            cell.aggregate_entries,
                            cell.table_bytes_estimate as f64 / 1e6,
                            100.0 * cell.false_positive_rate(),
                        );
                        cells.push(cell);
                    }
                }
            }
        }
    }

    // The forwarding headline: exact-vs-aggregate events/sec, the
    // false-positive traffic the covers admit, and the per-cell on-time
    // delivery counts — the full trade the aggregate mode exists for
    // (publish-side matching cost vs extra interior copies vs QoS fidelity
    // under congestion; the on-time columns are what the QoS envelopes
    // recovered from the FIFO-degradation regime).
    if opts.forwardings.contains(&ForwardingMode::Exact)
        && opts.forwardings.contains(&ForwardingMode::Aggregate)
    {
        println!(
            "\n## events/sec by forwarding mode (speedup = aggregate / exact, sparse layout)\n"
        );
        let mut rows = Vec::new();
        for &population in &opts.populations {
            let (_, actual) = mesh_for(population);
            for scenario in &scenarios {
                let find = |forwarding: ForwardingMode| {
                    cells.iter().find(|c| {
                        c.population == actual
                            && c.scenario == scenario.name
                            && c.table_layout == TableLayout::Sparse
                            && c.link_model == link_models[0]
                            && c.forwarding == forwarding
                    })
                };
                if let (Some(exact), Some(aggregate)) =
                    (find(ForwardingMode::Exact), find(ForwardingMode::Aggregate))
                {
                    rows.push(vec![
                        format!("{actual}"),
                        scenario.name.clone(),
                        format!("{:.0}", exact.events_per_sec),
                        format!("{:.0}", aggregate.events_per_sec),
                        format!(
                            "{:.2}x",
                            aggregate.events_per_sec / exact.events_per_sec.max(1e-9)
                        ),
                        format!("{:.1} %", 100.0 * aggregate.false_positive_rate()),
                        format!("{}", exact.on_time),
                        format!("{}", aggregate.on_time),
                    ]);
                }
            }
        }
        if !rows.is_empty() {
            println!(
                "{}",
                render_markdown_table(
                    &[
                        "population",
                        "scenario",
                        "exact ev/s",
                        "aggregate ev/s",
                        "speedup",
                        "false-positive rate",
                        "exact on-time",
                        "aggregate on-time"
                    ],
                    &rows
                )
            );
        }
    }

    // The memory headline: dense-vs-sparse table bytes per (population,
    // scenario) — the axis the sparse layout exists for.
    if opts.layouts.contains(&TableLayout::Dense) && opts.layouts.contains(&TableLayout::Sparse) {
        println!("\n## table memory by layout (dense / sparse)\n");
        let mut rows = Vec::new();
        for &population in &opts.populations {
            let (_, actual) = mesh_for(population);
            for scenario in &scenarios {
                let find = |layout: TableLayout| {
                    cells.iter().find(|c| {
                        c.population == actual
                            && c.scenario == scenario.name
                            && c.table_layout == layout
                            && c.link_model == link_models[0]
                            && c.forwarding == opts.forwardings[0]
                    })
                };
                if let (Some(dense), Some(sparse)) =
                    (find(TableLayout::Dense), find(TableLayout::Sparse))
                {
                    rows.push(vec![
                        format!("{actual}"),
                        scenario.name.clone(),
                        format!("{:.1} MB", dense.table_bytes_estimate as f64 / 1e6),
                        format!("{:.1} MB", sparse.table_bytes_estimate as f64 / 1e6),
                        format!(
                            "{:.0}x",
                            dense.table_bytes_estimate as f64
                                / sparse.table_bytes_estimate.max(1) as f64
                        ),
                        format!("{}", sparse.aggregate_entries),
                    ]);
                }
            }
        }
        if !rows.is_empty() {
            println!(
                "{}",
                render_markdown_table(
                    &[
                        "population",
                        "scenario",
                        "dense tables",
                        "sparse tables",
                        "shrink",
                        "aggregates"
                    ],
                    &rows
                )
            );
        }
    }

    match write_json(&opts, &cells) {
        Ok(()) => println!("wrote {}", opts.out),
        Err(e) => {
            eprintln!("failed to write {}: {e}", opts.out);
            std::process::exit(1);
        }
    }

    if opts.check.is_some() {
        match check_regressions(&opts, &cells) {
            Ok(failures) if failures.is_empty() => println!("baseline check passed"),
            Ok(failures) => {
                for f in &failures {
                    eprintln!("REGRESSION: {f}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A measured 10k churn cell, slow enough to be speed-gated.
    fn measured() -> Cell {
        Cell {
            population: 10_000,
            scenario: "churn".to_string(),
            strategy: "EB".to_string(),
            table_layout: TableLayout::Sparse,
            duration_secs: 120,
            wall_secs: 1.0,
            events: 100_000,
            events_per_sec: 100_000.0,
            published: 267,
            on_time: 197_654,
            transmissions: 11_501,
            ..Cell::default()
        }
    }

    /// The baseline a run of `cell` would write.
    fn baseline_of(cell: &Cell) -> Vec<BaselineCell> {
        parse_baseline(&cell.to_json_line()).expect("a written cell parses")
    }

    #[test]
    fn a_cell_passes_against_its_own_baseline() {
        let cell = measured();
        let baseline = baseline_of(&cell);
        assert_eq!(baseline.len(), 1);
        assert_eq!(baseline[0].key, cell.key());
        let result = gate(&baseline, &[cell], 0.25);
        assert!(result.failures.is_empty(), "{:?}", result.failures);
        assert_eq!(result.speed_gated, 1);
    }

    #[test]
    fn a_changed_on_time_count_fails_the_check() {
        let baseline = baseline_of(&measured());
        let mut cell = measured();
        cell.on_time += 1;
        let result = gate(&baseline, &[cell], 0.25);
        assert_eq!(result.failures.len(), 1, "{:?}", result.failures);
        assert!(
            result.failures[0].contains("on_time"),
            "{:?}",
            result.failures
        );
    }

    #[test]
    fn behaviour_is_held_even_on_cells_too_fast_to_gate_on_speed() {
        let baseline = baseline_of(&measured());
        for drift in [
            |c: &mut Cell| c.published -= 1,
            |c: &mut Cell| c.transmissions += 7,
        ] {
            let mut cell = measured();
            cell.wall_secs = 0.01;
            drift(&mut cell);
            let result = gate(&baseline, &[cell], 0.25);
            assert_eq!(result.speed_gated, 0);
            assert_eq!(result.failures.len(), 1, "{:?}", result.failures);
        }
    }

    #[test]
    fn a_speed_regression_still_fails_the_check() {
        let baseline = baseline_of(&measured());
        let mut cell = measured();
        cell.events_per_sec = 70_000.0;
        let result = gate(&baseline, &[cell], 0.25);
        assert_eq!(result.failures.len(), 1, "{:?}", result.failures);
        assert!(result.failures[0].contains("events/sec"));
    }

    #[test]
    fn a_baseline_cell_without_behaviour_counts_is_rejected() {
        let line = measured().to_json_line().replace("\"on_time\"", "\"late\"");
        let err = parse_baseline(&line).unwrap_err();
        assert!(err.contains("on_time"), "{err}");
    }
}
