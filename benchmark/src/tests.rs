//! Fast self-test of the harness on small meshes:
//! `cargo test --manifest-path benchmark/Cargo.toml`.

use super::*;
use crate::metrics::Distribution;
use crate::run::{run_once, Layer};

/// A workload cut down to the paper's 160-subscriber mesh and a short period.
fn small(w: &Workload) -> Workload {
    Workload {
        population: 160,
        duration_secs: 120,
        batch: 2,
        ..w.clone()
    }
}

const SEED: u64 = 7;

#[test]
fn every_workload_builds_and_the_traced_run_reproduces_the_untraced_one() {
    for w in &WORKLOADS {
        let builder = small(w).builder(SEED);
        let untraced = run_once(&builder, false).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let traced = run_once(&builder, true).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(untraced.fingerprint, traced.fingerprint, "{}", w.name);
        let trace = traced.trace.expect("a traced run carries its trace");
        let timed: usize = Layer::ALL.iter().map(|&l| trace.samples(l).len()).sum();
        assert_eq!(timed as u64, traced.fingerprint.events, "{}", w.name);
    }
}

#[test]
fn each_workload_loads_the_layers_it_is_chosen_for() {
    let events = |name: &str, layer: Layer| {
        let w = Workload::named(name).expect("known workload");
        let run = run_once(&small(w).builder(SEED), true).expect("run succeeds");
        run.trace.expect("traced").samples(layer).len()
    };
    assert!(events("exact-churn-10k", Layer::Churn) > 0);
    assert_eq!(events("exact-churn-10k", Layer::LinkEvent), 0);
    assert!(events("aggregate-storm-10k", Layer::LinkEvent) > 0);
    assert_eq!(events("aggregate-storm-10k", Layer::Flow), 0);
    assert!(events("congested-1k-fairshare", Layer::Flow) > 0);
}

/// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the list is closed")];
    let field = |object: &str, key: &str| {
        let at = object.find(&format!("\"{key}\""))?;
        let rest = &object[at + key.len() + 2..];
        let open = rest.find('"')? + 1;
        let close = open + rest[open..].find('"')?;
        Some(rest[open..close].to_string())
    };
    body.split('}')
        .filter_map(|object| Some((field(object, "name")?, field(object, "unit")?)))
        .collect()
}

fn printed(metrics: &Metrics) -> Vec<(String, String)> {
    metrics
        .0
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn printed_metrics_are_exactly_the_declared_ones() {
    let w = small(Workload::named("congested-1k-fairshare").expect("known workload"));
    let untraced = measure(&w, SEED, 0.01, false);
    let traced = measure(&w, SEED, 0.01, true);
    assert_eq!(untraced.failed + traced.failed, 0);
    let sections = [
        ("end_to_end", end_to_end(&untraced).expect("metrics")),
        ("per_layer", per_layer(&traced).expect("metrics")),
    ];
    for (section, metrics) in sections {
        let printed = printed(&metrics);
        for (name, unit) in &printed {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        assert_eq!(printed, declared(section), "{section}");
    }
}

#[test]
fn benchmark_json_lists_every_workload() {
    let text = include_str!("../../BENCHMARK.json");
    for w in &WORKLOADS {
        assert!(valid_name(w.name));
        assert!(
            text.contains(&format!("\"name\": \"{}\"", w.name)),
            "{}",
            w.name
        );
    }
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_above() {
    let samples: Vec<u64> = (1..=100).collect();
    let d = Distribution::of(&samples);
    assert_eq!((d.p50, d.tail, d.tail_pct), (50.0, 90.0, 90.0));
    let few = Distribution::of(&[3, 1, 2]);
    assert_eq!((few.samples, few.tail), (3, 3.0));
    assert_eq!(Distribution::of(&[]).samples, 0);
}

#[test]
fn result_line_is_one_json_object() {
    let mut m = Metrics::default();
    m.push("wall_s", 1.25, "s");
    m.push("bad", f64::NAN, "s");
    assert_eq!(
        result_line(true, 3, 0, &m),
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
         \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"bad\": {\"value\": 0, \"unit\": \"s\"}}}"
    );
}

#[test]
fn arguments_are_checked() {
    let parse = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
    let ok = parse(&[
        "--workload",
        "exact-churn-10k",
        "--seed",
        "3",
        "--trace",
        "1",
    ])
    .expect("valid arguments");
    assert_eq!(
        (ok.workload.name, ok.seed, ok.trace),
        ("exact-churn-10k", 3, true)
    );
    assert_eq!(
        parse(&["--workload", "exact-churn-10k"]).unwrap().seed,
        DEFAULT_SEED
    );
    assert!(parse(&["--workload", "nope"]).is_err());
    assert!(parse(&["--workload", "exact-churn-10k", "--trace", "2"]).is_err());
    assert!(parse(&["--workload", "exact-churn-10k", "--seconds", "0"]).is_err());
    assert!(parse(&["--seed", "1"]).is_err());
    assert!(parse(&["--workload", "exact-churn-10k", "--bogus", "1"]).is_err());
}

/// Whether `name` is a valid metric or workload name: a letter or digit,
/// then at most 63 more letters, digits, `_`, `.` and `-`.
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn a_batch_starts_with_its_seed_and_repeats() {
    let batch = crate::session::batch_seeds(DEFAULT_SEED, 16);
    assert_eq!(batch[0], DEFAULT_SEED);
    assert_eq!(batch, crate::session::batch_seeds(DEFAULT_SEED, 16));
    let mut distinct = batch.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), 16);
    assert_ne!(
        batch[1],
        crate::session::batch_seeds(DEFAULT_SEED + 1, 2)[1]
    );
}
