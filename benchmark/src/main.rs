//! The BDPS benchmark: runs one workload for a fixed span of host time and
//! prints every metric by name and unit, ending with one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload exact-churn-10k [--seed 20060816] [--seconds 20] [--trace 0|1]
//! ```
//!
//! A workload is a batch of simulations, one per seed drawn from `--seed`.
//! With `--trace 0` each pass over the batch builds and runs every member
//! with `Simulation::try_run()`, and the end-to-end metrics add up the
//! members' medians. With `--trace 1` each member also gets a traced run,
//! and the per-layer metrics are reported instead. Every run is checked
//! (see `run::check`) and must reproduce its member's first run exactly.
//! `NOTES.md` explains the workloads and the metrics.

mod metrics;
mod report;
mod run;
mod session;
mod workloads;

use metrics::{result_line, Metrics};
use report::{end_to_end, per_layer, print_layer_table};
use session::measure;
use workloads::{Workload, WORKLOADS};

/// The seed the workloads are described with; `NOTES.md` names the held-out
/// seed a gain claim must also hold on.
const DEFAULT_SEED: u64 = 20_060_816;
/// Host seconds a run measures for when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: bdps-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::named(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let w = args.workload;
    println!(
        "workload {}: {} subscribers requested, {:?} forwarding, {:?} links, scenario {:?}, {} s simulated, batch of {} seeds from seed {}",
        w.name, w.population, w.forwarding, w.link_model, w.scenario, w.duration_secs, w.batch, args.seed
    );
    let session = measure(w, args.seed, args.seconds, args.trace);
    for m in &session.members {
        if let Some(fp) = m.reference {
            println!("fingerprint of seed {}: {fp}", m.seed);
        }
    }
    println!(
        "runs: {} attempted, {} failed; {} set-ups",
        session.attempted,
        session.failed,
        session.setup_s.len()
    );
    let metrics = if args.trace {
        print_layer_table(&session);
        per_layer(&session)
    } else {
        end_to_end(&session)
    };
    let (metrics, error) = match metrics {
        Ok(m) => (m, None),
        Err(e) => (Metrics::default(), Some(e)),
    };
    for m in &metrics.0 {
        println!("  {:<28} {:>18} {}", m.name, m.value, m.unit);
    }
    let correct = session.failed == 0 && error.is_none();
    if let Some(e) = &error {
        eprintln!("error: {e}");
    }
    println!(
        "{}",
        result_line(correct, session.attempted, session.failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests;
