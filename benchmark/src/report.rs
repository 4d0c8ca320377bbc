//! The metrics one invocation reports, derived from its [`Session`].
//!
//! A batch's time metrics add up its members' medians (over the passes);
//! its counts add up its members' counts.

use crate::metrics::{median, Distribution, Metrics};
use crate::run::{Counters, Layer};
use crate::session::Session;

const MIB: f64 = 1024.0 * 1024.0;

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Sum over the members of the median of `f(member)`.
fn sum_of_medians(session: &Session, f: impl Fn(&crate::session::Member) -> Vec<f64>) -> f64 {
    session.members.iter().map(|m| median(&f(m))).sum()
}

/// The batch's untraced wall time: the sum of each member's median.
fn wall_s(session: &Session) -> f64 {
    sum_of_medians(session, |m| m.untraced_wall_s.clone())
}

/// The process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The end-to-end metrics (`--trace 0`).
pub fn end_to_end(session: &Session) -> Result<Metrics, String> {
    session.complete(false)?;
    let total = |f: fn(&crate::run::Fingerprint) -> f64| -> f64 {
        session
            .members
            .iter()
            .filter_map(|m| m.reference.as_ref())
            .map(f)
            .sum()
    };
    let wall_s = wall_s(session);
    let sim_s: f64 = session.members.iter().map(|m| m.sim_s).sum();
    let on_time = total(|f| f.on_time_pairs as f64);
    let mut m = Metrics::default();
    m.push("setup_s", median(&session.setup_s), "s");
    m.push("wall_s", wall_s, "s");
    m.push("sim_s_per_wall_s", sim_s / wall_s, "s/s");
    m.push("on_time_pairs_per_wall_s", on_time / wall_s, "1/s");
    m.push("peak_rss_mb", peak_rss_mib()?, "MiB");
    m.push("on_time_pairs", on_time, "count");
    m.push("earning", total(|f| f.earning), "units");
    m.push("transmissions", total(|f| f.transmissions as f64), "count");
    Ok(m)
}

/// One row of the layer split.
pub struct LayerRow {
    pub name: &'static str,
    /// Sum over the members of the median self time, seconds.
    pub self_s: f64,
    /// Events the layer handled in one pass over the batch.
    pub count: usize,
    /// Per-event latency, pooled over every traced run, nanoseconds.
    pub latency: Distribution,
}

/// The per-layer time split of the traced runs, the event queue last.
pub fn layer_rows(session: &Session) -> Vec<LayerRow> {
    let mut rows: Vec<LayerRow> = Layer::ALL
        .iter()
        .map(|&layer| {
            let pooled: Vec<u64> = session
                .members
                .iter()
                .flat_map(|m| &m.traces)
                .flat_map(|t| t.samples(layer).iter().copied())
                .collect();
            LayerRow {
                name: layer.name(),
                self_s: sum_of_medians(session, |m| {
                    m.traces
                        .iter()
                        .map(|t| t.self_time(layer).as_secs_f64())
                        .collect()
                }),
                count: session
                    .members
                    .iter()
                    .filter_map(|m| m.traces.first())
                    .map(|t| t.samples(layer).len())
                    .sum(),
                latency: Distribution::of(&pooled),
            }
        })
        .collect();
    rows.push(LayerRow {
        name: "sched",
        self_s: sum_of_medians(session, |m| {
            m.traces.iter().map(|t| t.queue.as_secs_f64()).collect()
        }),
        count: session
            .members
            .iter()
            .filter_map(|m| m.reference)
            .map(|f| f.events as usize)
            .sum(),
        latency: Distribution::of(&[]),
    });
    rows
}

/// The per-layer metrics (`--trace 1`).
pub fn per_layer(session: &Session) -> Result<Metrics, String> {
    session.complete(true)?;
    let rows = layer_rows(session);
    let mut c = Counters::default();
    for member in &session.members {
        c.add(&member.counters);
    }
    let mut m = Metrics::default();
    for row in &rows {
        let name = row.name;
        let count = row.count as f64;
        m.push(format!("{name}.self_s"), row.self_s, "s");
        match name {
            "sched" => {}
            "other" => m.push(format!("{name}.count"), count, "count"),
            "linkevent" => {
                m.push(format!("{name}.count"), count, "count");
                m.push(format!("{name}.ms_p50"), row.latency.p50 / 1e6, "ms");
                m.push(format!("{name}.ms_tail"), row.latency.tail / 1e6, "ms");
            }
            _ => {
                m.push(format!("{name}.count"), count, "count");
                m.push(format!("{name}.us_p50"), row.latency.p50 / 1e3, "us");
                m.push(format!("{name}.us_tail"), row.latency.tail / 1e3, "us");
            }
        }
    }
    let flow_events = rows[Layer::Flow as usize].count as u64;
    m.push(
        "flow.useful_ratio",
        ratio(c.completed_transfers as f64, flow_events),
        "ratio",
    );
    m.push(
        "publish.scope_hit_ratio",
        ratio(c.scope_intern_hits as f64, c.scope_interns),
        "ratio",
    );
    m.push(
        "publish.fp_forward_ratio",
        ratio(c.false_positive_forwards as f64, c.transmissions),
        "ratio",
    );
    m.push("core.enqueued", c.enqueued as f64, "count");
    m.push("core.expanded_at_edge", c.expanded_at_edge as f64, "count");
    m.push("core.shed_unlikely", c.shed_unlikely as f64, "count");
    m.push("core.shed_expired", c.shed_expired as f64, "count");
    m.push(
        "core.shed_ratio",
        ratio(
            (c.shed_unlikely + c.shed_expired) as f64,
            c.enqueued + c.requeued,
        ),
        "ratio",
    );
    m.push(
        "link.completed_ratio",
        ratio(c.completed_transfers as f64, c.transmissions),
        "ratio",
    );
    m.push(
        "link.util_mean",
        ratio(c.link_util_sum, c.links_used),
        "ratio",
    );
    m.push("link.peak_queue_max", c.peak_queue_max as f64, "count");
    m.push(
        "tables.entries_retargeted",
        c.entries_retargeted as f64,
        "count",
    );
    m.push("tables.rebuilt_full", c.rebuilt_full as f64, "count");
    m.push(
        "tables.aggregate_entries",
        c.aggregate_entries as f64,
        "count",
    );
    m.push("tables.mb", c.table_bytes_max as f64 / MIB, "MiB");
    m.push("sched.events", c.events as f64, "count");
    m.push("sched.peak_pending", c.peak_pending_max as f64, "count");
    let traced_wall = sum_of_medians(session, |m| m.traced_wall_s.clone());
    let covered: f64 = rows.iter().map(|r| r.self_s).sum();
    m.push("trace.wall_s", traced_wall, "s");
    m.push("trace.coverage", covered / traced_wall, "ratio");
    m.push(
        "trace.overhead",
        traced_wall / wall_s(session) - 1.0,
        "ratio",
    );
    Ok(m)
}

/// Prints the layer split as a table: self time, share of the traced wall
/// time, events, and the p50 and tail latency with the tail's percentile
/// and sample count.
pub fn print_layer_table(session: &Session) {
    let wall = sum_of_medians(session, |m| m.traced_wall_s.clone());
    println!("layer split, traced wall {wall:.3} s (sum over the batch of each seed's median):");
    println!(
        "  {:<10} {:>9} {:>7} {:>9} {:>11} {:>11}  tail percentile (pooled samples)",
        "layer", "self_s", "share", "count", "p50_us", "tail_us"
    );
    for row in layer_rows(session) {
        let d = row.latency;
        println!(
            "  {:<10} {:>9.4} {:>6.1}% {:>9} {:>11.2} {:>11.2}  p{:.3} of {} samples",
            row.name,
            row.self_s,
            100.0 * row.self_s / wall,
            row.count,
            d.p50 / 1e3,
            d.tail / 1e3,
            d.tail_pct,
            d.samples
        );
    }
}
