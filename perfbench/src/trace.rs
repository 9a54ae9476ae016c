//! Spans the benchmark records around its own calls into each layer's
//! public API (traced rounds only). Spans stay in memory; a summary per
//! span name (count, total and self time) goes to standard error when the
//! round ends.

use rdbsc_platform::TickReport;
use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// One round's spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("end without begin");
        self.spans[id].end_ns = end_ns;
    }

    /// Total milliseconds spent in spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Writes count, total and self milliseconds per span name to stderr.
    pub fn write_summary(&self, workload: &str, round: usize) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(&child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = by_name.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total.saturating_sub(*child);
        }
        for (name, (count, total, own)) in by_name {
            eprintln!(
                "trace {workload} round {round}: {name} count {count} total_ms {:.3} self_ms {:.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
}

/// Runs `f`, inside a span called `name` when a tracer is present.
pub fn span<R>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => {
            t.begin(name);
            let result = f();
            t.end();
            result
        }
        None => f(),
    }
}

/// Adds what a [`TickReport`] says about the engine, solver and index
/// layers to a round's per-layer totals.
pub fn add_tick_report(layers: &mut BTreeMap<&'static str, f64>, report: &TickReport) {
    let stages = &report.stages;
    let mut add = |name: &'static str, value: f64| *layers.entry(name).or_default() += value;
    add("engine.apply_ms", stages.apply_us as f64 / 1e3);
    add("engine.extract_ms", stages.extract_us as f64 / 1e3);
    add("engine.solve_ms", stages.solve_us as f64 / 1e3);
    add("engine.merge_ms", stages.merge_us as f64 / 1e3);
    add("engine.events_applied", report.events_applied as f64);
    add("engine.assignments", report.new_assignments.len() as f64);
    for strategy in &report.strategies {
        match *strategy {
            "GREEDY" => add("solver.shards_greedy", 1.0),
            "SAMPLING" => add("solver.shards_sampling", 1.0),
            "D&C" => add("solver.shards_dnc", 1.0),
            _ => {}
        }
    }
    add(
        "index.relocations",
        report.index_maintenance.relocations as f64,
    );
    add(
        "index.cells_repaired",
        report.index_maintenance.cells_repaired as f64,
    );
    add(
        "index.tcell_rebuilds",
        report.index_maintenance.tcell_rebuilds as f64,
    );
    add("wal.append_ms", stages.wal_append_us as f64 / 1e3);
    add("wal.fsync_ms", stages.wal_fsync_us as f64 / 1e3);
    let largest = layers.entry("solver.largest_shard_pairs").or_default();
    *largest = largest.max(report.largest_shard_pairs as f64);
    let slowest = layers.entry("solver.shard_ms_max").or_default();
    *slowest = slowest.max(report.critical_path_seconds() * 1e3);
}

/// The sum of a report's stage timings, in milliseconds.
pub fn stage_sum_ms(report: &TickReport) -> f64 {
    let s = &report.stages;
    (s.apply_us + s.extract_us + s.solve_us + s.merge_us + s.wal_append_us + s.wal_fsync_us) as f64
        / 1e3
}
