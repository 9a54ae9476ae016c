//! The in-process replay loop shared by metro-solve and durable-ingest:
//! events go in as write requests of [`CHUNK`] events, each tick is
//! followed by one answer delivery per new assignment (except after the
//! last tick, whose assignments stay en route), and every
//! [`Target::READ_EVERY`]-th write request is followed by an objective read.

use crate::check::Ledger;
use crate::script::Script;
use crate::stats::{ms_since, peak_rss_mb};
use crate::trace::{add_tick_report, span, stage_sum_ms, Tracer};
use crate::Ops;
use rdbsc_model::ValidPair;
use rdbsc_obs::digest::Fnv1a;
use rdbsc_platform::{EngineEvent, EngineObjective, TickReport};
use std::collections::BTreeMap;
use std::time::Instant;

/// Events per write request.
pub const CHUNK: usize = 256;

/// The engine surface a replay drives, with the span names its calls are
/// recorded under.
pub trait Target {
    /// Span names of submit, tick, answer and read calls.
    const SPANS: [&'static str; 4];
    /// An objective read follows every this many write requests.
    const READ_EVERY: usize;
    fn submit(&mut self, events: &[EngineEvent]);
    fn tick(&mut self, now: f64) -> TickReport;
    fn answer(&mut self, pair: &ValidPair) -> bool;
    fn read(&mut self) -> EngineObjective;
}

/// What a replay measured.
pub struct Replay {
    pub replay_s: f64,
    pub peak_rss_mb: f64,
    pub tick_ms: Vec<f64>,
    pub request_ms: Vec<f64>,
    pub read_ms: Vec<f64>,
    pub ops: Ops,
    pub layers: BTreeMap<&'static str, f64>,
    pub ledger: Ledger,
    /// Digest of every committed pair, in commit order.
    pub fingerprint: Fnv1a,
}

pub fn replay<T: Target>(
    target: &mut T,
    script: &Script,
    beta: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Replay, String> {
    let [submit_span, tick_span, answer_span, read_span] = T::SPANS;
    let mut out = Replay {
        replay_s: 0.0,
        peak_rss_mb: 0.0,
        tick_ms: Vec::new(),
        request_ms: Vec::new(),
        read_ms: Vec::new(),
        ops: Ops::default(),
        layers: BTreeMap::new(),
        ledger: Ledger::new(beta),
        fingerprint: Fnv1a::new(),
    };
    let mut writes = 0usize;
    let mut read_if_due = |target: &mut T, out: &mut Replay, tracer: &mut Option<&mut Tracer>| {
        writes += 1;
        if writes.is_multiple_of(T::READ_EVERY) {
            let started = Instant::now();
            std::hint::black_box(span(tracer, read_span, || target.read()));
            out.read_ms.push(ms_since(started));
            out.ops.count("read", true);
        }
    };
    let started = Instant::now();
    for (k, tick) in script.ticks.iter().enumerate() {
        for chunk in tick.events.chunks(CHUNK) {
            let t = Instant::now();
            span(&mut tracer, submit_span, || target.submit(chunk));
            out.request_ms.push(ms_since(t));
            out.ops.count("submit", true);
            out.ledger.observe(chunk);
            read_if_due(target, &mut out, &mut tracer);
        }
        let t = Instant::now();
        let report = span(&mut tracer, tick_span, || target.tick(tick.now));
        let tick_ms = ms_since(t);
        out.tick_ms.push(tick_ms);
        out.ops.count("tick", true);
        add_tick_report(&mut out.layers, &report);
        *out.layers.entry("partition.tick_overhead_ms").or_default() +=
            tick_ms - stage_sum_ms(&report);
        out.ledger.check_tick(tick.now, &report.new_assignments)?;
        for pair in &report.new_assignments {
            out.fingerprint
                .write_u64(((pair.task.0 as u64) << 32) | pair.worker.0 as u64);
            out.fingerprint
                .write_u64(pair.contribution.arrival.to_bits());
        }
        if k + 1 == script.ticks.len() {
            break;
        }
        for pair in &report.new_assignments {
            let t = Instant::now();
            let banked = span(&mut tracer, answer_span, || target.answer(pair));
            out.request_ms.push(ms_since(t));
            out.ops.count("answer", banked);
            if !banked {
                out.ops.reason("refused");
            }
            out.ledger.deliver(pair);
            read_if_due(target, &mut out, &mut tracer);
        }
    }
    out.replay_s = started.elapsed().as_secs_f64();
    out.peak_rss_mb = peak_rss_mb();
    if let Some(t) = &tracer {
        for (name, layer) in [
            (submit_span, "wal.submit_ms"),
            (read_span, "model.objective_ms"),
        ] {
            *out.layers.entry(layer).or_default() += t.total_ms(name);
        }
    }
    Ok(out)
}
