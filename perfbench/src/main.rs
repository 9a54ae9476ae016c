//! The rdbsc benchmark: one command, three scripted workloads, end-to-end
//! metrics from untraced runs and per-layer metrics from traced runs.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload metro-solve --seed 1 --seconds 20 --trace 0
//! ```
//!
//! A run repeats whole *rounds* until `--seconds` have passed (at least
//! [`MIN_ROUNDS`]). A round generates the workload's script from the seed,
//! boots the system, replays the script and checks the outputs. Every round
//! of a run does identical work and must produce identical outputs; only
//! time varies. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is non-zero
//! when any check fails. See `perfbench/README.md` for the workloads and what
//! each metric should move.

mod check;
mod durable;
mod metro;
mod replay;
mod script;
mod served;
mod stats;
mod trace;

use rdbsc_platform::EngineObjective;
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::time::Instant;
use trace::Tracer;

/// Every run measures at least this many rounds, so medians over rounds
/// exist even when one round outlasts `--seconds`.
const MIN_ROUNDS: usize = 3;

/// Operations attempted and failed, per operation type, and failures per
/// reason (HTTP non-2xx, I/O error, WAL error, replication stream reset).
#[derive(Debug, Default, Clone)]
pub struct Ops(
    BTreeMap<&'static str, [u64; 2]>,
    BTreeMap<&'static str, u64>,
);

impl Ops {
    /// Counts one operation of `kind`, failed or not.
    pub fn count(&mut self, kind: &'static str, ok: bool) {
        let entry = self.0.entry(kind).or_default();
        entry[0] += 1;
        if !ok {
            entry[1] += 1;
        }
    }

    /// Counts `n` failures of `kind` that were observed, not attempted by
    /// the benchmark itself (stream resets the program reports).
    pub fn count_failed(&mut self, kind: &'static str, n: u64) {
        let entry = self.0.entry(kind).or_default();
        entry[0] += n;
        entry[1] += n;
    }

    /// Notes the reason of a failure counted with [`Ops::count`].
    pub fn reason(&mut self, reason: &'static str) {
        self.reason_n(reason, 1);
    }

    pub fn reason_n(&mut self, reason: &'static str, n: u64) {
        *self.1.entry(reason).or_default() += n;
    }

    pub fn merge(&mut self, other: &Ops) {
        for (kind, [a, f]) in &other.0 {
            let entry = self.0.entry(kind).or_default();
            entry[0] += a;
            entry[1] += f;
        }
        for (reason, n) in &other.1 {
            *self.1.entry(reason).or_default() += n;
        }
    }

    fn totals(&self) -> (u64, u64) {
        self.0
            .values()
            .fold((0, 0), |(a, f), [oa, of]| (a + oa, f + of))
    }
}

/// What one round measured.
#[derive(Debug)]
pub struct Round {
    /// Scripted events replayed.
    pub events: u64,
    /// Wall time of the replay, set-up excluded.
    pub replay_s: f64,
    /// Script generation time.
    pub generate_s: f64,
    /// Boot time: engine, server, daemons, standby bootstrap.
    pub boot_s: f64,
    /// Wall time of each tick call, as its caller sees it.
    pub tick_ms: Vec<f64>,
    /// Wall time of each write request.
    pub request_ms: Vec<f64>,
    /// Wall time of each read, from when it was due.
    pub read_ms: Vec<f64>,
    /// The engine's objective at the end of the script.
    pub objective: EngineObjective,
    /// The process's peak RSS when the replay ended.
    pub peak_rss_mb: f64,
    /// Operations attempted and failed.
    pub ops: Ops,
    /// Per-layer values (traced rounds only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Digest of the round's outputs; every round of a run must agree.
    pub fingerprint: u64,
}

/// The per-layer metrics every traced run reports, in output order. A
/// layer a workload does not use reports 0.
pub const LAYER_METRICS: [(&str, &str); 38] = [
    ("engine.apply_ms", "ms"),
    ("engine.extract_ms", "ms"),
    ("engine.solve_ms", "ms"),
    ("engine.merge_ms", "ms"),
    ("engine.events_applied", "count"),
    ("engine.assignments", "count"),
    ("solver.shards_greedy", "count"),
    ("solver.shards_sampling", "count"),
    ("solver.shards_dnc", "count"),
    ("solver.largest_shard_pairs", "count"),
    ("solver.shard_ms_max", "ms"),
    ("index.relocations", "count"),
    ("index.cells_repaired", "count"),
    ("index.tcell_rebuilds", "count"),
    ("model.objective_ms", "ms"),
    ("wal.submit_ms", "ms"),
    ("wal.append_ms", "ms"),
    ("wal.fsync_ms", "ms"),
    ("wal.bytes_per_event", "B"),
    ("wal.fsyncs", "count"),
    ("wal.checkpoints", "count"),
    ("partition.tick_overhead_ms", "ms"),
    ("wire.commands", "count"),
    ("wire.bytes_per_event", "B"),
    ("wire.command_p50_us", "us"),
    ("router.tick_overhead_ms", "ms"),
    ("router.handoffs", "count"),
    ("repl.records_shipped", "count"),
    ("repl.lag_max_records", "count"),
    ("repl.catchup_ms", "ms"),
    ("repl.stream_resets", "count"),
    ("setup.generate_ms", "ms"),
    ("setup.boot_ms", "ms"),
    ("loadgen.read_lag_ms", "ms"),
    ("trace.events_per_s_ratio", "ratio"),
    // Tail latencies, from the untraced rounds of a traced run. On a shared
    // 2-core box their run-to-run spread is wider than any bound the
    // end-to-end gate allows (see README), so they are reported, not gated.
    ("tick_p90_ms", "ms"),
    ("request_p99_ms", "ms"),
    ("read_p99_ms", "ms"),
];

/// A workload: runs one round. `first` asks for the checks that need an
/// oracle replay (later rounds must reproduce the first round's digest);
/// `tracer` is set on traced rounds.
pub trait Workload {
    fn round(&mut self, first: bool, tracer: Option<&mut Tracer>) -> Result<Round, String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload metro-solve|durable-ingest|serve-replicated \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1).cloned().unwrap_or_else(|| usage());
        match argv[i].as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage(),
                }
            }
            _ => usage(),
        }
        i += 2;
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

fn fmt_metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}

fn main() {
    let args = parse_args();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "metro-solve" => Ok(Box::new(metro::Metro::new(args.seed)) as Box<dyn Workload>),
        "durable-ingest" => {
            durable::Durable::new(args.seed).map(|w| Box::new(w) as Box<dyn Workload>)
        }
        "serve-replicated" => {
            served::Served::new(args.seed).map(|w| Box::new(w) as Box<dyn Workload>)
        }
        _ => usage(),
    }
    .unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });

    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced: Vec<bool> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    while rounds.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < args.seconds {
        // A traced run alternates untraced and traced rounds, so the
        // tracing overhead is measured inside one process.
        let trace_this = args.trace && rounds.len() % 2 == 1;
        let mut tracer = trace_this.then(Tracer::new);
        match workload.round(rounds.is_empty(), tracer.as_mut()) {
            Ok(round) => {
                if let Some(first) = rounds.first() {
                    if first.fingerprint != round.fingerprint {
                        failures.push(format!(
                            "round {} output digest {:016x} differs from round 0's {:016x}",
                            rounds.len(),
                            round.fingerprint,
                            first.fingerprint
                        ));
                    }
                }
                if let Some(tracer) = &tracer {
                    tracer.write_summary(&args.workload, rounds.len());
                }
                rounds.push(round);
                traced.push(trace_this);
            }
            Err(e) => {
                failures.push(e);
                break;
            }
        }
        if !failures.is_empty() {
            break;
        }
    }

    let mut ops = Ops::default();
    for round in &rounds {
        ops.merge(&round.ops);
    }
    let (attempted, failed) = ops.totals();
    let summary: Vec<String> = ops
        .0
        .iter()
        .map(|(kind, [a, f])| format!("{kind} {a}/{f}"))
        .collect();
    let reasons: Vec<String> = ["non-2xx", "io", "wal", "repl-reset", "refused"]
        .iter()
        .map(|r| format!("{r} {}", ops.1.get(r).copied().unwrap_or(0)))
        .collect();
    println!(
        "workload {} seed {} rounds {} cores {} ops attempted/failed: {}; failures by reason: {}",
        args.workload,
        args.seed,
        rounds.len(),
        cores,
        summary.join(", "),
        reasons.join(", ")
    );
    for failure in &failures {
        println!("CHECK FAILED: {failure}");
    }
    if rounds.is_empty() {
        std::process::exit(1);
    }

    let mut metrics: Vec<String> = Vec::new();
    let pick = |want: bool| -> Vec<&Round> {
        rounds
            .iter()
            .zip(&traced)
            .filter(|(_, t)| **t == want)
            .map(|(r, _)| r)
            .collect()
    };
    let plain = pick(false);
    let eps = |rs: &[&Round]| {
        median(
            &rs.iter()
                .map(|r| r.events as f64 / r.replay_s)
                .collect::<Vec<_>>(),
        )
    };
    // Tick and request percentiles are taken per round and the run reports
    // the median over its rounds, so one disturbed round cannot move them.
    // A round holds too few reads for a p99, so read percentiles pool the
    // reads of every round. Only untraced rounds count.
    let per_round =
        |f: &dyn Fn(&Round) -> f64| median(&plain.iter().map(|r| f(r)).collect::<Vec<_>>());
    let reads: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.read_ms.iter().copied())
        .collect();
    if args.trace {
        let with_trace = pick(true);
        for (name, unit) in LAYER_METRICS {
            let value = match name {
                "trace.events_per_s_ratio" => eps(&with_trace) / eps(&plain),
                "tick_p90_ms" => per_round(&|r| percentile(&r.tick_ms, 90.0)),
                "request_p99_ms" => per_round(&|r| percentile(&r.request_ms, 99.0)),
                "read_p99_ms" => percentile(&reads, 99.0),
                _ => median(
                    &with_trace
                        .iter()
                        .map(|r| r.layers.get(name).copied().unwrap_or(0.0))
                        .collect::<Vec<_>>(),
                ),
            };
            metrics.push(fmt_metric(name, value, unit));
        }
    } else {
        let last = rounds.last().expect("at least one round").objective;
        let values = [
            ("events_per_s", eps(&plain), "events/s"),
            (
                "tick_p50_ms",
                per_round(&|r| percentile(&r.tick_ms, 50.0)),
                "ms",
            ),
            (
                "request_p50_ms",
                per_round(&|r| percentile(&r.request_ms, 50.0)),
                "ms",
            ),
            ("read_p50_ms", percentile(&reads, 50.0), "ms"),
            (
                "setup_s",
                median(
                    &rounds
                        .iter()
                        .map(|r| r.generate_s + r.boot_s)
                        .collect::<Vec<_>>(),
                ),
                "s",
            ),
            // The first round's: later rounds only add allocator history.
            ("peak_rss_mb", rounds[0].peak_rss_mb, "MB"),
            ("min_reliability", last.min_reliability, "ratio"),
            ("total_std", last.total_std, "std"),
            ("covered_tasks", last.covered_tasks as f64, "tasks"),
        ];
        let r = &rounds[0];
        println!(
            "samples per round: {} ticks, {} requests, {} reads; {} rounds",
            r.tick_ms.len(),
            r.request_ms.len(),
            r.read_ms.len(),
            rounds.len()
        );
        for (name, value, unit) in values {
            metrics.push(fmt_metric(name, value, unit));
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        metrics.join(", ")
    );
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
