//! metro-solve: the scripted metro timeline fed straight into an
//! in-process `AssignmentEngine` on `FlatGridIndex`. Every assignment is
//! answered before the next tick, so banked answers grow each task's priors
//! and the solve dominates every tick. No WAL, wire or HTTP.

use crate::replay::{replay, Target};
use crate::script::{Script, Shape};
use crate::trace::Tracer;
use crate::{Round, Workload};
use rdbsc_geo::Rect;
use rdbsc_index::FlatGridIndex;
use rdbsc_model::ValidPair;
use rdbsc_obs::digest::Fnv1a;
use rdbsc_platform::{AssignmentEngine, EngineConfig, EngineEvent, EngineObjective, TickReport};
use std::time::Instant;

pub const CELL_SIZE: f64 = 0.05;

pub const SHAPE: Shape = Shape {
    tasks: 240,
    workers: 640,
    cities: 16,
    ticks: 72,
    heartbeat_every: 3,
    tasks_per_tick: 32,
    velocity: (0.04, 0.08),
    max_angle: std::f64::consts::TAU,
    task_window: (0.5, 1.0),
};

/// The engine configuration every workload uses: the workload seed, one
/// solver thread (set explicitly, never "all cores").
pub fn engine_config(seed: u64) -> EngineConfig {
    EngineConfig {
        seed,
        parallelism: 1,
        ..EngineConfig::default()
    }
}

impl Target for AssignmentEngine<FlatGridIndex> {
    const SPANS: [&'static str; 4] = [
        "engine.submit",
        "engine.tick",
        "engine.answer",
        "model.objective",
    ];
    const READ_EVERY: usize = 128;
    fn submit(&mut self, events: &[EngineEvent]) {
        self.submit_all(events.iter().cloned());
    }
    fn tick(&mut self, now: f64) -> TickReport {
        AssignmentEngine::tick(self, now)
    }
    fn answer(&mut self, pair: &ValidPair) -> bool {
        self.record_answer(pair.worker, pair.contribution)
    }
    fn read(&mut self) -> EngineObjective {
        self.current_objective()
    }
}

pub struct Metro {
    seed: u64,
    script: Script,
}

impl Metro {
    pub fn new(seed: u64) -> Self {
        Metro {
            seed,
            script: Script::new(),
        }
    }
}

impl Workload for Metro {
    fn round(&mut self, first: bool, tracer: Option<&mut Tracer>) -> Result<Round, String> {
        let started = Instant::now();
        self.script.generate(self.seed, &SHAPE);
        let script = &self.script;
        let generate_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let config = engine_config(self.seed);
        let beta = config.beta;
        let mut engine = AssignmentEngine::new(FlatGridIndex::new(Rect::unit(), CELL_SIZE), config);
        let boot_s = started.elapsed().as_secs_f64();

        let mut out = replay(&mut engine, script, beta, tracer)?;
        let objective = engine.current_objective();
        out.ledger
            .verify(&objective, &engine.committed_assignments(), first)?;
        out.layers.remove("wal.submit_ms");
        out.layers.remove("partition.tick_overhead_ms");
        out.layers.insert("setup.generate_ms", generate_s * 1e3);
        out.layers.insert("setup.boot_ms", boot_s * 1e3);
        Ok(Round {
            events: script.events,
            replay_s: out.replay_s,
            generate_s,
            boot_s,
            tick_ms: out.tick_ms,
            request_ms: out.request_ms,
            read_ms: out.read_ms,
            objective,
            peak_rss_mb: out.peak_rss_mb,
            ops: out.ops,
            layers: out.layers,
            fingerprint: objective_digest(out.fingerprint, &objective),
        })
    }
}

/// Folds the objective's exact bits into a round digest.
pub fn objective_digest(mut digest: Fnv1a, objective: &EngineObjective) -> u64 {
    digest.write_u64(objective.min_reliability.to_bits());
    digest.write_u64(objective.total_std.to_bits());
    digest.write_u64(objective.covered_tasks as u64);
    digest.finish()
}
