//! durable-ingest: a heartbeat-dominated timeline through a durable
//! `EnginePartition` (fsync per tick, periodic checkpoints, segment
//! rotation): many workers move every tick, each task has few candidate
//! workers, so index maintenance and the log do the work. The round ends
//! with a simulated crash and `open_durable` recovery.

use crate::metro::{engine_config, objective_digest, CELL_SIZE};
use crate::replay::{replay, Target};
use crate::script::{Script, Shape};
use crate::trace::Tracer;
use crate::{Round, Workload};
use rdbsc_geo::Rect;
use rdbsc_index::FlatGridIndex;
use rdbsc_model::ValidPair;
use rdbsc_platform::{
    AssignmentEngine, EngineEvent, EngineObjective, EnginePartition, TickReport, WalConfig,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const SHAPE: Shape = Shape {
    tasks: 40,
    workers: 20_000,
    cities: 4,
    ticks: 60,
    heartbeat_every: 1,
    tasks_per_tick: 10,
    velocity: (0.005, 0.015),
    max_angle: 0.8,
    task_window: (0.25, 0.5),
};

pub const WAL: WalConfig = WalConfig {
    segment_bytes: 1 << 20,
    checkpoint_every_ticks: 20,
    fsync_on_tick: true,
};

impl Target for EnginePartition<FlatGridIndex> {
    const SPANS: [&'static str; 4] = [
        "partition.submit",
        "partition.tick",
        "partition.answer",
        "partition.snapshot",
    ];
    const READ_EVERY: usize = 16;
    fn submit(&mut self, events: &[EngineEvent]) {
        EnginePartition::submit(self, events.to_vec());
    }
    fn tick(&mut self, now: f64) -> TickReport {
        EnginePartition::tick(self, now).report
    }
    fn answer(&mut self, pair: &ValidPair) -> bool {
        self.record_answer(pair.worker, pair.contribution)
    }
    fn read(&mut self) -> EngineObjective {
        self.snapshot().objective
    }
}

/// A data directory inside the working directory, removed when dropped.
pub struct DataDir(PathBuf);

impl DataDir {
    pub fn new(workload: &str) -> Result<Self, String> {
        let path = PathBuf::from(".bench_data").join(format!("{workload}-{}", std::process::id()));
        let dir = DataDir(path);
        dir.wipe()?;
        Ok(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Empties the directory (creating it when missing).
    pub fn wipe(&self) -> Result<(), String> {
        if self.0.exists() {
            std::fs::remove_dir_all(&self.0)
                .map_err(|e| format!("wiping {}: {e}", self.0.display()))?;
        }
        std::fs::create_dir_all(&self.0).map_err(|e| format!("creating {}: {e}", self.0.display()))
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_data` behind only when another run still uses it.
        let _ = std::fs::remove_dir(".bench_data");
    }
}

pub struct Durable {
    seed: u64,
    script: Script,
    dir: DataDir,
    oracle_digest: Option<u64>,
}

impl Durable {
    pub fn new(seed: u64) -> Result<Self, String> {
        Ok(Durable {
            seed,
            script: Script::new(),
            dir: DataDir::new("durable-ingest")?,
            oracle_digest: None,
        })
    }

    fn open(&self) -> Result<EnginePartition<FlatGridIndex>, String> {
        EnginePartition::open_durable(self.dir.path(), WAL, engine_config(self.seed), || {
            FlatGridIndex::new(Rect::unit(), CELL_SIZE)
        })
        .map(|(part, _scan)| part)
        .map_err(|e| format!("open_durable: {e}"))
    }

    /// The digest of a non-durable partition fed the same script and the
    /// same answers.
    fn oracle(&self, script: &Script) -> Result<u64, String> {
        let engine = AssignmentEngine::new(
            FlatGridIndex::new(Rect::unit(), CELL_SIZE),
            engine_config(self.seed),
        );
        let mut part = EnginePartition::new(engine);
        replay(&mut part, script, engine_config(self.seed).beta, None)?;
        Ok(part.state_digest())
    }
}

impl Workload for Durable {
    fn round(&mut self, first: bool, mut tracer: Option<&mut Tracer>) -> Result<Round, String> {
        let started = Instant::now();
        self.script.generate(self.seed, &SHAPE);
        let script = &self.script;
        let generate_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let mut part = self.open()?;
        let boot_s = started.elapsed().as_secs_f64();

        let mut out = replay(
            &mut part,
            script,
            engine_config(self.seed).beta,
            tracer.as_deref_mut(),
        )?;
        let objective = part.snapshot().objective;
        out.ledger.verify(&objective, &part.assignments(), first)?;
        let live = part.state_digest();
        let wal = part.wal_stats().ok_or("durable partition reports no WAL")?;

        // Simulated crash: the partition is dropped with no final sync.
        drop(part);
        let started = Instant::now();
        let recovered = self.open()?;
        let recovery_ms = started.elapsed().as_secs_f64() * 1e3;
        out.ops
            .count("wal.recover", recovered.state_digest() == live);
        if recovered.state_digest() != live {
            return Err(format!(
                "recovered digest {:016x} differs from the live digest {live:016x}",
                recovered.state_digest()
            ));
        }
        if first {
            self.oracle_digest = Some(self.oracle(script)?);
        }
        if self.oracle_digest != Some(live) {
            return Err(format!(
                "durable digest {live:016x} differs from the non-durable partition's {:?}",
                self.oracle_digest
            ));
        }
        drop(recovered);
        self.dir.wipe()?;
        if tracer.is_some() {
            eprintln!("durable-ingest: recovery took {recovery_ms:.1} ms");
        }
        out.layers.insert(
            "wal.bytes_per_event",
            wal.bytes_appended as f64 / script.events as f64,
        );
        out.layers.insert("wal.fsyncs", wal.fsyncs as f64);
        out.layers.insert("wal.checkpoints", wal.checkpoints as f64);
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
            fingerprint: objective_digest(out.fingerprint, &objective) ^ live,
        })
    }
}
