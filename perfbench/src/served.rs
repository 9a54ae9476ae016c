//! serve-replicated: the served path. An in-process `Server` in manual-tick
//! mode routes to two `PartitionDaemon`s on loopback over the binary
//! transport; the daemons keep data dirs (fsync per tick), and a `--follow`
//! standby follows the primary of region 0. One connection replays the
//! script in a closed loop (writes, answer deliveries read from
//! `GET /assignments`, `POST /tick` carrying the script's `now`); a second
//! connection issues `GET /snapshot` at fixed points of the script, open
//! loop, each read timed from when it was due.

use crate::check::Ledger;
use crate::durable::DataDir;
use crate::metro::{engine_config, objective_digest, CELL_SIZE};
use crate::script::{Script, Shape};
use crate::stats::{ms_since, peak_rss_mb};
use crate::trace::{span, Tracer};
use crate::{Ops, Round, Workload};
use rdbsc_geo::Rect;
use rdbsc_index::IndexBackend;
use rdbsc_model::{Contribution, ValidPair, WorkerId};
use rdbsc_obs::digest::Fnv1a;
use rdbsc_platform::{EngineEvent, EngineObjective, WalConfig};
use rdbsc_server::{
    AnswerDto, AssignmentDto, HeartbeatDto, HttpClient, IdDto, Json, PartitionDaemon,
    PartitiondConfig, RemoteTransport, Server, ServerConfig, SnapshotDto, TaskDto, WorkerDto,
};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

pub const SHAPE: Shape = Shape {
    tasks: 32,
    workers: 3_000,
    cities: 4,
    ticks: 60,
    heartbeat_every: 4,
    tasks_per_tick: 8,
    velocity: (0.02, 0.05),
    max_angle: 1.5,
    task_window: (0.25, 0.5),
};

/// One snapshot read falls due at every `READ_EVERY`th write of the replay.
pub const READ_EVERY: usize = 800;

pub const WAL: WalConfig = WalConfig {
    segment_bytes: 1 << 20,
    checkpoint_every_ticks: 64,
    fsync_on_tick: true,
};

/// How long a boot or catch-up wait may take before the round fails.
const WAIT_LIMIT: Duration = Duration::from_secs(20);

/// One operation of the replay, as the replica must repeat it.
enum Op {
    Event(EngineEvent),
    Tick(f64),
    Answer(WorkerId, Contribution),
}

pub struct Served {
    seed: u64,
    script: Script,
    dir: DataDir,
}

impl Served {
    pub fn new(seed: u64) -> Result<Self, String> {
        Ok(Served {
            seed,
            script: Script::new(),
            dir: DataDir::new("serve-replicated")?,
        })
    }

    fn server_config(&self, remote: Vec<String>) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            // One worker per load-generator connection.
            threads: 2,
            flush_interval: Duration::ZERO,
            area: Rect::unit(),
            cell_size: CELL_SIZE,
            backend: IndexBackend::FlatGrid,
            partitions: 2,
            remote_partitions: remote,
            remote_transports: vec![RemoteTransport::Binary],
            engine: engine_config(self.seed),
            wal: WAL,
            ..ServerConfig::default()
        }
    }
}

fn daemon(dir: std::path::PathBuf, follow: Option<String>) -> Result<PartitionDaemon, String> {
    PartitionDaemon::start(PartitiondConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: Some(dir),
        follow,
        ..PartitiondConfig::default()
    })
    .map_err(|e| format!("daemon start: {e}"))
}

/// The running topology of one round.
struct Topology {
    server: Server,
    primaries: Vec<PartitionDaemon>,
    standby: PartitionDaemon,
}

impl Topology {
    fn stop(self) {
        self.standby.shutdown();
        self.standby.join();
        self.server.shutdown();
        // Joining the server drains and shuts its daemons down.
        self.server.join();
        for daemon in self.primaries {
            daemon.join();
        }
    }
}

fn get_json(client: &mut HttpClient, path: &str) -> Result<Json, String> {
    let response = client.get(path).map_err(|e| format!("GET {path}: {e}"))?;
    if !response.is_success() {
        return Err(format!(
            "GET {path} answered {}: {}",
            response.status, response.body
        ));
    }
    response.json().map_err(|e| format!("GET {path}: {e}"))
}

fn field<'a>(json: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(json, |j, key| j.get(key))
}

fn num_at(json: &Json, path: &[&str]) -> Result<f64, String> {
    field(json, path)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("no number at {}", path.join(".")))
}

/// The standing committed pairs the server lists.
fn assignments(client: &mut HttpClient, ops: &mut Ops) -> Result<Vec<ValidPair>, String> {
    let listed = get_json(client, "/assignments");
    ops.count("http.assignments", listed.is_ok());
    listed?
        .as_arr()
        .ok_or("assignments is not an array")?
        .iter()
        .map(|v| {
            AssignmentDto::from_json(v)
                .and_then(AssignmentDto::into_pair)
                .map_err(|e| e.to_string())
        })
        .collect()
}

fn write_body(event: &EngineEvent) -> (&'static str, Json) {
    match event {
        EngineEvent::TaskArrived(task) => ("/tasks", TaskDto::from_task(task).to_json()),
        EngineEvent::WorkerCheckIn(worker) => {
            ("/workers", WorkerDto::from_worker(worker).to_json())
        }
        EngineEvent::WorkerMoved(id, to) => (
            "/workers/heartbeat",
            HeartbeatDto {
                id: id.0,
                x: to.x,
                y: to.y,
            }
            .to_json(),
        ),
        EngineEvent::TaskExpired(id) => ("/tasks/expire", IdDto { id: id.0 }.to_json()),
        EngineEvent::WorkerLeft(id) => ("/workers/leave", IdDto { id: id.0 }.to_json()),
    }
}

/// Sends one write; a non-2xx status, an I/O error or an answer the
/// engine did not bank fails the round.
fn write(
    client: &mut HttpClient,
    path: &str,
    body: &Json,
    ops: &mut Ops,
    request_ms: &mut Vec<f64>,
) -> Result<(), String> {
    let started = Instant::now();
    let result = client.post(path, body);
    request_ms.push(ms_since(started));
    match result {
        Ok(r) if r.is_success() && !r.body.contains("\"banked\":false") => {
            ops.count("http.write", true);
            Ok(())
        }
        Ok(r) if r.is_success() => {
            ops.count("http.write", false);
            ops.reason("refused");
            Err(format!("POST {path}: the engine did not bank the answer"))
        }
        Ok(r) => {
            ops.count("http.write", false);
            ops.reason("non-2xx");
            Err(format!("POST {path} answered {}: {}", r.status, r.body))
        }
        Err(e) => {
            ops.count("http.write", false);
            ops.reason("io");
            Err(format!("POST {path}: {e}"))
        }
    }
}

/// The script positions at which snapshot reads fall due: every
/// `READ_EVERY`th write once armed. The writer sends each due instant and
/// never waits for the read, so the reads are as many in every round and
/// all fall due while the replay runs, however fast it goes.
struct ReadSchedule {
    due: mpsc::Sender<Instant>,
    armed: bool,
    writes: usize,
}

impl ReadSchedule {
    fn wrote(&mut self) {
        if self.armed {
            self.writes += 1;
            if self.writes % READ_EVERY == 0 {
                let _ = self.due.send(Instant::now());
            }
        }
    }
}

/// The open-loop reader: one `GET /snapshot` for every due instant the
/// writer sends, timed from when it was due. Returns latency and lag (how
/// late each read was sent) per read.
fn reader(addr: SocketAddr, due: mpsc::Receiver<Instant>) -> (Vec<f64>, Vec<f64>, Ops) {
    let mut client = HttpClient::new(addr);
    let (mut latency, mut lag, mut ops) = (Vec::new(), Vec::new(), Ops::default());
    for due in due {
        lag.push(ms_since(due));
        let ok = match client.get("/snapshot") {
            Ok(r) if r.is_success() => true,
            Ok(_) => {
                ops.reason("non-2xx");
                false
            }
            Err(_) => {
                ops.reason("io");
                false
            }
        };
        ops.count("http.read", ok);
        latency.push(ms_since(due));
    }
    (latency, lag, ops)
}

impl Workload for Served {
    fn round(&mut self, first: bool, tracer: Option<&mut Tracer>) -> Result<Round, String> {
        let started = Instant::now();
        self.script.generate(self.seed, &SHAPE);
        let script = &self.script;
        let generate_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let base = self.dir.path().to_path_buf();
        let primaries = vec![
            daemon(base.join("p0"), None)?,
            daemon(base.join("p1"), None)?,
        ];
        let remote: Vec<String> = primaries.iter().map(|d| d.addr().to_string()).collect();
        let server = Server::start(self.server_config(remote.clone()))
            .map_err(|e| format!("server start: {e}"))?;
        // The standby boots once its primary is configured, so its first
        // bootstrap attempt succeeds.
        let standby = daemon(base.join("standby"), Some(remote[0].clone()))?;
        let topology = Topology {
            server,
            primaries,
            standby,
        };
        let result = self.drive(&topology, script, first, tracer, started, generate_s);
        topology.stop();
        self.dir.wipe()?;
        result
    }
}

impl Served {
    fn drive(
        &self,
        topology: &Topology,
        script: &Script,
        first: bool,
        mut tracer: Option<&mut Tracer>,
        boot_started: Instant,
        generate_s: f64,
    ) -> Result<Round, String> {
        let addr = topology.server.addr();
        let mut standby = HttpClient::new(topology.standby.addr());
        let mut primary = HttpClient::new(topology.primaries[0].addr());
        let deadline = Instant::now() + WAIT_LIMIT;
        loop {
            let metrics = get_json(&mut standby, "/metrics")?;
            if field(&metrics, &["configured"]).and_then(Json::as_bool) == Some(true) {
                break;
            }
            if Instant::now() > deadline {
                return Err("the standby did not bootstrap".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let boot_s = boot_started.elapsed().as_secs_f64();

        let beta = engine_config(self.seed).beta;
        let mut ledger = Ledger::new(beta);
        let mut ops = Ops::default();
        let (mut tick_ms, mut request_ms) = (Vec::new(), Vec::new());
        let mut log: Vec<Op> = Vec::new();
        let mut fingerprint = Fnv1a::new();
        let mut lag_max = 0.0f64;
        let mut client = HttpClient::new(addr);

        let replay_started = Instant::now();
        let (due, reads_due) = mpsc::channel();
        let reads = std::thread::spawn(move || reader(addr, reads_due));
        let mut schedule = ReadSchedule {
            due,
            armed: false,
            writes: 0,
        };
        let replay = (|| -> Result<(), String> {
            for (k, tick) in script.ticks.iter().enumerate() {
                for event in &tick.events {
                    let (path, body) = write_body(event);
                    span(&mut tracer, "http.write", || {
                        write(&mut client, path, &body, &mut ops, &mut request_ms)
                    })?;
                    schedule.wrote();
                    log.push(Op::Event(event.clone()));
                }
                ledger.observe(&tick.events);
                let body = Json::obj([("now", Json::Num(tick.now))]);
                let started = Instant::now();
                let response = span(&mut tracer, "http.tick", || client.post("/tick", &body));
                tick_ms.push(ms_since(started));
                let ok = matches!(&response, Ok(r) if r.is_success());
                ops.count("http.tick", ok);
                if !ok {
                    ops.reason(if response.is_err() { "io" } else { "non-2xx" });
                    return Err(format!("POST /tick failed: {response:?}"));
                }
                log.push(Op::Tick(tick.now));
                let pairs = span(&mut tracer, "http.assignments", || {
                    assignments(&mut client, &mut ops)
                })?;
                ledger.check_tick(tick.now, &pairs)?;
                for pair in &pairs {
                    fingerprint.write_u64(((pair.task.0 as u64) << 32) | pair.worker.0 as u64);
                    fingerprint.write_u64(pair.contribution.arrival.to_bits());
                }
                if tracer.is_some() {
                    let repl = get_json(&mut primary, "/metrics")?;
                    lag_max = lag_max.max(num_at(&repl, &["repl", "lag"])?);
                }
                // Reads start once the initial instance is loaded and its
                // first assignments are listed, so they meet the steady state.
                if k == 1 {
                    schedule.armed = true;
                }
                if k + 1 == script.ticks.len() {
                    break;
                }
                for pair in &pairs {
                    let c = pair.contribution;
                    let answer = AnswerDto {
                        worker: pair.worker.0,
                        confidence: c.confidence.value(),
                        angle: c.angle,
                        arrival: c.arrival,
                    };
                    span(&mut tracer, "http.answer", || {
                        write(
                            &mut client,
                            "/answers",
                            &answer.to_json(),
                            &mut ops,
                            &mut request_ms,
                        )
                    })?;
                    schedule.wrote();
                    let (worker, contribution) = answer.into_answer().map_err(|e| e.to_string())?;
                    log.push(Op::Answer(worker, contribution));
                    ledger.deliver(pair);
                }
            }
            Ok(())
        })();
        let replay_s = replay_started.elapsed().as_secs_f64();
        let peak_rss_mb = peak_rss_mb();
        drop(schedule);
        let (read_ms, read_lag, read_ops) =
            reads.join().map_err(|_| "the reader thread panicked")?;
        ops.merge(&read_ops);
        replay?;

        // Catch-up: the standby has applied everything its primary shipped.
        let started = Instant::now();
        let shipped = loop {
            let head = num_at(&get_json(&mut primary, "/metrics")?, &["repl", "next_lsn"])?;
            let applied = num_at(&get_json(&mut standby, "/metrics")?, &["repl", "applied"])?;
            if applied >= head {
                break applied;
            }
            if started.elapsed() > WAIT_LIMIT {
                return Err(format!("the standby stalled at lsn {applied} of {head}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let catchup_ms = ms_since(started);
        let digest = |client: &mut HttpClient| -> Result<String, String> {
            field(&get_json(client, "/partition/snapshot")?, &["state_digest"])
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| "snapshot without state_digest".to_string())
        };
        let (primary_digest, standby_digest) = (digest(&mut primary)?, digest(&mut standby)?);
        if primary_digest != standby_digest {
            return Err(format!(
                "standby digest {standby_digest} differs from its primary's {primary_digest}"
            ));
        }
        let resets = num_at(&get_json(&mut primary, "/metrics")?, &["repl", "resets"])? as u64;
        if resets > 0 {
            ops.count_failed("repl.stream", resets);
            ops.reason_n("repl-reset", resets);
        }

        let snapshot = SnapshotDto::from_json(&get_json(&mut client, "/snapshot")?)
            .map_err(|e| e.to_string())?;
        let objective = EngineObjective {
            min_reliability: snapshot.min_reliability,
            total_std: snapshot.total_std,
            covered_tasks: snapshot.covered_tasks as usize,
        };
        let committed = assignments(&mut client, &mut ops)?;
        ledger.verify(&objective, &committed, first)?;

        let mut layers = BTreeMap::new();
        if first || tracer.is_some() {
            let objective_ms = self.check_replica(&log, &snapshot, &committed)?;
            layers.insert("model.objective_ms", objective_ms);
        }
        if tracer.is_some() {
            self.collect_layers(topology, &mut layers, &snapshot, script.events, &tick_ms);
            layers.insert("repl.records_shipped", shipped);
            layers.insert("repl.lag_max_records", lag_max);
            layers.insert("repl.catchup_ms", catchup_ms);
            layers.insert("repl.stream_resets", resets as f64);
            layers.insert("setup.generate_ms", generate_s * 1e3);
            layers.insert("setup.boot_ms", boot_s * 1e3);
            layers.insert(
                "loadgen.read_lag_ms",
                read_lag.iter().copied().fold(0.0, f64::max),
            );
        }
        let mut digest_words = fingerprint;
        digest_words.write_u64(u64::from_str_radix(&primary_digest, 16).unwrap_or(0));
        Ok(Round {
            events: script.events,
            replay_s,
            generate_s,
            boot_s,
            tick_ms,
            request_ms,
            read_ms,
            objective,
            peak_rss_mb,
            ops,
            layers,
            fingerprint: objective_digest(digest_words, &objective),
        })
    }

    /// Replays the operation log into an identically configured in-process
    /// replica and compares its final state with the served one. Returns
    /// the replica's snapshot time (the objective evaluation a snapshot
    /// read costs the engine), in milliseconds.
    fn check_replica(
        &self,
        log: &[Op],
        served: &SnapshotDto,
        committed: &[ValidPair],
    ) -> Result<f64, String> {
        let replica = self
            .server_config(Vec::new())
            .build_handle()
            .map_err(|e| format!("replica: {e}"))?;
        for op in log {
            match op {
                Op::Event(event) => replica.submit(event.clone()),
                Op::Tick(now) => {
                    replica.tick(*now);
                }
                Op::Answer(worker, contribution) => {
                    replica.record_answer(*worker, *contribution);
                }
            }
        }
        let started = Instant::now();
        let snapshot = SnapshotDto::from_snapshot(&replica.snapshot());
        let objective_ms = ms_since(started);
        let listing = replica.assignments();
        replica.shutdown_partitions();
        let same = (
            snapshot.min_reliability.to_bits(),
            snapshot.total_std.to_bits(),
            snapshot.covered_tasks,
        ) == (
            served.min_reliability.to_bits(),
            served.total_std.to_bits(),
            served.covered_tasks,
        ) && (
            snapshot.events_applied,
            snapshot.total_assignments,
            snapshot.banked_answers,
        ) == (
            served.events_applied,
            served.total_assignments,
            served.banked_answers,
        ) && (snapshot.live_tasks, snapshot.live_workers)
            == (served.live_tasks, served.live_workers)
            && listing == committed;
        if !same {
            return Err(format!(
                "served state differs from the in-process replica: served {served:?}, replica {snapshot:?}"
            ));
        }
        Ok(objective_ms)
    }

    /// Per-layer numbers the router and daemons already keep.
    fn collect_layers(
        &self,
        topology: &Topology,
        layers: &mut BTreeMap<&'static str, f64>,
        snapshot: &SnapshotDto,
        events: u64,
        tick_ms: &[f64],
    ) {
        let metrics = topology.server.metrics();
        let mut stage_ms = 0.0;
        for (name, histogram) in metrics.tick_stages.histograms() {
            let ms = histogram.sum_us() as f64 / 1e3;
            stage_ms += ms;
            let layer = match name {
                "apply" => "engine.apply_ms",
                "extract" => "engine.extract_ms",
                "solve" => "engine.solve_ms",
                "merge" => "engine.merge_ms",
                "wal_append" => "wal.append_ms",
                "wal_fsync" => "wal.fsync_ms",
                _ => continue,
            };
            layers.insert(layer, ms);
        }
        layers.insert(
            "router.tick_overhead_ms",
            tick_ms.iter().sum::<f64>() - stage_ms,
        );
        layers.insert("engine.events_applied", snapshot.events_applied);
        layers.insert("engine.assignments", snapshot.total_assignments);
        layers.insert("index.relocations", snapshot.index_relocations);
        layers.insert("index.cells_repaired", snapshot.index_cells_repaired);
        layers.insert("index.tcell_rebuilds", snapshot.index_tcell_rebuilds);
        if let Some(wal) = &snapshot.wal {
            layers.insert("wal.bytes_per_event", wal.bytes_appended / events as f64);
            layers.insert("wal.fsyncs", wal.fsyncs);
            layers.insert("wal.checkpoints", wal.checkpoints);
        }
        let handle = topology.server.handle();
        let transports = handle.partition_transports();
        let commands: u64 = transports.iter().map(|t| t.stats.requests).sum();
        let bytes: u64 = transports
            .iter()
            .map(|t| t.stats.bytes_sent + t.stats.bytes_received)
            .sum();
        let p50: Vec<f64> = transports.iter().map(|t| t.stats.latency_p50_us).collect();
        layers.insert("wire.commands", commands as f64);
        layers.insert("wire.bytes_per_event", bytes as f64 / events as f64);
        layers.insert(
            "wire.command_p50_us",
            p50.iter().sum::<f64>() / p50.len().max(1) as f64,
        );
        layers.insert("router.handoffs", handle.handoffs() as f64);
    }
}
