//! Correctness checks made apart from the program: a ledger of what the
//! benchmark submitted and delivered, from which it re-checks every
//! committed pair and recomputes the engine's objective with its own
//! arithmetic.

use rdbsc_model::{
    expected_std, expected_std_exhaustive, Contribution, Task, TaskId, ValidPair, Worker, WorkerId,
};
use rdbsc_platform::{EngineEvent, EngineObjective};
use std::collections::{BTreeMap, BTreeSet};
use std::f64::consts::TAU;

/// Tasks with at most this many contributions get their E[STD] compared
/// with the possible-worlds enumeration (2^12 worlds).
const EXHAUSTIVE_MAX: usize = 12;
const EPS: f64 = 1e-9;

/// What the benchmark told the engine, and what the engine answered.
pub struct Ledger {
    beta: f64,
    workers: BTreeMap<WorkerId, Worker>,
    tasks: BTreeMap<TaskId, Task>,
    /// Answers delivered, per task, in delivery order.
    delivered: BTreeMap<TaskId, Vec<Contribution>>,
    /// Workers committed and not yet answered, with their pair.
    en_route: BTreeMap<WorkerId, ValidPair>,
}

fn angle_gap(a: f64, b: f64) -> f64 {
    let d = (a - b).rem_euclid(TAU);
    d.min(TAU - d)
}

impl Ledger {
    pub fn new(beta: f64) -> Self {
        Ledger {
            beta,
            workers: BTreeMap::new(),
            tasks: BTreeMap::new(),
            delivered: BTreeMap::new(),
            en_route: BTreeMap::new(),
        }
    }

    /// Records submitted events: task definitions and worker positions.
    pub fn observe(&mut self, events: &[EngineEvent]) {
        for event in events {
            match event {
                EngineEvent::TaskArrived(task) => {
                    self.tasks.insert(task.id, *task);
                }
                EngineEvent::WorkerCheckIn(worker) => {
                    self.workers.insert(worker.id, *worker);
                }
                EngineEvent::WorkerMoved(id, to) => {
                    if let Some(worker) = self.workers.get_mut(id) {
                        worker.location = *to;
                    }
                }
                EngineEvent::TaskExpired(_) | EngineEvent::WorkerLeft(_) => {}
            }
        }
    }

    /// Re-checks the pairs a tick at `now` committed: each worker can reach
    /// its task (direction cone, distance over speed, time window) and
    /// carries the contribution that follows, and no worker is committed
    /// twice.
    pub fn check_tick(&mut self, now: f64, pairs: &[ValidPair]) -> Result<(), String> {
        for pair in pairs {
            let (Some(worker), Some(task)) =
                (self.workers.get(&pair.worker), self.tasks.get(&pair.task))
            else {
                return Err(format!("pair {:?} names an unknown task or worker", pair));
            };
            let (dx, dy) = (
                task.location.x - worker.location.x,
                task.location.y - worker.location.y,
            );
            let dist = (dx * dx + dy * dy).sqrt();
            let direction = dy.atan2(dx).rem_euclid(TAU);
            let heading = worker.heading;
            let in_cone = dist == 0.0
                || heading.width() >= TAU - EPS
                || (direction - heading.start()).rem_euclid(TAU) <= heading.width() + EPS
                || TAU - (direction - heading.start()).rem_euclid(TAU) <= EPS;
            if !in_cone {
                return Err(format!(
                    "pair {:?}: direction {direction} outside the worker's cone",
                    pair
                ));
            }
            let arrival = now.max(worker.available_from)
                + if dist == 0.0 {
                    0.0
                } else {
                    dist / worker.speed
                };
            if arrival.is_nan() || arrival > task.window.end + EPS {
                return Err(format!(
                    "pair {:?}: arrival {arrival} after the window end {}",
                    pair, task.window.end
                ));
            }
            let c = pair.contribution;
            let effective = arrival.max(task.window.start);
            if (c.arrival - effective).abs() > 1e-6
                || (dist > 0.0 && angle_gap(c.angle, direction + std::f64::consts::PI) > 1e-6)
                || c.confidence != worker.confidence
            {
                return Err(format!(
                    "pair {:?}: contribution differs from the recomputed arrival {effective}",
                    pair
                ));
            }
            if self.en_route.insert(pair.worker, *pair).is_some() {
                return Err(format!("worker {:?} committed twice", pair.worker));
            }
        }
        Ok(())
    }

    /// Records an answer the benchmark delivered for a committed pair.
    pub fn deliver(&mut self, pair: &ValidPair) {
        self.en_route.remove(&pair.worker);
        self.delivered
            .entry(pair.task)
            .or_default()
            .push(pair.contribution);
    }

    /// Checks the engine's standing commitments and objective against the
    /// ledger: the committed pairs must be the ones the ledger holds en
    /// route, and reliability (1 − Π(1 − p)), coverage and total E[STD] are
    /// recomputed from the delivered answers plus those pairs. With
    /// `exhaustive`, every task with at most [`EXHAUSTIVE_MAX`]
    /// contributions also has its E[STD] enumerated over possible worlds.
    pub fn verify(
        &self,
        objective: &EngineObjective,
        committed: &[ValidPair],
        exhaustive: bool,
    ) -> Result<(), String> {
        let mut seen = BTreeSet::new();
        for pair in committed {
            if !seen.insert(pair.worker) {
                return Err(format!(
                    "worker {:?} appears twice in the committed pairs",
                    pair.worker
                ));
            }
            if self.en_route.get(&pair.worker) != Some(pair) {
                return Err(format!(
                    "committed pair {:?} is not the one the ledger holds",
                    pair
                ));
            }
        }
        if committed.len() != self.en_route.len() {
            return Err(format!(
                "{} committed pairs, the ledger holds {} en route",
                committed.len(),
                self.en_route.len()
            ));
        }
        // The engine folds banked answers first, then en-route pairs in
        // ascending worker order; the same order keeps the float sums equal.
        let mut contributions = self.delivered.clone();
        for pair in self.en_route.values() {
            contributions
                .entry(pair.task)
                .or_default()
                .push(pair.contribution);
        }
        let (mut min_reliability, mut total_std, mut covered) = (1.0f64, 0.0, 0usize);
        for (id, list) in &contributions {
            let task = self
                .tasks
                .get(id)
                .ok_or_else(|| format!("answer for unknown task {id:?}"))?;
            covered += 1;
            let fail_all: f64 = list.iter().map(|c| 1.0 - c.confidence.value()).product();
            min_reliability = min_reliability.min(1.0 - fail_all);
            let beta = task.effective_beta(self.beta);
            let std = expected_std(list, task.window, beta);
            if exhaustive && list.len() <= EXHAUSTIVE_MAX {
                let worlds = expected_std_exhaustive(list, task.window, beta);
                if (worlds - std).abs() > 1e-7 * worlds.abs().max(1.0) {
                    return Err(format!(
                        "task {id:?}: E[STD] {std} differs from the possible-worlds value {worlds}"
                    ));
                }
            }
            total_std += std;
        }
        if covered != objective.covered_tasks
            || (min_reliability - objective.min_reliability).abs() > 1e-12
            || (total_std - objective.total_std).abs() > 1e-9 * total_std.abs().max(1.0)
        {
            return Err(format!(
                "engine objective {objective:?} differs from the ledger's \
                 (min_reliability {min_reliability}, total_std {total_std}, covered {covered})"
            ));
        }
        Ok(())
    }
}
