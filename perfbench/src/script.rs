//! The scripted metro timeline: every event and tick boundary of a round,
//! generated from the workload seed alone. Answers are not scripted: the
//! replay answers each assignment the engine makes, and the engine is
//! deterministic, so the answers repeat exactly too.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdbsc_geo::Point;
use rdbsc_model::{Task, TaskId, TimeWindow, WorkerId};
use rdbsc_platform::EngineEvent;
use rdbsc_workloads::{generate_metro_instance, MetroConfig};

/// Time between scripted ticks.
pub const DT: f64 = 0.1;

/// The make-up of a workload's timeline.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Tasks posted before the first tick.
    pub tasks: usize,
    /// Workers checked in before the first tick.
    pub workers: usize,
    /// City centres the tasks and workers cluster around.
    pub cities: usize,
    /// Ticks in the timeline.
    pub ticks: usize,
    /// Each worker sends a heartbeat every `heartbeat_every` ticks.
    pub heartbeat_every: usize,
    /// Tasks posted before every later tick.
    pub tasks_per_tick: usize,
    /// Worker speed range.
    pub velocity: (f64, f64),
    /// Widest worker heading cone (radians).
    pub max_angle: f64,
    /// Valid-period length range of the tasks.
    pub task_window: (f64, f64),
}

/// One tick of the timeline: the events submitted before it, then the tick.
pub struct ScriptTick {
    pub now: f64,
    pub events: Vec<EngineEvent>,
}

pub struct Script {
    pub ticks: Vec<ScriptTick>,
    pub events: u64,
}

impl Script {
    pub fn new() -> Script {
        Script {
            ticks: Vec::new(),
            events: 0,
        }
    }

    /// Regenerates the timeline for `shape` in place, identical for
    /// identical seeds: the initial metro instance, then per tick a share of
    /// the workers moving (3 % of the moves wander to the next city) and a
    /// trickle of new tasks. The event buffers of the previous round are
    /// reused, so set-up time measures generation rather than first-touch
    /// page faults, whose cost varies from run to run on a VM.
    pub fn generate(&mut self, seed: u64, shape: &Shape) {
        let config = MetroConfig {
            cities: shape.cities,
            num_tasks: shape.tasks,
            num_workers: shape.workers,
            velocity_range: shape.velocity,
            max_angle_range: shape.max_angle,
            rt_range: shape.task_window,
            ..MetroConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let instance = generate_metro_instance(&config, &mut rng);
        let centers = config.city_centers();
        // The metro scatter's 2.5 σ truncation radius.
        let spread = 2.5 * config.spread;
        let near = |city: usize, rng: &mut StdRng| {
            let c = centers[city % centers.len()];
            Point::new(
                (c.x + rng.gen_range(-spread..spread)).clamp(0.0, 1.0),
                (c.y + rng.gen_range(-spread..spread)).clamp(0.0, 1.0),
            )
        };

        self.ticks.resize_with(shape.ticks, || ScriptTick {
            now: 0.0,
            events: Vec::new(),
        });
        let mut next_task = instance.num_tasks() as u32;
        for (tick, slot) in self.ticks.iter_mut().enumerate() {
            let now = tick as f64 * DT;
            slot.now = now;
            let events = &mut slot.events;
            events.clear();
            if tick == 0 {
                events.extend(instance.tasks.iter().map(|t| EngineEvent::TaskArrived(*t)));
                events.extend(
                    instance
                        .workers
                        .iter()
                        .map(|w| EngineEvent::WorkerCheckIn(*w)),
                );
                continue;
            }
            for j in (0..shape.workers)
                .filter(|j| j % shape.heartbeat_every == tick % shape.heartbeat_every)
            {
                let wander = rng.gen_range(0.0..1.0f64) < 0.03;
                let to = near(if wander { j + 1 } else { j }, &mut rng);
                events.push(EngineEvent::WorkerMoved(WorkerId(j as u32), to));
            }
            for _ in 0..shape.tasks_per_tick {
                let city = rng.gen_range(0..centers.len());
                let location = near(city, &mut rng);
                let length = rng.gen_range(shape.task_window.0..shape.task_window.1);
                let window = TimeWindow::new(now, now + length).expect("positive window");
                events.push(EngineEvent::TaskArrived(Task::new(
                    TaskId(next_task),
                    location,
                    window,
                )));
                next_task += 1;
            }
        }
        self.events = self.ticks.iter().map(|t| t.events.len() as u64).sum();
    }
}
