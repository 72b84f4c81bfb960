//! Parallel trial execution with a serial-equivalence guarantee.
//!
//! TUNA's detection guarantee rests on sampling each configuration on
//! *distinct* nodes of the worker cluster (§4.1, Figure 9), which makes the
//! runs of one scheduling round independent by construction: each run
//! touches exactly one [`Machine`] and no machine appears twice in a batch
//! for the same config. This module exploits that independence to execute a
//! round's `(config, machine)` assignments concurrently — one *lane* per
//! simulated worker — while producing **bit-identical** results to serial
//! execution.
//!
//! Two disciplines make the equivalence hold:
//!
//! 1. **Forked per-run RNGs.** Every [`RunRequest`] carries a `stream`
//!    label (for pipeline runs, `hash_combine(config_id, machine_idx)`);
//!    the engine derives that run's generator with [`Rng::fork`] from a
//!    shared base instead of drawing sequentially from one generator.
//!    Forking does not advance the base, so run randomness is a pure
//!    function of `(base state, stream)` — independent of execution order.
//! 2. **Disjoint machine lanes.** Requests are grouped by machine into
//!    lanes via [`Cluster::lanes_mut`]; lanes run concurrently but each
//!    lane executes its runs in plan order, so every machine observes the
//!    exact same sequence of measurement epochs as under serial execution.
//!
//! One helper, `ordered_map`, does all fanning out in this crate: it maps
//! a closure over a list of items on up to `workers` scoped standard
//! library threads (no external dependencies) and returns results in
//! input order, running inline on the calling thread when there is at
//! most one worker. [`execute_batch`] maps it over lanes, and the campaign
//! runner maps it over cells. Per-lane wall-clock is recorded in
//! [`BatchStats`] so speedup is measurable.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use tuna_cloudsim::machine::Machine;
use tuna_cloudsim::Cluster;
use tuna_stats::rng::Rng;
use tuna_sut::{RunOutcome, SystemUnderTest};
use tuna_workloads::Workload;

/// How trial batches are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// One thread executes runs in plan order.
    Serial,
    /// Up to `workers` OS threads execute machine lanes concurrently.
    /// Results are bit-identical to [`ExecutionMode::Serial`].
    Parallel {
        /// Worker-thread cap (effective count is `min(workers, lanes)`).
        workers: usize,
    },
}

impl ExecutionMode {
    /// Reads the mode from the `TUNA_WORKERS` environment variable:
    /// unset, `0` or `1` mean serial; `N > 1` means `Parallel { N }`.
    /// Unparseable values fall back to serial.
    pub fn from_env() -> Self {
        Self::parse(std::env::var("TUNA_WORKERS").ok().as_deref())
    }

    /// [`ExecutionMode::from_env`]'s mapping, factored out of the
    /// environment read so it is testable without env races.
    fn parse(value: Option<&str>) -> Self {
        match value.and_then(|v| v.trim().parse::<usize>().ok()) {
            Some(n) if n > 1 => ExecutionMode::Parallel { workers: n },
            _ => ExecutionMode::Serial,
        }
    }

    /// The worker-thread cap (1 for serial).
    pub fn workers(&self) -> usize {
        match *self {
            ExecutionMode::Serial => 1,
            ExecutionMode::Parallel { workers } => workers.max(1),
        }
    }
}

/// One planned trial: run `config` on `cluster[machine]` with the run-level
/// generator `base.fork(stream)`.
#[derive(Debug, Clone, Copy)]
pub struct RunRequest<'a> {
    /// The configuration to evaluate.
    pub config: &'a tuna_space::Config,
    /// Machine index within the cluster.
    pub machine: usize,
    /// RNG fork label; must be unique within a batch for decorrelated
    /// runs (the pipeline uses `hash_combine(config_id, machine_idx)`).
    pub stream: u64,
}

/// Wall-clock accounting for one executed lane.
#[derive(Debug, Clone, Copy)]
pub struct LaneStats {
    /// Machine index the lane ran on.
    pub machine: usize,
    /// Number of runs in the lane.
    pub runs: usize,
    /// Wall-clock nanoseconds spent executing the lane.
    pub nanos: u128,
}

/// Wall-clock accounting for one batch.
#[derive(Debug, Clone, Default)]
pub struct BatchStats {
    /// Whole-batch wall-clock nanoseconds (including pool overhead).
    pub wall_nanos: u128,
    /// Per-lane accounting.
    pub lanes: Vec<LaneStats>,
}

impl BatchStats {
    /// Sum of per-lane busy time (the serial cost of the batch's work).
    pub fn busy_nanos(&self) -> u128 {
        self.lanes.iter().map(|l| l.nanos).sum()
    }

    /// The slowest lane (the batch's critical path).
    pub fn critical_nanos(&self) -> u128 {
        self.lanes.iter().map(|l| l.nanos).max().unwrap_or(0)
    }
}

/// Cumulative execution accounting across a pipeline's lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Batches executed.
    pub batches: usize,
    /// Total runs executed.
    pub runs: usize,
    /// Total wall-clock nanoseconds across batches.
    pub wall_nanos: u128,
    /// Total lane-busy nanoseconds (what a single thread would have spent
    /// inside the SuT).
    pub busy_nanos: u128,
    /// Total critical-path nanoseconds (a lower bound on the wall-clock
    /// of a perfectly scheduled parallel execution).
    pub critical_nanos: u128,
}

impl ExecStats {
    /// Folds one batch into the totals.
    pub fn absorb(&mut self, batch: &BatchStats) {
        self.batches += 1;
        self.runs += batch.lanes.iter().map(|l| l.runs).sum::<usize>();
        self.wall_nanos += batch.wall_nanos;
        self.busy_nanos += batch.busy_nanos();
        self.critical_nanos += batch.critical_nanos();
    }

    /// Observed speedup over serial execution of the same work
    /// (`busy / wall`; 1.0 when nothing ran).
    pub fn speedup(&self) -> f64 {
        if self.wall_nanos == 0 {
            1.0
        } else {
            self.busy_nanos as f64 / self.wall_nanos as f64
        }
    }
}

/// Cached handles into the process-global metrics registry so the per
/// batch cost of instrumentation is a handful of relaxed atomic ops —
/// no lock, no name lookup. Observability only: nothing here feeds
/// back into execution.
struct ExecMetrics {
    batches: tuna_obs::Counter,
    runs: tuna_obs::Counter,
    steals: tuna_obs::Counter,
    occupancy: tuna_obs::Gauge,
    lanes: tuna_obs::Histogram,
}

fn exec_metrics() -> &'static ExecMetrics {
    static METRICS: OnceLock<ExecMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = tuna_obs::global();
        ExecMetrics {
            batches: reg.counter("tuna_executor_batches_total", "trial batches executed"),
            runs: reg.counter("tuna_executor_runs_total", "trial runs executed"),
            steals: reg.counter(
                "tuna_executor_steals_total",
                "lanes claimed by secondary pool workers (work stolen off the first thread)",
            ),
            occupancy: reg.gauge(
                "tuna_executor_lane_occupancy_pct",
                "last batch's pool occupancy: lane-busy time over workers x wall time",
            ),
            lanes: reg.histogram(
                "tuna_executor_lanes_per_batch",
                "machine lanes per executed batch",
                &[1, 2, 4, 8, 16, 32, 64],
            ),
        }
    })
}

/// Executes a batch of trial runs and returns the outcomes in plan order
/// plus wall-clock accounting.
///
/// Serial and parallel modes produce bit-identical outcomes for any worker
/// count: per-run randomness comes from `base.fork(request.stream)` and
/// each machine executes its runs in plan order either way. `base` is not
/// advanced.
///
/// # Panics
///
/// Panics if a request's machine index is out of bounds, or (propagated)
/// if the SuT panics.
pub fn execute_batch(
    mode: ExecutionMode,
    sut: &dyn SystemUnderTest,
    workload: &Workload,
    cluster: &mut Cluster,
    base: &Rng,
    requests: &[RunRequest<'_>],
) -> (Vec<RunOutcome>, BatchStats) {
    if requests.is_empty() {
        return (Vec::new(), BatchStats::default());
    }

    // Group requests into per-machine lanes, preserving plan order both
    // across lanes (first appearance) and within each lane.
    let mut machine_order: Vec<usize> = Vec::new();
    let mut lane_requests: Vec<Vec<usize>> = Vec::new();
    for (i, req) in requests.iter().enumerate() {
        match machine_order.iter().position(|&m| m == req.machine) {
            Some(l) => lane_requests[l].push(i),
            None => {
                machine_order.push(req.machine);
                lane_requests.push(vec![i]);
            }
        }
    }

    let workers = mode.workers().min(machine_order.len());
    let batch_start = Instant::now();
    let lanes: Vec<(&mut Machine, Vec<usize>)> = cluster
        .lanes_mut(&machine_order)
        .into_iter()
        .zip(lane_requests)
        .collect();
    let ran = ordered_map(lanes, workers, |worker, (machine, reqs)| {
        let start = Instant::now();
        let outcomes: Vec<RunOutcome> = reqs
            .iter()
            .map(|&i| {
                let req = &requests[i];
                let mut rng = base.fork(req.stream);
                sut.run(req.config, workload, machine, &mut rng)
            })
            .collect();
        (worker, reqs, outcomes, start.elapsed().as_nanos())
    });

    let mut outcomes: Vec<Option<RunOutcome>> = requests.iter().map(|_| None).collect();
    let mut lane_stats: Vec<LaneStats> = Vec::with_capacity(ran.len());
    let mut steals: u64 = 0;
    for ((worker, reqs, lane_outcomes, nanos), &machine) in ran.into_iter().zip(&machine_order) {
        // A lane run by any worker but the first would have serialized
        // behind it on a single thread: that is the "stolen" work.
        steals += u64::from(worker != 0);
        lane_stats.push(LaneStats {
            machine,
            runs: reqs.len(),
            nanos,
        });
        for (i, outcome) in reqs.into_iter().zip(lane_outcomes) {
            outcomes[i] = Some(outcome);
        }
    }
    // Deterministic reporting order regardless of which worker ran what.
    lane_stats.sort_by_key(|l| l.machine);
    let stats = BatchStats {
        wall_nanos: batch_start.elapsed().as_nanos(),
        lanes: lane_stats,
    };

    let metrics = exec_metrics();
    metrics.batches.inc();
    metrics.runs.add(requests.len() as u64);
    metrics.steals.add(steals);
    metrics.lanes.observe(stats.lanes.len() as u64);
    if stats.wall_nanos > 0 {
        let pool_nanos = stats.wall_nanos.saturating_mul(workers as u128);
        let pct = stats.busy_nanos().saturating_mul(100) / pool_nanos.max(1);
        metrics.occupancy.set(u64::try_from(pct).unwrap_or(100));
    }

    let ordered: Vec<RunOutcome> = outcomes
        .into_iter()
        .map(|slot| slot.expect("every request produces an outcome"))
        .collect();
    (ordered, stats)
}

/// Maps `f` over `items` on up to `workers` threads and returns the
/// results in input order. `f` also gets the index (`< workers`) of the
/// worker that ran the item.
///
/// With at most one worker (or one item) every item is mapped inline on
/// the calling thread as worker 0. Otherwise scoped threads claim items
/// through an atomic cursor over locked slots; each slot is claimed
/// exactly once, so the locks are uncontended and exist only to move
/// each item (a lane's `&mut Machine`, say) to the thread that claims
/// it.
///
/// # Panics
///
/// Propagates a panic of `f`.
pub(crate) fn ordered_map<T: Send, R: Send>(
    items: Vec<T>,
    workers: usize,
    f: impl Fn(usize, T) -> R + Sync,
) -> Vec<R> {
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.into_iter().map(|item| f(0, item)).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = slots.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let (f, slots, results, cursor) = (&f, &slots, &results, &cursor);
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else {
                    break;
                };
                let item = slot
                    .lock()
                    .expect("slot mutex poisoned")
                    .take()
                    .expect("item claimed twice");
                let result = f(worker, item);
                *results[i].lock().expect("result mutex poisoned") = Some(result);
            });
        }
    });
    results
        .into_iter()
        .map(|r| {
            r.into_inner()
                .expect("result mutex poisoned")
                .expect("every item is mapped")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tuna_cloudsim::{Region, VmSku};
    use tuna_space::Config;
    use tuna_stats::rng::hash_combine;
    use tuna_sut::postgres::Postgres;

    fn cluster(n: usize, seed: u64) -> Cluster {
        Cluster::new(n, VmSku::d8s_v5(), Region::westus2(), seed)
    }

    fn plan(
        configs: &[Config],
        machines_per_config: usize,
        cluster_size: usize,
    ) -> Vec<(usize, u64, usize)> {
        // (config index, stream, machine) triples spread round-robin.
        let mut entries = Vec::new();
        for (c, cfg) in configs.iter().enumerate() {
            for k in 0..machines_per_config {
                let m = (c + k * 3) % cluster_size;
                entries.push((c, hash_combine(cfg.id().0, m as u64), m));
            }
        }
        entries
    }

    fn run_plan(mode: ExecutionMode, seed: u64) -> Vec<u64> {
        let pg = Postgres::new();
        let workload = tuna_workloads::tpcc();
        let mut cluster = cluster(8, seed);
        let base = Rng::seed_from(hash_combine(seed, 1));
        let mut sample_rng = Rng::seed_from(hash_combine(seed, 2));
        let configs: Vec<Config> = (0..12)
            .map(|_| pg.space().sample(&mut sample_rng))
            .collect();
        let entries = plan(&configs, 3, 8);
        let requests: Vec<RunRequest<'_>> = entries
            .iter()
            .map(|&(c, stream, machine)| RunRequest {
                config: &configs[c],
                machine,
                stream,
            })
            .collect();
        let (outcomes, stats) = execute_batch(mode, &pg, &workload, &mut cluster, &base, &requests);
        assert_eq!(outcomes.len(), requests.len());
        assert_eq!(
            stats.lanes.iter().map(|l| l.runs).sum::<usize>(),
            requests.len()
        );
        outcomes.iter().map(|o| o.value.to_bits()).collect()
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        for seed in [1u64, 7, 42] {
            let serial = run_plan(ExecutionMode::Serial, seed);
            for workers in [1usize, 2, 4, 8, 16] {
                let par = run_plan(ExecutionMode::Parallel { workers }, seed);
                assert_eq!(serial, par, "workers={workers} seed={seed} diverged");
            }
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let pg = Postgres::new();
        let workload = tuna_workloads::tpcc();
        let mut c = cluster(2, 1);
        let base = Rng::seed_from(3);
        let (outcomes, stats) =
            execute_batch(ExecutionMode::Serial, &pg, &workload, &mut c, &base, &[]);
        assert!(outcomes.is_empty());
        assert_eq!(stats.wall_nanos, 0);
        assert!(stats.lanes.is_empty());
    }

    #[test]
    fn base_rng_is_not_advanced() {
        let pg = Postgres::new();
        let workload = tuna_workloads::tpcc();
        let mut c = cluster(2, 1);
        let base = Rng::seed_from(9);
        let before = base.clone();
        let cfg = pg.default_config();
        let requests = [RunRequest {
            config: &cfg,
            machine: 0,
            stream: 1,
        }];
        execute_batch(
            ExecutionMode::Serial,
            &pg,
            &workload,
            &mut c,
            &base,
            &requests,
        );
        assert_eq!(base, before, "fork-only discipline violated");
    }

    #[test]
    fn lane_stats_cover_every_machine_once() {
        let pg = Postgres::new();
        let workload = tuna_workloads::tpcc();
        let mut c = cluster(4, 5);
        let base = Rng::seed_from(5);
        let cfg = pg.default_config();
        let requests: Vec<RunRequest<'_>> = (0..4)
            .chain(0..4)
            .map(|m| RunRequest {
                config: &cfg,
                machine: m,
                stream: m as u64,
            })
            .collect();
        let (_, stats) = execute_batch(
            ExecutionMode::Parallel { workers: 4 },
            &pg,
            &workload,
            &mut c,
            &base,
            &requests,
        );
        let mut machines: Vec<usize> = stats.lanes.iter().map(|l| l.machine).collect();
        machines.sort_unstable();
        assert_eq!(machines, vec![0, 1, 2, 3]);
        assert!(stats.lanes.iter().all(|l| l.runs == 2));
        assert!(stats.wall_nanos >= stats.critical_nanos());
    }

    #[test]
    fn exec_stats_accumulate_and_speedup_defined() {
        let mut stats = ExecStats::default();
        assert_eq!(stats.speedup(), 1.0);
        stats.absorb(&BatchStats {
            wall_nanos: 50,
            lanes: vec![
                LaneStats {
                    machine: 0,
                    runs: 2,
                    nanos: 40,
                },
                LaneStats {
                    machine: 1,
                    runs: 1,
                    nanos: 35,
                },
            ],
        });
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.runs, 3);
        assert_eq!(stats.busy_nanos, 75);
        assert_eq!(stats.critical_nanos, 40);
        assert!((stats.speedup() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn from_env_parses_worker_counts() {
        // Exercise the parsing mapping directly (not via the real
        // environment — tests run in parallel).
        assert_eq!(ExecutionMode::parse(None), ExecutionMode::Serial);
        assert_eq!(ExecutionMode::parse(Some("0")), ExecutionMode::Serial);
        assert_eq!(ExecutionMode::parse(Some("1")), ExecutionMode::Serial);
        assert_eq!(
            ExecutionMode::parse(Some("4")),
            ExecutionMode::Parallel { workers: 4 }
        );
        assert_eq!(
            ExecutionMode::parse(Some(" 8\n")),
            ExecutionMode::Parallel { workers: 8 }
        );
        assert_eq!(ExecutionMode::parse(Some("lots")), ExecutionMode::Serial);
        assert_eq!(ExecutionMode::Serial.workers(), 1);
        assert_eq!(ExecutionMode::Parallel { workers: 4 }.workers(), 4);
        assert_eq!(ExecutionMode::Parallel { workers: 0 }.workers(), 1);
    }

    proptest! {
        #[test]
        fn ordered_map_maps_every_item_once_in_input_order(
            n in 0usize..41,
            workers in 1usize..9,
        ) {
            let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let out = ordered_map((0..n).collect(), workers, |worker, i: usize| {
                calls[i].fetch_add(1, Ordering::Relaxed);
                (worker, i)
            });
            prop_assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
            let order: Vec<usize> = out.iter().map(|&(_, i)| i).collect();
            prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
            prop_assert!(out.iter().all(|&(worker, _)| worker < workers));

            // One worker maps inline: worker 0, on the calling thread.
            let caller = std::thread::current().id();
            let inline = ordered_map((0..n).collect(), 1, |worker, i: usize| {
                (worker, std::thread::current().id() == caller, i)
            });
            prop_assert!(inline.iter().all(|&(worker, here, _)| worker == 0 && here));
        }
    }
}
