//! Per-layer timing of a cell, taken from outside the program: a cell
//! is replayed through the public pieces of `Experiment::run` with the
//! `Solver` and `SystemUnderTest` trait objects wrapped in timers. No
//! span or timer lives inside any crate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tuna_cloudsim::{Cluster, Machine};
use tuna_core::baselines::run_traditional;
use tuna_core::campaign::{Campaign, CellPayload, CellRecord, CellRow, Recipe};
use tuna_core::deploy::{default_worst_case_with, evaluate_deployment_with};
use tuna_core::executor::ExecutionMode;
use tuna_core::experiment::{Method, RunSummary};
use tuna_core::pipeline::{TunaConfig, TunaPipeline, TuningResult};
use tuna_optimizer::{Objective, Solver, Suggestion};
use tuna_space::{Config, ConfigSpace};
use tuna_stats::rng::{hash_combine, Rng};
use tuna_sut::{RunOutcome, SystemUnderTest};
use tuna_workloads::Workload;

use crate::clock::now;
use crate::Metric;

/// Busy time and call count of one layer, summed over threads.
#[derive(Debug, Default)]
pub struct Timer {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Timer {
    pub fn since(&self, start: Instant) {
        self.add(ns_since(start), 1);
    }

    pub fn add(&self, ns: u64, calls: u64) {
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(calls, Ordering::Relaxed);
    }

    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Every layer the traced run times, plus the tuning counts that must
/// repeat exactly for a seed.
#[derive(Debug, Default)]
pub struct Layers {
    pub engine_recv: Timer,
    pub engine_dispatch: Timer,
    pub manager_grant: Timer,
    pub manager_grants: AtomicU64,
    pub manager_complete: Timer,
    pub manager_lock_wait: Timer,
    pub manager_open: Timer,
    pub campaign_cell: Timer,
    optimizer_ask: Timer,
    optimizer_tell: Timer,
    sut_run: Timer,
    /// Tuning-loop time; calls count tuning rounds (`pipeline.rounds`).
    pipeline_step: Timer,
    /// Tuning-loop time outside ask, tell and the SUT.
    pipeline_self: Timer,
    deploy_worst_case: Timer,
    deploy_evaluate: Timer,
    pipeline_samples: AtomicU64,
    pipeline_configs: AtomicU64,
    pipeline_unstable: AtomicU64,
    adjuster_retrains: AtomicU64,
}

impl Layers {
    /// `(name, timer, count name)` of every timed layer.
    fn timers(&self) -> [(&'static str, &Timer, Option<&'static str>); 14] {
        [
            ("engine.recv", &self.engine_recv, Some("engine.recv_calls")),
            (
                "engine.dispatch",
                &self.engine_dispatch,
                Some("engine.dispatch_calls"),
            ),
            (
                "manager.grant",
                &self.manager_grant,
                Some("manager.grant_calls"),
            ),
            (
                "manager.complete",
                &self.manager_complete,
                Some("manager.completes"),
            ),
            (
                "manager.lock_wait",
                &self.manager_lock_wait,
                Some("manager.lock_acquires"),
            ),
            ("manager.open", &self.manager_open, Some("manager.opens")),
            ("campaign.cell", &self.campaign_cell, Some("campaign.cells")),
            ("optimizer.ask", &self.optimizer_ask, Some("optimizer.asks")),
            (
                "optimizer.tell",
                &self.optimizer_tell,
                Some("optimizer.tells"),
            ),
            ("sut.run", &self.sut_run, Some("sut.runs")),
            ("pipeline.step", &self.pipeline_step, None),
            ("pipeline.self", &self.pipeline_self, None),
            (
                "deploy.worst_case",
                &self.deploy_worst_case,
                Some("deploy.worst_cases"),
            ),
            (
                "deploy.evaluate",
                &self.deploy_evaluate,
                Some("deploy.evaluates"),
            ),
        ]
    }

    /// The tuning counts that must repeat exactly for a seed.
    pub fn exact_counts(&self) -> [(&'static str, f64); 5] {
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64;
        let configs = count(&self.pipeline_configs);
        let unstable_ratio = if configs > 0.0 {
            count(&self.pipeline_unstable) / configs
        } else {
            0.0
        };
        [
            ("pipeline.rounds", self.pipeline_step.calls() as f64),
            ("pipeline.samples", count(&self.pipeline_samples)),
            ("pipeline.configs", configs),
            ("pipeline.unstable_ratio", unstable_ratio),
            ("adjuster.retrains", count(&self.adjuster_retrains)),
        ]
    }

    /// Every layer's total, share of `wall_ns` and call count, then the
    /// exact counts.
    pub fn metrics(&self, wall_ns: f64) -> Vec<Metric> {
        let mut m = Vec::new();
        for (name, timer, calls) in self.timers() {
            m.push((format!("{name}_ns"), timer.ns() as f64, "ns"));
            m.push((
                format!("{name}_share"),
                timer.ns() as f64 / wall_ns,
                "ratio",
            ));
            if let Some(calls) = calls {
                m.push((calls.to_string(), timer.calls() as f64, "count"));
            }
        }
        let grants = self.manager_grants.load(Ordering::Relaxed) as f64;
        m.push(("manager.grants".into(), grants, "count"));
        for (name, value) in self.exact_counts() {
            let unit = if name.ends_with("ratio") {
                "ratio"
            } else {
                "count"
            };
            m.push((name.into(), value, unit));
        }
        m
    }

    fn absorb(&self, result: &TuningResult) {
        let add = |c: &AtomicU64, v: usize| c.fetch_add(v as u64, Ordering::Relaxed);
        add(&self.pipeline_samples, result.total_samples);
        add(&self.pipeline_configs, result.n_configs);
        add(&self.pipeline_unstable, result.n_unstable_configs);
        add(&self.adjuster_retrains, result.model_errors.len());
    }
}

/// One cell's solver and SUT timings (the wrappers are `'static` trait
/// objects, so they share these through an `Arc`).
#[derive(Debug, Default)]
struct CellTimes {
    ask: Timer,
    tell: Timer,
    sut: Timer,
}

impl CellTimes {
    /// Ask + tell + SUT nanoseconds so far, and SUT runs so far.
    fn snapshot(&self) -> (u64, u64) {
        (
            self.ask.ns() + self.tell.ns() + self.sut.ns(),
            self.sut.calls(),
        )
    }
}

struct TimedSolver {
    inner: Box<dyn Solver>,
    times: Arc<CellTimes>,
}

impl Solver for TimedSolver {
    fn ask(&mut self, rng: &mut Rng) -> Suggestion {
        let t = now();
        let s = self.inner.ask(rng);
        self.times.ask.since(t);
        s
    }

    fn tell(&mut self, config: &Config, raw_value: f64, budget: usize) {
        let t = now();
        self.inner.tell(config, raw_value, budget);
        self.times.tell.since(t);
    }

    fn best(&self) -> Option<(Config, f64)> {
        self.inner.best()
    }

    fn space(&self) -> &ConfigSpace {
        self.inner.space()
    }

    fn objective(&self) -> Objective {
        self.inner.objective()
    }

    fn n_observations(&self) -> usize {
        self.inner.n_observations()
    }
}

struct TimedSut {
    inner: Box<dyn SystemUnderTest>,
    times: Arc<CellTimes>,
}

impl SystemUnderTest for TimedSut {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn space(&self) -> &ConfigSpace {
        self.inner.space()
    }

    fn default_config(&self) -> Config {
        self.inner.default_config()
    }

    fn supports(&self, workload: &Workload) -> bool {
        self.inner.supports(workload)
    }

    fn run(
        &self,
        config: &Config,
        workload: &Workload,
        machine: &mut Machine,
        rng: &mut Rng,
    ) -> RunOutcome {
        let t = now();
        let out = self.inner.run(config, workload, machine, rng);
        self.times.sut.since(t);
        out
    }
}

/// Replays cell `cell` of a protocol campaign the way `execute_cell`
/// runs it (`Experiment::run`, serial trial execution), timing each
/// layer into `layers`. The record must match `execute_cell`'s: the
/// caller checks its checksum.
///
/// # Panics
///
/// Panics on a recipe the serve API cannot declare, and on a method no
/// benchmark workload declares (only `tuna`, `traditional` and
/// `default` are replayed).
pub fn replay_cell(campaign: &Campaign, cell: usize, layers: &Layers) -> (CellRecord, CellPayload) {
    let (w, a, run) = campaign.coords(cell);
    let arm = &campaign.arms[a];
    let Recipe::Protocol { method, seed_salt } = &arm.recipe else {
        panic!("serve studies declare only protocol arms");
    };
    let base = seed_salt.map_or(campaign.seed, |salt| hash_combine(campaign.seed, salt));
    let seed = hash_combine(base, run as u64);
    let exp = campaign.experiment(w, ExecutionMode::Serial);
    let times = Arc::new(CellTimes::default());
    let sut = TimedSut {
        inner: exp.make_sut(),
        times: Arc::clone(&times),
    };
    let solver = |multi_fidelity: bool| -> Box<dyn Solver> {
        Box::new(TimedSolver {
            inner: exp.optimizer.build(
                sut.space().clone(),
                exp.objective(),
                &exp.solver_params(multi_fidelity),
            ),
            times: Arc::clone(&times),
        })
    };

    let base_cluster = Cluster::new(
        exp.cluster_size,
        exp.sku.clone(),
        exp.region.clone(),
        hash_combine(seed, 0xE0_0001),
    );
    let mut rng = Rng::seed_from(hash_combine(seed, 0xE0_0002));
    let t = now();
    let crash_penalty = default_worst_case_with(exp.exec, &sut, &exp.workload, &base_cluster, &rng);
    layers.deploy_worst_case.since(t);

    // Tuning-loop time: the sum of `TunaPipeline::step` calls, or the
    // whole `run_traditional` call.
    let (outside0, runs0) = times.snapshot();
    let mut loop_ns = 0;
    let (best_config, tuning) = match method {
        Method::DefaultConfig => (sut.default_config(), None),
        Method::Tuna => {
            let mut cfg = TunaConfig::paper_default(crash_penalty);
            cfg.cluster_size = exp.cluster_size;
            cfg.mode = exp.exec;
            let mut pipeline =
                TunaPipeline::new(cfg, &sut, &exp.workload, solver(true), base_cluster.clone());
            // `run_until_samples`, one timed step at a time: every SUT
            // run of a step is one sample the scheduler assigned.
            let budget = (exp.rounds * exp.cluster_size) as u64;
            let cap = budget * 4 + 100;
            let mut steps = 0;
            while times.sut.calls() - runs0 < budget && steps < cap {
                let s = now();
                pipeline.step(&mut rng);
                loop_ns += ns_since(s);
                steps += 1;
            }
            let result = pipeline.finish();
            (result.best_config.clone(), Some(result))
        }
        Method::Traditional => {
            let solver = solver(false);
            let s = now();
            let result = run_traditional(
                &sut,
                &exp.workload,
                solver,
                base_cluster.clone(),
                exp.rounds,
                crash_penalty,
                &mut rng,
            );
            loop_ns = ns_since(s);
            (result.best_config.clone(), Some(result))
        }
        other => panic!("no benchmark workload declares {}", other.name()),
    };
    if let Some(result) = &tuning {
        let (outside1, _) = times.snapshot();
        layers.pipeline_step.add(loop_ns, result.trace.len() as u64);
        layers
            .pipeline_self
            .add(loop_ns.saturating_sub(outside1 - outside0), 0);
        layers.absorb(result);
    }

    let t = now();
    let deployment = evaluate_deployment_with(
        exp.exec,
        &sut,
        &exp.workload,
        &best_config,
        &base_cluster,
        hash_combine(seed, 0xD3_0003),
        exp.deploy_vms,
        exp.deploy_repeats,
        crash_penalty,
        &rng,
    );
    layers.deploy_evaluate.since(t);

    layers.optimizer_ask.add(times.ask.ns(), times.ask.calls());
    layers
        .optimizer_tell
        .add(times.tell.ns(), times.tell.calls());
    layers.sut_run.add(times.sut.ns(), times.sut.calls());

    let row = CellRow {
        label: arm.label.clone(),
        seed,
        samples: tuning.as_ref().map_or(0, |t| t.total_samples as u64),
        best: tuning.as_ref().map(|t| t.best_value),
        mean: Some(deployment.mean),
        std: Some(deployment.std),
        min: Some(deployment.five.min),
        max: Some(deployment.five.max),
        crashes: Some(deployment.crashes as u64),
    };
    let rows = vec![row];
    let record = CellRecord {
        cell,
        checksum: CellRecord::compute_checksum(&rows),
        rows,
    };
    let summary = RunSummary {
        method: method.name(),
        best_config,
        tuning,
        deployment,
    };
    (record, CellPayload::Run(summary))
}
