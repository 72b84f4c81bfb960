//! The traced run: a workload rebuilt in-process around the same public
//! calls `tunad` makes — `StudyManager::open`, the engine's
//! `recv`/`dispatch` under one manager mutex, and two worker threads
//! running `next_assignment` / cell / `cell_trace` / `complete_traced` —
//! each timed from the outside. Cells run through
//! [`replay_cell`], and every replayed record must carry the checksum
//! `execute_cell` gave the batch run.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use tuna_core::campaign::cell_trace;
use tuna_serve::engine::{Engine, EngineConfig};
use tuna_serve::http::ResponseParser;
use tuna_serve::manager::StudyManager;
use tuna_serve::tenant::TenantRegistry;

use crate::batch::Expected;
use crate::client::{Connector, Recorder, Transport};
use crate::clock::now;
use crate::load;
use crate::replay::{ns_since, replay_cell, Layers};
use crate::workload::{Kind, Study};

/// The daemon's shared state: one manager mutex and the condvar its
/// workers sleep on.
struct Shared {
    mgr: Mutex<StudyManager>,
    work: Condvar,
    stop: AtomicBool,
}

/// The in-process stand-in for `tunad`'s event loop.
struct Hub<'a> {
    engine: Mutex<Engine>,
    shared: &'a Shared,
    layers: &'a Layers,
    t0: Instant,
}

impl Hub<'_> {
    fn now_ms(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

struct HubConn<'a> {
    hub: &'a Hub<'a>,
    id: usize,
    parser: ResponseParser,
}

impl Transport for HubConn<'_> {
    fn call(&mut self, request: &[u8]) -> Result<(u16, String), String> {
        let hub = self.hub;
        let mut engine = hub.engine.lock().expect("engine lock");
        let now_ms = hub.now_ms();
        let t = now();
        engine.recv(self.id, request, now_ms);
        hub.layers.engine_recv.since(t);
        let dispatched = {
            let mut mgr = hub.shared.mgr.lock().expect("manager lock");
            let t = now();
            let n = engine.dispatch(&mut mgr, now_ms);
            hub.layers.engine_dispatch.since(t);
            n
        };
        if dispatched > 0 {
            hub.shared.work.notify_all();
        }
        let out = engine.take_output(self.id);
        if engine.wants_close(self.id) {
            engine.disconnect(self.id);
            self.id = engine.connect(now_ms);
        }
        drop(engine);
        self.parser.feed(&out);
        match self.parser.next_response()? {
            Some(r) => Ok((r.status, r.body)),
            None => Err("engine produced no complete response".into()),
        }
    }
}

impl Connector for Hub<'_> {
    fn connect(&self) -> Box<dyn Transport + Send + '_> {
        let id = self
            .engine
            .lock()
            .expect("engine lock")
            .connect(self.now_ms());
        Box::new(HubConn {
            hub: self,
            id,
            parser: ResponseParser::new(),
        })
    }
}

/// What a traced episode measured.
pub struct Traced {
    pub layers: Layers,
    /// Wall time from opening the manager to the last worker stopping.
    pub wall_ns: u64,
    /// Each replayed cell's wall time, ms.
    pub cell_ms: Vec<f64>,
    pub rec: Recorder,
    /// Replayed cells whose checksum differs from `execute_cell`'s, and
    /// completions the manager refused.
    pub faults: Vec<String>,
}

/// Runs one traced episode of `kind` over a manager opened on `data`.
pub fn episode(
    kind: Kind,
    studies: &[Study],
    expected: &[Expected],
    data: &Path,
    registry: TenantRegistry,
    deadline: Instant,
) -> Result<Traced, String> {
    let layers = Layers::default();
    let start = now();
    let mgr = StudyManager::open_with(data, registry)?;
    layers.manager_open.since(start);
    let shared = Shared {
        mgr: Mutex::new(mgr),
        work: Condvar::new(),
        stop: AtomicBool::new(false),
    };
    let by_name: BTreeMap<&str, &Expected> = studies
        .iter()
        .map(|s| s.name.as_str())
        .zip(expected)
        .collect();
    let docs: Vec<String> = expected.iter().map(|e| e.doc.clone()).collect();
    let faults = Mutex::new(Vec::new());
    let cell_ms = Mutex::new(Vec::new());
    let hub = Hub {
        engine: Mutex::new(Engine::new(EngineConfig::daemon_default())),
        shared: &shared,
        layers: &layers,
        t0: start,
    };
    let driven = std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| worker(&shared, &layers, &by_name, &faults, &cell_ms));
        }
        // A reopened manager may hold resumed work already.
        shared.work.notify_all();
        let driven = load::drive(kind, studies, &docs, &hub, deadline);
        let _guard = shared.mgr.lock().expect("manager lock");
        shared.stop.store(true, Ordering::SeqCst);
        shared.work.notify_all();
        driven
    });
    let (_, rec) = driven?;
    Ok(Traced {
        wall_ns: ns_since(start),
        cell_ms: cell_ms.into_inner().expect("cell time lock"),
        layers,
        rec,
        faults: faults.into_inner().expect("fault list lock"),
    })
}

/// `tunad`'s `worker_loop`, timed: grant under the lock, run the cell
/// outside it, record under it again.
fn worker(
    shared: &Shared,
    layers: &Layers,
    expected: &BTreeMap<&str, &Expected>,
    faults: &Mutex<Vec<String>>,
    cell_ms: &Mutex<Vec<f64>>,
) {
    let lock = || {
        let t = now();
        let guard = shared.mgr.lock().expect("manager lock");
        layers.manager_lock_wait.since(t);
        guard
    };
    loop {
        let mut mgr = lock();
        let assignment = loop {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            let t = now();
            let a = mgr.next_assignment();
            layers.manager_grant.since(t);
            if let Some(a) = a {
                layers.manager_grants.fetch_add(1, Ordering::Relaxed);
                break a;
            }
            mgr = shared.work.wait(mgr).expect("manager lock");
        };
        drop(mgr);

        let t = now();
        let (record, payload) = replay_cell(&assignment.campaign, assignment.cell, layers);
        let cell_ns = ns_since(t);
        layers.campaign_cell.add(cell_ns, 1);
        cell_ms
            .lock()
            .expect("cell time lock")
            .push(cell_ns as f64 / 1e6);
        let want = expected
            .get(assignment.study.as_str())
            .and_then(|e| e.checksums.get(assignment.cell));
        if want != Some(&record.checksum) {
            faults.lock().expect("fault list lock").push(format!(
                "{} cell {}: replayed checksum {} but execute_cell gave {want:?}",
                assignment.study, assignment.cell, record.checksum
            ));
        }
        let trace = cell_trace(&assignment.campaign, assignment.cell, &payload);

        let mut mgr = lock();
        let t = now();
        let done = mgr.complete_traced(
            &assignment.tenant,
            &assignment.study,
            record,
            cell_ns,
            Some(trace),
        );
        layers.manager_complete.since(t);
        if let Err(e) = done {
            faults.lock().expect("fault list lock").push(e);
        }
    }
}
