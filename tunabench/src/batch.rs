//! The batch side of the "daemon = batch" check: every study's results
//! document computed in-process by `CampaignRunner`, exactly as
//! `tuna-ctl run-local` computes it. Runs before any timed region.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tuna_core::campaign::{CampaignRunner, ResultStore};
use tuna_serve::api::StudySpec;

use crate::workload::Study;

/// A study's batch results.
#[derive(Debug, Clone)]
pub struct Expected {
    /// The results document the daemon must serve byte for byte.
    pub doc: String,
    /// Each cell's record checksum, by cell index.
    pub checksums: Vec<String>,
}

/// Runs every study as a batch campaign on two threads; index-aligned
/// with `studies`.
pub fn expected(studies: &[Study]) -> Vec<Expected> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<Expected>>> = Mutex::new(vec![None; studies.len()]);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(study) = studies.get(i) else { break };
                let spec = StudySpec::parse(&study.body).expect("generated specs are valid");
                let campaign = spec.to_campaign();
                let mut store = ResultStore::in_memory(&campaign);
                CampaignRunner::serial().run(&campaign, &mut store);
                let checksums = (0..campaign.n_cells())
                    .map(|c| store.get(c).expect("batch ran every cell").checksum.clone())
                    .collect();
                let e = Expected {
                    doc: store.to_json(&campaign),
                    checksums,
                };
                out.lock().expect("batch results lock")[i] = Some(e);
            });
        }
    });
    out.into_inner()
        .expect("batch results lock")
        .into_iter()
        .map(|e| e.expect("every study ran"))
        .collect()
}
