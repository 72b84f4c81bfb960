//! Workload generation: every study spec is a pure function of the
//! benchmark seed. `tunad` only ever sees the generated specs.

use tuna_stats::rng::hash_combine;

/// The benchmark's workloads (see README.md for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's pipeline: few expensive TUNA studies.
    TuneTuna,
    /// Many cheap studies arriving at a fixed rate.
    FleetChurn,
    /// A restart over finished fleet studies with torn journals.
    RestartResume,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "tune-tuna" => Some(Kind::TuneTuna),
            "fleet-churn" => Some(Kind::FleetChurn),
            "restart-resume" => Some(Kind::RestartResume),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::TuneTuna => "tune-tuna",
            Kind::FleetChurn => "fleet-churn",
            Kind::RestartResume => "restart-resume",
        }
    }

    /// Whether the daemon runs with the two-tenant table.
    pub fn uses_tenants(self) -> bool {
        self != Kind::TuneTuna
    }
}

/// One study as the client submits it.
#[derive(Debug, Clone)]
pub struct Study {
    pub name: String,
    /// Bearer token of the submitting tenant (`None` in loopback mode).
    pub token: Option<&'static str>,
    /// The spec document POSTed to `/v1/studies`.
    pub body: String,
}

/// The two-tenant table of `fleet-churn` and `restart-resume`,
/// weighted 3:1.
pub const TENANTS_JSON: &str = r#"{"tenants": [
  {"name": "alpha", "token": "alpha-token", "weight": 3},
  {"name": "beta", "token": "beta-token", "weight": 1}
]}
"#;

const TOKENS: [&str; 2] = ["alpha-token", "beta-token"];

const WORKLOADS: [&str; 3] = ["tpcc", "ycsb-c", "wikipedia-top500"];

/// Studies per `tune-tuna` episode.
pub const TUNE_STUDIES: usize = 4;

/// `fleet-churn` arrival rate, studies per second.
pub const FLEET_RATE: u64 = 100;

/// Finished fleet studies a `restart-resume` daemon restarts over.
pub const RESTART_STUDIES: usize = 1000;

/// Spec seeds stay below 2^53: the wire parses numbers as f64.
fn spec_seed(h: u64) -> u64 {
    h >> 11
}

fn quoted(items: &[&str]) -> String {
    items
        .iter()
        .map(|w| format!("\"{w}\""))
        .collect::<Vec<_>>()
        .join(", ")
}

/// One `tune-tuna` episode: 4 studies, each TUNA on tpcc, ycsb-c and
/// wikipedia-top500 with 2 runs at 24 rounds (24 cells in all). Every
/// episode of a run draws fresh study seeds, so a run averages over
/// more tuning trajectories than one episode holds.
pub fn tune_tuna(seed: u64, episode: usize) -> Vec<Study> {
    (0..TUNE_STUDIES)
        .map(|i| {
            let h = hash_combine(
                hash_combine(seed, 0x7E7E),
                (episode * TUNE_STUDIES + i) as u64,
            );
            let name = format!("tt-{episode}-{i}");
            let body = format!(
                "{{\"name\": \"{name}\", \"seed\": {}, \"runs\": 2, \"rounds\": 24, \
                 \"workloads\": [{}], \"arms\": [{{\"label\": \"TUNA\", \"method\": \"tuna\"}}]}}",
                spec_seed(h),
                quoted(&WORKLOADS)
            );
            Study {
                name,
                token: None,
                body,
            }
        })
        .collect()
}

/// `n` small fleet studies: the `default` arm (plus `traditional` on
/// odd study seeds) at 4 rounds, 1-4 cells each, split across the two
/// tenants, 1 in 10 in the `interactive` lane.
pub fn fleet(seed: u64, n: usize) -> Vec<Study> {
    (0..n)
        .map(|i| {
            let h = hash_combine(hash_combine(seed, 0xF1EE), i as u64);
            let pick = |salt: u64, m: u64| hash_combine(h, salt) % m;
            let study_seed = spec_seed(h);
            let runs = 1 + pick(1, 2);
            let first = pick(2, 3) as usize;
            let (workloads, arms) = if study_seed % 2 == 1 {
                (
                    vec![WORKLOADS[first]],
                    "{\"label\": \"Default\", \"method\": \"default\"}, \
                     {\"label\": \"Traditional\", \"method\": \"traditional\"}",
                )
            } else {
                let count = 1 + pick(3, 2) as usize;
                (
                    (0..count).map(|k| WORKLOADS[(first + k) % 3]).collect(),
                    "{\"label\": \"Default\", \"method\": \"default\"}",
                )
            };
            let lane = if pick(4, 10) == 0 {
                "\"lane\": \"interactive\", "
            } else {
                ""
            };
            let name = format!("fc-{i:05}");
            let body = format!(
                "{{\"name\": \"{name}\", {lane}\"seed\": {study_seed}, \"runs\": {runs}, \
                 \"rounds\": 4, \"workloads\": [{}], \"arms\": [{arms}]}}",
                quoted(&workloads)
            );
            Study {
                name,
                token: Some(TOKENS[pick(5, 2) as usize]),
                body,
            }
        })
        .collect()
}

/// Whether `restart-resume` tears study `i`'s journal (1 in 4), and at
/// which point of its data rows.
pub fn tear(seed: u64, i: usize) -> Option<u64> {
    let h = hash_combine(hash_combine(seed, 0x7EA2), i as u64);
    h.is_multiple_of(4).then_some(h >> 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuna_serve::api::StudySpec;

    #[test]
    fn specs_parse_and_repeat_per_seed() {
        for s in tune_tuna(5, 1).iter().chain(&fleet(5, 200)) {
            let spec = StudySpec::parse(&s.body).expect("generated spec parses");
            assert_eq!(spec.name, s.name);
            let cells = spec.to_campaign().n_cells();
            assert!((1..=6).contains(&cells), "{} has {cells} cells", s.name);
        }
        assert_eq!(fleet(5, 50)[7].body, fleet(5, 50)[7].body);
        assert_ne!(fleet(5, 50)[7].body, fleet(6, 50)[7].body);
    }
}
