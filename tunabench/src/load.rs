//! The load generator: one driver per workload, written once against a
//! [`Connector`] so the end-to-end run (sockets into `tunad`) and the
//! traced run (the in-process engine) issue the same request stream on
//! the same schedule. At most two threads and two connections.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::client::{Client, Connector, Recorder, State};
use crate::clock::{next_tick, now, sleep_until};
use crate::workload::{Kind, Study, FLEET_RATE};

/// How often `tune-tuna` polls each study.
const TUNE_POLL: Duration = Duration::from_millis(50);
/// How often `fleet-churn` and `restart-resume` poll a study.
const FLEET_POLL: Duration = Duration::from_millis(10);
/// The earliest `fleet-churn` polls a study after its submit is due.
const FLEET_POLL_FIRST: Duration = Duration::from_millis(1);

/// Runs one episode of `kind` over `studies` (results checked against
/// `expected`, index-aligned). The episode's clock starts at the
/// returned instant; it fails once `deadline` passes.
pub fn drive(
    kind: Kind,
    studies: &[Study],
    expected: &[String],
    connector: &dyn Connector,
    deadline: Instant,
) -> Result<(Instant, Recorder), String> {
    let t0 = now();
    let rec = match kind {
        Kind::TuneTuna => tune_tuna(studies, expected, connector, t0, deadline)?,
        Kind::FleetChurn => fleet_churn(studies, expected, connector, t0, deadline)?,
        Kind::RestartResume => restart_resume(studies, expected, connector, t0, deadline)?,
    };
    Ok((t0, rec))
}

fn past(deadline: Instant) -> Result<(), String> {
    if now() > deadline {
        Err("episode overran its deadline; studies never finished".into())
    } else {
        Ok(())
    }
}

/// Submits every study at `t0`, then polls each every 50 ms on the
/// same connection and fetches its results once it is done.
fn tune_tuna(
    studies: &[Study],
    expected: &[String],
    connector: &dyn Connector,
    t0: Instant,
    deadline: Instant,
) -> Result<Recorder, String> {
    let mut c = Client::new(connector);
    let mut outstanding: Vec<usize> = (0..studies.len())
        .filter(|&i| c.submit(&studies[i]))
        .collect();
    let mut tick = t0 + TUNE_POLL;
    while !outstanding.is_empty() {
        past(deadline)?;
        sleep_until(tick);
        c.rec.lag(tick);
        outstanding.retain(|&i| match c.state(&studies[i], tick) {
            State::Running | State::Unknown => true,
            State::Ended => false,
            State::Done => {
                c.finish(&studies[i], &expected[i], t0);
                false
            }
        });
        tick = next_tick(tick, TUNE_POLL);
    }
    Ok(c.rec)
}

/// An open loop: study `i` is due at `t0 + i/rate` and submitted on one
/// connection; a second thread polls every outstanding study every
/// 10 ms on its own connection and fetches each finished one.
///
/// Each study is polled at its own phase, [`poll_offset`] after its
/// submit was due and every 10 ms after that. One phase for all studies
/// would pin the median study latency at that phase plus one round
/// trip, whatever the daemon did; spread phases dither the 10 ms poll
/// grid, so the median moves with the daemon's completion times.
fn fleet_churn(
    studies: &[Study],
    expected: &[String],
    connector: &dyn Connector,
    t0: Instant,
    deadline: Instant,
) -> Result<Recorder, String> {
    let gap = Duration::from_nanos(1_000_000_000 / FLEET_RATE);
    let due = |i: usize| t0 + gap * u32::try_from(i).expect("study count fits u32");
    // Every study, in submit order, with whether it was accepted.
    let (tx, rx) = mpsc::channel::<(usize, bool)>();
    std::thread::scope(|scope| {
        let poller = scope.spawn(move || -> Result<Recorder, String> {
            let mut c = Client::new(connector);
            // Next poll of each study not yet seen done, earliest first.
            let mut polls: BinaryHeap<Reverse<(Instant, usize)>> = (0..studies.len())
                .map(|i| Reverse((due(i) + poll_offset(i), i)))
                .collect();
            let mut accepted = vec![false; studies.len()];
            let mut heard = 0;
            while let Some(Reverse((tick, i))) = polls.pop() {
                past(deadline)?;
                sleep_until(tick);
                // A study is first polled once its submit has returned.
                while heard <= i {
                    let Ok((j, ok)) = rx.recv() else { break };
                    accepted[j] = ok;
                    heard = j + 1;
                }
                if !accepted[i] {
                    continue;
                }
                match c.state(&studies[i], tick) {
                    State::Running | State::Unknown => {
                        polls.push(Reverse((next_tick(tick, FLEET_POLL), i)));
                    }
                    State::Ended => {}
                    State::Done => c.finish(&studies[i], &expected[i], due(i)),
                }
            }
            Ok(c.rec)
        });
        let mut c = Client::new(connector);
        for (i, study) in studies.iter().enumerate() {
            sleep_until(due(i));
            c.rec.lag(due(i));
            // A failed send means the poller gave up; its error is the
            // episode's.
            if tx.send((i, c.submit(study))).is_err() {
                break;
            }
        }
        drop(tx);
        let mut rec = poller.join().expect("poller thread panicked")?;
        rec.merge(c.rec);
        Ok(rec)
    })
}

/// When study `i` is first polled after its submit is due: spread over
/// 1–10 ms by the golden-ratio sequence, so every stretch of studies
/// covers the poll period evenly. The first millisecond after each
/// 10 ms boundary is left out: a poll there queues behind the spec
/// persistence of the submit due at that boundary, and measures that
/// instead of the read.
fn poll_offset(i: usize) -> Duration {
    let phase = (i as f64 * 0.618_033_988_749_894_9).fract();
    FLEET_POLL_FIRST + (FLEET_POLL - FLEET_POLL_FIRST).mul_f64(phase)
}

/// A closed loop over two connections: each thread reads the state of
/// the next study not yet looked at and fetches its results once done.
/// A study still being repaired is read again 10 ms later; such
/// re-reads take precedence once due.
fn restart_resume(
    studies: &[Study],
    expected: &[String],
    connector: &dyn Connector,
    t0: Instant,
    deadline: Instant,
) -> Result<Recorder, String> {
    struct Queues {
        fresh: VecDeque<usize>,
        /// Re-reads in due order (each is due 10 ms after its last).
        again: VecDeque<(usize, Instant)>,
    }
    let queues = Mutex::new(Queues {
        fresh: (0..studies.len()).collect(),
        again: VecDeque::new(),
    });
    let remaining = AtomicUsize::new(studies.len());
    let work = || -> Result<Recorder, String> {
        let mut c = Client::new(connector);
        while remaining.load(Ordering::SeqCst) > 0 {
            past(deadline)?;
            let next = {
                let mut q = queues.lock().expect("queue lock");
                match q.again.front() {
                    Some(&(_, due)) if due <= now() || q.fresh.is_empty() => q.again.pop_front(),
                    _ => q.fresh.pop_front().map(|i| (i, now())),
                }
            };
            let Some((i, due)) = next else {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            };
            sleep_until(due);
            c.rec.lag(due);
            match c.state(&studies[i], due) {
                State::Running | State::Unknown => {
                    let again = (i, now() + FLEET_POLL);
                    queues.lock().expect("queue lock").again.push_back(again);
                }
                State::Ended => {
                    remaining.fetch_sub(1, Ordering::SeqCst);
                }
                State::Done => {
                    c.finish(&studies[i], &expected[i], t0);
                    remaining.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }
        Ok(c.rec)
    };
    std::thread::scope(|scope| {
        let other = scope.spawn(work);
        let mut rec = work()?;
        rec.merge(other.join().expect("fetch thread panicked")?);
        Ok(rec)
    })
}
