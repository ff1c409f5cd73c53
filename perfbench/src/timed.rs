//! The timed pass: the end-to-end metrics, measured with tracing off.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::check::{combine, Fingerprint};
use crate::report::{median, peak_rss_mb, quantile, BenchResult, Metric};
use crate::workload::{setup, Outcome, Run, Scale, Workload};

/// Host time spent on back-to-back set-ups before the warm-up and before
/// every timed repeat; `setup_s` is the median of every set-up made.
/// Slices spread over the whole run sample the same host phases `run_s`
/// does; in an alternating comparison, one batch of a second at the start
/// gave process medians that spread three times as much across seeds.
pub const SETUP_SLICE: Duration = Duration::from_millis(20);
/// Timed repeats of the whole workload made even when the budget is
/// spent sooner.
pub const MIN_REPEATS: usize = 3;

/// Vehicles simulated, failures among them, and whether every repeat
/// reproduced its reference fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Tally {
    /// Vehicles spawned over all calls.
    pub attempted: u64,
    /// Stranded plus violating vehicles over all calls.
    pub failed: u64,
    /// Every repeat matched its reference exactly.
    pub deterministic: bool,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            deterministic: true,
        }
    }
}

impl Tally {
    /// Counts one outcome.
    pub fn add(&mut self, outcome: &Outcome) {
        self.attempted += outcome.spawned as u64;
        self.failed += outcome.failures() as u64;
    }

    /// Checks a repeat against its reference.
    pub fn expect(&mut self, label: &str, got: &Fingerprint, expected: &Fingerprint) {
        if got != expected {
            println!("# NONDETERMINISTIC {label}: expected {expected}, got {got}");
            self.deterministic = false;
        }
    }

    /// Whether the pass may report `correct`.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.deterministic && self.attempted > 0
    }
}

/// Makes set-ups of `workload` back to back for [`SETUP_SLICE`] (at
/// least one), appends the host seconds of each to `setup_s`, and returns
/// the last.
fn setup_slice(workload: Workload, seed: u64, scale: Scale, setup_s: &mut Vec<f64>) -> Vec<Run> {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let runs = black_box(setup(black_box(workload), black_box(seed), scale));
        setup_s.push(t.elapsed().as_secs_f64());
        if start.elapsed() >= SETUP_SLICE {
            return runs;
        }
        // Dropping a set-up is the benchmark's cost, not the set-up's.
    }
}

/// Runs the timed pass for about `budget` and reports `run_s`, `setup_s`
/// and `peak_rss_mb`.
///
/// `run_s` is the median, over repeats of the whole workload, of the host
/// seconds spent inside its simulation calls; a slice of set-ups precedes
/// each repeat. One untimed warm-up call of each run comes first; it
/// fixes the fingerprint every timed repeat must reproduce, and
/// `peak_rss_mb` is the process's `VmHWM` right after it:
/// the peak of running the workload once. Read after the timed repeats
/// instead, the peak also holds the allocator fragmentation that dozens
/// of back-to-back calls leave, which varies by 10% across seeds for
/// reasons unrelated to the simulator.
#[must_use]
pub fn timed_pass(workload: Workload, seed: u64, scale: Scale, budget: Duration) -> BenchResult {
    let mut setup_s = Vec::new();
    let runs = setup_slice(workload, seed, scale, &mut setup_s);

    let mut tally = Tally::default();
    let reference: Vec<Fingerprint> = runs
        .iter()
        .map(|run| {
            let out = run.simulate();
            tally.add(&out);
            out.fingerprint()
        })
        .collect();
    let peak_rss = peak_rss_mb();
    println!(
        "# digest {workload} {} failed={}",
        combine(&reference),
        tally.failed
    );

    let start = Instant::now();
    let mut run_s = Vec::new();
    while run_s.len() < MIN_REPEATS || start.elapsed() < budget {
        drop(setup_slice(workload, seed, scale, &mut setup_s));
        let mut total = 0.0;
        for (run, expected) in runs.iter().zip(&reference) {
            let t = Instant::now();
            let out = black_box(run.simulate());
            total += t.elapsed().as_secs_f64();
            tally.add(&out);
            tally.expect(&run.plan.label, &out.fingerprint(), expected);
        }
        run_s.push(total);
    }
    println!(
        "# timed {workload}: {} repeats, {} set-ups, run_s quartiles {:.4} {:.4} {:.4} {:.4} {:.4}",
        run_s.len(),
        setup_s.len(),
        quantile(&run_s, 0.0),
        quantile(&run_s, 0.25),
        quantile(&run_s, 0.5),
        quantile(&run_s, 0.75),
        quantile(&run_s, 1.0),
    );

    BenchResult {
        correct: tally.correct(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            Metric::new("run_s", "s", median(&run_s)),
            Metric::new("setup_s", "s", median(&setup_s)),
            Metric::new("peak_rss_mb", "MiB", peak_rss),
        ],
    }
}
