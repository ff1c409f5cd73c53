//! DES engine hot paths: the run-plus-heap cancellable event queue
//! against the seed's `BinaryHeap` + tombstone-set queue, the pruned
//! first-contact march against the plain 5 ms march, and the
//! sweep-pruned safety audit against the exhaustive pairwise reference.
//!
//! Before any timing, the bench **hard-asserts** engine-vs-oracle
//! agreement on randomized workloads — pop transcripts and `cancel`
//! return values against the seed queue (including a corridor-shaped
//! workload: a presorted arrival stream, then mixed traffic), and
//! first-contact instants against the plain march. `ci.sh` runs it with
//! `CROSSROADS_SWEEP_FAST=1`, which keeps those gates and skips the
//! timing loops, so every CI pass re-proves both rewrites exact.
//!
//! Self-timed (`harness = false`); run with `cargo bench --bench des`.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::hint::black_box;

use crossroads_bench::fast_sweep;
use crossroads_bench::timing::{bench, bench_table_header};
use crossroads_core::sim::safety::{first_contact, first_contact_marched, MovementPaths};
use crossroads_core::sim::{BoxOccupancy, SafetyReport};
use crossroads_core::BufferModel;
use crossroads_des::EventQueue;
use crossroads_intersection::{IntersectionGeometry, Movement};
use crossroads_prng::{Rng, SeedableRng, StdRng};
use crossroads_units::{Meters, MetersPerSecond, TimePoint};
use crossroads_vehicle::{SpeedProfile, VehicleId, VehicleSpec};

// ---------------------------------------------------------------------
// The seed's event queue, embedded verbatim as the bench baseline: a
// max-heap of inverted (time, seq) entries plus a `live` tombstone set.
// Cancellation is O(1) but leaves the entry in the heap; `pop` reaps
// cancelled entries as they surface.
// ---------------------------------------------------------------------

struct SeedEntry<E> {
    at: TimePoint,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for SeedEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<E> Eq for SeedEntry<E> {}

impl<E> Ord for SeedEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .partial_cmp(&self.at)
            .expect("event timestamps are finite")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for SeedEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

struct SeedQueue<E> {
    heap: BinaryHeap<SeedEntry<E>>,
    live: HashSet<u64>,
    next_seq: u64,
}

impl<E> SeedQueue<E> {
    fn new() -> Self {
        SeedQueue {
            heap: BinaryHeap::new(),
            live: HashSet::new(),
            next_seq: 0,
        }
    }

    fn schedule(&mut self, at: TimePoint, payload: E) -> u64 {
        assert!(at.is_finite(), "event timestamp must be finite, got {at}");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.insert(seq);
        self.heap.push(SeedEntry { at, seq, payload });
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        self.live.remove(&seq)
    }

    fn pop(&mut self) -> Option<(TimePoint, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.live.remove(&entry.seq) {
                return Some((entry.at, entry.payload));
            }
            // Cancelled: drop and keep reaping.
        }
        None
    }
}

// ---------------------------------------------------------------------
// Randomized queue workloads, replayed identically on both queues.
// ---------------------------------------------------------------------

/// One queue operation; `Cancel` picks among the handles issued so far.
#[derive(Clone, Copy)]
enum Op {
    Schedule(f64),
    /// Schedule this long after the last popped instant, as a handler
    /// schedules its follow-ups.
    ScheduleIn(f64),
    Cancel(usize),
    Pop,
}

/// A reproducible interleaving with roughly `cancel_frac` of the issued
/// events cancelled, biased toward scheduling so queues stay populated.
fn gen_ops(seed: u64, n: usize, cancel_frac: f64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let roll = rng.gen_range(0.0..1.0);
        if roll < 0.5 {
            ops.push(Op::Schedule(rng.gen_range(0.0..1e4)));
        } else if roll < 0.5 + cancel_frac {
            #[allow(clippy::cast_possible_truncation)]
            ops.push(Op::Cancel((rng.next_u64() % (1 << 32)) as usize));
        } else {
            ops.push(Op::Pop);
        }
    }
    ops
}

/// A workload shaped like `run_corridor`: `arrivals` presorted arrival
/// events scheduled up front, then handler traffic — follow-ups a short
/// delay after the current instant (45%), timer cancellations (15%),
/// pops (40%) — so a working set of live timers builds up beside the
/// arrival stream.
fn gen_corridor_ops(seed: u64, arrivals: usize, n: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = 0.0;
    let mut ops: Vec<Op> = (0..arrivals)
        .map(|_| {
            at += rng.gen_range(0.0..0.2);
            Op::Schedule(at)
        })
        .collect();
    for _ in 0..n {
        let roll = rng.gen_range(0.0..1.0);
        if roll < 0.45 {
            // Equal-time ties against run entries: follow-ups at delay 0.
            let delay = if roll < 0.05 {
                0.0
            } else {
                rng.gen_range(0.0..0.4)
            };
            ops.push(Op::ScheduleIn(delay));
        } else if roll < 0.6 {
            #[allow(clippy::cast_possible_truncation)]
            ops.push(Op::Cancel((rng.next_u64() % (1 << 32)) as usize));
        } else {
            ops.push(Op::Pop);
        }
    }
    ops
}

/// Replays `ops` on the indexed queue, returning the pop transcript
/// (time bits + payload) and every cancel verdict.
fn run_indexed(ops: &[Op]) -> (Vec<(u64, usize)>, Vec<bool>) {
    let mut q: EventQueue<usize> = EventQueue::new();
    let mut ids = Vec::new();
    let mut payload = 0usize;
    let mut pops = Vec::new();
    let mut cancels = Vec::new();
    let mut now = 0.0;
    for &op in ops {
        match op {
            Op::Schedule(at) => {
                ids.push(q.schedule(TimePoint::new(at), payload));
                payload += 1;
            }
            Op::ScheduleIn(delay) => {
                ids.push(q.schedule(TimePoint::new(now + delay), payload));
                payload += 1;
            }
            Op::Cancel(pick) if !ids.is_empty() => {
                cancels.push(q.cancel(ids[pick % ids.len()]));
            }
            Op::Cancel(_) => {}
            Op::Pop => {
                if let Some((at, e)) = q.pop() {
                    now = at.value();
                    pops.push((at.value().to_bits(), e));
                }
            }
        }
    }
    while let Some((at, e)) = q.pop() {
        pops.push((at.value().to_bits(), e));
    }
    (pops, cancels)
}

/// Replays `ops` on the seed queue; same transcript shape.
fn run_seed(ops: &[Op]) -> (Vec<(u64, usize)>, Vec<bool>) {
    let mut q: SeedQueue<usize> = SeedQueue::new();
    let mut ids = Vec::new();
    let mut payload = 0usize;
    let mut pops = Vec::new();
    let mut cancels = Vec::new();
    let mut now = 0.0;
    for &op in ops {
        match op {
            Op::Schedule(at) => {
                ids.push(q.schedule(TimePoint::new(at), payload));
                payload += 1;
            }
            Op::ScheduleIn(delay) => {
                ids.push(q.schedule(TimePoint::new(now + delay), payload));
                payload += 1;
            }
            Op::Cancel(pick) if !ids.is_empty() => {
                cancels.push(q.cancel(ids[pick % ids.len()]));
            }
            Op::Cancel(_) => {}
            Op::Pop => {
                if let Some((at, e)) = q.pop() {
                    now = at.value();
                    pops.push((at.value().to_bits(), e));
                }
            }
        }
    }
    while let Some((at, e)) = q.pop() {
        pops.push((at.value().to_bits(), e));
    }
    (pops, cancels)
}

/// The correctness gate: on many randomized interleavings, and on
/// corridor-shaped workloads, the indexed queue's pop transcript and
/// cancel verdicts must equal the seed's.
fn assert_queue_agreement() {
    let random = (0..32u64).map(|seed| (seed, gen_ops(seed, 400, 0.25)));
    let corridor = (0..4u64).map(|seed| (100 + seed, gen_corridor_ops(seed, 10_000, 40_000)));
    for (seed, ops) in random.chain(corridor) {
        let (pops_new, cancels_new) = run_indexed(&ops);
        let (pops_seed, cancels_seed) = run_seed(&ops);
        assert_eq!(
            pops_new, pops_seed,
            "pop transcript diverged from the seed queue (seed {seed})"
        );
        assert_eq!(
            cancels_new, cancels_seed,
            "cancel verdicts diverged from the seed queue (seed {seed})"
        );
    }
    println!(
        "queue agreement: indexed == seed on 32 randomized interleavings \
         and 4 corridor-shaped workloads (10k presorted arrivals)"
    );
}

// ---------------------------------------------------------------------
// Randomized audit workloads.
// ---------------------------------------------------------------------

/// A constant-speed crossing entering the box at `enter`.
fn occupancy(v: u32, movement: Movement, enter: f64, speed: f64) -> BoxOccupancy {
    let g = IntersectionGeometry::scale_model();
    let s = VehicleSpec::scale_model();
    let total = g.path_length(movement) + s.length;
    BoxOccupancy {
        vehicle: VehicleId(v),
        movement,
        entered: TimePoint::new(enter),
        exited: TimePoint::new(enter + total.value() / speed),
        profile: SpeedProfile::starting_at(
            TimePoint::new(enter),
            Meters::ZERO,
            MetersPerSecond::new(speed),
        ),
        line_offset: Meters::ZERO,
    }
}

/// `n` random crossings over a span that grows with `n`, holding the
/// temporal density (and thus the co-residency rate the sweep prunes
/// against) roughly constant at the experiments' regime: ~0.5 box
/// entries per second, as in the mid-range Fig. 7.2 sweep points, where
/// each crossing is co-resident with a handful of neighbours and almost
/// every one of the n²/2 exhaustive pairs is temporally disjoint.
fn random_occupancies(seed: u64, n: usize) -> Vec<BoxOccupancy> {
    let mut rng = StdRng::seed_from_u64(seed);
    let movements = Movement::all();
    #[allow(clippy::cast_precision_loss)]
    let span = n as f64 * 2.0;
    (0..n)
        .map(|i| {
            #[allow(clippy::cast_possible_truncation)]
            let m = movements[(rng.next_u64() % 12) as usize];
            let enter = rng.gen_range(0.0..span);
            let speed = rng.gen_range(0.5..3.0);
            #[allow(clippy::cast_possible_truncation)]
            occupancy(i as u32, m, enter, speed)
        })
        .collect()
}

/// The audit gate: on every temporally overlapping pair of randomized
/// traffic, at the bare-body and the guarantee-level margin, the pruned
/// first-contact march must return the plain march's instant bit for
/// bit. (The sweep and exhaustive audits both call the pruned march, so
/// comparing them would not guard it; `tests/sweep_audit.rs` pins their
/// pair pruning.)
fn assert_audit_agreement() {
    let g = IntersectionGeometry::scale_model();
    let s = VehicleSpec::scale_model();
    let paths = MovementPaths::new(&g);
    let (mut pairs, mut contacts) = (0usize, 0usize);
    for seed in 0..8u64 {
        let occs = random_occupancies(seed, 64);
        for margin in [Meters::ZERO, BufferModel::scale_model().e_long] {
            for_each_overlap(&occs, |a, b, start, end| {
                let pruned = first_contact(a, b, &paths, &s, margin, start, end);
                let plain = first_contact_marched(a, b, &paths, &s, margin, start, end);
                assert_eq!(
                    pruned.map(|t| t.value().to_bits()),
                    plain.map(|t| t.value().to_bits()),
                    "pruned march diverged from the plain march (seed {seed}, vehicles {} and {})",
                    a.vehicle.0,
                    b.vehicle.0,
                );
                pairs += 1;
                contacts += usize::from(plain.is_some());
            });
        }
    }
    assert!(contacts > 0, "the gate must exercise contacts");
    println!(
        "audit agreement: pruned == plain march on {pairs} overlapping pairs ({contacts} contacts)"
    );
}

/// Calls `f` on every pair whose box windows overlap, with the overlap.
fn for_each_overlap(
    occs: &[BoxOccupancy],
    mut f: impl FnMut(&BoxOccupancy, &BoxOccupancy, TimePoint, TimePoint),
) {
    for (i, a) in occs.iter().enumerate() {
        for b in &occs[i + 1..] {
            let (start, end) = (a.entered.max(b.entered), a.exited.min(b.exited));
            if start < end {
                f(a, b, start, end);
            }
        }
    }
}

fn main() {
    assert_queue_agreement();
    assert_audit_agreement();
    if fast_sweep() {
        println!("quick mode: correctness gates only, timing loops skipped");
        return;
    }

    bench_table_header("des_queue");

    // Pure schedule-then-drain: no cancellations, the common case.
    for n in [256usize, 1024, 4096] {
        let ops = gen_ops(7, n * 2, 0.0);
        bench(&format!("schedule_drain_seed/{n}"), || {
            run_seed(black_box(&ops)).0.len()
        });
        bench(&format!("schedule_drain_indexed/{n}"), || {
            run_indexed(black_box(&ops)).0.len()
        });
    }

    // Cancel-heavy interleavings: the protocol's retransmission-timer
    // pattern (nearly every scheduled timeout is cancelled). The seed
    // queue carries every tombstone to the top of the heap before
    // reaping; the indexed queue evicts on the spot.
    for n in [256usize, 1024, 4096] {
        let ops = gen_ops(11, n * 2, 0.45);
        bench(&format!("cancel_heavy_seed/{n}"), || {
            run_seed(black_box(&ops)).0.len()
        });
        bench(&format!("cancel_heavy_indexed/{n}"), || {
            run_indexed(black_box(&ops)).0.len()
        });
    }

    // Corridor-shaped: a 10k presorted arrival stream the run absorbs,
    // then handler traffic against a small live working set.
    let ops = gen_corridor_ops(5, 10_000, 40_000);
    bench("corridor_seed/10000", || run_seed(black_box(&ops)).0.len());
    bench("corridor_indexed/10000", || {
        run_indexed(black_box(&ops)).0.len()
    });

    bench_table_header("safety_audit");

    let g = IntersectionGeometry::scale_model();
    let s = VehicleSpec::scale_model();
    let paths = MovementPaths::new(&g);
    let occs = random_occupancies(3, 256);
    bench("march_plain/256", || {
        let mut hits = 0usize;
        for_each_overlap(black_box(&occs), |a, b, start, end| {
            let hit = first_contact_marched(a, b, &paths, &s, Meters::ZERO, start, end);
            hits += usize::from(hit.is_some());
        });
        hits
    });
    bench("march_pruned/256", || {
        let mut hits = 0usize;
        for_each_overlap(black_box(&occs), |a, b, start, end| {
            let hit = first_contact(a, b, &paths, &s, Meters::ZERO, start, end);
            hits += usize::from(hit.is_some());
        });
        hits
    });
    for n in [64usize, 256, 1024, 4096] {
        let occs = random_occupancies(3, n);
        bench(&format!("audit_pairwise/{n}"), || {
            SafetyReport::audit_exhaustive_with_margin(
                black_box(occs.clone()),
                &g,
                &s,
                Meters::ZERO,
            )
            .violations()
            .len()
        });
        bench(&format!("audit_sweep/{n}"), || {
            SafetyReport::audit_with_margin(black_box(occs.clone()), &g, &s, Meters::ZERO)
                .violations()
                .len()
        });
    }
}
