//! Corridor-scale admission: 10,000 decision requests spread over 8
//! policy shards — the workload shape of `exp_grid_sweep`'s K = 8 points —
//! decided serially inline, one at a time, as each corridor IM does.
//!
//! One agreement gate runs before anything is timed: a corridor
//! transcript gate pinning the windowed-parallel engine (DESIGN.md §7) to
//! the serial engine's full outcome at 2/4/8 shard workers.
//!
//! Self-timed (`harness = false`); run with `cargo bench --bench grid`.
//! `ci.sh` runs it with `CROSSROADS_SWEEP_FAST=1`, which keeps the
//! agreement gate and skips the timing loop.

use crossroads_bench::timing::{bench_table_header, measure};
use crossroads_bench::{
    emit_micro_bench, fast_sweep, run_grid_point_sharded, GridPoint, GRID_SEED,
};
use crossroads_core::policy::{CrossroadsPolicy, IntersectionPolicy, PolicyKind};
use crossroads_core::{BufferModel, CrossingCommand, CrossingRequest};
use crossroads_intersection::{
    Approach, ConflictTable, IntersectionGeometry, Movement, ReservationTable, Turn,
};
use crossroads_metrics::BenchPoint;
use crossroads_units::{Meters, MetersPerSecond, Seconds, TimePoint};
use crossroads_vehicle::{VehicleId, VehicleSpec};
use std::hint::black_box;
use std::sync::Arc;

/// Corridor shards (the K = 8 headline of `exp_grid_sweep`).
const SHARDS: usize = 8;
/// Decision requests per pass.
const REQUESTS: usize = 10_000;

fn request(v: u32, t: f64) -> CrossingRequest {
    CrossingRequest {
        vehicle: VehicleId(v),
        movement: Movement::new(Approach::ALL[(v % 4) as usize], Turn::Straight),
        spec: VehicleSpec::full_scale(),
        transmitted_at: TimePoint::new(t),
        distance_to_intersection: Meters::new(100.0),
        speed: MetersPerSecond::new(10.0),
        stopped: false,
        attempt: 1,
        proposed_arrival: None,
        platoon_followers: 0,
        platoon_gap: Meters::ZERO,
    }
}

/// The full request stream: `(shard, request)` pairs, round-robin over
/// shards, arrival clock advancing 50 ms per request.
fn stream() -> Vec<(usize, CrossingRequest)> {
    (0..REQUESTS)
        .map(|i| {
            #[allow(clippy::cast_possible_truncation)]
            let v = i as u32;
            #[allow(clippy::cast_precision_loss)]
            let t = i as f64 * 0.05;
            (i % SHARDS, request(v, t))
        })
        .collect()
}

/// Every shard's reservation table shares the one conflict table behind
/// an `Arc` — the geometry is immutable, so cloning the table per shard
/// would only duplicate memory.
fn fresh_shards(conflicts: &Arc<ConflictTable>) -> Vec<CrossroadsPolicy> {
    (0..SHARDS)
        .map(|_| {
            CrossroadsPolicy::new(
                IntersectionGeometry::full_scale(),
                ReservationTable::new(Arc::clone(conflicts)),
                BufferModel::full_scale(),
                0.30,
            )
        })
        .collect()
}

/// Decision time the corridor uses: 50 ms after transmission.
fn now_for(req: &CrossingRequest) -> TimePoint {
    req.transmitted_at + Seconds::from_millis(50.0)
}

/// Every request decided inline, in stream order, exactly as each
/// corridor IM does.
fn serial_pass(
    shards: &mut [CrossroadsPolicy],
    reqs: &[(usize, CrossingRequest)],
) -> Vec<CrossingCommand> {
    reqs.iter()
        .map(|(s, req)| {
            let cmd = shards[*s].decide(req, now_for(req));
            shards[*s].on_exit(req.vehicle, now_for(req) + Seconds::new(4.0));
            cmd
        })
        .collect()
}

fn main() {
    let conflicts = Arc::new(ConflictTable::compute(
        &IntersectionGeometry::full_scale(),
        Meters::new(1.8),
    ));
    let reqs = stream();

    // Corridor transcript gate: the windowed-parallel engine must
    // reproduce the serial engine's outcome bit for bit — records,
    // counters, audits, end time — before any admission timing below is
    // worth reading. Runs in quick mode too (`ci.sh` relies on it).
    let gate = GridPoint {
        policy: PolicyKind::Crossroads,
        k: 4,
        rate: 0.08,
    };
    let serial = run_grid_point_sharded(&gate, GRID_SEED, 0);
    for workers in [2usize, 4, 8] {
        let windowed = run_grid_point_sharded(&gate, GRID_SEED, workers);
        assert!(
            windowed.metrics.records() == serial.metrics.records()
                && windowed.metrics.counters() == serial.metrics.counters()
                && windowed.ended_at == serial.ended_at
                && windowed.handoffs == serial.handoffs
                && windowed.safety == serial.safety,
            "corridor transcript diverged on {workers} shard workers"
        );
    }
    println!(
        "corridor transcript: windowed == serial over {} vehicles at K=4 x {{2,4,8}} shard workers\n",
        serial.spawned
    );
    if fast_sweep() {
        // ci.sh quick mode: the agreement gate above is the contract;
        // skip the timing loop.
        return;
    }

    bench_table_header("grid_admission_10k");

    let mut shards = fresh_shards(&conflicts);
    let m = measure("serial_10k", || {
        black_box(serial_pass(&mut shards, black_box(&reqs))).len()
    });
    println!(
        "| serial_10k | {} | {:.1} ns | {:.1} ns | {} |",
        m.human_median(),
        m.min_ns,
        m.max_ns,
        m.iters_per_sample
    );
    let point = BenchPoint {
        label: String::from("serial_10k"),
        wall_ms: m.median_ns / 1e6,
        events: m.iters_per_sample,
    };

    emit_micro_bench("bench_grid", point.wall_ms, &[point]);
}
