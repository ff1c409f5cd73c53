//! The pruned first-contact march must be indistinguishable from the plain
//! 5 ms march it replaces: the same `Option<TimePoint>`, bit for bit.
//!
//! [`first_contact`] skips every sample whose footprint centres are out of
//! reach and every later sample the two vehicles cannot close the gap by;
//! [`first_contact_marched`] tests every sample. The property drives both
//! over random movement pairs, multi-phase speed profiles (including
//! stops), box offsets, windows and margins. The pinned cases cover the
//! window edges (contact at the first sample and exactly at `end`), a
//! grazing contact, a stationary pair whose closing-speed bound is zero,
//! and the filter's guarantee-level margin `e_long`.

use crossroads_check::{ck_assert_eq, forall};
use crossroads_core::sim::safety::{first_contact, first_contact_marched, MovementPaths};
use crossroads_core::sim::BoxOccupancy;
use crossroads_core::BufferModel;
use crossroads_intersection::{Approach, IntersectionGeometry, Movement, Turn};
use crossroads_units::{Meters, MetersPerSecond, MetersPerSecondSquared, Seconds, TimePoint};
use crossroads_vehicle::{SpeedProfile, VehicleId, VehicleSpec};

fn geometry() -> IntersectionGeometry {
    IntersectionGeometry::scale_model()
}

fn spec() -> VehicleSpec {
    VehicleSpec::scale_model()
}

/// An occupancy whose profile starts at `enter` at speed `v0`, holds it
/// for `hold`, then changes to `v1` at `rate`; its front bumper is
/// `line_offset` short of the box at `enter`. The box window is left
/// open: the callers pass the march window explicitly.
fn occ(
    v: u32,
    movement: Movement,
    enter: f64,
    line_offset: f64,
    (v0, hold, v1, rate): (f64, f64, f64, f64),
) -> BoxOccupancy {
    let mut profile = SpeedProfile::starting_at(
        TimePoint::new(enter),
        Meters::ZERO,
        MetersPerSecond::new(v0),
    );
    profile.push_hold(Seconds::new(hold));
    profile.push_speed_change(MetersPerSecond::new(v1), MetersPerSecondSquared::new(rate));
    BoxOccupancy {
        vehicle: VehicleId(v),
        movement,
        entered: TimePoint::new(enter),
        exited: TimePoint::new(enter + 60.0),
        profile,
        line_offset: Meters::new(line_offset),
    }
}

/// A constant-speed occupancy entering the box at `enter`.
fn cruise(v: u32, movement: Movement, enter: f64, speed: f64) -> BoxOccupancy {
    occ(v, movement, enter, 0.0, (speed, 0.0, speed, 1.0))
}

fn movement(i: usize) -> Movement {
    Movement::new(Approach::ALL[i / 3 % 4], Turn::ALL[i % 3])
}

/// Both marches over `[start, end]`, as raw time bits.
fn both(
    a: &BoxOccupancy,
    b: &BoxOccupancy,
    margin: Meters,
    start: f64,
    end: f64,
) -> (Option<u64>, Option<u64>) {
    let paths = MovementPaths::new(&geometry());
    let (start, end) = (TimePoint::new(start), TimePoint::new(end));
    let bits = |t: Option<TimePoint>| t.map(|t| t.value().to_bits());
    (
        bits(first_contact(a, b, &paths, &spec(), margin, start, end)),
        bits(first_contact_marched(
            a,
            b,
            &paths,
            &spec(),
            margin,
            start,
            end,
        )),
    )
}

forall! {
    /// Random pairs: movements, entries, box offsets, hold-then-change
    /// profiles (a zero target speed is a stop), windows and margins.
    fn pruned_march_matches_plain_march(
        movements in (0usize..12, 0usize..12),
        enter in (0.0f64..2.0, 0.0f64..2.0),
        offsets in (0.0f64..1.0, 0.0f64..1.0),
        profiles in (
            (0.0f64..3.0, 0.0f64..1.5, 0.0f64..3.0, 0.5f64..3.0),
            (0.0f64..3.0, 0.0f64..1.5, 0.0f64..3.0, 0.5f64..3.0),
        ),
        window in (0.0f64..4.0, 0.0f64..0.3),
    ) {
        let a = occ(1, movement(movements.0), enter.0, offsets.0, profiles.0);
        let b = occ(2, movement(movements.1), enter.1, offsets.1, profiles.1);
        let (span, margin) = window;
        let start = enter.0.max(enter.1);
        let (pruned, plain) = both(&a, &b, Meters::new(margin), start, start + span);
        ck_assert_eq!(pruned, plain);
    }
}

#[test]
fn contact_at_the_first_sample() {
    // 0.1 s behind at 1.5 m/s: 0.15 m apart, well inside one body length.
    let m = movement(0);
    let (a, b) = (cruise(1, m, 0.0, 1.5), cruise(2, m, 0.1, 1.5));
    let (pruned, plain) = both(&a, &b, Meters::ZERO, 0.1, 1.0);
    assert_eq!(pruned, Some(0.1f64.to_bits()));
    assert_eq!(pruned, plain);
}

#[test]
fn contact_exactly_at_the_window_end() {
    // Perpendicular straights entering together: out of reach at the
    // start, so the pruned march skips up to the contact sample.
    let a = cruise(1, Movement::new(Approach::South, Turn::Straight), 0.0, 1.5);
    let b = cruise(2, Movement::new(Approach::East, Turn::Straight), 0.0, 1.5);
    let (_, hit) = both(&a, &b, Meters::ZERO, 0.0, 3.0);
    let hit = f64::from_bits(hit.expect("simultaneous perpendicular crossings touch"));
    assert!(hit > 0.0);
    let (pruned, plain) = both(&a, &b, Meters::ZERO, 0.0, hit);
    assert_eq!(pruned, Some(hit.to_bits()));
    assert_eq!(pruned, plain);
    // One ulp short of the contact sample, neither march reaches it.
    let (pruned, plain) = both(&a, &b, Meters::ZERO, 0.0, hit.next_down());
    assert_eq!((pruned, plain), (None, None));
}

#[test]
fn grazing_contact_agrees() {
    // Opposing straights pass with a lateral gap of 2·lane_offset; the
    // inflated bodies just touch at margin = lane_offset − width/2.
    let a = cruise(1, Movement::new(Approach::South, Turn::Straight), 0.0, 1.5);
    let b = cruise(2, Movement::new(Approach::North, Turn::Straight), 0.0, 1.5);
    let graze = geometry().lane_offset().value() - spec().width.value() / 2.0;
    let (touch, _) = both(&a, &b, Meters::new(graze + 1e-6), 0.0, 2.0);
    let (clear, _) = both(&a, &b, Meters::new(graze - 1e-6), 0.0, 2.0);
    assert!(
        touch.is_some() && clear.is_none(),
        "{graze} is the grazing margin"
    );
    for k in -4i32..=4 {
        let margin = graze + f64::from(k) * 1e-13;
        let (pruned, plain) = both(&a, &b, Meters::new(margin), 0.0, 2.0);
        assert_eq!(pruned, plain, "margin {margin}");
    }
}

#[test]
fn stationary_pair_agrees() {
    // Both at rest: the closing-speed bound is zero, so one out-of-reach
    // sample clears the whole window. Hits and misses must both occur.
    let (south, east) = (
        Movement::new(Approach::South, Turn::Straight),
        Movement::new(Approach::East, Turn::Straight),
    );
    let (mut hits, mut misses) = (0, 0);
    for i in 0..14 {
        for j in 0..14 {
            let parked = |v, m, s: f64| occ(v, m, 0.0, -s, (0.0, 0.0, 0.0, 1.0));
            let (a, b) = (
                parked(1, south, 0.1 * f64::from(i)),
                parked(2, east, 0.1 * f64::from(j)),
            );
            let (pruned, plain) = both(&a, &b, Meters::ZERO, 0.0, 2.0);
            assert_eq!(pruned, plain, "parked at {i}, {j}");
            match plain {
                Some(t) => {
                    assert_eq!(t, 0.0f64.to_bits());
                    hits += 1;
                }
                None => misses += 1,
            }
        }
    }
    assert!(hits > 0 && misses > 0, "{hits} hits, {misses} misses");
}

#[test]
fn margin_e_long_agrees() {
    // The runtime filter's margin, over every ordered movement pair and a
    // spread of entry offsets.
    let e_long = BufferModel::scale_model().e_long;
    let mut hits = 0;
    for ma in 0..12 {
        for mb in 0..12 {
            for k in 0..6 {
                let lag = 0.15 * f64::from(k);
                let a = cruise(1, movement(ma), 0.0, 1.5);
                let b = cruise(2, movement(mb), lag, 2.0);
                let (pruned, plain) = both(&a, &b, e_long, lag, lag + 2.5);
                assert_eq!(pruned, plain, "movements {ma}/{mb}, lag {lag}");
                hits += usize::from(plain.is_some());
            }
        }
    }
    assert!(hits > 0);
}
