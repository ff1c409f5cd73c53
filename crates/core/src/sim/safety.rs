//! Post-hoc safety auditing.
//!
//! The simulator records each vehicle's *executed* motion plan through
//! the box. The audit then replays every pair of temporally overlapping
//! crossings and sweeps their physical footprints (oriented rectangles,
//! no buffers) along their paths, flagging any instant of geometric
//! overlap — the ground-truth safety property all three IMs must uphold,
//! and the property VT-IM loses when its RTD buffer is disabled (the
//! paper's Ch. 4 argument, reproduced as failure injection).
//!
//! Box-interval overlap alone is *not* a violation: AIM legitimately
//! platoons same-lane vehicles and interleaves spatially disjoint
//! crossings inside the box — that is precisely its tile-level advantage.

use crossroads_intersection::{IntersectionGeometry, Movement, MovementPath};
use crossroads_units::{Meters, MetersPerSecond, OrientedRect, Seconds, TimePoint};
use crossroads_vehicle::{SpeedProfile, VehicleId, VehicleSpec};

/// One vehicle's physical presence in the box: the time window plus the
/// executed longitudinal plan, so positions can be replayed exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxOccupancy {
    /// Who.
    pub vehicle: VehicleId,
    /// Which movement it executed.
    pub movement: Movement,
    /// Front bumper entered the box.
    pub entered: TimePoint,
    /// Rear bumper cleared the box.
    pub exited: TimePoint,
    /// The executed longitudinal profile (path position measured from the
    /// transmission line).
    pub profile: SpeedProfile,
    /// Path position of the box entry in the profile's coordinate (the
    /// transmission-line distance).
    pub line_offset: Meters,
}

impl BoxOccupancy {
    /// Front-bumper path position relative to box entry at time `t`.
    #[must_use]
    pub fn front_at(&self, t: TimePoint) -> Meters {
        self.profile.position_at(t) - self.line_offset
    }
}

/// A pair of vehicles whose physical footprints overlapped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SafetyViolation {
    /// First vehicle (earlier entry).
    pub first: VehicleId,
    /// Second vehicle.
    pub second: VehicleId,
    /// First instant of contact observed.
    pub at: TimePoint,
}

/// The audit result.
#[derive(Debug, Clone, PartialEq)]
pub struct SafetyReport {
    occupancies: Vec<BoxOccupancy>,
    violations: Vec<SafetyViolation>,
}

/// Audit sampling step: 5 ms resolves any contact lasting longer than the
/// blink of a bumper at scale speeds.
const AUDIT_STEP: Seconds = Seconds::new(0.005);

impl SafetyReport {
    /// Audits a completed run by geometric replay of the bare vehicle
    /// bodies (no margin): flags actual bumper contact.
    #[must_use]
    pub fn audit(
        occupancies: Vec<BoxOccupancy>,
        geometry: &IntersectionGeometry,
        spec: &VehicleSpec,
    ) -> Self {
        Self::audit_with_margin(occupancies, geometry, spec, Meters::ZERO)
    }

    /// Audits with every footprint inflated by `margin` on all sides.
    ///
    /// This is the *guarantee-level* check: an IM that claims safety under
    /// a position uncertainty of `margin` must keep the inflated envelopes
    /// exclusive. With the correct buffers the reproduction passes at
    /// `margin = E_long`; strip VT-IM's RTD buffer and it fails (Ch. 4).
    ///
    /// Pairs are found by a sweep over entry times: occupancies are sorted
    /// by box entry once, and an active set retains only those whose
    /// windows are still open, so pairs whose box intervals cannot overlap
    /// in time are never geometrically tested — O(n log n + k) candidate
    /// generation against the exhaustive audit's O(n²), with `k` the
    /// number of genuinely co-resident pairs. The geometric replay per
    /// candidate, the violation set and its order are identical to
    /// [`audit_exhaustive_with_margin`](Self::audit_exhaustive_with_margin).
    #[must_use]
    pub fn audit_with_margin(
        occupancies: Vec<BoxOccupancy>,
        geometry: &IntersectionGeometry,
        spec: &VehicleSpec,
        margin: Meters,
    ) -> Self {
        let paths = MovementPaths::new(geometry);
        // Sweep: visit occupancies in entry order, keeping an active set
        // of earlier entries whose exit lies beyond the current entry.
        let mut by_entry: Vec<usize> = (0..occupancies.len()).collect();
        by_entry.sort_by(|&i, &j| {
            occupancies[i]
                .entered
                .total_cmp(occupancies[j].entered)
                .then_with(|| i.cmp(&j))
        });
        let mut active: Vec<usize> = Vec::new();
        let mut candidates: Vec<(usize, usize)> = Vec::new();
        for &j in &by_entry {
            let enter = occupancies[j].entered;
            active.retain(|&i| occupancies[i].exited > enter);
            for &i in &active {
                candidates.push((i.min(j), i.max(j)));
            }
            active.push(j);
        }
        // Replay candidates in index order — the exhaustive audit's pair
        // order — so the reported violations match it byte for byte.
        candidates.sort_unstable();
        let mut violations = Vec::new();
        for &(i, j) in &candidates {
            let (a, b) = (&occupancies[i], &occupancies[j]);
            if let Some(violation) = check_pair(a, b, &paths, spec, margin) {
                violations.push(violation);
            }
        }
        SafetyReport {
            occupancies,
            violations,
        }
    }

    /// The seed's exhaustive pairwise audit, kept verbatim as the
    /// reference implementation: every pair is interval-tested, O(n²).
    /// Property tests and `benches/des.rs` cross-check the sweep-pruned
    /// [`audit_with_margin`](Self::audit_with_margin) against it.
    #[must_use]
    pub fn audit_exhaustive_with_margin(
        occupancies: Vec<BoxOccupancy>,
        geometry: &IntersectionGeometry,
        spec: &VehicleSpec,
        margin: Meters,
    ) -> Self {
        let paths = MovementPaths::new(geometry);
        let mut violations = Vec::new();
        for (i, a) in occupancies.iter().enumerate() {
            for b in &occupancies[i + 1..] {
                if let Some(violation) = check_pair(a, b, &paths, spec, margin) {
                    violations.push(violation);
                }
            }
        }
        SafetyReport {
            occupancies,
            violations,
        }
    }

    /// No physical contact was observed.
    #[must_use]
    pub fn is_safe(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violating pairs.
    #[must_use]
    pub fn violations(&self) -> &[SafetyViolation] {
        &self.violations
    }

    /// The raw occupancy log.
    #[must_use]
    pub fn occupancies(&self) -> &[BoxOccupancy] {
        &self.occupancies
    }
}

/// One replayable path per movement, indexed by [`Movement::index`] and
/// shared by both audit variants (and cached by the runtime safety
/// filter, which runs the same pair test online, before actuation,
/// instead of post-hoc).
#[derive(Debug, Clone)]
pub struct MovementPaths([MovementPath; 12]);

impl MovementPaths {
    /// Builds the path of every movement through `geometry`.
    #[must_use]
    pub fn new(geometry: &IntersectionGeometry) -> Self {
        let all = Movement::all();
        MovementPaths(std::array::from_fn(|i| {
            let m = all
                .iter()
                .find(|m| m.index() == i)
                .expect("Movement::index maps the 12 movements onto 0..12");
            MovementPath::new(geometry, *m)
        }))
    }

    /// The path `movement` follows.
    #[must_use]
    pub fn get(&self, movement: Movement) -> &MovementPath {
        &self.0[movement.index()]
    }
}

/// The per-pair test both audits share: interval overlap, then contact
/// search. Returns the violation (entry-ordered vehicle pair, first
/// contact instant) if the footprints ever touch.
///
/// Same-movement straight pairs get the *exact* first-contact time: both
/// bodies ride the same straight line with identical headings, so contact
/// reduces to the 1-D separation condition and
/// [`first_gap_violation`](crossroads_vehicle::first_gap_violation)
/// solves the crossing in closed form. Every other pair (curved paths,
/// distinct movements) keeps the sampled rectangle march
/// ([`first_contact`], pruned by a reach and closing-speed bound), which
/// the property suite pins against the closed form on the shared domain.
pub(crate) fn check_pair(
    a: &BoxOccupancy,
    b: &BoxOccupancy,
    paths: &MovementPaths,
    spec: &VehicleSpec,
    margin: Meters,
) -> Option<SafetyViolation> {
    let start = a.entered.max(b.entered);
    let end = a.exited.min(b.exited);
    if end <= start {
        return None; // never inside together
    }
    let at =
        if a.movement == b.movement && a.movement.turn == crossroads_intersection::Turn::Straight {
            let gap = spec.length + margin * 2.0;
            crossroads_vehicle::first_gap_violation(
                &a.profile,
                &b.profile,
                b.line_offset - a.line_offset,
                gap,
                start,
                end,
            )?
        } else {
            first_contact(a, b, paths, spec, margin, start, end)?
        };
    let (first, second) = if a.entered <= b.entered {
        (a.vehicle, b.vehicle)
    } else {
        (b.vehicle, a.vehicle)
    };
    Some(SafetyViolation { first, second, at })
}

fn footprint(
    occ: &BoxOccupancy,
    path: &MovementPath,
    spec: &VehicleSpec,
    margin: Meters,
    t: TimePoint,
) -> OrientedRect {
    let front = occ.front_at(t);
    let center_s = front - spec.length / 2.0;
    let (center, heading) = path.pose_at(center_s);
    OrientedRect {
        center,
        heading,
        length: spec.length + margin * 2.0,
        width: spec.width + margin * 2.0,
    }
}

/// First sampled instant in `[start, end]` at which the two footprints
/// (inflated by `margin`) touch, on the 5 ms grid `start, start + step,
/// …` accumulated by repeated addition — the same samples and verdict as
/// [`first_contact_marched`], with most samples skipped unevaluated.
///
/// Two bounds make the skipping exact:
///
/// - Each footprint lies within its circumradius of its centre, so a
///   sample whose centres are farther apart than the two circumradii
///   (padded by a relative 1e-9 for the rectangle test's rounding)
///   cannot touch and needs no rectangle test.
/// - A footprint centre moves along its path no faster than its vehicle,
///   so the centre distance shrinks no faster than the sum of the two
///   profiles' maximum speeds (padded by a relative 1e-6). Every
///   later sample that this closing speed cannot bring within reach is
///   skipped without evaluating either pose.
pub fn first_contact(
    a: &BoxOccupancy,
    b: &BoxOccupancy,
    paths: &MovementPaths,
    spec: &VehicleSpec,
    margin: Meters,
    start: TimePoint,
    end: TimePoint,
) -> Option<TimePoint> {
    let (pa, pb) = (paths.get(a.movement), paths.get(b.movement));
    let length = spec.length + margin * 2.0;
    let width = spec.width + margin * 2.0;
    // Twice one circumradius: both bodies share the spec.
    let reach = length.value().hypot(width.value()) * (1.0 + REACH_PAD);
    let closing = (max_speed(&a.profile) + max_speed(&b.profile)) * (1.0 + SPEED_PAD);
    let mut t = start;
    while t <= end {
        let ra = footprint(a, pa, spec, margin, t);
        let rb = footprint(b, pb, spec, margin, t);
        let gap = ra.center.distance_to(rb.center).value() - reach;
        if gap <= 0.0 {
            if ra.intersects(&rb) {
                return Some(t);
            }
            t += AUDIT_STEP;
            continue;
        }
        let from = t;
        t += AUDIT_STEP;
        while t <= end && (t - from).value() * closing < gap {
            t += AUDIT_STEP;
        }
    }
    None
}

/// The plain 5 ms march: a rectangle test at every sample. Kept as the
/// oracle the property suite and `benches/des.rs` hold
/// [`first_contact`] to, bit for bit.
pub fn first_contact_marched(
    a: &BoxOccupancy,
    b: &BoxOccupancy,
    paths: &MovementPaths,
    spec: &VehicleSpec,
    margin: Meters,
    start: TimePoint,
    end: TimePoint,
) -> Option<TimePoint> {
    let (pa, pb) = (paths.get(a.movement), paths.get(b.movement));
    let mut t = start;
    while t <= end {
        let ra = footprint(a, pa, spec, margin, t);
        let rb = footprint(b, pb, spec, margin, t);
        if ra.intersects(&rb) {
            return Some(t);
        }
        t += AUDIT_STEP;
    }
    None
}

/// Relative pad on the contact reach: far above the rectangle test's
/// rounding (a few ulps of the coordinates), far below a sample's motion.
const REACH_PAD: f64 = 1e-9;

/// Relative pad on the closing-speed bound, absorbing the rounding of
/// profile positions and of the accumulated sample instants.
const SPEED_PAD: f64 = 1e-6;

/// An upper bound on the profile's speed at any instant (m/s): speed is
/// piecewise linear between phase boundaries and constant outside them.
fn max_speed(profile: &SpeedProfile) -> f64 {
    profile
        .phases()
        .iter()
        .flat_map(|p| [p.v0, p.exit_speed()])
        .chain([
            profile.speed_at(profile.start_time()),
            profile.final_speed(),
        ])
        .map(MetersPerSecond::value)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossroads_intersection::{Approach, Turn};

    fn geometry() -> IntersectionGeometry {
        IntersectionGeometry::scale_model()
    }

    fn spec() -> VehicleSpec {
        VehicleSpec::scale_model()
    }

    /// An occupancy crossing at constant speed, entering the box at
    /// `enter` (profile coordinates start at the box entry: offset 0).
    fn occ(v: u32, a: Approach, turn: Turn, enter: f64, speed: f64) -> BoxOccupancy {
        let g = geometry();
        let s = spec();
        let total = g.path_length(Movement::new(a, turn)) + s.length;
        let profile = SpeedProfile::starting_at(
            TimePoint::new(enter),
            Meters::ZERO,
            MetersPerSecond::new(speed),
        );
        BoxOccupancy {
            vehicle: VehicleId(v),
            movement: Movement::new(a, turn),
            entered: TimePoint::new(enter),
            exited: TimePoint::new(enter + total.value() / speed),
            profile,
            line_offset: Meters::ZERO,
        }
    }

    fn audit(occs: Vec<BoxOccupancy>) -> SafetyReport {
        SafetyReport::audit(occs, &geometry(), &spec())
    }

    #[test]
    fn disjoint_crossings_are_safe() {
        let r = audit(vec![
            occ(1, Approach::South, Turn::Straight, 0.0, 1.5),
            occ(2, Approach::East, Turn::Straight, 3.0, 1.5),
        ]);
        assert!(r.is_safe());
    }

    #[test]
    fn simultaneous_perpendicular_straights_collide() {
        // Both fronts hit the common crossing point together.
        let r = audit(vec![
            occ(1, Approach::South, Turn::Straight, 0.0, 1.5),
            occ(2, Approach::East, Turn::Straight, 0.0, 1.5),
        ]);
        assert!(
            !r.is_safe(),
            "perpendicular simultaneous crossings must touch"
        );
        assert_eq!(r.violations().len(), 1);
    }

    #[test]
    fn opposing_straights_pass_cleanly() {
        let r = audit(vec![
            occ(1, Approach::South, Turn::Straight, 0.0, 1.5),
            occ(2, Approach::North, Turn::Straight, 0.0, 1.5),
        ]);
        assert!(r.is_safe(), "opposing lanes are laterally separated");
    }

    #[test]
    fn same_lane_following_with_gap_is_safe() {
        // 1.2 s headway at 1.5 m/s = 1.8 m gap >> 0.568 m body.
        let r = audit(vec![
            occ(1, Approach::South, Turn::Straight, 0.0, 1.5),
            occ(2, Approach::South, Turn::Straight, 1.2, 1.5),
        ]);
        assert!(r.is_safe(), "platooning with a body-length gap is legal");
    }

    #[test]
    fn same_lane_tailgating_collides() {
        // 0.2 s headway at 1.5 m/s = 0.3 m gap < 0.568 m body: contact.
        let r = audit(vec![
            occ(1, Approach::South, Turn::Straight, 0.0, 1.5),
            occ(2, Approach::South, Turn::Straight, 0.2, 1.5),
        ]);
        assert!(!r.is_safe());
        assert_eq!(r.violations()[0].first, VehicleId(1));
    }

    #[test]
    fn staggered_perpendicular_crossings_are_safe() {
        // The east-bound vehicle crosses the shared point well after the
        // south one has passed it, though both are briefly in the box.
        let r = audit(vec![
            occ(1, Approach::South, Turn::Straight, 0.0, 3.0),
            occ(2, Approach::East, Turn::Straight, 0.55, 3.0),
        ]);
        assert!(
            r.is_safe(),
            "temporally staggered crossings through disjoint space are safe: {:?}",
            r.violations()
        );
    }

    #[test]
    fn front_at_tracks_profile() {
        let o = occ(1, Approach::South, Turn::Straight, 2.0, 1.5);
        assert!((o.front_at(TimePoint::new(2.0)).value()).abs() < 1e-12);
        assert!((o.front_at(TimePoint::new(3.0)).value() - 1.5).abs() < 1e-12);
    }
}
