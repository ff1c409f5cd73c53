//! The three benchmark workloads: their configurations, their seeded
//! inputs, and the simulation calls that run them.
//!
//! Every subsystem is switched on through a `with_*` builder and nothing
//! else, and library defaults (engine choice, AIM kernel, filter default)
//! are left as the library sets them, so a change to a default is
//! measured rather than masked.

use std::fmt;

use crossroads_core::sim::{
    run_corridor, run_corridor_traced, run_simulation, run_simulation_traced, CorridorConfig,
    PlatoonConfig, SafetyReport, SimConfig,
};
use crossroads_core::PolicyKind;
use crossroads_metrics::RunMetrics;
use crossroads_net::{FaultConfig, GilbertElliott};
use crossroads_prng::{SeedableRng, StdRng};
use crossroads_trace::Recorder;
use crossroads_traffic::{
    generate_corridor, generate_poisson, Arrival, CorridorDemand, MixedConfig, PoissonConfig,
};
use crossroads_units::Seconds;

/// Intersections in the corridor workloads.
pub const CORRIDOR_K: usize = 8;
/// Arrival rate of each arterial direction, cars/s.
pub const ARTERIAL_RATE: f64 = 0.08;
/// Arrival rate of each cross-traffic lane, cars/s.
pub const CROSS_RATE: f64 = 0.04;
/// Arrival rate per approach lane of the single intersection, cars/s.
/// At 0.1 under faults the queue sits at the knee and event counts swing
/// up to 7× across seeds; 0.08 stays below it except for AIM with
/// platoons (see [`plans`]).
pub const SINGLE_RATE: f64 = 0.08;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// AIM on the K = 8 corridor: DES-, `World`- and policy-heavy, with
    /// most events being queue-blocked re-polls.
    CorridorAim,
    /// VT-IM and Crossroads on the same corridor: light policy and
    /// polling cost, so audit, handoffs and metric merge weigh more.
    CorridorReservation,
    /// One intersection, all three policies, bursty radio faults, once
    /// with hostile mixed traffic behind the safety filter and once with
    /// platoons: the optional subsystems in the hot path.
    SingleAdverse,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::CorridorAim,
        Workload::CorridorReservation,
        Workload::SingleAdverse,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::CorridorAim => "corridor_aim",
            Workload::CorridorReservation => "corridor_reservation",
            Workload::SingleAdverse => "single_adverse",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Vehicles per simulation call, and how many independent realizations
/// each single-intersection configuration runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Vehicles of one corridor run.
    pub corridor_vehicles: u32,
    /// Vehicles of one single-intersection run.
    pub single_vehicles: u32,
    /// Independent realizations of each single-intersection
    /// configuration (`>= 1`).
    pub single_realizations: u32,
}

impl Scale {
    /// The measured size.
    pub const FULL: Scale = Scale {
        corridor_vehicles: 10_000,
        single_vehicles: 125,
        single_realizations: 16,
    };
    /// A size small enough for the self-test.
    pub const TINY: Scale = Scale {
        corridor_vehicles: 400,
        single_vehicles: 120,
        single_realizations: 2,
    };
}

/// How one simulation call is configured.
#[derive(Debug, Clone, Copy)]
pub enum Case {
    /// A `run_corridor` call.
    Corridor(CorridorConfig),
    /// A `run_simulation` call.
    Single(SimConfig),
}

/// One configured simulation call of a workload, before its inputs exist.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Short label, e.g. `AIM/k8` or `VT-IM/mixed#3`.
    pub label: String,
    /// The configuration.
    pub case: Case,
    /// The seed of this call's configuration and arrivals.
    pub seed: u64,
}

/// One simulation call of a workload with its generated inputs.
#[derive(Debug, Clone)]
pub struct Run {
    /// The configured call.
    pub plan: Plan,
    /// Arrivals, sorted by line-crossing time.
    pub arrivals: Vec<Arrival>,
    /// Entry intersection of each arrival (all 0 for a single box).
    pub entry_ims: Vec<u32>,
}

/// The fault grid point `(burst 0.1, outage 1 s)` of the fault sweep:
/// symmetric Gilbert–Elliott bursts, mild duplication, and reordering
/// beyond the WC-RTD so some downlinks miss their deadline.
#[must_use]
pub fn adverse_faults() -> FaultConfig {
    FaultConfig {
        uplink: GilbertElliott::bursty(0.1),
        downlink: GilbertElliott::bursty(0.1),
        duplicate_probability: 0.03,
        reorder_probability: 0.08,
        extra_delay: Seconds::from_millis(220.0),
        outage_start: Seconds::new(5.0),
        outage_duration: Seconds::new(1.0),
        outage_period: Seconds::new(20.0),
    }
}

/// The hostile compliance mix of the mixed-traffic sweep: 8% human, 5%
/// faulty, 2% emergency, faulty vehicles off by up to 30% in speed and
/// 2 s in launch time.
#[must_use]
pub fn hostile_mix() -> MixedConfig {
    let mut mixed = MixedConfig::standard().with_shares(0.08, 0.05, 0.02);
    mixed.speed_error = 0.3;
    mixed.timing_error = Seconds::new(2.0);
    mixed
}

/// The simulation calls of `workload` at `seed`, configured but without
/// inputs (the "configure" step).
///
/// A corridor call uses `seed` itself. Realization `r` of a
/// single-intersection configuration uses `seed × realizations + r`, so
/// one realization is exactly `seed`. Several short realizations rather
/// than one long run: at 0.08 cars/s/lane AIM with platoons under faults
/// sits near its knee, where one long run's event count swings 3× with
/// the seed; the sum over independent realizations does not.
#[must_use]
pub fn plans(workload: Workload, seed: u64, scale: Scale) -> Vec<Plan> {
    let corridor = |policy: PolicyKind| Plan {
        label: format!("{policy}/k{CORRIDOR_K}"),
        case: Case::Corridor(CorridorConfig::new(
            SimConfig::full_scale(policy).with_seed(seed),
            CORRIDOR_K,
        )),
        seed,
    };
    match workload {
        Workload::CorridorAim => vec![corridor(PolicyKind::Aim)],
        Workload::CorridorReservation => {
            vec![corridor(PolicyKind::VtIm), corridor(PolicyKind::Crossroads)]
        }
        Workload::SingleAdverse => {
            let realizations = u64::from(scale.single_realizations);
            let mut plans = Vec::new();
            for r in 0..realizations {
                let seed = seed.wrapping_mul(realizations).wrapping_add(r);
                let base = |policy: PolicyKind| {
                    SimConfig::full_scale(policy)
                        .with_seed(seed)
                        .with_faults(adverse_faults())
                };
                for policy in PolicyKind::ALL {
                    plans.push(Plan {
                        label: format!("{policy}/mixed#{r}"),
                        case: Case::Single(
                            base(policy)
                                .with_mixed(hostile_mix())
                                .with_safety_filter(true),
                        ),
                        seed,
                    });
                }
                for policy in PolicyKind::ALL {
                    plans.push(Plan {
                        label: format!("{policy}/platoon#{r}"),
                        case: Case::Single(base(policy).with_platoons(PlatoonConfig::standard())),
                        seed,
                    });
                }
            }
            plans
        }
    }
}

impl Plan {
    /// The per-intersection configuration.
    #[must_use]
    pub fn sim(&self) -> &SimConfig {
        match &self.case {
            Case::Corridor(c) => &c.sim,
            Case::Single(s) => s,
        }
    }

    /// Intersections the call simulates.
    #[must_use]
    pub fn intersections(&self) -> usize {
        match &self.case {
            Case::Corridor(c) => c.k,
            Case::Single(_) => 1,
        }
    }

    /// Generates this call's arrivals (the "generate" step) with the
    /// sweeps' seed offsets: `seed + 2000` for corridors, `seed + 1000`
    /// for a single intersection.
    #[must_use]
    pub fn generate(self, scale: Scale) -> Run {
        let seed = self.seed;
        let line_speed = self.sim().typical_line_speed();
        let (arrivals, entry_ims) = match &self.case {
            Case::Corridor(c) => {
                let demand = CorridorDemand {
                    k: c.k,
                    arterial_rate: ARTERIAL_RATE,
                    cross_rate: CROSS_RATE,
                    total_vehicles: scale.corridor_vehicles,
                    line_speed,
                    min_headway: Seconds::new(1.0),
                };
                generate_corridor(&demand, &mut StdRng::seed_from_u64(seed.wrapping_add(2000)))
            }
            Case::Single(_) => {
                let poisson = PoissonConfig {
                    total_vehicles: scale.single_vehicles,
                    ..PoissonConfig::sweep_point(SINGLE_RATE, line_speed)
                };
                let arrivals = generate_poisson(
                    &poisson,
                    &mut StdRng::seed_from_u64(seed.wrapping_add(1000)),
                );
                let entry_ims = vec![0; arrivals.len()];
                (arrivals, entry_ims)
            }
        };
        Run {
            plan: self,
            arrivals,
            entry_ims,
        }
    }
}

/// Configures and generates every call of `workload`: the set-up the
/// timed pass measures as `setup_s`.
#[must_use]
pub fn setup(workload: Workload, seed: u64, scale: Scale) -> Vec<Run> {
    plans(workload, seed, scale)
        .into_iter()
        .map(|plan| plan.generate(scale))
        .collect()
}

/// What one simulation call produced, with single-intersection and
/// corridor outcomes in one shape.
#[derive(Debug)]
pub struct Outcome {
    /// Per-vehicle records and load counters.
    pub metrics: RunMetrics,
    /// One post-run safety audit per intersection.
    pub safety: Vec<SafetyReport>,
    /// Vehicles in the workload.
    pub spawned: usize,
    /// Completed intersection-to-intersection handoffs.
    pub handoffs: u64,
}

impl Run {
    /// The untraced simulation call, as a sweep makes it.
    #[must_use]
    pub fn simulate(&self) -> Outcome {
        match &self.plan.case {
            Case::Corridor(c) => corridor_outcome(run_corridor(c, &self.arrivals, &self.entry_ims)),
            Case::Single(s) => single_outcome(run_simulation(s, &self.arrivals)),
        }
    }

    /// The same call with the flight recorder engaged.
    #[must_use]
    pub fn simulate_traced(&self, recorder: &mut Recorder) -> Outcome {
        match &self.plan.case {
            Case::Corridor(c) => corridor_outcome(run_corridor_traced(
                c,
                &self.arrivals,
                &self.entry_ims,
                recorder,
            )),
            Case::Single(s) => single_outcome(run_simulation_traced(s, &self.arrivals, recorder)),
        }
    }

    /// The corridor on the time-windowed engine with `workers` shard
    /// workers; `None` for a single intersection, where that engine never
    /// runs.
    #[must_use]
    pub fn simulate_windowed(&self, workers: usize) -> Option<Outcome> {
        match &self.plan.case {
            Case::Corridor(c) => Some(corridor_outcome(run_corridor(
                &c.with_shard_workers(workers),
                &self.arrivals,
                &self.entry_ims,
            ))),
            Case::Single(_) => None,
        }
    }
}

fn corridor_outcome(out: crossroads_core::sim::CorridorOutcome) -> Outcome {
    Outcome {
        metrics: out.metrics,
        safety: out.safety,
        spawned: out.spawned,
        handoffs: out.handoffs,
    }
}

fn single_outcome(out: crossroads_core::sim::SimOutcome) -> Outcome {
    Outcome {
        metrics: out.metrics,
        safety: vec![out.safety],
        spawned: out.spawned,
        handoffs: 0,
    }
}
