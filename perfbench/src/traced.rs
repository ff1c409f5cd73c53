//! The traced pass: per-layer metrics, each layer timed from outside by
//! calling its public function on the same run's inputs, with a span
//! recorded around every call.
//!
//! Spans come from this file only, not from inside the simulator; the
//! layer counts come from `RunMetrics::counters()` and from the flight
//! recorder of a traced re-run.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossroads_core::policy::{AimPolicy, CrossroadsPolicy, IntersectionPolicy, VtPolicy};
use crossroads_core::sim::{BoxOccupancy, SafetyReport, SimConfig};
use crossroads_core::{CrossingCommand, CrossingRequest, PolicyKind};
use crossroads_intersection::{ConflictTable, ReservationTable};
use crossroads_metrics::{run_to_json, Counters};
use crossroads_trace::{Recorder, Trace, TraceEvent, Verdict};
use crossroads_units::{Meters, Seconds, TimePoint};
use crossroads_vehicle::VehicleId;

use crate::check::combine;
use crate::report::{median, nproc, quantile, ratio, BenchResult, Metric};
use crate::timed::Tally;
use crate::workload::{plans, Case, Outcome, Run, Scale, Workload};

/// One timed interval of the traced pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Repeat of the workload this span belongs to; all spans of one
    /// repeat share it.
    pub run: usize,
    /// What was called.
    pub name: String,
    /// Index of the enclosing span, `None` for a repeat's root.
    pub parent: Option<usize>,
    /// Seconds since the pass started.
    pub start_s: f64,
    /// Seconds since the pass started; equals `start_s` while open.
    pub end_s: f64,
}

/// Spans kept in memory until the pass ends.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// Opens a span and returns its index.
    pub fn open(&mut self, run: usize, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            run,
            name: name.into(),
            parent,
            start_s: now,
            end_s: now,
        });
        self.spans.len() - 1
    }

    /// Closes span `index` and returns its duration in seconds.
    pub fn close(&mut self, index: usize) -> f64 {
        let span = &mut self.spans[index];
        span.end_s = self.epoch.elapsed().as_secs_f64();
        span.end_s - span.start_s
    }

    /// Runs `f` inside a new span; returns its value and duration.
    pub fn time<T>(
        &mut self,
        run: usize,
        name: &str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let index = self.open(run, name, Some(parent));
        let value = black_box(f());
        (value, self.close(index))
    }

    /// Every span recorded, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as one JSON array.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\": {i}, \"run\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_s\": {:?}, \"end_s\": {:?}}}",
                s.run, s.name, s.start_s, s.end_s
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// Exact layer counts of one repeat, summed over the workload's calls.
/// They must be identical in every repeat.
#[derive(Debug, Clone, Default, PartialEq)]
struct Counts {
    /// The simulator's own counters.
    counters: Counters,
    arrivals: u64,
    uplinks: u64,
    verdicts: u64,
    grants: u64,
    occupancies: u64,
    trace_records: u64,
    export_bytes: u64,
    handoffs: u64,
    completed: u64,
    wait_sum: f64,
    flow_sum: f64,
}

/// Host times of one repeat, summed over the workload's calls.
#[derive(Debug, Clone, Copy, Default)]
struct Times {
    generate_s: f64,
    run_s: f64,
    audit_s: f64,
    export_s: f64,
    windowed_s: f64,
    traced_s: f64,
    fixed_s: f64,
    decide_p50_ns: f64,
    decide_p99_ns: f64,
}

/// Builds the policy a run's IM uses. A copy of the crate-private
/// `SimConfig::build_policy` in `crates/core/src/sim/mod.rs`: it must
/// follow every change there. The self-test checks each policy kind's
/// first replayed verdict against the program's own first verdict.
fn build_policy(sim: &SimConfig, conflicts: &Arc<ConflictTable>) -> Box<dyn IntersectionPolicy> {
    match sim.policy {
        PolicyKind::VtIm => Box::new(VtPolicy::new(
            sim.geometry,
            ReservationTable::new(Arc::clone(conflicts)),
            sim.buffers,
            sim.crawl_fraction,
        )),
        PolicyKind::Crossroads => Box::new(CrossroadsPolicy::new(
            sim.geometry,
            ReservationTable::new(Arc::clone(conflicts)),
            sim.buffers,
            sim.crawl_fraction,
        )),
        PolicyKind::Aim => Box::new(
            AimPolicy::new(
                sim.geometry,
                sim.buffers,
                sim.aim_grid_side,
                sim.aim_sim_step,
            )
            .with_analytic(sim.aim_analytic),
        ),
    }
}

/// The verdict the flight recorder stores for a command (as the
/// simulator flattens it: a `V_T = 0` velocity transaction is a stop).
fn verdict_of(cmd: &CrossingCommand) -> Verdict {
    match cmd {
        CrossingCommand::VtTarget { target_speed, .. } => {
            if target_speed.value() > 0.0 {
                Verdict::VtGo
            } else {
                Verdict::VtStop
            }
        }
        CrossingCommand::Crossroads { .. } => Verdict::Crossroads,
        CrossingCommand::AimAccept { .. } => Verdict::AimAccept,
        CrossingCommand::AimReject => Verdict::AimReject,
    }
}

/// Granted box entry of an accepting command.
fn granted_entry(cmd: &CrossingCommand) -> Option<TimePoint> {
    if !cmd.is_acceptance() {
        return None;
    }
    match *cmd {
        CrossingCommand::VtTarget {
            scheduled_entry, ..
        } => Some(scheduled_entry),
        CrossingCommand::Crossroads { arrival, .. } | CrossingCommand::AimAccept { arrival } => {
            Some(arrival)
        }
        CrossingCommand::AimReject => None,
    }
}

/// One replayed request: a vehicle's passage through one intersection
/// (a leg), as the program ran it.
#[derive(Debug, Clone, Copy)]
struct Leg {
    im: usize,
    request: CrossingRequest,
    /// When the IM decides: the line crossing plus the uplink-to-decision
    /// latency the program measured for this leg's first decided request.
    decide_at: TimePoint,
    /// Box dwell the program measured for this leg.
    dwell: Seconds,
}

/// The legs a run decided, in decision order, taken from the run's own
/// outcome and flight-recorder trace.
///
/// Every leg with a recorded decision is replayed once, at the IM it
/// crossed: a corridor's through vehicles load every IM on their way.
/// A leg starts at its line crossing — the arrival's for the entry leg,
/// the previous leg's box exit plus the link time after a handoff, at
/// the line speed the simulator gives each leg — and is decided after
/// the `DecisionExit − UplinkSend` latency of the first request the
/// program decided for it. Legs never decided (non-V2I vehicles,
/// platoon followers) are not replayed, and a leader's request books the
/// leader alone.
fn legs(run: &Run, out: &Outcome, trace: &Trace) -> Vec<Leg> {
    let sim = run.plan.sim();
    let link_time = match &run.plan.case {
        Case::Corridor(c) => c.link_time,
        Case::Single(_) => Seconds::ZERO,
    };
    let mut sent: HashMap<(u32, u32, u32), TimePoint> = HashMap::new();
    let mut decided: HashMap<(u32, u32), Seconds> = HashMap::new();
    for r in &trace.records {
        match r.event {
            TraceEvent::UplinkSend { .. } => {
                sent.entry((r.vehicle, r.im, r.attempt)).or_insert(r.at);
            }
            TraceEvent::DecisionExit { .. } => {
                if let Some(&at) = sent.get(&(r.vehicle, r.im, r.attempt)) {
                    decided.entry((r.vehicle, r.im)).or_insert(r.at - at);
                }
            }
            _ => {}
        }
    }
    // Every leg of every vehicle, in the order it drove them.
    let mut driven: HashMap<u32, Vec<(usize, &BoxOccupancy)>> = HashMap::new();
    for (im, report) in out.safety.iter().enumerate() {
        for occ in report.occupancies() {
            driven.entry(occ.vehicle.0).or_default().push((im, occ));
        }
    }
    let distance = sim.geometry.transmission_line_distance;
    let mut legs = Vec::new();
    for arrival in &run.arrivals {
        let Some(driven) = driven.get_mut(&arrival.vehicle.0) else {
            continue;
        };
        driven.sort_by(|a, b| a.1.entered.value().total_cmp(&b.1.entered.value()));
        let mut line_at = arrival.at_line;
        let mut speed = arrival.speed;
        for &(im, occ) in driven.iter() {
            if let Some(&delay) = decided.get(&(arrival.vehicle.0, im as u32)) {
                legs.push(Leg {
                    im,
                    request: CrossingRequest {
                        vehicle: arrival.vehicle,
                        movement: occ.movement,
                        spec: sim.spec,
                        transmitted_at: line_at,
                        distance_to_intersection: distance,
                        speed,
                        stopped: false,
                        attempt: 1,
                        proposed_arrival: (sim.policy == PolicyKind::Aim)
                            .then(|| line_at + distance / speed),
                        platoon_followers: 0,
                        platoon_gap: Meters::ZERO,
                    },
                    decide_at: line_at + delay,
                    dwell: occ.exited - occ.entered,
                });
            }
            line_at = occ.exited + link_time;
            speed = sim.typical_line_speed();
        }
    }
    legs.sort_by(|a, b| {
        a.decide_at
            .value()
            .total_cmp(&b.decide_at.value())
            .then(a.im.cmp(&b.im))
            .then(a.request.vehicle.0.cmp(&b.request.vehicle.0))
    });
    legs
}

/// What the decision replay measured.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Host nanoseconds of each replayed decision.
    pub ns: Vec<f64>,
    /// Verdict of the first replayed decision.
    pub first_verdict: Option<Verdict>,
}

/// Replays a run's legs (see [`legs`]) as first-attempt requests against
/// policies built from the run's `SimConfig`, one per intersection, and
/// times each `decide` + `prune`, including the `on_exit` calls of
/// earlier grants that fell due before it. A granted leg reports its
/// exit at its granted entry plus the box dwell the program measured.
#[must_use]
pub fn replay_decisions(run: &Run, out: &Outcome, trace: &Trace) -> Replay {
    let sim = run.plan.sim();
    let conflicts = Arc::new(ConflictTable::compute(&sim.geometry, sim.spec.width));
    let mut policies: Vec<Box<dyn IntersectionPolicy>> = (0..run.plan.intersections())
        .map(|_| build_policy(sim, &conflicts))
        .collect();
    // Min-heap of (exit time bits, intersection, vehicle); exit times are
    // non-negative, where bit order is numeric order.
    let mut exits: BinaryHeap<Reverse<(u64, usize, u32)>> = BinaryHeap::new();
    let legs = legs(run, out, trace);
    let mut replay = Replay {
        ns: Vec::with_capacity(legs.len()),
        first_verdict: None,
    };
    for leg in &legs {
        let now = leg.decide_at;
        let t = Instant::now();
        while let Some(&Reverse((bits, exit_im, vehicle))) = exits.peek() {
            let at = TimePoint::new(f64::from_bits(bits));
            if at > now {
                break;
            }
            exits.pop();
            policies[exit_im].on_exit(VehicleId(vehicle), at);
        }
        let policy = &mut policies[leg.im];
        let cmd = policy.decide(black_box(&leg.request), now);
        policy.prune(now);
        #[allow(clippy::cast_precision_loss)]
        replay.ns.push(t.elapsed().as_nanos() as f64);
        replay.first_verdict.get_or_insert(verdict_of(&cmd));
        if let Some(entry) = granted_entry(&cmd) {
            let exit = (entry + leg.dwell).value().max(now.value());
            exits.push(Reverse((exit.to_bits(), leg.im, leg.request.vehicle.0)));
        }
    }
    replay
}

/// The same call with only its first vehicle: what a call costs before
/// any traffic (world, conflict table, policies, audit).
fn first_vehicle(run: &Run) -> Run {
    Run {
        plan: run.plan.clone(),
        arrivals: run.arrivals[..1].to_vec(),
        entry_ims: run.entry_ims[..1].to_vec(),
    }
}

/// Whether a recorded verdict let the vehicle cross.
fn is_grant(verdict: Verdict) -> bool {
    matches!(
        verdict,
        Verdict::VtGo | Verdict::Crossroads | Verdict::AimAccept
    )
}

/// Runs the traced pass for about `budget` (at least one repeat) and
/// reports every per-layer metric. Layers a workload does not exercise
/// (the windowed engine on a single intersection) report 0.
#[must_use]
pub fn traced_pass(
    workload: Workload,
    seed: u64,
    scale: Scale,
    budget: Duration,
) -> (BenchResult, Spans) {
    let workers = nproc();
    let mut spans = Spans::default();
    let mut tally = Tally::default();
    let mut reference: Option<Counts> = None;
    let mut samples: Vec<Times> = Vec::new();
    let mut calls = 0;
    let start = Instant::now();
    while samples.is_empty() || start.elapsed() < budget {
        let rep = samples.len();
        let root = spans.open(rep, format!("workload {workload}"), None);
        let (plans, _) = spans.time(rep, "configure", root, || plans(workload, seed, scale));
        let (runs, generate_s): (Vec<Run>, f64) = spans.time(rep, "generate", root, || {
            plans.into_iter().map(|p| p.generate(scale)).collect()
        });
        calls = runs.len();
        let mut counts = Counts::default();
        let mut times = Times {
            generate_s,
            ..Times::default()
        };
        let mut decide_ns = Vec::new();
        let mut fingerprints = Vec::new();
        for run in &runs {
            let label = &run.plan.label;
            let parent = spans.open(rep, format!("call {label}"), Some(root));
            let sim = run.plan.sim();

            let (out, run_s) = spans.time(rep, "run", parent, || run.simulate());
            times.run_s += run_s;
            tally.add(&out);
            let fp = out.fingerprint();
            fingerprints.push(fp.clone());
            let c = out.metrics.counters();
            counts.counters.absorb(c);
            counts.arrivals += run.arrivals.len() as u64;
            counts.handoffs += out.handoffs;
            counts.completed += out.metrics.completed() as u64;
            counts.wait_sum += out
                .metrics
                .records()
                .iter()
                .map(|r| r.wait().value())
                .sum::<f64>();
            counts.flow_sum += out.metrics.flow_rate();

            let occupancies: Vec<_> = out
                .safety
                .iter()
                .map(|r| r.occupancies().to_vec())
                .collect();
            counts.occupancies += occupancies.iter().map(|o| o.len() as u64).sum::<u64>();
            let (replayed, audit_s) = spans.time(rep, "audit", parent, || {
                occupancies
                    .into_iter()
                    .map(|occ| SafetyReport::audit(occ, &sim.geometry, &sim.spec))
                    .collect::<Vec<_>>()
            });
            times.audit_s += audit_s;
            let replayed: Vec<usize> = replayed.iter().map(|r| r.violations().len()).collect();
            if replayed != fp.violations {
                println!(
                    "# AUDIT MISMATCH {label}: run {:?}, replay {replayed:?}",
                    fp.violations
                );
                tally.deterministic = false;
            }

            let (json, export_s) = spans.time(rep, "export", parent, || run_to_json(&out.metrics));
            times.export_s += export_s;
            counts.export_bytes += json.len() as u64;

            let (windowed, windowed_s) = spans.time(rep, "windowed_run", parent, || {
                run.simulate_windowed(workers)
            });
            if let Some(windowed) = windowed {
                times.windowed_s += windowed_s;
                tally.expect(&format!("{label} windowed"), &windowed.fingerprint(), &fp);
            }

            // The recorder writes fewer records than the run dispatches
            // events (0.7 per event on corridor_aim); twice the events
            // leaves room, and an overflow marks the result incorrect.
            let capacity = usize::try_from(c.des_events).unwrap_or(usize::MAX / 8) * 2 + 4096;
            let mut recorder = Recorder::fixed(capacity);
            let (traced, traced_s) = spans.time(rep, "traced_run", parent, || {
                run.simulate_traced(&mut recorder)
            });
            times.traced_s += traced_s;
            tally.expect(&format!("{label} traced"), &traced.fingerprint(), &fp);
            if recorder.dropped() > 0 {
                println!(
                    "# TRACE OVERFLOW {label}: {} records dropped",
                    recorder.dropped()
                );
                tally.deterministic = false;
            }
            let trace = recorder.into_trace();
            counts.trace_records += trace.records.len() as u64;
            for record in &trace.records {
                match record.event {
                    TraceEvent::UplinkSend { .. } => counts.uplinks += 1,
                    TraceEvent::DecisionExit { verdict, .. } => {
                        counts.verdicts += 1;
                        counts.grants += u64::from(is_grant(verdict));
                    }
                    _ => {}
                }
            }

            let (replay, _) = spans.time(rep, "decide_replay", parent, || {
                replay_decisions(run, &out, &trace)
            });
            decide_ns.extend(replay.ns);

            let first = first_vehicle(run);
            let (_, fixed_s) = spans.time(rep, "one_vehicle_run", parent, || first.simulate());
            times.fixed_s += fixed_s;
            spans.close(parent);
        }
        spans.close(root);
        if rep == 0 {
            println!("# digest {workload} {}", combine(&fingerprints));
        }
        times.decide_p50_ns = quantile(&decide_ns, 0.5);
        times.decide_p99_ns = quantile(&decide_ns, 0.99);
        match &reference {
            None => reference = Some(counts),
            Some(expected) if *expected != counts => {
                println!("# NONDETERMINISTIC counts in repeat {rep}: {expected:?} vs {counts:?}");
                tally.deterministic = false;
            }
            Some(_) => {}
        }
        samples.push(times);
    }
    println!("# traced {workload}: {} repeats", samples.len());
    let counts = reference.expect("at least one repeat");
    #[allow(clippy::cast_precision_loss)]
    let failed_ratio = ratio(tally.failed as f64, tally.attempted as f64);
    let result = BenchResult {
        correct: tally.correct(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: layer_metrics(&counts, &samples, calls, failed_ratio),
    };
    (result, spans)
}

/// The per-layer metrics, named as in `BENCHMARK.json`.
#[allow(clippy::cast_precision_loss)]
fn layer_metrics(
    counts: &Counts,
    samples: &[Times],
    calls: usize,
    failed_ratio: f64,
) -> Vec<Metric> {
    let med = |f: fn(&Times) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let per_rep = |f: fn(&Times) -> f64, g: fn(&Times) -> f64| {
        median(
            &samples
                .iter()
                .map(|t| ratio(f(t), g(t)))
                .collect::<Vec<_>>(),
        )
    };
    let n = |v: u64| v as f64;
    let c = &counts.counters;
    let vehicles = n(counts.arrivals);
    vec![
        Metric::new("traffic.generate_s", "s", med(|t| t.generate_s)),
        Metric::new("traffic.arrivals", "count", vehicles),
        Metric::new("des.events", "count", n(c.des_events)),
        Metric::new(
            "des.events_per_vehicle",
            "count",
            ratio(n(c.des_events), vehicles),
        ),
        Metric::new(
            "des.events_per_uplink",
            "count",
            ratio(n(c.des_events), n(counts.uplinks)),
        ),
        Metric::new(
            "des.events_per_s",
            "1/s",
            ratio(n(c.des_events), med(|t| t.run_s)),
        ),
        Metric::new("policy.decisions", "count", n(c.im_requests)),
        Metric::new("policy.ops", "count", n(c.im_ops)),
        Metric::new(
            "policy.requests_per_vehicle",
            "count",
            ratio(n(c.im_requests), vehicles),
        ),
        Metric::new(
            "policy.grant_ratio",
            "ratio",
            ratio(n(counts.grants), n(counts.verdicts)),
        ),
        Metric::new("policy.decide_ns.p50", "ns", med(|t| t.decide_p50_ns)),
        Metric::new("policy.decide_ns.p99", "ns", med(|t| t.decide_p99_ns)),
        Metric::new("net.frames", "count", n(c.messages)),
        Metric::new("net.frames_lost", "count", n(c.messages_lost)),
        Metric::new(
            "net.frames_per_vehicle",
            "count",
            ratio(n(c.messages), vehicles),
        ),
        Metric::new("fault.burst_losses", "count", n(c.burst_losses)),
        Metric::new("fault.deadline_misses", "count", n(c.deadline_misses)),
        Metric::new("fault.fallback_stops", "count", n(c.fallback_stops)),
        Metric::new("fault.outage_drops", "count", n(c.im_outage_drops)),
        Metric::new("audit.s", "s", med(|t| t.audit_s)),
        Metric::new("audit.occupancies", "count", n(counts.occupancies)),
        Metric::new("audit.share", "ratio", per_rep(|t| t.audit_s, |t| t.run_s)),
        Metric::new("filter.interventions", "count", n(c.filter_interventions)),
        Metric::new(
            "filter.noncompliant_conflicts",
            "count",
            n(c.noncompliant_conflicts),
        ),
        Metric::new(
            "mixed.emergency_preemptions",
            "count",
            n(c.emergency_preemptions),
        ),
        Metric::new("platoon.formed", "count", n(c.platoons_formed)),
        Metric::new("platoon.grants", "count", n(c.platoon_grants)),
        Metric::new("platoon.fallbacks", "count", n(c.platoon_fallbacks)),
        Metric::new("windowed.run_s", "s", med(|t| t.windowed_s)),
        Metric::new(
            "windowed.speedup",
            "ratio",
            per_rep(|t| t.run_s, |t| t.windowed_s),
        ),
        Metric::new("metrics.export_s", "s", med(|t| t.export_s)),
        Metric::new("metrics.export_bytes", "bytes", n(counts.export_bytes)),
        Metric::new("trace.records", "count", n(counts.trace_records)),
        Metric::new("trace.run_s", "s", med(|t| t.traced_s)),
        Metric::new(
            "trace.overhead",
            "ratio",
            per_rep(|t| t.traced_s, |t| t.run_s),
        ),
        Metric::new("traced_pass.run_s", "s", med(|t| t.run_s)),
        Metric::new("call.fixed_s", "s", med(|t| t.fixed_s)),
        Metric::new(
            "call.fixed_share",
            "ratio",
            per_rep(|t| t.fixed_s, |t| t.run_s),
        ),
        Metric::new("failed_ratio", "ratio", failed_ratio),
        Metric::new(
            "sim.avg_wait_s",
            "s",
            ratio(counts.wait_sum, n(counts.completed)),
        ),
        Metric::new(
            "sim.vehicles_per_hour",
            "1/h",
            ratio(counts.flow_sum * 3600.0, calls as f64),
        ),
        Metric::new("sim.handoffs", "count", n(counts.handoffs)),
    ]
}
