//! Correctness of one simulation call: failures counted against the
//! vehicles spawned, and an exact fingerprint that must repeat whenever
//! the same call is made again.

use std::collections::BTreeSet;
use std::fmt;

use crossroads_metrics::run_to_json;

use crate::workload::Outcome;

/// FNV-1a over `bytes`: a stable, dependency-free 64-bit digest.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The exact, host-independent summary of one outcome. Equal inputs must
/// give equal fingerprints; a speed-only change must leave them as they
/// were.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// FNV-1a of `run_to_json` (aggregates, counters and every record).
    pub digest: u64,
    /// Safety violations found by each intersection's audit.
    pub violations: Vec<usize>,
    /// Completed handoffs between intersections.
    pub handoffs: u64,
    /// DES events dispatched.
    pub des_events: u64,
    /// Requests the IMs decided.
    pub decisions: u64,
    /// Frames offered to the radio.
    pub frames: u64,
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "digest={:016x} violations={:?} handoffs={} events={} decisions={} frames={}",
            self.digest,
            self.violations,
            self.handoffs,
            self.des_events,
            self.decisions,
            self.frames
        )
    }
}

/// Folds the fingerprints of a workload's calls, in call order, into one:
/// a digest over their digests, violations summed per intersection
/// index, and summed counts.
#[must_use]
pub fn combine(fingerprints: &[Fingerprint]) -> Fingerprint {
    let bytes: Vec<u8> = fingerprints
        .iter()
        .flat_map(|fp| fp.digest.to_le_bytes())
        .collect();
    let width = fingerprints
        .iter()
        .map(|fp| fp.violations.len())
        .max()
        .unwrap_or(0);
    let mut violations = vec![0; width];
    for fp in fingerprints {
        for (total, v) in violations.iter_mut().zip(&fp.violations) {
            *total += v;
        }
    }
    Fingerprint {
        digest: fnv1a(&bytes),
        violations,
        handoffs: fingerprints.iter().map(|fp| fp.handoffs).sum(),
        des_events: fingerprints.iter().map(|fp| fp.des_events).sum(),
        decisions: fingerprints.iter().map(|fp| fp.decisions).sum(),
        frames: fingerprints.iter().map(|fp| fp.frames).sum(),
    }
}

impl Outcome {
    /// Stranded vehicles plus the distinct vehicles named in any safety
    /// violation: the numerator of `failed_ratio`.
    #[must_use]
    pub fn failures(&self) -> usize {
        let stranded = self.spawned - self.metrics.completed();
        let violating: BTreeSet<u32> = self
            .safety
            .iter()
            .flat_map(|report| report.violations())
            .flat_map(|v| [v.first.0, v.second.0])
            .collect();
        stranded + violating.len()
    }

    /// The outcome's fingerprint (serializes the whole run once).
    #[must_use]
    pub fn fingerprint(&self) -> Fingerprint {
        let counters = self.metrics.counters();
        Fingerprint {
            digest: fnv1a(run_to_json(&self.metrics).as_bytes()),
            violations: self.safety.iter().map(|r| r.violations().len()).collect(),
            handoffs: self.handoffs,
            des_events: counters.des_events,
            decisions: counters.im_requests,
            frames: counters.messages,
        }
    }
}
