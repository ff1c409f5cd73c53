//! Property tests for the event queue and simulation executive.

use crossroads_check::{bools, ck_assert, ck_assert_eq, forall, vec};
use crossroads_des::{EventQueue, Popped, Simulation};
use crossroads_units::TimePoint;

/// The obviously-correct reference queue: a flat vector scanned for the
/// minimum `(time, seq)` on every pop, with cancellation by removal. The
/// model test below drives it in lockstep with the indexed heap.
#[derive(Default)]
struct NaiveQueue {
    /// `(at, seq, payload)` for every live event.
    entries: Vec<(f64, u64, usize)>,
    next_seq: u64,
}

impl NaiveQueue {
    /// Returns the sequence number as the cancellation handle.
    fn schedule(&mut self, at: f64, payload: usize) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push((at, seq, payload));
        seq
    }

    fn cancel(&mut self, handle: u64) -> bool {
        match self.entries.iter().position(|&(_, seq, _)| seq == handle) {
            Some(i) => {
                self.entries.remove(i);
                true
            }
            None => false,
        }
    }

    /// Index of the earliest live entry by `(time, seq)`.
    fn first(&self) -> Option<usize> {
        self.entries
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(i, _)| i)
    }

    fn peek(&self) -> Option<f64> {
        self.first().map(|i| self.entries[i].0)
    }

    fn pop(&mut self) -> Option<(f64, usize)> {
        let (at, _, payload) = self.entries.remove(self.first()?);
        Some((at, payload))
    }

    /// Pops the earliest entry if `take(time)` holds, reporting like
    /// [`Popped`] as `(kind, time bits, payload)`.
    fn pop_if(&mut self, take: impl Fn(f64) -> bool) -> (u8, u64, usize) {
        match self.peek() {
            None => (0, 0, 0),
            Some(at) if !take(at) => (1, at.to_bits(), 0),
            Some(_) => {
                let (at, e) = self.pop().expect("peeked");
                (2, at.to_bits(), e)
            }
        }
    }
}

/// [`Popped`] flattened to the naive model's `(kind, time bits, payload)`.
fn flatten(p: Popped<usize>) -> (u8, u64, usize) {
    match p {
        Popped::Empty => (0, 0, 0),
        Popped::Beyond(at) => (1, at.value().to_bits(), 0),
        Popped::Event(at, e) => (2, at.value().to_bits(), e),
    }
}

forall! {
    /// Popping always yields nondecreasing timestamps, whatever the
    /// insertion order.
    fn pops_are_time_sorted(times in vec(0.0f64..1e6, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(TimePoint::new(t), i);
        }
        let mut last = f64::NEG_INFINITY;
        while let Some((at, _)) = q.pop() {
            ck_assert!(at.value() >= last);
            last = at.value();
        }
    }

    /// Equal-timestamp events preserve insertion order (stability), which is
    /// the determinism guarantee the protocol traces rely on.
    fn equal_times_are_fifo(n in 1usize..300) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(TimePoint::new(7.0), i);
        }
        let popped: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        ck_assert_eq!(popped, (0..n).collect::<Vec<_>>());
    }

    /// Cancelled events never surface; everything else does, exactly once.
    fn cancellation_is_exact(
        times in vec(0.0f64..1e3, 1..100),
        cancel_mask in vec(bools(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, q.schedule(TimePoint::new(t), i)))
            .collect();
        let mut expect: Vec<usize> = Vec::new();
        for (i, id) in &ids {
            if cancel_mask.get(*i).copied().unwrap_or(false) {
                ck_assert!(q.cancel(*id));
            } else {
                expect.push(*i);
            }
        }
        let mut popped: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        popped.sort_unstable();
        expect.sort_unstable();
        ck_assert_eq!(popped, expect);
    }

    /// Model test: random interleavings of schedule / cancel / pop drive
    /// the indexed heap and the naive reference queue in lockstep — pop
    /// transcripts (time bits + payload) and every `cancel` return value
    /// must agree exactly.
    fn indexed_heap_matches_naive_reference(
        ops in vec((0u8..4, 0.0f64..100.0, 0usize..64), 1..150),
    ) {
        let mut queue = EventQueue::new();
        let mut naive = NaiveQueue::default();
        // Parallel handle lists: entry k of each is the same logical event.
        let mut ids = Vec::new();
        let mut handles = Vec::new();
        let mut payload = 0usize;
        for &(op, time, pick) in &ops {
            match op {
                // Two schedule arms to one each of cancel/pop keeps the
                // queues populated enough for cancels to land on live ids.
                0 | 1 => {
                    ids.push(queue.schedule(TimePoint::new(time), payload));
                    handles.push(naive.schedule(time, payload));
                    payload += 1;
                }
                2 if !ids.is_empty() => {
                    let k = pick % ids.len();
                    ck_assert_eq!(
                        queue.cancel(ids[k]),
                        naive.cancel(handles[k]),
                        "cancel of event {k} disagreed"
                    );
                }
                _ => {
                    let popped = queue.pop().map(|(at, e)| (at.value().to_bits(), e));
                    let expect = naive.pop().map(|(at, e)| (at.to_bits(), e));
                    ck_assert_eq!(popped, expect);
                }
            }
            ck_assert_eq!(queue.raw_len(), naive.entries.len());
        }
        // Drain both: the tails must agree event for event.
        loop {
            let popped = queue.pop().map(|(at, e)| (at.value().to_bits(), e));
            let expect = naive.pop().map(|(at, e)| (at.to_bits(), e));
            ck_assert_eq!(popped, expect);
            if expect.is_none() {
                break;
            }
        }
    }

    /// Model test for the run-plus-heap split: a presorted bulk prefix
    /// (the arrival stream, held by the sorted run) followed by
    /// interleaved traffic, against the naive model. Times sit on a
    /// coarse grid so run and heap entries tie often. The ops cover
    /// schedules at absolute and now-relative times (landing in either
    /// structure), cancels of the earliest, middle and latest live prefix
    /// events (run head, middle, tail), cancels of any handle ever issued
    /// (fired and cancelled ones are stale handles to recycled slots),
    /// plain pops, and `pop_within` / `pop_before` exactly at, one ulp
    /// before and one ulp after the next event's instant. Every result,
    /// `raw_len`, `peek_time` and `is_empty` must agree after every op.
    fn run_and_heap_match_naive_model(
        prefix in vec(0u8..3, 0..80),
        ops in vec((0u8..8, 0usize..1024), 1..200),
    ) {
        let mut queue = EventQueue::new();
        let mut naive = NaiveQueue::default();
        let mut ids = Vec::new();
        let mut handles = Vec::new();
        let mut at = 0.0;
        for &gap in &prefix {
            at += f64::from(gap) * 0.5;
            ids.push(queue.schedule(TimePoint::new(at), ids.len()));
            handles.push(naive.schedule(at, handles.len()));
        }
        let prefix_len = ids.len();
        let mut now = 0.0;
        for &(op, pick) in &ops {
            let grid = |k: usize| (k % 48) as f64 * 0.5;
            match op {
                0 | 1 => {
                    let t = if op == 0 { grid(pick) } else { now + grid(pick % 5) };
                    ids.push(queue.schedule(TimePoint::new(t), ids.len()));
                    handles.push(naive.schedule(t, handles.len()));
                }
                2 if prefix_len > 0 => {
                    // The earliest, a middle and the latest live prefix
                    // event: the run's head, middle and tail.
                    let live: Vec<usize> = (0..prefix_len)
                        .filter(|&k| naive.entries.iter().any(|e| e.1 == handles[k]))
                        .collect();
                    if let Some(&k) = [live.first(), live.get(live.len() / 2), live.last()]
                        [pick % 3]
                    {
                        ck_assert!(queue.cancel(ids[k]));
                        ck_assert!(naive.cancel(handles[k]));
                    }
                }
                3 if !ids.is_empty() => {
                    let k = pick % ids.len();
                    ck_assert_eq!(queue.cancel(ids[k]), naive.cancel(handles[k]));
                }
                4 | 5 => {
                    // Boundary instants around the next event.
                    let next = naive.peek().unwrap_or(now);
                    let edge = [next, next.next_down(), next.next_up()][pick % 3];
                    let (got, expect) = if op == 4 {
                        (queue.pop_within(Some(TimePoint::new(edge))), naive.pop_if(|t| t <= edge))
                    } else {
                        (queue.pop_before(TimePoint::new(edge)), naive.pop_if(|t| t < edge))
                    };
                    ck_assert_eq!(flatten(got), expect);
                    if expect.0 == 2 {
                        now = f64::from_bits(expect.1);
                    }
                }
                _ => {
                    let popped = queue.pop().map(|(at, e)| (at.value().to_bits(), e));
                    let expect = naive.pop().map(|(at, e)| (at.to_bits(), e));
                    ck_assert_eq!(popped, expect);
                    if let Some((bits, _)) = expect {
                        now = f64::from_bits(bits);
                    }
                }
            }
            ck_assert_eq!(queue.raw_len(), naive.entries.len());
            ck_assert_eq!(queue.is_empty(), naive.entries.is_empty());
            ck_assert_eq!(
                queue.peek_time().map(|t| t.value().to_bits()),
                naive.peek().map(f64::to_bits)
            );
        }
        loop {
            let popped = queue.pop().map(|(at, e)| (at.value().to_bits(), e));
            let expect = naive.pop().map(|(at, e)| (at.to_bits(), e));
            ck_assert_eq!(popped, expect);
            if expect.is_none() {
                break;
            }
        }
    }

    /// The simulation clock never goes backwards over any run.
    fn clock_is_monotone(times in vec(0.0f64..1e4, 1..200)) {
        let mut sim: Simulation<()> = Simulation::new();
        for &t in &times {
            sim.schedule(TimePoint::new(t), ());
        }
        let mut last = TimePoint::ZERO;
        sim.run(|sim, ()| {
            assert!(sim.now() >= last);
            last = sim.now();
            true
        });
    }

    /// Two identically seeded schedules produce identical traces
    /// (determinism regression guard).
    fn identical_schedules_identical_traces(times in vec(0.0f64..1e3, 1..100)) {
        let trace = |times: &[f64]| -> Vec<(u64, usize)> {
            let mut sim: Simulation<usize> = Simulation::new();
            for (i, &t) in times.iter().enumerate() {
                sim.schedule(TimePoint::new(t), i);
            }
            let mut out = Vec::new();
            sim.run(|sim, e| {
                out.push((sim.now().value().to_bits(), e));
                true
            });
            out
        };
        ck_assert_eq!(trace(&times), trace(&times));
    }
}

/// Pinned regression for the `total_cmp` heap comparator: `-0.0` and `+0.0`
/// are distinct bit patterns that `partial_cmp` calls equal but `total_cmp`
/// orders `-0.0 < +0.0`. The queue must honor that total order (so the heap
/// comparator is consistent on every representable timestamp) while still
/// breaking exact-bit-pattern ties by insertion order.
#[test]
fn signed_zero_timestamps_pop_in_total_order() {
    let mut q: EventQueue<&'static str> = EventQueue::new();
    q.schedule(TimePoint::new(0.0), "pos-first");
    q.schedule(TimePoint::new(-0.0), "neg-first");
    q.schedule(TimePoint::new(0.0), "pos-second");
    q.schedule(TimePoint::new(-0.0), "neg-second");
    let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
    assert_eq!(
        order,
        ["neg-first", "neg-second", "pos-first", "pos-second"]
    );
}
