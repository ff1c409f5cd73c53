//! The time-ordered event queue.
//!
//! Two ordered structures share one slab of payload slots:
//!
//! - an indexed binary min-heap of **inline keys** `(at, seq, slot,
//!   generation)`: sifts compare and move 24-byte keys without touching
//!   the slab (hole technique, one write per level), and each occupied
//!   slot records its key's heap position so `cancel` can remove it
//!   eagerly in O(log n);
//! - a **sorted run**, a `VecDeque` of keys in nondecreasing `(at, seq)`
//!   order. An event scheduled no earlier than the run's tail is
//!   appended there in O(1) instead of entering the heap, so a presorted
//!   bulk schedule (a workload's whole arrival stream) never touches the
//!   heap, and the heap holds only the live working set.
//!
//! `pop` takes whichever head is first by `(at, seq)`. Sequence numbers
//! are global, so the split cannot reorder anything: the pop order is
//! the same strict total order a single heap would give. Cancelling a
//! run entry vacates its slot in O(1) and leaves a dead key behind; dead
//! keys are reaped whenever they reach the run's head, so the head is
//! always live and `peek_time`/`is_empty` stay O(1) reads on `&self`.

use std::collections::VecDeque;

use crossroads_units::TimePoint;

/// Vacant-slot sentinel for the intrusive free list.
const NIL: u32 = u32::MAX;

/// `Slot::pos` of an occupied slot whose key lives in the sorted run.
const IN_RUN: u32 = u32::MAX - 1;

/// Handle to a scheduled event, usable to cancel it before it fires.
///
/// Packs the event's slot index and a generation tag; slots are recycled,
/// so the generation is what keeps a stale handle from cancelling a later
/// event that happens to reuse the same slot. Handles are unique within
/// one [`EventQueue`] for its whole lifetime (up to generation wrap at
/// 2³² reuses of a single slot, far beyond any simulated run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    fn new(slot: u32, generation: u32) -> Self {
        EventId(u64::from(generation) << 32 | u64::from(slot))
    }

    fn slot(self) -> u32 {
        #[allow(clippy::cast_possible_truncation)]
        {
            self.0 as u32
        }
    }

    fn generation(self) -> u32 {
        #[allow(clippy::cast_possible_truncation)]
        {
            (self.0 >> 32) as u32
        }
    }
}

/// One scheduled event's ordering key, stored inline in the heap and the
/// run: 24 bytes, so ordering never reads the payload slab.
#[derive(Clone, Copy)]
struct Key {
    /// The timestamp's bits remapped so that unsigned integer order is
    /// `f64::total_cmp` order (see [`Key::order_bits`]).
    at: u64,
    /// Global schedule order; ties on `at` pop in `seq` order (FIFO).
    seq: u64,
    slot: u32,
    /// The slot's generation when the event was scheduled; a run key
    /// whose slot has since moved on is dead.
    generation: u32,
}

impl Key {
    /// Maps a timestamp to an integer with the same order as
    /// `f64::total_cmp`: negative values have every bit flipped,
    /// non-negative ones only the sign bit. `schedule` rejects
    /// non-finite timestamps, so the only wrinkle this order adds over
    /// `<` is `-0.0 < +0.0` — the consistent total order the heap needs.
    fn order_bits(at: TimePoint) -> u64 {
        let bits = at.value().to_bits();
        if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        }
    }

    /// Inverse of [`Key::order_bits`].
    fn time(&self) -> TimePoint {
        let bits = if self.at >> 63 == 1 {
            self.at & !(1 << 63)
        } else {
            !self.at
        };
        TimePoint::new(f64::from_bits(bits))
    }

    /// Whether `self` orders strictly before `other`: earlier time, then
    /// earlier sequence number (FIFO on ties). Sequence numbers are
    /// unique, so this is a strict total order.
    #[inline]
    fn before(&self, other: &Key) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

struct Slot<E> {
    /// Bumped every time the slot is vacated, invalidating old handles
    /// and old run keys.
    generation: u32,
    /// While occupied: this slot's index in `heap`, or [`IN_RUN`]. While
    /// vacant: the next vacant slot (intrusive free list), or [`NIL`].
    pos: u32,
    /// `Some` while the event is live; `None` marks the slot vacant.
    payload: Option<E>,
}

/// Result of [`EventQueue::pop_within`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popped<E> {
    /// The earliest event fired at or before the horizon.
    Event(TimePoint, E),
    /// The earliest event lies strictly beyond the horizon; it stays
    /// queued and its timestamp is reported.
    Beyond(TimePoint),
    /// No live events remain.
    Empty,
}

/// A deterministic, cancellable priority queue of timestamped events.
///
/// Events pop in nondecreasing time order; ties pop in insertion order.
/// Cancellation is eager for heap entries (removed in O(log n)) and O(1)
/// for run entries (reaped when they reach the run's head); either way a
/// cancelled event never surfaces and [`raw_len`](Self::raw_len) counts
/// live events only.
pub struct EventQueue<E> {
    /// Inline keys, heap-ordered by `(at, seq)`.
    heap: Vec<Key>,
    /// Keys in nondecreasing `(at, seq)` order; the front is always live.
    run: VecDeque<Key>,
    /// Live keys in `run` (dead ones await reaping).
    run_live: usize,
    slots: Vec<Slot<E>>,
    /// Head of the vacant-slot free list threaded through `Slot::pos`.
    free_head: u32,
    next_seq: u64,
    scheduled_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            run: VecDeque::new(),
            run_live: 0,
            slots: Vec::new(),
            free_head: NIL,
            next_seq: 0,
            scheduled_total: 0,
        }
    }

    /// Schedules `payload` to fire at absolute time `at`, returning a handle
    /// that can cancel it.
    ///
    /// # Panics
    ///
    /// Panics if `at` is NaN or infinite: a non-finite timestamp would
    /// corrupt the queue's total order.
    pub fn schedule(&mut self, at: TimePoint, payload: E) -> EventId {
        assert!(at.is_finite(), "event timestamp must be finite, got {at}");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        let slot = if self.free_head == NIL {
            let idx = u32::try_from(self.slots.len())
                .ok()
                .filter(|&i| i < IN_RUN)
                .expect("fewer than 2^32 - 2 live events");
            self.slots.push(Slot {
                generation: 0,
                pos: NIL,
                payload: Some(payload),
            });
            idx
        } else {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            self.free_head = slot.pos;
            slot.payload = Some(payload);
            idx
        };
        let generation = self.slots[slot as usize].generation;
        let key = Key {
            at: Key::order_bits(at),
            seq,
            slot,
            generation,
        };
        // The new key carries the largest seq so far, so it extends the
        // run's order whenever its time is no earlier than the tail's.
        if self.run.back().is_none_or(|tail| key.at >= tail.at) {
            self.slots[slot as usize].pos = IN_RUN;
            self.run.push_back(key);
            self.run_live += 1;
        } else {
            self.heap.push(key);
            self.sift_up(self.heap.len() - 1, key);
        }
        EventId::new(slot, generation)
    }

    /// Cancels a previously scheduled event. Returns `true` if the event
    /// had not yet fired or been cancelled. Cancelling an already-fired id
    /// is a harmless no-op returning `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let idx = id.slot();
        let Some(slot) = self.slots.get(idx as usize) else {
            return false;
        };
        if slot.generation != id.generation() || slot.payload.is_none() {
            return false;
        }
        let pos = slot.pos;
        self.vacate(idx);
        if pos == IN_RUN {
            self.run_live -= 1;
            self.reap_run();
        } else {
            self.remove_at(pos as usize);
        }
        true
    }

    /// Removes and returns the earliest live event, or `None` if the queue
    /// is empty.
    pub fn pop(&mut self) -> Option<(TimePoint, E)> {
        let (key, in_run) = self.front()?;
        Some((key.time(), self.take_front(key, in_run)))
    }

    /// Pops the earliest event if it fires at or before `horizon`
    /// (`None` means no horizon): the single-traversal form of
    /// peek-then-pop the run loop uses. A deferred event stays queued and
    /// is reported as [`Popped::Beyond`].
    pub fn pop_within(&mut self, horizon: Option<TimePoint>) -> Popped<E> {
        let Some((key, in_run)) = self.front() else {
            return Popped::Empty;
        };
        let at = key.time();
        if let Some(h) = horizon {
            if at > h {
                return Popped::Beyond(at);
            }
        }
        Popped::Event(at, self.take_front(key, in_run))
    }

    /// Pops the earliest event if it fires *strictly before* `limit`; an
    /// event exactly at `limit` stays queued and is reported as
    /// [`Popped::Beyond`]. This is the window-bounded drain conservative
    /// parallel execution needs: windows are half-open `[t0, limit)`, so
    /// a cross-shard handoff landing exactly on a barrier is always
    /// scheduled into its target queue *before* the window that covers
    /// that instant runs (contrast [`pop_within`](Self::pop_within),
    /// whose horizon is inclusive).
    pub fn pop_before(&mut self, limit: TimePoint) -> Popped<E> {
        let Some((key, in_run)) = self.front() else {
            return Popped::Empty;
        };
        let at = key.time();
        if at >= limit {
            return Popped::Beyond(at);
        }
        Popped::Event(at, self.take_front(key, in_run))
    }

    /// Timestamp of the next live event without removing it. O(1).
    #[must_use]
    pub fn peek_time(&self) -> Option<TimePoint> {
        self.front().map(|(key, _)| key.time())
    }

    /// Whether no live events remain. O(1).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.run.is_empty()
    }

    /// Number of live entries. Dead run keys are not counted, so this is
    /// exact (the seed implementation counted unreaped cancelled entries
    /// too).
    #[must_use]
    pub fn raw_len(&self) -> usize {
        self.heap.len() + self.run_live
    }

    /// Total number of events ever scheduled on this queue.
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// The earliest live key and whether it heads the run (else the
    /// heap). The run's front is live by invariant.
    fn front(&self) -> Option<(Key, bool)> {
        match (self.run.front(), self.heap.first()) {
            (Some(r), Some(h)) if h.before(r) => Some((*h, false)),
            (Some(r), _) => Some((*r, true)),
            (None, h) => h.map(|h| (*h, false)),
        }
    }

    /// Removes the key [`front`](Self::front) returned and frees its slot.
    fn take_front(&mut self, key: Key, in_run: bool) -> E {
        if in_run {
            self.run.pop_front();
            self.run_live -= 1;
            self.reap_run();
        } else {
            self.remove_at(0);
        }
        self.vacate(key.slot).expect("queued keys are occupied")
    }

    /// Drops dead keys (cancelled events) from the run's front, restoring
    /// the live-front invariant.
    fn reap_run(&mut self) {
        while let Some(key) = self.run.front() {
            if self.slots[key.slot as usize].generation == key.generation {
                break;
            }
            self.run.pop_front();
        }
    }

    /// Frees a slot back to the free list, bumping its generation so any
    /// outstanding handle or run key for the old occupant is invalidated.
    fn vacate(&mut self, idx: u32) -> Option<E> {
        let slot = &mut self.slots[idx as usize];
        slot.generation = slot.generation.wrapping_add(1);
        slot.pos = self.free_head;
        self.free_head = idx;
        slot.payload.take()
    }

    /// Writes `key` at heap position `pos` and records the position in
    /// its slot — the invariant every sift step maintains.
    fn place(&mut self, pos: usize, key: Key) {
        self.heap[pos] = key;
        // `pos < heap.len() <= slots.len() < IN_RUN`, checked on slot
        // allocation.
        #[allow(clippy::cast_possible_truncation)]
        {
            self.slots[key.slot as usize].pos = pos as u32;
        }
    }

    /// Moves the hole at `pos` up until `key` fits, then fills it.
    fn sift_up(&mut self, mut pos: usize, key: Key) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let above = self.heap[parent];
            if !key.before(&above) {
                break;
            }
            self.place(pos, above);
            pos = parent;
        }
        self.place(pos, key);
    }

    /// Moves the hole at `pos` down until `key` fits, then fills it.
    fn sift_down(&mut self, mut pos: usize, key: Key) {
        let len = self.heap.len();
        loop {
            let left = 2 * pos + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.heap[right].before(&self.heap[left]) {
                right
            } else {
                left
            };
            let below = self.heap[child];
            if !below.before(&key) {
                break;
            }
            self.place(pos, below);
            pos = child;
        }
        self.place(pos, key);
    }

    /// Removes the heap entry at `pos` by refilling the hole with the
    /// tail key, sifted whichever way it must move. Does not touch the
    /// removed key's slot.
    fn remove_at(&mut self, pos: usize) {
        let tail = self.heap.pop().expect("remove_at on a non-empty heap");
        if pos == self.heap.len() {
            return;
        }
        if pos > 0 && tail.before(&self.heap[(pos - 1) / 2]) {
            self.sift_up(pos, tail);
        } else {
            self.sift_down(pos, tail);
        }
    }
}

impl<E: std::fmt::Debug> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.raw_len())
            .field("run", &self.run.len())
            .field("slots", &self.slots.len())
            .field("scheduled_total", &self.scheduled_total)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> TimePoint {
        TimePoint::new(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3.0), 'c');
        q.schedule(t(1.0), 'a');
        q.schedule(t(2.0), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(1.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_removes_event() {
        let mut q = EventQueue::new();
        let keep = q.schedule(t(1.0), "keep");
        let drop_ = q.schedule(t(0.5), "drop");
        assert!(q.cancel(drop_));
        assert_eq!(q.pop(), Some((t(1.0), "keep")));
        assert_eq!(q.pop(), None);
        // Cancelling after the fact is a no-op.
        assert!(!q.cancel(keep));
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId::new(42, 0)));
    }

    #[test]
    fn double_cancel_is_false() {
        let mut q = EventQueue::new();
        let id = q.schedule(t(1.0), ());
        assert!(q.cancel(id));
        assert!(!q.cancel(id));
    }

    #[test]
    fn stale_handle_to_recycled_slot_is_false() {
        let mut q = EventQueue::new();
        let old = q.schedule(t(1.0), 1);
        q.pop();
        // The freed slot is recycled for the next schedule; the old handle
        // must not be able to cancel the new occupant.
        let new = q.schedule(t(2.0), 2);
        assert!(!q.cancel(old));
        assert_eq!(q.peek_time(), Some(t(2.0)));
        assert!(q.cancel(new));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let id = q.schedule(t(0.5), "x");
        q.schedule(t(1.0), "y");
        q.cancel(id);
        assert_eq!(q.peek_time(), Some(t(1.0)));
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_timestamp_panics() {
        let mut q = EventQueue::new();
        q.schedule(TimePoint::new(f64::NAN), ());
    }

    #[test]
    fn counters_track_activity() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), ());
        q.schedule(t(2.0), ());
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.raw_len(), 2);
        q.pop();
        assert_eq!(q.raw_len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn cancelled_entries_leave_the_heap_immediately() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10).map(|i| q.schedule(t(f64::from(i)), i)).collect();
        for id in &ids[..9] {
            assert!(q.cancel(*id));
        }
        // Eager cancellation: no tombstones linger.
        assert_eq!(q.raw_len(), 1);
        assert_eq!(q.pop(), Some((t(9.0), 9)));
    }

    #[test]
    fn interleaved_schedule_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(t(5.0), 5);
        q.schedule(t(1.0), 1);
        assert_eq!(q.pop(), Some((t(1.0), 1)));
        q.schedule(t(3.0), 3);
        q.schedule(t(2.0), 2);
        assert_eq!(q.pop(), Some((t(2.0), 2)));
        assert_eq!(q.pop(), Some((t(3.0), 3)));
        assert_eq!(q.pop(), Some((t(5.0), 5)));
    }

    #[test]
    fn pop_within_defers_past_the_horizon() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), "a");
        q.schedule(t(3.0), "b");
        assert_eq!(q.pop_within(Some(t(2.0))), Popped::Event(t(1.0), "a"));
        assert_eq!(q.pop_within(Some(t(2.0))), Popped::Beyond(t(3.0)));
        // The deferred event is untouched.
        assert_eq!(q.pop_within(None), Popped::Event(t(3.0), "b"));
        assert_eq!(q.pop_within(Some(t(2.0))), Popped::Empty);
    }

    #[test]
    fn pop_within_takes_events_exactly_at_the_horizon() {
        let mut q = EventQueue::new();
        q.schedule(t(2.0), ());
        assert_eq!(q.pop_within(Some(t(2.0))), Popped::Event(t(2.0), ()));
    }

    #[test]
    fn pop_before_excludes_the_limit_instant() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        assert_eq!(q.pop_before(t(2.0)), Popped::Event(t(1.0), "a"));
        // An event exactly at the limit is *deferred* — the half-open
        // window contract pop_within's inclusive horizon does not give.
        assert_eq!(q.pop_before(t(2.0)), Popped::Beyond(t(2.0)));
        assert_eq!(q.pop_before(t(2.0 + 1e-9)), Popped::Event(t(2.0), "b"));
        assert_eq!(q.pop_before(t(10.0)), Popped::Empty);
    }

    #[test]
    fn pop_before_preserves_fifo_ties_inside_the_window() {
        let mut q = EventQueue::new();
        for i in 0..8u32 {
            q.schedule(t(1.0), i);
        }
        for i in 0..8u32 {
            assert_eq!(q.pop_before(t(2.0)), Popped::Event(t(1.0), i));
        }
    }

    #[test]
    fn key_order_bits_follow_total_cmp_and_round_trip() {
        let values = [
            -f64::MAX,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            1.0,
            1.0 + f64::EPSILON,
            f64::MAX,
        ];
        for &a in &values {
            let ka = Key::order_bits(t(a));
            let key = Key {
                at: ka,
                seq: 0,
                slot: 0,
                generation: 0,
            };
            assert_eq!(key.time().value().to_bits(), a.to_bits());
            for &b in &values {
                assert_eq!(
                    ka.cmp(&Key::order_bits(t(b))),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn debug_output_nonempty() {
        let q: EventQueue<u8> = EventQueue::new();
        assert!(format!("{q:?}").contains("EventQueue"));
    }
}
