//! The bucketed calendar event queue.
//!
//! The scheduler used to order events in a `BinaryHeap<Reverse<(cycle,
//! seq, Ev)>>`: every push and pop paid `O(log n)` comparisons on a
//! three-field key. But simulated time is overwhelmingly *local* — an
//! event scheduled at cycle `t` spawns successors within a few hundred
//! cycles (route + cache latencies), so the live window of the queue is
//! tiny compared to the cycle space. [`EventQueue`] exploits that with a
//! calendar layout:
//!
//! * a **ring of per-cycle FIFO lists** covering `[base, base + WINDOW)`.
//!   Every list is threaded through one pooled slab of entries: a cycle
//!   slot keeps only a head and a tail index, a push appends at the tail
//!   and a pop unlinks the head, and unlinked entries go on a free list
//!   for the next push. Because the global sequence counter is
//!   monotonic, every list is sorted by `seq` for free;
//! * a **sorted overflow spill** (a small binary heap) for the rare push
//!   outside the window — far-future events, or events behind `base`
//!   (arbitrary schedules; the engine itself never goes back in time).
//!
//! `pop` compares the ring's head against the overflow's top and takes
//! the smaller, so the pop sequence is **exactly** the `(cycle, seq, Ev)`
//! total order the heap produced — `seq` is unique, so the `Ev` field
//! never participates in ordering. Ring entries need not even carry
//! their `seq`: `base` only moves forward, so an overflow event at cycle
//! `c` is either behind the window (`c < base`, it wins) or was pushed
//! while `c` lay beyond the window — before any ring push at `c` could
//! happen — and so wins a tie on `c` as well. The differential proptest
//! below pins this against the reference heap on random schedules, and
//! the golden sweep snapshots pin it end-to-end.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::state::Ev;

/// Ring width in cycles. Covers the longest single-event latency chain
/// (DRAM miss + LLC + L1 + routing ≈ 230 cycles) with slack; anything
/// further spills to the overflow heap.
const WINDOW: u64 = 1024;

/// "No entry" link in the slab's lists.
const NIL: u32 = u32::MAX;

/// One queued event in the slab, linked to the next entry of its cycle's
/// FIFO list (or of the free list once popped).
#[derive(Clone, Copy)]
struct Entry {
    ev: Ev,
    next: u32,
}

/// One cycle's FIFO list: first and last slab entry ([`NIL`] when empty;
/// `tail` is meaningful only while `head` is set).
#[derive(Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

const EMPTY: Slot = Slot {
    head: NIL,
    tail: NIL,
};

/// A calendar queue over `(cycle, seq, Ev)` with exact heap-order pops.
pub(crate) struct EventQueue {
    /// Backing store of every ring list and of the free list.
    slab: Vec<Entry>,
    /// Head of the free list of popped slab entries.
    free: u32,
    /// `WINDOW` per-cycle lists; cycle `c` lives at `c % WINDOW` while
    /// `base <= c < base + WINDOW`. Each list is in push (`seq`) order.
    slots: Vec<Slot>,
    /// Smallest cycle still mapped to the ring.
    base: u64,
    /// Unconsumed entries across all lists.
    ring_len: usize,
    /// Events outside the ring window (far future, or behind `base`).
    overflow: BinaryHeap<Reverse<(u64, u64, Ev)>>,
    /// Monotonic push counter: the deterministic tie-breaker, and the
    /// run's total push count (telemetry).
    seq: u64,
    /// High-water mark of the queue's live size (telemetry).
    max_depth: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self {
            slab: Vec::new(),
            free: NIL,
            slots: vec![EMPTY; WINDOW as usize],
            base: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
            max_depth: 0,
        }
    }
}

impl EventQueue {
    /// Empties the queue for a fresh run, keeping slab capacity.
    pub(crate) fn clear(&mut self) {
        self.slab.clear();
        self.free = NIL;
        self.slots.fill(EMPTY);
        self.base = 0;
        self.ring_len = 0;
        self.overflow.clear();
        self.seq = 0;
        self.max_depth = 0;
    }

    /// Live events currently queued.
    pub(crate) fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Total events pushed since the last [`EventQueue::clear`].
    pub(crate) fn pushes(&self) -> u64 {
        self.seq
    }

    /// High-water mark of [`EventQueue::len`] since the last clear.
    pub(crate) fn max_depth(&self) -> u64 {
        self.max_depth
    }

    #[inline]
    fn slot(cycle: u64) -> usize {
        (cycle % WINDOW) as usize
    }

    /// Schedules `ev` at `at`, tagged with the next sequence number.
    #[inline]
    pub(crate) fn push(&mut self, at: u64, ev: Ev) {
        self.seq += 1;
        if at.wrapping_sub(self.base) < WINDOW {
            let entry = Entry { ev, next: NIL };
            let idx = if self.free == NIL {
                let idx = u32::try_from(self.slab.len()).expect("queue depth fits u32");
                self.slab.push(entry);
                idx
            } else {
                let idx = self.free;
                self.free = self.slab[idx as usize].next;
                self.slab[idx as usize] = entry;
                idx
            };
            let slot = &mut self.slots[Self::slot(at)];
            if slot.head == NIL {
                slot.head = idx;
            } else {
                self.slab[slot.tail as usize].next = idx;
            }
            slot.tail = idx;
            self.ring_len += 1;
        } else {
            self.overflow.push(Reverse((at, self.seq, ev)));
        }
        let depth = self.len() as u64;
        if depth > self.max_depth {
            self.max_depth = depth;
        }
    }

    /// Pops the minimum `(cycle, seq)` event — exactly the order the
    /// reference binary heap would produce.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(u64, Ev)> {
        if self.ring_len == 0 {
            // Ring empty: serve the overflow and jump the window forward
            // so successor pushes land in the ring again.
            let Reverse((at, _, ev)) = self.overflow.pop()?;
            self.base = self.base.max(at);
            return Some((at, ev));
        }
        // Advance to the ring's next non-empty cycle.
        while self.slots[Self::slot(self.base)].head == NIL {
            self.base += 1;
        }
        // The overflow can hold an earlier event: a past-cycle push, or
        // an equal-cycle push made while the window sat further back —
        // which precedes every ring event of that cycle in `seq`.
        if let Some(&Reverse((o_at, _, _))) = self.overflow.peek() {
            if o_at <= self.base {
                let Reverse((at, _, ev)) = self.overflow.pop().expect("peeked");
                return Some((at, ev));
            }
        }
        let slot = Self::slot(self.base);
        let idx = self.slots[slot].head;
        let Entry { ev, next } = self.slab[idx as usize];
        self.slots[slot].head = next;
        self.slab[idx as usize].next = self.free;
        self.free = idx;
        self.ring_len -= 1;
        Some((self.base, ev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nachos_ir::NodeId;
    use proptest::prelude::*;

    /// The reference implementation the queue must match event-for-event.
    #[derive(Default)]
    struct HeapQueue {
        heap: BinaryHeap<Reverse<(u64, u64, Ev)>>,
        seq: u64,
    }

    impl HeapQueue {
        fn push(&mut self, at: u64, ev: Ev) {
            self.seq += 1;
            self.heap.push(Reverse((at, self.seq, ev)));
        }

        fn pop(&mut self) -> Option<(u64, Ev)> {
            self.heap.pop().map(|Reverse((at, _, ev))| (at, ev))
        }
    }

    fn ev(i: usize) -> Ev {
        match i % 5 {
            0 => Ev::Data(NodeId::new(i)),
            1 => Ev::Token(NodeId::new(i)),
            2 => Ev::Release(NodeId::new(i)),
            3 => Ev::TryMem(NodeId::new(i)),
            _ => Ev::Complete(NodeId::new(i)),
        }
    }

    #[test]
    fn fifo_within_a_cycle() {
        let mut q = EventQueue::default();
        q.push(5, ev(0));
        q.push(5, ev(1));
        q.push(3, ev(2));
        assert_eq!(q.pop(), Some((3, ev(2))));
        assert_eq!(q.pop(), Some((5, ev(0))));
        assert_eq!(q.pop(), Some((5, ev(1))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_spills_and_returns() {
        let mut q = EventQueue::default();
        q.push(0, ev(0));
        q.push(WINDOW * 10, ev(1)); // overflow
        assert_eq!(q.pop(), Some((0, ev(0))));
        // Window jumps to the overflow event; successors bucket normally.
        assert_eq!(q.pop(), Some((WINDOW * 10, ev(1))));
        q.push(WINDOW * 10 + 1, ev(2));
        assert_eq!(q.pop(), Some((WINDOW * 10 + 1, ev(2))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn past_push_wins_over_ring_head() {
        let mut q = EventQueue::default();
        q.push(100, ev(0));
        assert_eq!(q.pop(), Some((100, ev(0))));
        q.push(200, ev(1));
        assert_eq!(q.pop(), Some((200, ev(1)))); // base is now 200
        q.push(300, ev(2));
        q.push(50, ev(3)); // behind base: overflow
        assert_eq!(q.pop(), Some((50, ev(3))));
        assert_eq!(q.pop(), Some((300, ev(2))));
    }

    #[test]
    fn equal_cycle_across_ring_and_overflow_pops_in_seq_order() {
        let mut q = EventQueue::default();
        // seq 1 lands in the overflow (outside the initial window)...
        q.push(WINDOW + 7, ev(0));
        q.push(0, ev(1));
        assert_eq!(q.pop(), Some((0, ev(1))));
        // drain moves base forward only via pops; push the same cycle
        // into the ring once the window covers it.
        q.push(WINDOW - 1, ev(2));
        assert_eq!(q.pop(), Some((WINDOW - 1, ev(2)))); // base = WINDOW-1
        q.push(WINDOW + 7, ev(3)); // ring, seq 4
                                   // Overflow's seq-1 event at the same cycle must pop first.
        assert_eq!(q.pop(), Some((WINDOW + 7, ev(0))));
        assert_eq!(q.pop(), Some((WINDOW + 7, ev(3))));
    }

    #[test]
    fn stats_track_pushes_and_depth() {
        let mut q = EventQueue::default();
        for i in 0..10 {
            q.push(i, ev(i as usize));
        }
        assert_eq!(q.pushes(), 10);
        assert_eq!(q.max_depth(), 10);
        while q.pop().is_some() {}
        assert_eq!(q.max_depth(), 10);
        q.clear();
        assert_eq!(q.pushes(), 0);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn popped_entries_are_reused_from_the_free_list() {
        let mut q = EventQueue::default();
        // A steady stream two events deep: the slab never grows past the
        // live depth however many events flow through it.
        q.push(0, ev(0));
        for i in 1..5000u64 {
            q.push(i, ev(i as usize));
            assert_eq!(q.pop().map(|(t, _)| t), Some(i - 1));
        }
        assert_eq!(q.max_depth(), 2);
        assert_eq!(q.slab.len(), 2);
        assert_eq!(q.pushes(), 5000);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Differential: on arbitrary interleaved push/pop schedules —
        /// including past-cycle pushes and far jumps the engine itself
        /// never produces, and full drains followed by refills that
        /// recycle every slab entry through the free list — the calendar
        /// queue pops the exact sequence of the reference binary heap.
        #[test]
        fn matches_binary_heap_on_random_schedules(
            ops in proptest::collection::vec((any::<u16>(), 0u8..5), 1..300),
        ) {
            let mut q = EventQueue::default();
            let mut h = HeapQueue::default();
            // Cycle of the latest pop: pushes cluster after it, as the
            // engine's do.
            let mut now = 0u64;
            for (i, &(raw, kind)) in ops.iter().enumerate() {
                if kind == 3 {
                    let (a, b) = (q.pop(), h.pop());
                    prop_assert_eq!(a, b);
                    if let Some((t, _)) = a {
                        now = t;
                    }
                } else if kind == 4 {
                    // Drain mid-schedule; later pushes refill the ring
                    // from the free list.
                    loop {
                        let (a, b) = (q.pop(), h.pop());
                        prop_assert_eq!(a, b);
                        match a {
                            Some((t, _)) => now = t,
                            None => break,
                        }
                    }
                    prop_assert_eq!(q.len(), 0);
                } else {
                    let raw = u64::from(raw);
                    let at = match kind {
                        // Early absolute cycles: behind the window once
                        // time has moved on.
                        0 => raw % 64,
                        // Near future, inside or just past the window.
                        1 => now + raw % 2048,
                        // A coarse grid of shared cycles, some beyond the
                        // window: the same cycle collects events in the
                        // overflow first and in the ring once the window
                        // reaches it.
                        _ if raw % 2 == 0 => now - now % 600 + (raw / 2 % 4) * 600,
                        // Megacycle spills.
                        _ => raw * 97,
                    };
                    q.push(at, ev(i));
                    h.push(at, ev(i));
                }
            }
            loop {
                let (a, b) = (q.pop(), h.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
