//! The OPT-LSQ model: banked, address-partitioned queues with a bloom
//! filter front-end and in-order allocation/retirement.
//!
//! This is the baseline the paper evaluates against (§VIII-C): a
//! late-binding, address-partitioned LSQ [Sethumadhavan et al.] whose CAM
//! searches are filtered by a counting bloom filter [same §]. Entries
//! *allocate in program order* (the compiler communicates explicit 8-bit
//! ages, like TRIPS), bind to a bank when their address resolves, search
//! the relevant queue(s) before issuing to the cache, and retire in order.
//!
//! The model is deliberately mechanism-level: the simulator in the `nachos`
//! crate drives `allocate → bind_address → search → complete → retire`
//! per memory operation and converts the recorded events into energy.

use crate::bloom::{BloomStats, CountingBloom};

/// Geometry and bandwidth of the OPT-LSQ (paper Figure 3: 2 ports,
/// 48 entries/bank, 2–8 banks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LsqConfig {
    /// Number of address-partitioned banks.
    pub banks: usize,
    /// Capacity of each bank.
    pub entries_per_bank: usize,
    /// Memory operations that can allocate per cycle (ports).
    pub alloc_per_cycle: u32,
    /// In-order retirements per cycle.
    pub retire_per_cycle: u32,
    /// Extra cycles the LSQ pipeline adds to every load's path
    /// (the paper observes a 2-cycle load-to-use penalty on cache hits).
    pub load_to_use_penalty: u64,
}

impl Default for LsqConfig {
    fn default() -> Self {
        Self {
            // Eight banks (the top of the paper's 2-8 range) give 384
            // entries — enough for any 256-op region, so bank capacity
            // manifests as occupancy pressure rather than deadlock-prone
            // structural stalls (see `LsqStats::bank_overflows`).
            banks: 8,
            entries_per_bank: 48,
            alloc_per_cycle: 2,
            retire_per_cycle: 2,
            load_to_use_penalty: 2,
        }
    }
}

/// Event counters converted to energy by the simulator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LsqStats {
    /// Entries allocated.
    pub allocs: u64,
    /// Address bindings that found their bank already at capacity. A
    /// late-binding LSQ cannot stall these without risking deadlock
    /// (younger ops can fill a bank before an older op binds while
    /// in-order retirement waits on the older op), so the model admits
    /// them and reports the pressure here instead.
    pub bank_overflows: u64,
    /// CAM searches performed by loads (store-queue search).
    pub cam_load_searches: u64,
    /// CAM searches performed by stores (both-queue search).
    pub cam_store_searches: u64,
    /// Store-to-load forwards performed.
    pub forwards: u64,
}

/// Result of a load's disambiguation search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadSearch {
    /// No conflicting older store: the load may issue to the cache.
    CanIssue,
    /// An exact-match older store with its data ready: forward. Carries the
    /// store's age.
    Forward(u32),
    /// Blocked: some older store's address is still unknown (ambiguous),
    /// or an overlapping older store has not yet produced/committed its
    /// value. Carries the blocking store's age.
    Blocked(u32),
}

/// Result of a store's disambiguation search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreSearch {
    /// No conflicting older operation: the store may issue.
    CanIssue,
    /// Blocked by the operation with the carried age (unknown address or
    /// overlapping and incomplete).
    Blocked(u32),
}

/// [`Entry::flags`]: a store (else a load).
const STORE: u8 = 1;
/// The address (and bank) is bound.
const BOUND: u8 = 1 << 1;
/// Store value produced (stores only).
const DATA_READY: u8 = 1 << 2;
/// Access performed (cache response received / store committed).
const COMPLETED: u8 = 1 << 3;
/// Address deposited in the bloom filter.
const DEPOSITED: u8 = 1 << 4;
/// First search already counted for energy.
const SEARCHED: u8 = 1 << 5;

/// One age's state, packed into 16 bytes so the disambiguation scans
/// stream over a dense array. Retirement is implicit: entries below
/// [`Lsq::next_retire`] are retired (retirement is in order). The bank is
/// not stored: it is a function of the bound address.
#[derive(Clone, Copy, Debug)]
struct Entry {
    /// Bound address (meaningful with [`BOUND`]).
    addr: u64,
    /// Exclusive upper end of this op's next disambiguation scan: every
    /// older age at or above it was already proven irrelevant to this
    /// op's verdict for the rest of the invocation (see
    /// [`Lsq::scan_for_load`]).
    scan_top: u32,
    /// Access size in bytes (meaningful with [`BOUND`]).
    size: u8,
    flags: u8,
}

impl Entry {
    #[inline]
    fn has(self, flag: u8) -> bool {
        self.flags & flag != 0
    }

    #[inline]
    fn access(self) -> (u64, u8) {
        (self.addr, self.size)
    }
}

/// The OPT-LSQ. Ages are the region's program-order memory-operation
/// indices for the current invocation; invocations are block-atomic, so
/// the queue drains between invocations ([`Lsq::begin_invocation`]).
#[derive(Clone, Debug)]
pub struct Lsq {
    config: LsqConfig,
    entries: Vec<Entry>,
    next_alloc: u32,
    /// Every age below this one has retired, and none at or above it.
    next_retire: u32,
    bank_load: Vec<usize>,
    /// Bloom over in-flight store addresses (queried by loads).
    sq_bloom: CountingBloom,
    /// Bloom over in-flight load addresses (queried by stores).
    lq_bloom: CountingBloom,
    stats: LsqStats,
    cycle: u64,
    allocs_this_cycle: u32,
    retires_this_cycle: u32,
}

impl Lsq {
    /// Creates an LSQ.
    ///
    /// # Panics
    ///
    /// Panics if any geometry/bandwidth parameter is zero.
    #[must_use]
    pub fn new(config: LsqConfig) -> Self {
        assert!(
            config.banks > 0
                && config.entries_per_bank > 0
                && config.alloc_per_cycle > 0
                && config.retire_per_cycle > 0,
            "degenerate LSQ configuration"
        );
        Self {
            config,
            entries: Vec::new(),
            next_alloc: 0,
            next_retire: 0,
            bank_load: vec![0; config.banks],
            sq_bloom: CountingBloom::lsq_default(),
            lq_bloom: CountingBloom::lsq_default(),
            stats: LsqStats::default(),
            cycle: 0,
            allocs_this_cycle: 0,
            retires_this_cycle: 0,
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &LsqConfig {
        &self.config
    }

    /// Starts a new region invocation with the given per-age op kinds
    /// (`true` = store). The queue must have drained (all entries retired).
    ///
    /// # Panics
    ///
    /// Panics if un-retired entries remain.
    pub fn begin_invocation(&mut self, is_store: &[bool]) {
        assert!(self.is_drained(), "LSQ must drain between invocations");
        // In place: block-atomic invocations re-fill the same entry
        // vector every time, so keep its capacity across invocations
        // (and, via `reset`, across pooled runs).
        self.entries.clear();
        self.entries
            .extend(is_store.iter().enumerate().map(|(age, &s)| Entry {
                addr: 0,
                scan_top: u32::try_from(age).expect("age fits u32"),
                size: 0,
                flags: if s { STORE } else { 0 },
            }));
        self.next_alloc = 0;
        self.next_retire = 0;
        self.bank_load.fill(0);
        self.sq_bloom.clear();
        self.lq_bloom.clear();
    }

    /// Returns the LSQ to its freshly-constructed state — entries emptied
    /// (capacity kept), blooms and all statistics zeroed — so a pooled
    /// instance can be reused by a new simulation run.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.next_alloc = 0;
        self.next_retire = 0;
        self.bank_load.fill(0);
        self.sq_bloom.clear();
        self.sq_bloom.reset_stats();
        self.lq_bloom.clear();
        self.lq_bloom.reset_stats();
        self.stats = LsqStats::default();
        self.cycle = 0;
        self.allocs_this_cycle = 0;
        self.retires_this_cycle = 0;
    }

    fn roll_cycle(&mut self, cycle: u64) {
        if cycle != self.cycle {
            self.cycle = cycle;
            self.allocs_this_cycle = 0;
            self.retires_this_cycle = 0;
        }
    }

    /// Attempts to allocate the next program-order entry at `cycle`.
    /// Returns the allocated age, or `None` when allocation bandwidth for
    /// this cycle is exhausted or all entries are allocated.
    pub fn allocate_next(&mut self, cycle: u64) -> Option<u32> {
        self.roll_cycle(cycle);
        if self.allocs_this_cycle >= self.config.alloc_per_cycle
            || (self.next_alloc as usize) >= self.entries.len()
        {
            return None;
        }
        let age = self.next_alloc;
        self.next_alloc += 1;
        self.allocs_this_cycle += 1;
        self.stats.allocs += 1;
        Some(age)
    }

    /// `true` once `age` has been allocated this invocation.
    #[must_use]
    pub fn is_allocated(&self, age: u32) -> bool {
        age < self.next_alloc
    }

    /// Binds a resolved address to an allocated entry, claiming a slot in
    /// the address-selected bank. Always succeeds; a bank above capacity
    /// is recorded in [`LsqStats::bank_overflows`] (see that field for
    /// why a structural stall would deadlock a late-binding queue).
    ///
    /// # Panics
    ///
    /// Panics if `age` is unallocated or already bound.
    pub fn bind_address(&mut self, age: u32, addr: u64, size: u8) {
        assert!(self.is_allocated(age), "bind before allocate");
        let bank = self.bank_of(addr);
        let e = &mut self.entries[age as usize];
        assert!(!e.has(BOUND), "address already bound");
        if self.bank_load[bank] >= self.config.entries_per_bank {
            self.stats.bank_overflows += 1;
        }
        self.bank_load[bank] += 1;
        e.addr = addr;
        e.size = size;
        e.flags |= BOUND;
    }

    fn bank_of(&self, addr: u64) -> usize {
        (addr >> 6) as usize % self.config.banks
    }

    fn overlaps(a: (u64, u8), b: (u64, u8)) -> bool {
        a.0 < b.0 + u64::from(b.1) && b.0 < a.0 + u64::from(a.1)
    }

    fn count_first_search(&mut self, age: u32) -> bool {
        let e = &mut self.entries[age as usize];
        let first = !e.has(SEARCHED);
        e.flags |= SEARCHED;
        first
    }

    fn deposit(&mut self, age: u32) {
        let e = &mut self.entries[age as usize];
        if !e.has(DEPOSITED) && e.has(BOUND) {
            let key = e.addr >> 3;
            if e.has(STORE) {
                self.sq_bloom.insert(key);
            } else {
                self.lq_bloom.insert(key);
            }
            e.flags |= DEPOSITED;
        }
    }

    /// The bound entry at `age`, checked to be a store (`true`) or load.
    fn bound_access(&self, age: u32, store: bool) -> (u64, u8) {
        let e = self.entries[age as usize];
        assert!(e.has(BOUND), "search before bind");
        assert_eq!(e.has(STORE), store, "search on the wrong op kind");
        e.access()
    }

    /// Disambiguation search for a load whose address is bound. Searches
    /// the store queue for older conflicting stores.
    ///
    /// # Panics
    ///
    /// Panics if `age` is not a bound load.
    pub fn search_load(&mut self, age: u32) -> LoadSearch {
        let my = self.bound_access(age, false);
        let first = self.count_first_search(age);
        if first {
            let bloom_hit = self.sq_bloom.query(my.0 >> 3);
            if bloom_hit {
                self.stats.cam_load_searches += 1;
            }
        }
        let result = self.scan_for_load(age, my);
        if !matches!(result, LoadSearch::Blocked(_)) {
            self.deposit(age);
            if matches!(result, LoadSearch::Forward(_)) {
                self.stats.forwards += 1;
            }
        }
        result
    }

    /// The in-flight (unretired) ages below `age`'s scan top, youngest
    /// first. Retirement is in order, so everything below `next_retire`
    /// is gone and the scan never visits it.
    fn scan_window(&self, age: u32) -> std::ops::Range<u32> {
        let top = self.entries[age as usize].scan_top;
        self.next_retire.min(top)..top
    }

    /// The youngest older store that matters to the load at `age`.
    ///
    /// Every older entry the scan passes over is irrelevant for good: a
    /// load, or a bound store whose address does not overlap (bindings
    /// and addresses never change within an invocation). So the scan
    /// records where it stopped in `scan_top` and the next search of the
    /// same op — the blocked-op retries — resumes there instead of
    /// re-walking ages it has already cleared. The verdict is the one a
    /// full walk from `age - 1` would reach.
    fn scan_for_load(&mut self, age: u32, my: (u64, u8)) -> LoadSearch {
        let window = self.scan_window(age);
        let mut verdict = (window.start, LoadSearch::CanIssue);
        for older in window.rev() {
            let e = self.entries[older as usize];
            if !e.has(STORE) {
                continue;
            }
            if !e.has(BOUND) {
                verdict = (older + 1, LoadSearch::Blocked(older));
                break;
            }
            let theirs = e.access();
            if Self::overlaps(my, theirs) {
                let v = if theirs == my && e.has(DATA_READY) {
                    LoadSearch::Forward(older)
                } else if e.has(COMPLETED) {
                    LoadSearch::CanIssue
                } else {
                    LoadSearch::Blocked(older)
                };
                verdict = (older + 1, v);
                break;
            }
        }
        self.entries[age as usize].scan_top = verdict.0;
        verdict.1
    }

    /// Disambiguation search for a store whose address is bound. Searches
    /// both queues for older conflicting operations.
    ///
    /// # Panics
    ///
    /// Panics if `age` is not a bound store.
    pub fn search_store(&mut self, age: u32) -> StoreSearch {
        let my = self.bound_access(age, true);
        let first = self.count_first_search(age);
        if first {
            let hit = self.sq_bloom.query(my.0 >> 3) | self.lq_bloom.query(my.0 >> 3);
            if hit {
                self.stats.cam_store_searches += 1;
            }
        }
        let result = self.scan_for_store(age, my);
        if result == StoreSearch::CanIssue {
            self.deposit(age);
        }
        result
    }

    /// The youngest older op blocking the store at `age`: an unbound
    /// address, or an overlapping access not yet performed. An entry the
    /// scan passes over is bound and either performed or disjoint — for
    /// good — so, as in [`Lsq::scan_for_load`], the next search resumes
    /// where this one stopped.
    fn scan_for_store(&mut self, age: u32, my: (u64, u8)) -> StoreSearch {
        let window = self.scan_window(age);
        let mut verdict = (window.start, StoreSearch::CanIssue);
        for older in window.rev() {
            let e = self.entries[older as usize];
            if !e.has(BOUND) || (!e.has(COMPLETED) && Self::overlaps(my, e.access())) {
                verdict = (older + 1, StoreSearch::Blocked(older));
                break;
            }
        }
        self.entries[age as usize].scan_top = verdict.0;
        verdict.1
    }

    /// Marks a store's data operand as produced.
    pub fn mark_data_ready(&mut self, age: u32) {
        self.entries[age as usize].flags |= DATA_READY;
    }

    /// Marks an operation's memory access as performed.
    pub fn mark_completed(&mut self, age: u32) {
        self.entries[age as usize].flags |= COMPLETED;
    }

    /// Retires completed entries in program order (bandwidth-limited),
    /// releasing bank slots and bloom deposits. Returns how many retired.
    pub fn retire_ready(&mut self, cycle: u64) -> u32 {
        self.roll_cycle(cycle);
        let mut retired = 0;
        while (self.next_retire as usize) < self.entries.len()
            && self.retires_this_cycle < self.config.retire_per_cycle
        {
            let e = self.entries[self.next_retire as usize];
            if !e.has(COMPLETED) {
                break;
            }
            if e.has(DEPOSITED) {
                let key = e.addr >> 3;
                if e.has(STORE) {
                    self.sq_bloom.remove(key);
                } else {
                    self.lq_bloom.remove(key);
                }
            }
            if e.has(BOUND) {
                let bank = self.bank_of(e.addr);
                self.bank_load[bank] -= 1;
            }
            self.next_retire += 1;
            self.retires_this_cycle += 1;
            retired += 1;
        }
        retired
    }

    /// `true` once every entry of the current invocation has retired
    /// (also true before any invocation begins).
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.next_retire as usize == self.entries.len()
    }

    /// Event counters.
    #[must_use]
    pub fn stats(&self) -> LsqStats {
        self.stats
    }

    /// Combined bloom-filter statistics (both queues' filters).
    #[must_use]
    pub fn bloom_stats(&self) -> BloomStats {
        let (s, l) = (self.sq_bloom.stats(), self.lq_bloom.stats());
        BloomStats {
            queries: s.queries + l.queries,
            hits: s.hits + l.hits,
        }
    }

    /// Total CAM searches.
    #[must_use]
    pub fn cam_searches(&self) -> u64 {
        self.stats.cam_load_searches + self.stats.cam_store_searches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bloom::CountingBloom;

    fn lsq_for(kinds: &[bool]) -> Lsq {
        let mut l = Lsq::new(LsqConfig::default());
        l.begin_invocation(kinds);
        l
    }

    fn alloc_all(l: &mut Lsq, n: usize) {
        let mut cycle = 0;
        let mut done = 0;
        while done < n {
            if l.allocate_next(cycle).is_some() {
                done += 1;
            } else {
                cycle += 1;
            }
        }
    }

    #[test]
    fn allocation_is_in_order_and_bandwidth_limited() {
        let mut l = lsq_for(&[false; 5]);
        assert_eq!(l.allocate_next(0), Some(0));
        assert_eq!(l.allocate_next(0), Some(1));
        assert_eq!(l.allocate_next(0), None, "2 ports per cycle");
        assert_eq!(l.allocate_next(1), Some(2));
        assert!(l.is_allocated(2));
        assert!(!l.is_allocated(3));
    }

    #[test]
    fn independent_load_can_issue() {
        let mut l = lsq_for(&[true, false]);
        alloc_all(&mut l, 2);
        l.bind_address(0, 0x100, 8);
        l.bind_address(1, 0x200, 8);
        assert_eq!(l.search_load(1), LoadSearch::CanIssue);
    }

    #[test]
    fn load_blocked_by_unknown_store_address() {
        let mut l = lsq_for(&[true, false]);
        alloc_all(&mut l, 2);
        l.bind_address(1, 0x200, 8);
        assert_eq!(l.search_load(1), LoadSearch::Blocked(0));
    }

    #[test]
    fn exact_store_forwards_when_data_ready() {
        let mut l = lsq_for(&[true, false]);
        alloc_all(&mut l, 2);
        l.bind_address(0, 0x100, 8);
        l.bind_address(1, 0x100, 8);
        assert_eq!(l.search_load(1), LoadSearch::Blocked(0));
        l.mark_data_ready(0);
        assert_eq!(l.search_load(1), LoadSearch::Forward(0));
        assert_eq!(l.stats().forwards, 1);
    }

    #[test]
    fn partial_overlap_waits_for_completion() {
        let mut l = lsq_for(&[true, false]);
        alloc_all(&mut l, 2);
        l.bind_address(0, 0x100, 8);
        l.bind_address(1, 0x104, 4);
        l.mark_data_ready(0);
        assert_eq!(l.search_load(1), LoadSearch::Blocked(0));
        l.mark_completed(0);
        assert_eq!(l.search_load(1), LoadSearch::CanIssue);
    }

    #[test]
    fn store_blocked_by_older_conflicting_load() {
        let mut l = lsq_for(&[false, true]);
        alloc_all(&mut l, 2);
        l.bind_address(0, 0x100, 8);
        l.bind_address(1, 0x100, 8);
        // Older load must be deposited/visible: search it first.
        assert_eq!(l.search_load(0), LoadSearch::CanIssue);
        assert_eq!(l.search_store(1), StoreSearch::Blocked(0));
        l.mark_completed(0);
        assert_eq!(l.search_store(1), StoreSearch::CanIssue);
    }

    #[test]
    fn energy_counted_once_per_op() {
        let mut l = lsq_for(&[true, false]);
        alloc_all(&mut l, 2);
        l.bind_address(0, 0x100, 8);
        l.bind_address(1, 0x100, 8);
        let _ = l.search_load(1);
        let _ = l.search_load(1);
        let _ = l.search_load(1);
        // One bloom query from the load (plus none from the store yet).
        assert_eq!(l.bloom_stats().queries, 1);
    }

    #[test]
    fn disjoint_addresses_yield_zero_bloom_hits() {
        let mut l = lsq_for(&[true, false, true, false]);
        alloc_all(&mut l, 4);
        for (age, addr) in [(0u32, 0x1000u64), (1, 0x2000), (2, 0x3000), (3, 0x4000)] {
            l.bind_address(age, addr, 8);
        }
        assert_eq!(l.search_store(0), StoreSearch::CanIssue);
        assert_eq!(l.search_load(1), LoadSearch::CanIssue);
        assert_eq!(l.search_store(2), StoreSearch::CanIssue);
        assert_eq!(l.search_load(3), LoadSearch::CanIssue);
        assert_eq!(l.bloom_stats().hits, 0);
        assert_eq!(l.cam_searches(), 0, "bloom filtered all CAM searches");
    }

    #[test]
    fn conflicting_addresses_pay_cam() {
        let mut l = lsq_for(&[true, false]);
        alloc_all(&mut l, 2);
        l.bind_address(0, 0x100, 8);
        l.bind_address(1, 0x100, 8);
        assert_eq!(l.search_store(0), StoreSearch::CanIssue);
        l.mark_data_ready(0);
        let _ = l.search_load(1);
        assert_eq!(l.stats().cam_load_searches, 1);
    }

    #[test]
    fn retirement_is_in_order_and_overflow_counted() {
        let mut l = Lsq::new(LsqConfig {
            banks: 1,
            entries_per_bank: 2,
            ..LsqConfig::default()
        });
        l.begin_invocation(&[false, false, false]);
        alloc_all(&mut l, 3);
        l.bind_address(0, 0x000, 8);
        l.bind_address(1, 0x040, 8);
        assert_eq!(l.stats().bank_overflows, 0);
        l.bind_address(2, 0x080, 8);
        assert_eq!(l.stats().bank_overflows, 1, "third binding overflows");
        l.mark_completed(1);
        assert_eq!(l.retire_ready(10), 0, "age 0 incomplete blocks retire");
        l.mark_completed(0);
        assert_eq!(l.retire_ready(11), 2);
        l.mark_completed(2);
        assert_eq!(l.retire_ready(12), 1);
        assert!(l.is_drained());
    }

    #[test]
    fn begin_invocation_requires_drain() {
        let mut l = lsq_for(&[false]);
        alloc_all(&mut l, 1);
        l.bind_address(0, 0, 8);
        l.mark_completed(0);
        l.retire_ready(0);
        // Drained: OK to restart.
        l.begin_invocation(&[true]);
        assert_eq!(l.stats().allocs, 1);
    }

    #[test]
    #[should_panic(expected = "drain")]
    fn begin_invocation_panics_when_not_drained() {
        let mut l = lsq_for(&[false]);
        alloc_all(&mut l, 1);
        l.begin_invocation(&[false]);
    }

    /// The full-scan model the bounded scans replaced: one record per
    /// age with an explicit `retired` flag, and every search walking all
    /// older ages down to age 0.
    #[derive(Default)]
    struct FullScanLsq {
        entries: Vec<FullEntry>,
        next_alloc: u32,
        next_retire: u32,
        bank_load: Vec<usize>,
        sq_bloom: Option<CountingBloom>,
        lq_bloom: Option<CountingBloom>,
        stats: LsqStats,
        cycle: u64,
        allocs_this_cycle: u32,
        retires_this_cycle: u32,
    }

    #[derive(Clone, Default)]
    struct FullEntry {
        is_store: bool,
        addr: Option<(u64, u8)>,
        bank: Option<usize>,
        data_ready: bool,
        completed: bool,
        retired: bool,
        deposited: bool,
        searched: bool,
    }

    impl FullScanLsq {
        fn new(config: LsqConfig, kinds: &[bool]) -> Self {
            Self {
                entries: kinds
                    .iter()
                    .map(|&s| FullEntry {
                        is_store: s,
                        ..FullEntry::default()
                    })
                    .collect(),
                bank_load: vec![0; config.banks],
                sq_bloom: Some(CountingBloom::lsq_default()),
                lq_bloom: Some(CountingBloom::lsq_default()),
                ..Self::default()
            }
        }

        fn sq(&mut self) -> &mut CountingBloom {
            self.sq_bloom.as_mut().expect("built")
        }

        fn lq(&mut self) -> &mut CountingBloom {
            self.lq_bloom.as_mut().expect("built")
        }

        fn roll(&mut self, cycle: u64) {
            if cycle != self.cycle {
                self.cycle = cycle;
                self.allocs_this_cycle = 0;
                self.retires_this_cycle = 0;
            }
        }

        fn allocate_next(&mut self, config: &LsqConfig, cycle: u64) -> Option<u32> {
            self.roll(cycle);
            if self.allocs_this_cycle >= config.alloc_per_cycle
                || self.next_alloc as usize >= self.entries.len()
            {
                return None;
            }
            self.next_alloc += 1;
            self.allocs_this_cycle += 1;
            self.stats.allocs += 1;
            Some(self.next_alloc - 1)
        }

        fn bind(&mut self, config: &LsqConfig, age: u32, addr: u64, size: u8) {
            let bank = (addr >> 6) as usize % config.banks;
            if self.bank_load[bank] >= config.entries_per_bank {
                self.stats.bank_overflows += 1;
            }
            self.bank_load[bank] += 1;
            let e = &mut self.entries[age as usize];
            e.addr = Some((addr, size));
            e.bank = Some(bank);
        }

        fn deposit(&mut self, age: u32) {
            let e = self.entries[age as usize].clone();
            if !e.deposited {
                if let Some((addr, _)) = e.addr {
                    if e.is_store {
                        self.sq().insert(addr >> 3);
                    } else {
                        self.lq().insert(addr >> 3);
                    }
                    self.entries[age as usize].deposited = true;
                }
            }
        }

        fn first_search(&mut self, age: u32) -> bool {
            let e = &mut self.entries[age as usize];
            let first = !e.searched;
            e.searched = true;
            first
        }

        fn search_load(&mut self, age: u32) -> LoadSearch {
            let my = self.entries[age as usize].addr.expect("bound");
            if self.first_search(age) && self.sq().query(my.0 >> 3) {
                self.stats.cam_load_searches += 1;
            }
            let mut result = LoadSearch::CanIssue;
            for older in (0..age).rev() {
                let e = &self.entries[older as usize];
                if !e.is_store || e.retired {
                    continue;
                }
                match e.addr {
                    None => {
                        result = LoadSearch::Blocked(older);
                        break;
                    }
                    Some(theirs) if Lsq::overlaps(my, theirs) => {
                        result = if theirs == my && e.data_ready {
                            LoadSearch::Forward(older)
                        } else if e.completed {
                            LoadSearch::CanIssue
                        } else {
                            LoadSearch::Blocked(older)
                        };
                        break;
                    }
                    Some(_) => {}
                }
            }
            if !matches!(result, LoadSearch::Blocked(_)) {
                self.deposit(age);
                if matches!(result, LoadSearch::Forward(_)) {
                    self.stats.forwards += 1;
                }
            }
            result
        }

        fn search_store(&mut self, age: u32) -> StoreSearch {
            let my = self.entries[age as usize].addr.expect("bound");
            if self.first_search(age) {
                let hit = self.sq().query(my.0 >> 3) | self.lq().query(my.0 >> 3);
                if hit {
                    self.stats.cam_store_searches += 1;
                }
            }
            let mut result = StoreSearch::CanIssue;
            for older in (0..age).rev() {
                let e = &self.entries[older as usize];
                if e.retired {
                    continue;
                }
                match e.addr {
                    None => {
                        result = StoreSearch::Blocked(older);
                        break;
                    }
                    Some(theirs) if Lsq::overlaps(my, theirs) && !e.completed => {
                        result = StoreSearch::Blocked(older);
                        break;
                    }
                    Some(_) => {}
                }
            }
            if result == StoreSearch::CanIssue {
                self.deposit(age);
            }
            result
        }

        fn retire_ready(&mut self, config: &LsqConfig, cycle: u64) -> u32 {
            self.roll(cycle);
            let mut retired = 0;
            while (self.next_retire as usize) < self.entries.len()
                && self.retires_this_cycle < config.retire_per_cycle
            {
                let e = self.entries[self.next_retire as usize].clone();
                if !e.completed {
                    break;
                }
                if e.deposited {
                    let key = e.addr.expect("bound").0 >> 3;
                    if e.is_store {
                        self.sq().remove(key);
                    } else {
                        self.lq().remove(key);
                    }
                }
                if let Some(bank) = e.bank {
                    self.bank_load[bank] -= 1;
                }
                self.entries[self.next_retire as usize].retired = true;
                self.next_retire += 1;
                self.retires_this_cycle += 1;
                retired += 1;
            }
            retired
        }

        fn bloom_stats(&self) -> BloomStats {
            let (s, l) = (
                self.sq_bloom.as_ref().expect("built").stats(),
                self.lq_bloom.as_ref().expect("built").stats(),
            );
            BloomStats {
                queries: s.queries + l.queries,
                hits: s.hits + l.hits,
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Differential: on random allocate / bind / data-ready /
        /// complete / search / retire schedules over a tight address
        /// window (so overlaps, exact matches and forwards are common),
        /// the bounded, compact-layout scans return the same verdicts and
        /// leave the same CAM, bloom, forward and bank counters as the
        /// full scan from age 0.
        #[test]
        fn bounded_scans_match_the_full_scan(
            kinds in proptest::collection::vec(proptest::prelude::any::<bool>(), 1..24),
            ops in proptest::collection::vec((0u8..7, 0u16..64, 0u16..64), 1..160),
            banks in 1usize..4,
        ) {
            let config = LsqConfig {
                banks,
                entries_per_bank: 3,
                ..LsqConfig::default()
            };
            let mut lsq = Lsq::new(config);
            lsq.begin_invocation(&kinds);
            let mut full = FullScanLsq::new(config, &kinds);
            let n = kinds.len() as u32;
            let mut bound = vec![false; kinds.len()];
            let mut cycle = 0u64;
            for &(op, a, b) in &ops {
                let age = u32::from(a) % n;
                let i = age as usize;
                match op {
                    0 => {
                        proptest::prop_assert_eq!(
                            lsq.allocate_next(cycle),
                            full.allocate_next(&config, cycle)
                        );
                    }
                    1 if lsq.is_allocated(age) && !bound[i] => {
                        let addr = u64::from(b % 24) * 4;
                        let size = [1u8, 2, 4, 8][usize::from(b / 24) % 4];
                        lsq.bind_address(age, addr, size);
                        full.bind(&config, age, addr, size);
                        bound[i] = true;
                    }
                    2 if kinds[i] => {
                        lsq.mark_data_ready(age);
                        full.entries[i].data_ready = true;
                    }
                    3 if lsq.is_allocated(age) => {
                        lsq.mark_completed(age);
                        full.entries[i].completed = true;
                    }
                    4 | 5 if bound[i] => {
                        if kinds[i] {
                            proptest::prop_assert_eq!(lsq.search_store(age), full.search_store(age));
                        } else {
                            proptest::prop_assert_eq!(lsq.search_load(age), full.search_load(age));
                        }
                    }
                    6 => {
                        cycle += u64::from(b % 3);
                        proptest::prop_assert_eq!(
                            lsq.retire_ready(cycle),
                            full.retire_ready(&config, cycle)
                        );
                    }
                    _ => {}
                }
                proptest::prop_assert_eq!(lsq.stats(), full.stats);
                proptest::prop_assert_eq!(lsq.bloom_stats(), full.bloom_stats());
                proptest::prop_assert_eq!(lsq.is_drained(), full.next_retire == n);
            }
        }
    }
}
