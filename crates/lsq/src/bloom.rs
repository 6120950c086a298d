//! A counting bloom filter over in-flight memory addresses.
//!
//! OPT-LSQ (paper §VIII-C) places a bloom filter in front of the CAM: every
//! search first probes the filter, and only filter hits pay for a CAM
//! search. The filter is *counting* so that entries can be removed when
//! memory operations retire. False positives occur naturally under high
//! occupancy — the paper's Figure 18 groups workloads by their bloom hit
//! rate (0%, 0–10%, 10–20%, 20%+).

/// Counting bloom filter keyed by cache-line-granular addresses.
#[derive(Clone, Debug)]
pub struct CountingBloom {
    counters: Vec<u16>,
    num_hashes: u32,
    stats: BloomStats,
}

/// Query statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BloomStats {
    /// Total queries.
    pub queries: u64,
    /// Queries that reported "possibly present".
    pub hits: u64,
}

impl BloomStats {
    /// Hit rate in percent (0 when never queried).
    #[must_use]
    pub fn hit_pct(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            100.0 * self.hits as f64 / self.queries as f64
        }
    }
}

impl CountingBloom {
    /// Creates a filter with `bits` counters and `num_hashes` hash
    /// functions.
    ///
    /// # Panics
    ///
    /// Panics if `bits` or `num_hashes` is zero.
    #[must_use]
    pub fn new(bits: usize, num_hashes: u32) -> Self {
        assert!(bits > 0 && num_hashes > 0, "degenerate bloom geometry");
        Self {
            counters: vec![0; bits],
            num_hashes,
            stats: BloomStats::default(),
        }
    }

    /// A small filter representative of an LSQ front-end (256 counters,
    /// 2 hash functions).
    #[must_use]
    pub fn lsq_default() -> Self {
        Self::new(256, 2)
    }

    fn indices(&self, key: u64) -> impl Iterator<Item = usize> {
        let len = self.counters.len() as u64;
        // SplitMix64-style remixing per hash function.
        (0..self.num_hashes).map(move |i| {
            let mut x = key ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(i) + 1));
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^= x >> 31;
            (x % len) as usize
        })
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: u64) {
        for i in self.indices(key) {
            self.counters[i] = self.counters[i].saturating_add(1);
        }
    }

    /// Removes a previously-inserted key.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the key was never inserted, which would
    /// corrupt the filter.
    pub fn remove(&mut self, key: u64) {
        for i in self.indices(key) {
            debug_assert!(self.counters[i] > 0, "bloom underflow");
            self.counters[i] = self.counters[i].saturating_sub(1);
        }
    }

    /// Queries the filter; `true` means "possibly present" and implies a
    /// CAM search is needed. Counted in [`BloomStats`].
    pub fn query(&mut self, key: u64) -> bool {
        self.stats.queries += 1;
        let hit = self.indices(key).all(|i| self.counters[i] > 0);
        if hit {
            self.stats.hits += 1;
        }
        hit
    }

    /// Query without counting statistics (for tests/diagnostics).
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.indices(key).all(|i| self.counters[i] > 0)
    }

    /// Accumulated query statistics.
    #[must_use]
    pub fn stats(&self) -> BloomStats {
        self.stats
    }

    /// Clears contents (statistics are retained).
    pub fn clear(&mut self) {
        self.counters.fill(0);
    }

    /// Zeroes the query statistics (contents are retained). Paired with
    /// [`CountingBloom::clear`] when a pooled filter starts a new run.
    pub fn reset_stats(&mut self) {
        self.stats = BloomStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_query_remove() {
        let mut b = CountingBloom::lsq_default();
        assert!(!b.query(42));
        b.insert(42);
        assert!(b.query(42));
        b.remove(42);
        assert!(!b.query(42));
        assert_eq!(b.stats().queries, 3);
        assert_eq!(b.stats().hits, 1);
    }

    #[test]
    fn counting_supports_duplicates() {
        let mut b = CountingBloom::lsq_default();
        b.insert(7);
        b.insert(7);
        b.remove(7);
        assert!(b.contains(7), "one copy still present");
        b.remove(7);
        assert!(!b.contains(7));
    }

    #[test]
    fn empty_filter_never_hits() {
        let mut b = CountingBloom::new(64, 3);
        for k in 0..100 {
            assert!(!b.query(k));
        }
        assert_eq!(b.stats().hit_pct(), 0.0);
    }

    #[test]
    fn false_positives_under_load() {
        // Saturate a tiny filter; unseen keys should collide.
        let mut b = CountingBloom::new(8, 2);
        for k in 0..64 {
            b.insert(k);
        }
        assert!(
            b.contains(1_000_003),
            "tiny saturated filter false-positives"
        );
    }

    #[test]
    fn clear_keeps_stats() {
        let mut b = CountingBloom::lsq_default();
        b.insert(1);
        b.query(1);
        b.clear();
        assert!(!b.contains(1));
        assert_eq!(b.stats().queries, 1);
    }

    #[test]
    fn hit_pct() {
        let mut b = CountingBloom::lsq_default();
        b.insert(5);
        b.query(5);
        b.query(6);
        b.query(7);
        b.query(8);
        assert!((b.stats().hit_pct() - 25.0).abs() < 1e-9);
    }
}
