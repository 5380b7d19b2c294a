//! A set-associative LRU cache model.
//!
//! Both cache levels of the simulated device use this structure. Only tags
//! are stored — the simulator never needs the cached data, just hit/miss
//! outcomes — so a multi-megabyte L2 costs a few hundred kilobytes of host
//! memory.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry (at least 1).
    pub fn num_sets(&self) -> usize {
        (self.capacity_bytes / (self.line_bytes * self.ways)).max(1)
    }
}

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of lookups.
    pub accesses: u64,
    /// Number of lookups that hit.
    pub hits: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when there were no accesses.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Accumulate another level's counters (used when merging SM shards).
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
    }
}

/// A tag-only set-associative cache with LRU replacement.
#[derive(Debug, Clone)]
pub struct SetAssociativeCache {
    config: CacheConfig,
    num_sets: usize,
    /// `tags[set * ways + way]`; `u64::MAX` marks an invalid way.
    tags: Vec<u64>,
    /// Monotonic per-way timestamps for LRU.
    stamps: Vec<u64>,
    clock: u64,
    stats: CacheStats,
}

impl SetAssociativeCache {
    /// Create an empty (all-invalid) cache.
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        SetAssociativeCache {
            config,
            num_sets,
            tags: vec![u64::MAX; num_sets * config.ways],
            stamps: vec![0; num_sets * config.ways],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Access the cache line containing `addr`. Returns `true` on a hit; on a
    /// miss the line is installed (allocate-on-miss), evicting the LRU way.
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        let line = addr / self.config.line_bytes as u64;
        let set = (line % self.num_sets as u64) as usize;
        let base = set * self.config.ways;
        let ways = &mut self.tags[base..base + self.config.ways];
        // Hit?
        if let Some(way) = ways.iter().position(|&t| t == line) {
            self.stamps[base + way] = self.clock;
            self.stats.hits += 1;
            return true;
        }
        // Miss: install in the LRU way.
        let lru_way = (0..self.config.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .expect("cache has at least one way");
        self.tags[base + lru_way] = line;
        self.stamps[base + lru_way] = self.clock;
        false
    }

    /// The cache line index `addr` maps to (used for coalescing: addresses on
    /// the same line cost one access per warp).
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / self.config.line_bytes as u64
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Invalidate all lines and reset counters.
    pub fn reset(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        self.clock = 0;
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> SetAssociativeCache {
        // 4 sets x 2 ways x 64B lines = 512 B.
        SetAssociativeCache::new(CacheConfig {
            capacity_bytes: 512,
            line_bytes: 64,
            ways: 2,
        })
    }

    #[test]
    fn geometry() {
        let c = small_cache();
        assert_eq!(c.config().num_sets(), 4);
        assert_eq!(c.line_of(0), 0);
        assert_eq!(c.line_of(63), 0);
        assert_eq!(c.line_of(64), 1);
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = small_cache();
        assert!(!c.access(0x100)); // cold miss
        assert!(c.access(0x100)); // hit
        assert!(c.access(0x13f)); // same line
        let s = c.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.hits, 2);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn lru_eviction_within_a_set() {
        let mut c = small_cache();
        // Three lines mapping to the same set (stride = num_sets * line = 256).
        let a = 0u64;
        let b = 256u64;
        let d = 512u64;
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a)); // refresh a; b is now LRU
        assert!(!c.access(d)); // evicts b
        assert!(c.access(a)); // a still resident
        assert!(!c.access(b)); // b was evicted
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = small_cache();
        // 64 distinct lines streamed twice: second pass still misses because
        // the working set (4 KiB) exceeds the 512 B capacity.
        for pass in 0..2 {
            for i in 0..64u64 {
                let hit = c.access(i * 64);
                if pass == 0 {
                    assert!(!hit);
                }
            }
        }
        assert!(c.stats().hit_rate() < 0.1);
    }

    #[test]
    fn small_working_set_hits_after_warmup() {
        let mut c = small_cache();
        for _ in 0..10 {
            for i in 0..4u64 {
                c.access(i * 64);
            }
        }
        assert!(c.stats().hit_rate() > 0.8);
    }

    #[test]
    fn reset_clears_contents_and_stats() {
        let mut c = small_cache();
        c.access(0);
        c.access(0);
        c.reset();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(!c.access(0));
    }

    #[test]
    fn hit_rate_monotone_in_capacity() {
        // Simulator sanity property from DESIGN.md: a bigger cache never has
        // a (meaningfully) lower hit rate on the same trace.
        let trace: Vec<u64> = (0..2000u64).map(|i| (i * 7919) % 4096 * 32).collect();
        let mut small = SetAssociativeCache::new(CacheConfig {
            capacity_bytes: 1024,
            line_bytes: 64,
            ways: 4,
        });
        let mut large = SetAssociativeCache::new(CacheConfig {
            capacity_bytes: 64 * 1024,
            line_bytes: 64,
            ways: 4,
        });
        for &a in &trace {
            small.access(a);
            large.access(a);
        }
        assert!(large.stats().hit_rate() >= small.stats().hit_rate());
    }

    #[test]
    fn merge_stats() {
        let mut a = CacheStats {
            accesses: 10,
            hits: 5,
        };
        a.merge(&CacheStats {
            accesses: 20,
            hits: 15,
        });
        assert_eq!(a.accesses, 30);
        assert_eq!(a.hits, 20);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
