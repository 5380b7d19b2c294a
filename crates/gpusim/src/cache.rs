//! A set-associative cache model with least-recently-used replacement.
//!
//! Both cache levels of the simulated device use this structure. Only tags
//! are stored — the simulator never needs the cached data, just hit/miss
//! outcomes — so a multi-megabyte L2 costs a few hundred kilobytes of host
//! memory.
//!
//! Each set keeps its tags in most-recently-used order. A hit moves its tag
//! to the front; a miss inserts the new tag at the front and drops the last
//! one. Empty ways sit behind every valid tag, so they fill first, and once
//! a set is full the dropped tag is its least recently used one: this is
//! LRU replacement without per-way timestamps, and a probe costs one scan
//! of one set.
//!
//! The cache is addressed by line index. Line sizes are powers of two
//! ([`crate::kernel::validate_device_config`] rejects any other), so the
//! line of a byte address is a shift. The set of a line is the line modulo
//! the number of sets, which need not be a power of two (the RTX 2080's
//! per-SM L2 slice has 44 sets); it is computed by a multiply-shift with a
//! constant fixed at construction, never by a division.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Cache line size in bytes; a power of two.
    pub line_bytes: usize,
    /// Associativity (ways per set); at least 1.
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

/// `x % d` without a division (Lemire, Kaser and Kurz, "Faster remainder by
/// direct computation", 2019). With a 128-bit multiplier the remainder is
/// exact for every `u64` `x` and every `d ≥ 1`.
#[derive(Debug, Clone, Copy)]
struct FastMod {
    /// `⌈2^128 / d⌉`, which wraps to 0 for `d = 1` (every remainder is 0).
    m: u128,
    d: u64,
}

impl FastMod {
    fn new(d: u64) -> Self {
        assert!(d >= 1, "the divisor must be positive");
        FastMod {
            m: (u128::MAX / d as u128).wrapping_add(1),
            d,
        }
    }

    #[inline]
    fn rem(&self, x: u64) -> u64 {
        // The fractional part of x / d, scaled by 2^128...
        let frac = self.m.wrapping_mul(x as u128);
        // ...times d, keeping the bits above 2^128 of the 192-bit product.
        let d = self.d as u128;
        let low = ((frac as u64) as u128 * d) >> 64;
        let high = (frac >> 64) * d;
        ((low + high) >> 64) as u64
    }
}

/// A tag-only set-associative cache with LRU replacement.
#[derive(Debug, Clone)]
pub struct SetAssociativeCache {
    config: CacheConfig,
    /// `log2(line_bytes)`: `addr >> line_shift` is the line of `addr`.
    line_shift: u32,
    sets: FastMod,
    /// `tags[set * ways..][..ways]`, most recently used first; `u64::MAX`
    /// marks an empty way, and empty ways follow every valid tag.
    tags: Vec<u64>,
    stats: CacheStats,
}

impl SetAssociativeCache {
    /// Create an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if `config.ways` is 0 or `config.line_bytes` is not a power
    /// of two.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.ways >= 1, "a cache needs at least one way");
        assert!(
            config.line_bytes.is_power_of_two(),
            "cache line sizes must be powers of two, got {}",
            config.line_bytes
        );
        let num_sets = config.num_sets();
        SetAssociativeCache {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            sets: FastMod::new(num_sets as u64),
            tags: vec![u64::MAX; num_sets * config.ways],
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// `log2` of the line size: `addr >> line_shift()` is the line of the
    /// byte address `addr`.
    #[inline]
    pub fn line_shift(&self) -> u32 {
        self.line_shift
    }

    /// The cache line index `addr` maps to (used for coalescing: addresses on
    /// the same line cost one access per warp).
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Look up the line with index `line`. Returns `true` on a hit. Either
    /// way the line becomes its set's most recently used: a miss installs
    /// it (allocate-on-miss), dropping the least recently used line of a
    /// full set.
    #[inline]
    pub fn access(&mut self, line: u64) -> bool {
        self.stats.accesses += 1;
        let ways = self.config.ways;
        let base = self.sets.rem(line) as usize * ways;
        let set = &mut self.tags[base..base + ways];
        let (hit, way) = match set.iter().position(|&t| t == line) {
            Some(way) => (true, way),
            None => (false, ways - 1),
        };
        // Shift the more recently used tags back one way and put `line` in
        // front: on a hit this closes the hole it leaves, on a miss it
        // drops the last tag.
        set.copy_within(..way, 1);
        set[0] = line;
        self.stats.hits += hit as u64;
        hit
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Invalidate all lines and reset counters.
    pub fn reset(&mut self) {
        self.tags.fill(u64::MAX);
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;

    fn small_cache() -> SetAssociativeCache {
        // 4 sets x 2 ways x 64B lines = 512 B.
        SetAssociativeCache::new(CacheConfig {
            capacity_bytes: 512,
            line_bytes: 64,
            ways: 2,
        })
    }

    /// Access the line holding byte address `addr`.
    fn access_addr(c: &mut SetAssociativeCache, addr: u64) -> bool {
        let line = c.line_of(addr);
        c.access(line)
    }

    #[test]
    fn geometry() {
        let c = small_cache();
        assert_eq!(c.config().num_sets(), 4);
        assert_eq!(c.line_shift(), 6);
        assert_eq!(c.line_of(0), 0);
        assert_eq!(c.line_of(63), 0);
        assert_eq!(c.line_of(64), 1);
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = small_cache();
        assert!(!access_addr(&mut c, 0x100)); // cold miss
        assert!(access_addr(&mut c, 0x100)); // hit
        assert!(access_addr(&mut c, 0x13f)); // same line
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
        assert!(!access_addr(&mut c, a));
        assert!(!access_addr(&mut c, b));
        assert!(access_addr(&mut c, a)); // refresh a; b is now LRU
        assert!(!access_addr(&mut c, d)); // evicts b
        assert!(access_addr(&mut c, a)); // a still resident
        assert!(!access_addr(&mut c, b)); // b was evicted
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = small_cache();
        // 64 distinct lines streamed twice: second pass still misses because
        // the working set (4 KiB) exceeds the 512 B capacity.
        for pass in 0..2 {
            for i in 0..64u64 {
                let hit = access_addr(&mut c, i * 64);
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
                access_addr(&mut c, i * 64);
            }
        }
        assert!(c.stats().hit_rate() > 0.8);
    }

    #[test]
    fn reset_clears_contents_and_stats() {
        let mut c = small_cache();
        access_addr(&mut c, 0);
        access_addr(&mut c, 0);
        c.reset();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(!access_addr(&mut c, 0));
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
            access_addr(&mut small, a);
            access_addr(&mut large, a);
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

    #[test]
    #[should_panic(expected = "powers of two")]
    fn a_line_size_that_is_not_a_power_of_two_is_rejected() {
        SetAssociativeCache::new(CacheConfig {
            capacity_bytes: 4096,
            line_bytes: 96,
            ways: 2,
        });
    }

    /// A seeded xorshift stream.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    #[test]
    fn fast_remainders_equal_division() {
        let mut next = rng(0x9E37_79B9_7F4A_7C15);
        let edges = [
            0,
            1,
            2,
            43,
            44,
            45,
            u32::MAX as u64,
            1 << 32,
            u64::MAX - 1,
            u64::MAX,
        ];
        for d in (1..=130u64).chain([
            44,
            128,
            1 << 31,
            u32::MAX as u64,
            (1 << 40) + 7,
            u64::MAX - 1,
            u64::MAX,
        ]) {
            let f = FastMod::new(d);
            for x in edges.into_iter().chain((0..200).map(|_| next())) {
                assert_eq!(f.rem(x), x % d, "{x} % {d}");
            }
        }
    }

    /// LRU with per-way timestamps: the reference whose hit/miss sequence
    /// [`SetAssociativeCache`] must replay.
    struct StampLru {
        ways: usize,
        num_sets: u64,
        tags: Vec<u64>,
        stamps: Vec<u64>,
        clock: u64,
        stats: CacheStats,
    }

    impl StampLru {
        fn new(config: CacheConfig) -> Self {
            let num_sets = config.num_sets();
            StampLru {
                ways: config.ways,
                num_sets: num_sets as u64,
                tags: vec![u64::MAX; num_sets * config.ways],
                stamps: vec![0; num_sets * config.ways],
                clock: 0,
                stats: CacheStats::default(),
            }
        }

        fn access(&mut self, line: u64) -> bool {
            self.clock += 1;
            self.stats.accesses += 1;
            let base = (line % self.num_sets) as usize * self.ways;
            if let Some(way) = self.tags[base..base + self.ways]
                .iter()
                .position(|&t| t == line)
            {
                self.stamps[base + way] = self.clock;
                self.stats.hits += 1;
                return true;
            }
            let lru_way = (0..self.ways)
                .min_by_key(|&w| self.stamps[base + w])
                .expect("cache has at least one way");
            self.tags[base + lru_way] = line;
            self.stamps[base + lru_way] = self.clock;
            false
        }
    }

    /// Seeded line traces: uniform over four times the cache's lines,
    /// conflicts within a few sets, and heavy repeats of a small set.
    fn traces(config: CacheConfig, seed: u64) -> Vec<(&'static str, Vec<u64>)> {
        let sets = config.num_sets() as u64;
        let lines = sets * config.ways as u64;
        let mut next = rng(seed);
        let uniform = (0..4000).map(|_| next() % (4 * lines)).collect();
        let conflicts = (0..4000)
            .map(|_| {
                let set = next() % 3;
                let tag = next() % (2 * config.ways as u64 + 1);
                set + tag * sets + (1 << 20) * sets
            })
            .collect();
        let hot: Vec<u64> = (0..config.ways as u64 + 2).map(|_| next()).collect();
        let repeats = (0..4000)
            .map(|_| match next() % 8 {
                0 => next() % (2 * lines),
                r => hot[(r as usize * 7 + (next() % 3) as usize) % hot.len()],
            })
            .collect();
        vec![
            ("uniform", uniform),
            ("conflicts", conflicts),
            ("repeats", repeats),
        ]
    }

    #[test]
    fn mru_order_replays_the_stamp_lru_on_every_access() {
        let rtx = DeviceConfig::rtx_2080();
        let tiny = DeviceConfig::tiny_test_device();
        // The per-SM L2 slice the shards build.
        let slice = |c: &DeviceConfig| CacheConfig {
            capacity_bytes: c.l2.capacity_bytes / c.num_sms,
            ..c.l2
        };
        let geometries = [
            ("rtx_2080 L1", rtx.l1),
            ("rtx_2080 L2 slice", slice(&rtx)),
            (
                "1 set x 16 ways",
                CacheConfig {
                    capacity_bytes: 16 * 64,
                    line_bytes: 64,
                    ways: 16,
                },
            ),
            (
                "8 sets x 1 way",
                CacheConfig {
                    capacity_bytes: 8 * 128,
                    line_bytes: 128,
                    ways: 1,
                },
            ),
            ("tiny L1", tiny.l1),
            ("tiny L2 slice", slice(&tiny)),
        ];
        assert_eq!(geometries[0].1.num_sets(), 128);
        assert_eq!(geometries[1].1.num_sets(), 44);
        assert_eq!(geometries[2].1.num_sets(), 1);
        assert_eq!(geometries[3].1.num_sets(), 8);
        for (name, config) in geometries {
            for seed in 1..=3u64 {
                for (kind, trace) in traces(config, seed * 0x2545_F491_4F6C_DD1D) {
                    let mut mru = SetAssociativeCache::new(config);
                    let mut stamp = StampLru::new(config);
                    for (i, &line) in trace.iter().enumerate() {
                        assert_eq!(
                            mru.access(line),
                            stamp.access(line),
                            "{name}, {kind} trace, seed {seed}, access {i}"
                        );
                    }
                    assert_eq!(mru.stats(), stamp.stats, "{name}, {kind}, seed {seed}");
                    let s = mru.stats();
                    assert!(s.hits > 0 && s.hits < s.accesses, "{name} {kind}: {s:?}");
                }
            }
        }
    }
}
