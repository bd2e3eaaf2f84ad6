//! The incremental allocation service: a content-addressed per-function
//! memo cache.
//!
//! Per-function allocation is a pure function of `(function body, config,
//! register file, frequencies, cost model)` — the exact purity the
//! byte-determinism oracle pins — so its results are memoizable *by
//! construction*: a cache hit must replay the stored rewritten body and
//! [`FuncAllocation`] byte-identically to recomputation, at any worker
//! count. This module provides that memo store; the
//! [`crate::driver::ParallelDriver`] consults it before scheduling jobs
//! and the batch service shares one cache across submissions via
//! `BatchConfig::cache`.
//!
//! # Key derivation
//!
//! A [`CacheKey`] is four content fingerprints, all derived with the
//! deterministic [`StableHasher`] (no `serde`, no platform dependence):
//!
//! * `body` — the 128-bit structural digest of the pre-allocation
//!   [`Function`] ([`Function::content_hash`]): CFG shape, every
//!   instruction field (floats by bit pattern), terminators, vreg classes,
//!   and the name;
//! * `cfg` — [`config_fingerprint`]: every [`AllocatorConfig`] knob plus
//!   the [`CostModel`] weights (the weights steer SC/BS/PR decisions, so
//!   they are key material, not metadata);
//! * `file` — [`file_fingerprint`]: the register file's four bank sizes;
//! * `freq` — [`freq_fingerprint`]: the frequency *source* (static
//!   estimate vs dynamic profile) and the function's actual invocation and
//!   block counts. Frequencies are whole-program facts — a function's
//!   profile changes when its *callers* change — so the values themselves
//!   are hashed, not just the mode.
//!
//! # Storage, eviction, and bounds
//!
//! Entries live in mutex-protected shards (selected by the body digest's
//! low bits) so concurrent lookups from the work-stealing pool contend
//! per-shard, not globally. Memory is bounded **by retained bytes, not by
//! entry count**: every entry is charged an estimate of the bytes its
//! rewritten body + allocation summary keep resident
//! ([`CacheStats::bytes`]), each shard owns an equal slice of the
//! configured budget, and inserting past the slice evicts the shard's
//! least-recently-used entries (a monotonic clock stamp per touch — cheap,
//! and within a factor of bookkeeping of true LRU) until the new entry
//! fits. An entry larger than a whole shard slice is never admitted, so
//! the budget invariant `bytes <= byte_budget` holds at every instant.
//!
//! # Invalidation
//!
//! Three explicit levers, plus versioning:
//!
//! * [`AllocCache::invalidate`] — drop one key;
//! * [`AllocCache::invalidate_config`] — flush every entry carrying a
//!   config fingerprint (the "config changed" lever: flush the old
//!   fingerprint's entries without touching other configs' warm state);
//! * [`AllocCache::clear`] — drop everything eagerly;
//! * [`AllocCache::bump_version`] — entries are stamped with the cache
//!   version at insert; bumping it makes every existing entry stale
//!   *lazily* (a stale entry is removed on next touch and counts as a
//!   miss), which is O(1) where `clear` is O(entries).
//!
//! # Metrics
//!
//! The cache keeps its own atomic hit/miss/insert/evict tallies
//! ([`AllocCache::stats`]) and can render them into the existing
//! [`MetricsRegistry`] vocabulary ([`AllocCache::publish`]) for the
//! `/metrics` Prometheus surface. Cache traffic never lands in the merged
//! *program* registry: a warm run must stay byte-identical to a cold one,
//! and observability must not perturb the oracle.
//!
//! # Poisoning (test hook)
//!
//! [`CacheConfig::poison`] deliberately collapses every fingerprint to a
//! constant, so all functions collide on one key. This exists to prove
//! the byte-identity gates *fire*: under poison, a warm run replays the
//! wrong function's allocation and the `incr` byte-identity / determinism
//! oracles must exit nonzero. Never enable it outside that proof.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ccra_analysis::{FreqMode, FuncFreq};
use ccra_ir::{Function, StableHasher};
use ccra_machine::{CostModel, PhysReg, RegisterFile};

use crate::metrics::MetricsRegistry;
use crate::pipeline::{FuncAllocation, RangeSummary};
use crate::types::{AllocatorConfig, AllocatorKind, BsKey, CalleeCostModel, PriorityOrdering};

/// The content-addressed key of one memoized allocation (see the module
/// docs for what each fingerprint covers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The function body's 128-bit structural digest.
    pub body: u128,
    /// The allocator-config + cost-model fingerprint.
    pub cfg: u64,
    /// The register-file fingerprint.
    pub file: u64,
    /// The frequency-source fingerprint.
    pub freq: u64,
}

/// Size and behavior knobs for [`AllocCache`].
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Number of mutex-protected shards (clamped to ≥ 1). More shards,
    /// less lock contention under the work-stealing pool.
    pub shards: usize,
    /// Total retained-byte budget across all shards. Each shard owns
    /// `byte_budget / shards`; eviction keeps every shard within its
    /// slice, so the whole cache never exceeds the budget.
    pub byte_budget: u64,
    /// Collapse all fingerprints to a constant so every function collides
    /// (see the module docs). Test hook for gate-fires proofs only.
    pub poison: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 16,
            byte_budget: 64 * 1024 * 1024,
            poison: false,
        }
    }
}

/// A snapshot of the cache's counters and occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that returned a stored allocation.
    pub hits: u64,
    /// Lookups that found nothing (stale-version touches included).
    pub misses: u64,
    /// Entries actually inserted.
    pub insertions: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Inserts dropped because another thread already stored the key —
    /// N threads hammering one key still produce exactly one entry.
    pub races_lost: u64,
    /// Inserts dropped because a single entry exceeded a whole shard's
    /// byte slice.
    pub oversize_skips: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Retained bytes currently charged.
    pub bytes: u64,
    /// The configured byte budget.
    pub byte_budget: u64,
}

impl CacheStats {
    /// Hits over lookups, in `0.0 ..= 1.0` (0.0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What [`AllocCache::insert`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Whether the entry was stored (false: lost a race or oversized).
    pub inserted: bool,
    /// How many resident entries were evicted to make room.
    pub evicted: u64,
}

/// The [`AllocatorConfig`] + [`CostModel`] fingerprint (see module docs).
pub fn config_fingerprint(config: &AllocatorConfig, cost: &CostModel) -> u64 {
    let mut h = StableHasher::new();
    let (kind, ordering) = match config.kind {
        AllocatorKind::Chaitin => (0u8, 0u8),
        AllocatorKind::Optimistic => (1, 0),
        AllocatorKind::Priority(ord) => (
            2,
            match ord {
                PriorityOrdering::RemovingUnconstrained => 1,
                PriorityOrdering::SortingUnconstrained => 2,
                PriorityOrdering::Sorting => 3,
            },
        ),
        AllocatorKind::Cbh => (3, 0),
    };
    h.write_u8(kind);
    h.write_u8(ordering);
    h.write_u8(u8::from(config.storage_class));
    h.write_u8(match config.callee_cost_model {
        CalleeCostModel::FirstUser => 0,
        CalleeCostModel::Shared => 1,
    });
    h.write_u8(match config.benefit_simplify {
        None => 0,
        Some(BsKey::MaxBenefit) => 1,
        Some(BsKey::BenefitDelta) => 2,
    });
    h.write_u8(u8::from(config.preference));
    h.write_u8(u8::from(config.incremental_reconstruction));
    h.write_u32(config.max_spill_rounds);
    h.write_f64(cost.spill_ref_ops);
    h.write_f64(cost.caller_save_pair_ops);
    h.write_f64(cost.callee_save_pair_ops);
    h.write_f64(cost.shuffle_move_ops);
    h.finish64()
}

/// The register-file fingerprint: the four bank sizes.
pub fn file_fingerprint(file: &RegisterFile) -> u64 {
    let (ci, cf, ei, ef) = file.components();
    let mut h = StableHasher::new();
    h.write_u8(ci);
    h.write_u8(cf);
    h.write_u8(ei);
    h.write_u8(ef);
    h.finish64()
}

/// The frequency-source fingerprint of one function: the source mode plus
/// the actual invocation and per-block execution counts (frequencies are
/// whole-program facts; see the module docs).
pub fn freq_fingerprint(mode: FreqMode, freq: &FuncFreq) -> u64 {
    let mut h = StableHasher::new();
    h.write_u8(match mode {
        FreqMode::Static => 0,
        FreqMode::Dynamic => 1,
    });
    h.write_f64(freq.invocations);
    h.write_u64(freq.block_freq.len() as u64);
    for (_, &f) in freq.block_freq.iter() {
        h.write_f64(f);
    }
    h.finish64()
}

/// An estimate of the bytes one cached entry keeps resident: the rewritten
/// body's instruction stream plus the allocation summary's ranges and
/// per-reference assignment. An estimate — what matters for the bound is
/// that every entry is charged consistently and in proportion to its real
/// footprint.
pub fn retained_bytes(body: &Function, alloc: &FuncAllocation) -> u64 {
    use std::mem::size_of;
    let mut bytes = size_of::<Function>() + size_of::<FuncAllocation>();
    bytes += body.name().len();
    bytes += std::mem::size_of_val(body.params());
    bytes += body.num_vregs() * size_of::<ccra_ir::VRegData>();
    for (_, block) in body.blocks() {
        bytes += size_of::<ccra_ir::Block>() + block.insts.len() * size_of::<ccra_ir::Inst>();
    }
    bytes += alloc.ranges.len() * size_of::<RangeSummary>();
    // One assignment entry: key tuple + value + hash-table slot overhead.
    bytes += alloc.assignment.len()
        * (size_of::<(ccra_ir::BlockId, u32, ccra_ir::VReg, bool)>() + size_of::<PhysReg>() + 16);
    bytes as u64
}

struct Entry {
    body: Function,
    alloc: FuncAllocation,
    bytes: u64,
    stamp: u64,
    version: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<CacheKey, Entry>,
    bytes: u64,
}

/// The content-addressed per-function memo cache (see the module docs).
pub struct AllocCache {
    shards: Vec<Mutex<Shard>>,
    shard_budget: u64,
    byte_budget: u64,
    poison: bool,
    clock: AtomicU64,
    version: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    races_lost: AtomicU64,
    oversize_skips: AtomicU64,
    entries: AtomicU64,
    bytes: AtomicU64,
}

impl std::fmt::Debug for AllocCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AllocCache")
            .field("shards", &self.shards.len())
            .field("byte_budget", &self.byte_budget)
            .field("poison", &self.poison)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for AllocCache {
    fn default() -> Self {
        AllocCache::new(CacheConfig::default())
    }
}

impl AllocCache {
    /// A cache with the given shard count and byte budget.
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1);
        AllocCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: config.byte_budget / shards as u64,
            byte_budget: config.byte_budget,
            poison: config.poison,
            clock: AtomicU64::new(0),
            version: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            races_lost: AtomicU64::new(0),
            oversize_skips: AtomicU64::new(0),
            entries: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// A cache with default sharding and the given byte budget.
    pub fn with_budget(byte_budget: u64) -> Self {
        AllocCache::new(CacheConfig {
            byte_budget,
            ..CacheConfig::default()
        })
    }

    /// Whether this cache was built with poisoned fingerprints (test hook).
    pub fn is_poisoned(&self) -> bool {
        self.poison
    }

    /// Derives the key for one function under the request's fingerprints
    /// (compute `cfg_fp`/`file_fp` once per program with
    /// [`config_fingerprint`]/[`file_fingerprint`]).
    pub fn key(
        &self,
        func: &Function,
        mode: FreqMode,
        freq: &FuncFreq,
        cfg_fp: u64,
        file_fp: u64,
    ) -> CacheKey {
        if self.poison {
            // Deliberate total collision (see the module docs).
            return CacheKey {
                body: 0,
                cfg: 0,
                file: 0,
                freq: 0,
            };
        }
        CacheKey {
            body: func.content_hash(),
            cfg: cfg_fp,
            file: file_fp,
            freq: freq_fingerprint(mode, freq),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        &self.shards[(key.body as usize ^ key.freq as usize) % self.shards.len()]
    }

    /// Looks up a key, returning clones of the stored rewritten body and
    /// allocation. A stale-versioned entry is removed and reported as a
    /// miss.
    pub fn get(&self, key: &CacheKey) -> Option<(Function, FuncAllocation)> {
        let version = self.version.load(Ordering::Relaxed);
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        match shard.map.get_mut(key) {
            Some(entry) if entry.version == version => {
                entry.stamp = self.clock.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some((entry.body.clone(), entry.alloc.clone()))
            }
            Some(_) => {
                let stale = shard.map.remove(key).expect("entry just observed");
                shard.bytes -= stale.bytes;
                self.entries.fetch_sub(1, Ordering::Relaxed);
                self.bytes.fetch_sub(stale.bytes, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores one allocation under `key`, evicting least-recently-used
    /// entries from the key's shard until the entry fits its byte slice.
    /// A key already present keeps the *existing* entry (the insert counts
    /// as a lost race): concurrent recomputations of one function collapse
    /// to one resident copy. An entry larger than a whole shard slice is
    /// never admitted.
    pub fn insert(&self, key: CacheKey, body: &Function, alloc: &FuncAllocation) -> InsertOutcome {
        let bytes = retained_bytes(body, alloc);
        if bytes > self.shard_budget {
            self.oversize_skips.fetch_add(1, Ordering::Relaxed);
            return InsertOutcome {
                inserted: false,
                evicted: 0,
            };
        }
        let version = self.version.load(Ordering::Relaxed);
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        if let Some(existing) = shard.map.get(&key) {
            if existing.version == version {
                self.races_lost.fetch_add(1, Ordering::Relaxed);
                return InsertOutcome {
                    inserted: false,
                    evicted: 0,
                };
            }
            // Stale under an old version: replace it below.
            let stale = shard.map.remove(&key).expect("entry just observed");
            shard.bytes -= stale.bytes;
            self.entries.fetch_sub(1, Ordering::Relaxed);
            self.bytes.fetch_sub(stale.bytes, Ordering::Relaxed);
        }
        let mut evicted = 0u64;
        while shard.bytes + bytes > self.shard_budget {
            let victim = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
                .expect("non-empty shard over budget");
            let gone = shard.map.remove(&victim).expect("victim resident");
            shard.bytes -= gone.bytes;
            self.entries.fetch_sub(1, Ordering::Relaxed);
            self.bytes.fetch_sub(gone.bytes, Ordering::Relaxed);
            evicted += 1;
        }
        shard.map.insert(
            key,
            Entry {
                body: body.clone(),
                alloc: alloc.clone(),
                bytes,
                stamp: self.clock.fetch_add(1, Ordering::Relaxed),
                version,
            },
        );
        shard.bytes += bytes;
        self.entries.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        InsertOutcome {
            inserted: true,
            evicted,
        }
    }

    /// Removes one key. Returns whether it was resident.
    pub fn invalidate(&self, key: &CacheKey) -> bool {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        match shard.map.remove(key) {
            Some(entry) => {
                shard.bytes -= entry.bytes;
                self.entries.fetch_sub(1, Ordering::Relaxed);
                self.bytes.fetch_sub(entry.bytes, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Flushes every entry carrying the given config fingerprint (the
    /// "this config changed" lever). Returns how many entries dropped.
    pub fn invalidate_config(&self, cfg_fp: u64) -> usize {
        let mut removed = 0usize;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            let victims: Vec<CacheKey> = shard
                .map
                .keys()
                .filter(|k| k.cfg == cfg_fp)
                .copied()
                .collect();
            for key in victims {
                let entry = shard.map.remove(&key).expect("victim resident");
                shard.bytes -= entry.bytes;
                self.entries.fetch_sub(1, Ordering::Relaxed);
                self.bytes.fetch_sub(entry.bytes, Ordering::Relaxed);
                removed += 1;
            }
        }
        removed
    }

    /// Drops every entry eagerly.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            shard.map.clear();
            shard.bytes = 0;
        }
        self.entries.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
    }

    /// Bumps the entry version: every currently resident entry becomes
    /// stale lazily — O(1) now, each stale entry removed (and counted a
    /// miss) on its next touch. The coarse invalidation lever when a
    /// whole-world input (e.g. the toolchain itself) changes.
    pub fn bump_version(&self) {
        self.version.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot of the counters (each counter is
    /// individually exact; the set is read without a global lock).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            races_lost: self.races_lost.load(Ordering::Relaxed),
            oversize_skips: self.oversize_skips.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            byte_budget: self.byte_budget,
        }
    }

    /// Renders the stats into `metrics` under the `cache_*` names —
    /// counters `cache_hits_total`, `cache_misses_total`,
    /// `cache_insertions_total`, `cache_evictions_total`; gauges
    /// `cache_entries`, `cache_bytes`, `cache_budget_bytes`,
    /// `cache_hit_rate`. Call on a fresh scrape-time registry (counters
    /// are *added*, so publishing twice into one registry double-counts).
    pub fn publish(&self, metrics: &mut MetricsRegistry) {
        let stats = self.stats();
        metrics.add("cache_hits_total", stats.hits);
        metrics.add("cache_misses_total", stats.misses);
        metrics.add("cache_insertions_total", stats.insertions);
        metrics.add("cache_evictions_total", stats.evictions);
        metrics.gauge_set("cache_entries", stats.entries as f64);
        metrics.gauge_set("cache_bytes", stats.bytes as f64);
        metrics.gauge_set("cache_budget_bytes", stats.byte_budget as f64);
        metrics.gauge_set("cache_hit_rate", stats.hit_rate());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::allocate_function;
    use ccra_analysis::FrequencyInfo;
    use ccra_ir::{BinOp, FunctionBuilder, Program, RegClass};

    fn sample_function(name: &str, value: i64) -> Function {
        let mut b = FunctionBuilder::new(name);
        let x = b.new_vreg(RegClass::Int);
        let y = b.new_vreg(RegClass::Int);
        b.set_params(vec![x]);
        b.iconst(y, value);
        let z = b.new_vreg(RegClass::Int);
        b.binary(BinOp::Add, z, x, y);
        b.ret(Some(z));
        b.finish()
    }

    /// One allocated sample: the pre-allocation function, its key inputs,
    /// and the stored value (rewritten body + allocation).
    fn allocated(name: &str, value: i64) -> (Function, Function, FuncAllocation) {
        let f = sample_function(name, value);
        let mut program = Program::new();
        let id = program.add_function(f.clone());
        program.set_main(id);
        let freq = FrequencyInfo::estimate(&program);
        let (body, alloc) = allocate_function(
            &f,
            freq.func(id),
            &RegisterFile::mips_full(),
            &AllocatorConfig::improved(),
            &CostModel::paper(),
        )
        .expect("sample allocates");
        (f, body, alloc)
    }

    fn key_of(cache: &AllocCache, f: &Function) -> CacheKey {
        let mut program = Program::new();
        let id = program.add_function(f.clone());
        program.set_main(id);
        let freq = FrequencyInfo::estimate(&program);
        let cfg = config_fingerprint(&AllocatorConfig::improved(), &CostModel::paper());
        let file = file_fingerprint(&RegisterFile::mips_full());
        cache.key(f, freq.mode(), freq.func(id), cfg, file)
    }

    #[test]
    fn roundtrip_hit_returns_the_stored_allocation() {
        let cache = AllocCache::default();
        let (f, body, alloc) = allocated("f", 3);
        let key = key_of(&cache, &f);
        assert!(cache.get(&key).is_none(), "cold lookup misses");
        assert!(cache.insert(key, &body, &alloc).inserted);
        let (got_body, got_alloc) = cache.get(&key).expect("warm lookup hits");
        assert_eq!(got_body, body);
        assert_eq!(got_alloc, alloc);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!(stats.bytes > 0 && stats.bytes <= stats.byte_budget);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn every_fingerprint_component_keys_the_cache() {
        let cache = AllocCache::default();
        let (f, body, alloc) = allocated("f", 3);
        let key = key_of(&cache, &f);
        cache.insert(key, &body, &alloc);

        // Different body.
        let g = sample_function("f", 4);
        assert!(
            cache.get(&key_of(&cache, &g)).is_none(),
            "body change misses"
        );
        // Different config.
        let base_cfg = config_fingerprint(&AllocatorConfig::base(), &CostModel::paper());
        assert!(cache
            .get(&CacheKey {
                cfg: base_cfg,
                ..key
            })
            .is_none());
        // Different cost model: also a config-fingerprint change.
        let heavy = CostModel {
            spill_ref_ops: 9.0,
            ..CostModel::paper()
        };
        let heavy_cfg = config_fingerprint(&AllocatorConfig::improved(), &heavy);
        assert_ne!(heavy_cfg, key.cfg, "cost weights are key material");
        // Different register file.
        let tight = file_fingerprint(&RegisterFile::new(8, 6, 2, 2));
        assert!(cache.get(&CacheKey { file: tight, ..key }).is_none());
        // Different frequencies.
        assert!(cache
            .get(&CacheKey {
                freq: key.freq ^ 1,
                ..key
            })
            .is_none());
    }

    #[test]
    fn invalidation_levers_work() {
        let cache = AllocCache::default();
        let (f, body, alloc) = allocated("f", 3);
        let (g, gbody, galloc) = allocated("g", 5);
        let kf = key_of(&cache, &f);
        let kg = key_of(&cache, &g);
        cache.insert(kf, &body, &alloc);
        cache.insert(kg, &gbody, &galloc);

        // Per-key invalidate.
        assert!(cache.invalidate(&kf));
        assert!(!cache.invalidate(&kf), "already gone");
        assert!(cache.get(&kf).is_none());
        assert!(cache.get(&kg).is_some(), "sibling untouched");

        // Flush by config fingerprint.
        cache.insert(kf, &body, &alloc);
        assert_eq!(
            cache.invalidate_config(kf.cfg),
            2,
            "both entries share the config"
        );
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().bytes, 0);

        // clear() and bump_version().
        cache.insert(kf, &body, &alloc);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        cache.insert(kf, &body, &alloc);
        cache.bump_version();
        assert!(cache.get(&kf).is_none(), "stale version is a miss");
        assert_eq!(cache.stats().entries, 0, "stale entry removed on touch");
        // Re-inserting under the new version works.
        assert!(cache.insert(kf, &body, &alloc).inserted);
        assert!(cache.get(&kf).is_some());
    }

    #[test]
    fn eviction_never_violates_the_byte_budget() {
        let (_f, body, alloc) = allocated("f", 3);
        let per_entry = retained_bytes(&body, &alloc);
        // Room for about three entries in one shard.
        let cache = AllocCache::new(CacheConfig {
            shards: 1,
            byte_budget: per_entry * 3 + per_entry / 2,
            poison: false,
        });
        let mut keys = Vec::new();
        for i in 0..16 {
            let g = sample_function(&format!("f{i}"), i);
            let key = key_of(&cache, &g);
            cache.insert(key, &body, &alloc);
            keys.push(key);
            let stats = cache.stats();
            assert!(
                stats.bytes <= stats.byte_budget,
                "after insert {i}: {} > {}",
                stats.bytes,
                stats.byte_budget
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.insertions, 16);
        assert_eq!(stats.entries, 3, "budget admits three entries");
        assert_eq!(stats.evictions, 13, "the rest were evicted LRU");
        // LRU-ish: the most recently inserted keys are the survivors.
        assert!(cache.get(&keys[15]).is_some());
        assert!(cache.get(&keys[0]).is_none());
    }

    #[test]
    fn recently_touched_entries_survive_eviction() {
        let (_f, body, alloc) = allocated("f", 3);
        let per_entry = retained_bytes(&body, &alloc);
        let cache = AllocCache::new(CacheConfig {
            shards: 1,
            byte_budget: per_entry * 2 + per_entry / 2,
            poison: false,
        });
        let k0 = key_of(&cache, &sample_function("a", 0));
        let k1 = key_of(&cache, &sample_function("b", 1));
        let k2 = key_of(&cache, &sample_function("c", 2));
        cache.insert(k0, &body, &alloc);
        cache.insert(k1, &body, &alloc);
        // Touch k0 so k1 is now the least recently used.
        assert!(cache.get(&k0).is_some());
        cache.insert(k2, &body, &alloc);
        assert!(cache.get(&k0).is_some(), "recently touched survives");
        assert!(cache.get(&k1).is_none(), "LRU entry evicted");
        assert!(cache.get(&k2).is_some());
    }

    #[test]
    fn oversized_entries_are_never_admitted() {
        let (f, body, alloc) = allocated("f", 3);
        let cache = AllocCache::new(CacheConfig {
            shards: 2,
            byte_budget: 16, // each shard slice is 8 bytes — nothing fits
            poison: false,
        });
        let key = key_of(&cache, &f);
        let outcome = cache.insert(key, &body, &alloc);
        assert!(!outcome.inserted);
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.bytes, 0);
        assert_eq!(stats.oversize_skips, 1);
    }

    #[test]
    fn hammering_one_key_produces_one_insert() {
        let (f, body, alloc) = allocated("f", 3);
        let cache = std::sync::Arc::new(AllocCache::default());
        let key = key_of(&cache, &f);
        let threads = 8;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let cache = std::sync::Arc::clone(&cache);
                let (body, alloc) = (body.clone(), alloc.clone());
                scope.spawn(move || {
                    for _ in 0..50 {
                        if cache.get(&key).is_none() {
                            cache.insert(key, &body, &alloc);
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "one resident copy");
        assert_eq!(stats.insertions, 1, "exactly one insert won");
        assert_eq!(
            stats.hits + stats.misses,
            threads * 50,
            "every lookup accounted"
        );
        assert_eq!(
            stats.races_lost,
            stats.misses - 1,
            "every miss after the winner lost the insert race"
        );
    }

    #[test]
    fn poison_collapses_every_key() {
        let cache = AllocCache::new(CacheConfig {
            poison: true,
            ..CacheConfig::default()
        });
        assert!(cache.is_poisoned());
        let (f, body, alloc) = allocated("f", 3);
        let (g, ..) = allocated("g", 5);
        let kf = key_of(&cache, &f);
        let kg = key_of(&cache, &g);
        assert_eq!(kf, kg, "poison collides distinct functions");
        cache.insert(kf, &body, &alloc);
        let (got, _) = cache.get(&kg).expect("collision hits");
        assert_eq!(
            got, body,
            "g's lookup replays f's allocation — wrong on purpose"
        );
    }

    #[test]
    fn publish_renders_cache_metrics() {
        let cache = AllocCache::default();
        let (f, body, alloc) = allocated("f", 3);
        let key = key_of(&cache, &f);
        cache.get(&key); // miss
        cache.insert(key, &body, &alloc);
        cache.get(&key); // hit
        let mut m = MetricsRegistry::new();
        cache.publish(&mut m);
        assert_eq!(m.counter("cache_hits_total"), 1);
        assert_eq!(m.counter("cache_misses_total"), 1);
        assert_eq!(m.counter("cache_insertions_total"), 1);
        assert_eq!(m.counter("cache_evictions_total"), 0);
        assert_eq!(m.gauge("cache_entries"), Some(1.0));
        assert!(m.gauge("cache_bytes").unwrap() > 0.0);
        assert_eq!(m.gauge("cache_hit_rate"), Some(0.5));
        let text = m.to_prometheus_text();
        assert!(text.contains("cache_hits_total 1"), "{text}");
    }
}
