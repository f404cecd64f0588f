//! Sharded, lock-based memo table used by the evaluation engine, with an
//! optional capacity-bounded mode.
//!
//! A plain `Mutex<HashMap>` serialises every probe; under the rayon sweeps
//! all workers hammer the table at once. Sharding by key hash keeps the
//! critical sections independent without pulling in a concurrent-map
//! dependency. Correctness does not depend on shard count or thread
//! interleaving: values are keyed, and [`ShardedCache::insert_or_keep`]
//! tolerates duplicate computation by keeping the first-inserted value.
//!
//! ## Bounded mode
//!
//! An open arrival stream produces an unbounded set of distinct keys (every
//! job carries its own continuous input size), so an unbounded memo is a
//! slow memory leak: resident entries scale with *history*, not with live
//! work. [`ShardedCache::with_budget`] caps the table at a fixed number of
//! entries, split evenly across the shards, and evicts with a per-shard
//! CLOCK (second-chance) sweep — an LRU approximation whose state is one
//! referenced bit per slot and one hand index per shard, with none of the
//! linked-list churn of exact LRU. Hits set the referenced bit; the hand
//! clears bits until it finds an unreferenced victim, so recently probed
//! entries survive and cold entries are recycled in deterministic slot
//! order.
//!
//! ## Determinism
//!
//! Shard choice uses a fixed-seed FNV-1a hasher (not `RandomState`, which
//! reseeds per process), so shard occupancy — and therefore the CLOCK
//! eviction order — is reproducible run-to-run. The scale-out bench relies
//! on this: CI replays the same seeded trace twice and byte-diffs the
//! reports, including hit/miss/eviction counts.

use ecost_telemetry::Counter;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Mutex;

const SHARDS: usize = 16;

/// Fixed seed for the shard/table hasher. Any constant works; this one is
/// arbitrary but stable, which is the point — see the module docs.
const CACHE_HASH_SEED: u64 = 0x5EED_0CAC_4E00_0001;

/// `BuildHasher` producing seeded FNV-1a hashers with a strong finalizer.
///
/// FNV-1a mixes low bits weakly, so [`SeededFnv::finish`] applies a
/// SplitMix64-style avalanche; both the shard index (low bits, mod 16) and
/// the `HashMap` bucket choice come out well distributed.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SeededState;

impl BuildHasher for SeededState {
    type Hasher = SeededFnv;

    fn build_hasher(&self) -> SeededFnv {
        SeededFnv(CACHE_HASH_SEED ^ 0xcbf2_9ce4_8422_2325)
    }
}

/// Seeded FNV-1a with a SplitMix64 finalizer.
#[derive(Debug)]
pub(crate) struct SeededFnv(u64);

impl Hasher for SeededFnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One cache slot: the stored pair plus the CLOCK referenced bit.
#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    referenced: bool,
}

/// One independently locked shard: a slab of slots indexed by a hash map,
/// plus the CLOCK hand. Unbounded shards simply never reach `cap`.
#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<K, usize, SeededState>,
    slots: Vec<Slot<K, V>>,
    hand: usize,
    cap: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> Shard<K, V> {
    fn new(cap: usize) -> Shard<K, V> {
        Shard {
            map: HashMap::with_hasher(SeededState),
            slots: Vec::new(),
            hand: 0,
            cap,
        }
    }

    /// CLOCK sweep: give referenced slots a second chance, evict the first
    /// unreferenced one. Terminates within two laps (the first lap clears
    /// every bit). Only called when `slots` is non-empty.
    fn evict_one(&mut self) -> usize {
        loop {
            let i = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            if self.slots[i].referenced {
                self.slots[i].referenced = false;
            } else {
                self.map.remove(&self.slots[i].key);
                return i;
            }
        }
    }
}

/// A hash map split into independently locked shards, optionally bounded.
#[derive(Debug)]
pub(crate) struct ShardedCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    hasher: SeededState,
    evictions: Counter,
}

impl<K: Eq + Hash + Clone, V: Clone> ShardedCache<K, V> {
    /// Unbounded cache (the classic memo): entries are never evicted and
    /// the counter never fires.
    pub(crate) fn new(evictions: Counter) -> Self {
        Self::with_budget(None, evictions)
    }

    /// Cache with an optional total entry budget. `Some(n)` caps the table
    /// at `n / 16` entries per shard (minimum 1), so the total never
    /// exceeds `max(n, 16)`; each eviction bumps `evictions`. `None` is
    /// unbounded.
    pub(crate) fn with_budget(budget: Option<usize>, evictions: Counter) -> Self {
        let per_shard = match budget {
            Some(n) => (n / SHARDS).max(1),
            None => usize::MAX,
        };
        ShardedCache {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            hasher: SeededState,
            evictions,
        }
    }

    fn shard(&self, key: &K) -> &Mutex<Shard<K, V>> {
        &self.shards[(self.hasher.hash_one(key) as usize) % SHARDS]
    }

    /// Clone the cached value for `key`, if present. A hit marks the slot
    /// recently used for the CLOCK sweep.
    pub(crate) fn get(&self, key: &K) -> Option<V> {
        let mut guard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        let idx = guard.map.get(key).copied()?;
        guard.slots[idx].referenced = true;
        Some(guard.slots[idx].value.clone())
    }

    /// Insert `value` unless `key` is already present; either way return
    /// the value now stored under `key`. Keeping the incumbent makes
    /// concurrent duplicate computations converge on one shared value.
    /// A full bounded shard evicts one cold entry first.
    pub(crate) fn insert_or_keep(&self, key: K, value: V) -> V {
        let mut guard = self.shard(&key).lock().unwrap_or_else(|e| e.into_inner());
        if let Some(idx) = guard.map.get(&key).copied() {
            guard.slots[idx].referenced = true;
            return guard.slots[idx].value.clone();
        }
        if guard.slots.len() >= guard.cap {
            let victim = guard.evict_one();
            self.evictions.inc();
            guard.map.insert(key.clone(), victim);
            guard.slots[victim] = Slot {
                key,
                value: value.clone(),
                referenced: true,
            };
        } else {
            let idx = guard.slots.len();
            guard.map.insert(key.clone(), idx);
            guard.slots.push(Slot {
                key,
                value: value.clone(),
                referenced: true,
            });
        }
        value
    }

    /// Probe a whole window of keys with at most one lock acquisition per
    /// touched shard, writing `keys[i]`'s cached value (or `None`) to
    /// `out[i]`. Hits mark their slots referenced, and within each shard
    /// keys are visited in input order, so the CLOCK state afterwards is
    /// identical to a sequence of [`ShardedCache::get`] calls — shards are
    /// independent, so cross-shard ordering cannot be observed.
    pub(crate) fn get_many(&self, keys: &[K], out: &mut Vec<Option<V>>) {
        out.clear();
        out.resize_with(keys.len(), || None);
        let mut shard_of: Vec<u8> = Vec::with_capacity(keys.len());
        let mut touched = [false; SHARDS];
        for key in keys {
            let s = (self.hasher.hash_one(key) as usize) % SHARDS;
            shard_of.push(s as u8);
            touched[s] = true;
        }
        for (s, shard) in self.shards.iter().enumerate() {
            if !touched[s] {
                continue;
            }
            let mut guard = shard.lock().unwrap_or_else(|e| e.into_inner());
            for (i, key) in keys.iter().enumerate() {
                if shard_of[i] as usize != s {
                    continue;
                }
                if let Some(idx) = guard.map.get(key).copied() {
                    guard.slots[idx].referenced = true;
                    out[i] = Some(guard.slots[idx].value.clone());
                }
            }
        }
    }

    /// Insert a window of entries with at most one lock acquisition per
    /// touched shard, pushing the value now stored under each key (the
    /// incumbent on a duplicate, first-insert-wins like
    /// [`ShardedCache::insert_or_keep`]) to `out` in input order. Within a
    /// shard, entries land in input order, so bounded-mode CLOCK eviction
    /// takes exactly the victims sequential inserts would; the eviction
    /// counter is bumped once per window with the accumulated delta.
    pub(crate) fn insert_many(&self, entries: &[(K, V)], out: &mut Vec<V>) {
        out.clear();
        out.reserve(entries.len());
        let mut shard_of: Vec<u8> = Vec::with_capacity(entries.len());
        let mut touched = [false; SHARDS];
        for (key, _) in entries {
            let s = (self.hasher.hash_one(key) as usize) % SHARDS;
            shard_of.push(s as u8);
            touched[s] = true;
        }
        let mut evicted = 0u64;
        // `out` must come back in input order, but each shard is visited
        // once; stage values keyed by input index, then emit in order.
        let mut staged: Vec<Option<V>> = Vec::new();
        staged.resize_with(entries.len(), || None);
        for (s, shard) in self.shards.iter().enumerate() {
            if !touched[s] {
                continue;
            }
            let mut guard = shard.lock().unwrap_or_else(|e| e.into_inner());
            for (i, (key, value)) in entries.iter().enumerate() {
                if shard_of[i] as usize != s {
                    continue;
                }
                if let Some(idx) = guard.map.get(key).copied() {
                    guard.slots[idx].referenced = true;
                    staged[i] = Some(guard.slots[idx].value.clone());
                    continue;
                }
                let idx = if guard.slots.len() >= guard.cap {
                    let victim = guard.evict_one();
                    evicted += 1;
                    guard.map.insert(key.clone(), victim);
                    guard.slots[victim] = Slot {
                        key: key.clone(),
                        value: value.clone(),
                        referenced: true,
                    };
                    victim
                } else {
                    let idx = guard.slots.len();
                    guard.map.insert(key.clone(), idx);
                    guard.slots.push(Slot {
                        key: key.clone(),
                        value: value.clone(),
                        referenced: true,
                    });
                    idx
                };
                staged[i] = Some(guard.slots[idx].value.clone());
            }
        }
        if evicted > 0 {
            self.evictions.add(evicted);
        }
        // Every index was staged by exactly one shard pass; `flatten`
        // (rather than unwrap) keeps this free of panic paths anyway.
        out.extend(staged.into_iter().flatten());
    }

    /// True when `key` is resident, *without* touching its CLOCK
    /// referenced bit (a diagnostic probe, not a use).
    #[cfg(test)]
    pub(crate) fn contains(&self, key: &K) -> bool {
        let guard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        guard.map.contains_key(key)
    }

    /// `key`'s CLOCK referenced bit, if resident, clearing it: a
    /// diagnostic that lets a test see whether a later call used the
    /// entry.
    #[cfg(test)]
    pub(crate) fn take_referenced(&self, key: &K) -> Option<bool> {
        let mut guard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        let idx = guard.map.get(key).copied()?;
        Some(std::mem::take(&mut guard.slots[idx].referenced))
    }

    /// Total entries across all shards.
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).slots.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecost_telemetry::Registry;
    use std::sync::Arc;

    fn counter() -> Counter {
        Registry::default().counter("test.evictions")
    }

    #[test]
    fn first_insert_wins() {
        let c: ShardedCache<u64, Arc<u64>> = ShardedCache::new(counter());
        assert!(c.get(&7).is_none());
        let a = c.insert_or_keep(7, Arc::new(1));
        let b = c.insert_or_keep(7, Arc::new(2));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*c.get(&7).unwrap(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn keys_spread_over_shards() {
        let c: ShardedCache<u64, u64> = ShardedCache::new(counter());
        for k in 0..1000 {
            c.insert_or_keep(k, k * k);
        }
        assert_eq!(c.len(), 1000);
        assert_eq!(c.get(&31), Some(961));
    }

    #[test]
    fn bounded_cache_never_exceeds_budget_and_counts_evictions() {
        let ev = counter();
        let c: ShardedCache<u64, u64> = ShardedCache::with_budget(Some(64), ev.clone());
        for k in 0..10_000 {
            c.insert_or_keep(k, k);
            assert!(c.len() <= 64, "len {} at key {k}", c.len());
        }
        assert!(c.len() <= 64);
        assert!(ev.get() > 0);
        // Conservation: every insert either grew the table or evicted.
        assert_eq!(c.len() as u64 + ev.get(), 10_000);
    }

    #[test]
    fn clock_gives_hot_entries_a_second_chance() {
        // Flood one shard with cold keys; the watched key survives strictly
        // longer when probed before every insert (its referenced bit keeps
        // getting re-armed) than when left cold. The watched key must not
        // occupy the slot the hand parks on — when every bit is set, a full
        // lap clears them all and evicts the hand's own slot regardless of
        // probing — so a filler key takes that slot first. Everything is
        // seeded, so the two survival horizons are exact, not statistical.
        let shard_of = |k: &u64| (SeededState.hash_one(k) as usize) % SHARDS;
        let same_shard: Vec<u64> = (1..10_000)
            .filter(|k| shard_of(k) == shard_of(&0))
            .collect();
        assert!(same_shard.len() > 100, "seeded hasher starves the shard");
        let survival = |probe: bool| -> usize {
            let c: ShardedCache<u64, u64> = ShardedCache::with_budget(Some(64), counter());
            c.insert_or_keep(same_shard[0], 0); // filler under the hand
            c.insert_or_keep(0, 0); // the watched key
            for (i, &k) in same_shard[1..].iter().enumerate() {
                if probe {
                    c.get(&0);
                }
                c.insert_or_keep(k, k);
                if !c.contains(&0) {
                    return i;
                }
            }
            same_shard.len()
        };
        let cold = survival(false);
        let hot = survival(true);
        assert!(cold < same_shard.len(), "cold key never evicted");
        assert!(hot > cold, "hot {hot} vs cold {cold}");
    }

    #[test]
    fn eviction_order_is_deterministic() {
        // Same insert/probe sequence on two caches → identical survivors.
        let survivors = || {
            let c: ShardedCache<u64, u64> = ShardedCache::with_budget(Some(32), counter());
            for k in 0..200 {
                c.insert_or_keep(k, k);
                if k % 3 == 0 {
                    c.get(&(k / 2));
                }
            }
            (0..200).filter(|k| c.get(k).is_some()).collect::<Vec<_>>()
        };
        assert_eq!(survivors(), survivors());
    }

    #[test]
    fn get_many_matches_sequential_gets_and_marks_hits() {
        let c: ShardedCache<u64, u64> = ShardedCache::new(counter());
        for k in (0..200).step_by(2) {
            c.insert_or_keep(k, k + 1);
        }
        let keys: Vec<u64> = (0..200).collect();
        let mut bulk = Vec::new();
        c.get_many(&keys, &mut bulk);
        assert_eq!(bulk.len(), keys.len());
        for (k, got) in keys.iter().zip(&bulk) {
            assert_eq!(*got, c.get(k), "key {k}");
        }
        // Repeated keys in one window are each answered.
        let dup = [4u64, 4, 5, 4];
        c.get_many(&dup, &mut bulk);
        assert_eq!(bulk, vec![Some(5), Some(5), None, Some(5)]);
    }

    #[test]
    fn insert_many_is_first_insert_wins_in_input_order() {
        let c: ShardedCache<u64, Arc<u64>> = ShardedCache::new(counter());
        let incumbent = c.insert_or_keep(7, Arc::new(1));
        // A window carrying an incumbent key AND an internal duplicate:
        // the incumbent survives, and the window's own first insert wins
        // over its later duplicate.
        let entries = vec![(7u64, Arc::new(2u64)), (8, Arc::new(10)), (8, Arc::new(20))];
        let mut stored = Vec::new();
        c.insert_many(&entries, &mut stored);
        assert_eq!(stored.len(), 3);
        assert!(Arc::ptr_eq(&stored[0], &incumbent));
        assert_eq!(*stored[1], 10);
        assert_eq!(*stored[2], 10, "later duplicate must see the first insert");
        assert_eq!(*c.get(&8).unwrap(), 10);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn bulk_ops_leave_the_same_clock_state_as_sequential_ops() {
        // Identical logical traffic — bulk vs per-key — must leave the
        // bounded CLOCK rings in identical states: same survivors, same
        // eviction count. This is what lets the engine switch the sweep
        // memo to get_many/insert_many without perturbing eviction order.
        let run = |bulk: bool| -> (Vec<u64>, u64) {
            let ev = counter();
            let c: ShardedCache<u64, u64> = ShardedCache::with_budget(Some(32), ev.clone());
            for round in 0..4u64 {
                let keys: Vec<u64> = (round * 40..round * 40 + 80).collect();
                if bulk {
                    let mut out = Vec::new();
                    c.get_many(&keys, &mut out);
                    let entries: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k * 3)).collect();
                    let mut stored = Vec::new();
                    c.insert_many(&entries, &mut stored);
                } else {
                    for &k in &keys {
                        c.get(&k);
                    }
                    for &k in &keys {
                        c.insert_or_keep(k, k * 3);
                    }
                }
            }
            let survivors = (0..400).filter(|k| c.contains(k)).collect();
            (survivors, ev.get())
        };
        let (seq_survivors, seq_evictions) = run(false);
        let (bulk_survivors, bulk_evictions) = run(true);
        assert_eq!(bulk_survivors, seq_survivors);
        assert_eq!(bulk_evictions, seq_evictions);
        assert!(seq_evictions > 0, "the sequence must actually thrash");
    }

    #[test]
    fn bounded_insert_many_conserves_entries() {
        let ev = counter();
        let c: ShardedCache<u64, u64> = ShardedCache::with_budget(Some(64), ev.clone());
        let mut inserted = 0u64;
        for round in 0..10u64 {
            let entries: Vec<(u64, u64)> =
                (round * 500..(round + 1) * 500).map(|k| (k, k)).collect();
            let mut stored = Vec::new();
            c.insert_many(&entries, &mut stored);
            inserted += entries.len() as u64;
            assert!(c.len() <= 64, "len {} after round {round}", c.len());
        }
        // Every distinct key inserted exactly one entry; each is resident
        // or was evicted — the per-window eviction delta loses nothing.
        assert_eq!(c.len() as u64 + ev.get(), inserted);
    }

    #[test]
    fn tiny_budget_is_clamped_to_one_slot_per_shard() {
        let ev = counter();
        let c: ShardedCache<u64, u64> = ShardedCache::with_budget(Some(0), ev.clone());
        for k in 0..100 {
            c.insert_or_keep(k, k);
        }
        assert!(c.len() <= SHARDS);
        assert!(ev.get() > 0);
    }
}
