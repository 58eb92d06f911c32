//! Kernel object handles.
//!
//! The paper requires that "the kernel can detect a forged Binding Object,
//! so clients cannot bypass the binding phase". [`HandleTable`] provides
//! that property for any kernel object: each registered object is named by
//! a [`RawHandle`] carrying both a table index and a 64-bit nonce; lookup
//! fails unless both match, and revocation invalidates the handle without
//! reusing the nonce.
//!
//! The table is *sharded* (Section 3.4, "design for concurrency"): entries
//! are spread over [`SHARD_COUNT`] independently locked shards keyed by the
//! handle id, so Binding Object validation on the call fast path only
//! touches the one shard owning the handle — concurrent calls through
//! different bindings never serialize on a common lock. Validation takes
//! the shard's read lock, so concurrent readers of even the *same* binding
//! proceed in parallel; only insert/revoke write.

use std::sync::atomic::{AtomicU64, Ordering};

use firefly::idhash::IdMap;
use parking_lot::RwLock;

/// Number of shards. A power of two so `id % SHARD_COUNT` is a mask;
/// sequential ids round-robin across shards.
pub const SHARD_COUNT: usize = 16;

/// A kernel-issued, forgery-detectable object handle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RawHandle {
    /// Table slot.
    pub id: u64,
    /// Per-object nonce; a handle with the right id but the wrong nonce is
    /// rejected as forged.
    pub nonce: u64,
}

/// Why a handle lookup failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HandleError {
    /// The id names no live object (never existed, or was revoked).
    Dangling,
    /// The id exists but the nonce does not match: a forged or stale
    /// handle.
    Forged,
}

impl core::fmt::Display for HandleError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HandleError::Dangling => write!(f, "handle names no live kernel object"),
            HandleError::Forged => write!(f, "handle nonce mismatch (forged or revoked)"),
        }
    }
}

impl std::error::Error for HandleError {}

/// SplitMix64 — a small deterministic generator for handle nonces.
///
/// The simulation does not need cryptographic nonces, only the *mechanism*
/// of nonce validation; determinism keeps experiments reproducible. Pure
/// function of the sequence position, so nonce generation needs no lock —
/// an atomic counter supplies the positions.
fn splitmix64(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A table of kernel objects addressed by forgery-detectable handles.
pub struct HandleTable<T> {
    next_id: AtomicU64,
    nonce_seq: AtomicU64,
    /// Keyed by handle id. Ids are issued by `next_id`, so the shards hash
    /// them with the simulator-id hasher; a presented (possibly forged) id
    /// is only ever looked up, never stored.
    shards: Vec<RwLock<IdMap<u64, (u64, T)>>>,
}

impl<T> HandleTable<T> {
    /// Creates an empty table.
    pub fn new() -> HandleTable<T> {
        HandleTable {
            next_id: AtomicU64::new(1),
            nonce_seq: AtomicU64::new(0xF1FE_F1FE_0001_0001),
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(IdMap::default()))
                .collect(),
        }
    }

    fn shard(&self, id: u64) -> &RwLock<IdMap<u64, (u64, T)>> {
        &self.shards[(id as usize) & (SHARD_COUNT - 1)]
    }

    /// Registers an object and returns its handle.
    pub fn insert(&self, value: T) -> RawHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let seq = self
            .nonce_seq
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        let nonce = splitmix64(seq);
        firefly::meter::note_sharded_lock();
        self.shard(id).write().insert(id, (nonce, value));
        RawHandle { id, nonce }
    }

    /// Validates a handle and clones out the object.
    ///
    /// This is the call-fast-path entry: a read lock on one shard, shared
    /// with every concurrent validation of handles in the same shard.
    pub fn get(&self, handle: RawHandle) -> Result<T, HandleError>
    where
        T: Clone,
    {
        firefly::meter::note_sharded_lock();
        let shard = self.shard(handle.id).read();
        match shard.get(&handle.id) {
            None => Err(HandleError::Dangling),
            Some((nonce, _)) if *nonce != handle.nonce => Err(HandleError::Forged),
            Some((_, v)) => Ok(v.clone()),
        }
    }

    /// Validates a handle and applies `f` to the object in place.
    pub fn with<R>(&self, handle: RawHandle, f: impl FnOnce(&T) -> R) -> Result<R, HandleError> {
        firefly::meter::note_sharded_lock();
        let shard = self.shard(handle.id).read();
        match shard.get(&handle.id) {
            None => Err(HandleError::Dangling),
            Some((nonce, _)) if *nonce != handle.nonce => Err(HandleError::Forged),
            Some((_, v)) => Ok(f(v)),
        }
    }

    /// Revokes a handle; subsequent lookups return [`HandleError::Dangling`].
    ///
    /// Returns the object if the handle was live.
    pub fn revoke(&self, handle: RawHandle) -> Option<T> {
        firefly::meter::note_sharded_lock();
        let mut shard = self.shard(handle.id).write();
        match shard.get(&handle.id) {
            Some((nonce, _)) if *nonce == handle.nonce => shard.remove(&handle.id).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Revokes every handle whose object matches `pred`, returning the
    /// revoked objects (termination sweep — a slow path that visits every
    /// shard in turn, never holding two shard locks at once).
    pub fn revoke_matching(&self, mut pred: impl FnMut(&T) -> bool) -> Vec<T> {
        let mut revoked = Vec::new();
        for shard in &self.shards {
            firefly::meter::note_sharded_lock();
            let mut shard = shard.write();
            let ids: Vec<u64> = shard
                .iter()
                .filter(|(_, (_, v))| pred(v))
                .map(|(id, _)| *id)
                .collect();
            revoked.extend(
                ids.into_iter()
                    .filter_map(|id| shard.remove(&id).map(|(_, v)| v)),
            );
        }
        revoked
    }

    /// Visits every live object (diagnostics sweep — metrics samplers use
    /// it). Like [`HandleTable::revoke_matching`], it walks the shards in
    /// turn, never holding two shard locks at once; only a read lock is
    /// taken per shard.
    pub fn for_each(&self, mut f: impl FnMut(&T)) {
        for shard in &self.shards {
            firefly::meter::note_sharded_lock();
            let shard = shard.read();
            for (_, (_, v)) in shard.iter() {
                f(v);
            }
        }
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                firefly::meter::note_sharded_lock();
                s.read().len()
            })
            .sum()
    }

    /// True if no objects are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for HandleTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_get() {
        let table = HandleTable::new();
        let h = table.insert("binding");
        assert_eq!(table.get(h).unwrap(), "binding");
    }

    #[test]
    fn forged_nonce_is_detected() {
        let table = HandleTable::new();
        let h = table.insert(42u32);
        let forged = RawHandle {
            id: h.id,
            nonce: h.nonce ^ 1,
        };
        assert_eq!(table.get(forged), Err(HandleError::Forged));
    }

    #[test]
    fn guessed_id_is_dangling() {
        let table: HandleTable<u32> = HandleTable::new();
        let fake = RawHandle { id: 999, nonce: 7 };
        assert_eq!(table.get(fake), Err(HandleError::Dangling));
    }

    #[test]
    fn revoked_handle_stops_working() {
        let table = HandleTable::new();
        let h = table.insert(1u8);
        assert_eq!(table.revoke(h), Some(1));
        assert_eq!(table.get(h), Err(HandleError::Dangling));
        assert_eq!(table.revoke(h), None, "double revoke is harmless");
    }

    #[test]
    fn revoke_with_wrong_nonce_fails() {
        let table = HandleTable::new();
        let h = table.insert(1u8);
        let forged = RawHandle {
            id: h.id,
            nonce: h.nonce ^ 0xFF,
        };
        assert_eq!(table.revoke(forged), None);
        assert_eq!(table.get(h), Ok(1), "object survives a forged revoke");
    }

    #[test]
    fn revoke_matching_sweeps() {
        let table = HandleTable::new();
        table.insert(1u8);
        table.insert(2u8);
        table.insert(3u8);
        let mut revoked = table.revoke_matching(|v| *v % 2 == 1);
        revoked.sort_unstable();
        assert_eq!(revoked, vec![1, 3]);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn nonces_are_distinct() {
        let table = HandleTable::new();
        let a = table.insert(0u8);
        let b = table.insert(0u8);
        assert_ne!(a.nonce, b.nonce);
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn entries_spread_across_shards() {
        // More entries than shards: every shard must own at least one, so
        // concurrent validations of distinct handles rarely share a lock.
        let table = HandleTable::new();
        let handles: Vec<RawHandle> = (0..SHARD_COUNT * 4).map(|i| table.insert(i)).collect();
        let mut per_shard = [0usize; SHARD_COUNT];
        for h in &handles {
            per_shard[(h.id as usize) & (SHARD_COUNT - 1)] += 1;
        }
        assert!(per_shard.iter().all(|&n| n > 0), "a shard got no entries");
        assert_eq!(table.len(), SHARD_COUNT * 4);
    }

    #[test]
    fn concurrent_insert_get_revoke_stays_consistent() {
        use std::sync::Arc;
        let table: Arc<HandleTable<usize>> = Arc::new(HandleTable::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let table = Arc::clone(&table);
                s.spawn(move || {
                    for i in 0..200 {
                        let h = table.insert(t * 1_000 + i);
                        assert_eq!(table.get(h), Ok(t * 1_000 + i));
                        if i % 2 == 0 {
                            assert_eq!(table.revoke(h), Some(t * 1_000 + i));
                            assert_eq!(table.get(h), Err(HandleError::Dangling));
                        }
                    }
                });
            }
        });
        assert_eq!(table.len(), 4 * 100, "odd-numbered inserts survive");
    }
}
