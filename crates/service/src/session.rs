//! Resident extraction sessions and the memory-budget evictor.
//!
//! A session is a parsed, flattened layout plus the incremental
//! extractor's warm band cache, kept alive between requests so an
//! editor's second `extract` costs only the bands its edits dirtied.
//! The store maps client-chosen names to sessions, stamps every
//! checkout with a monotonic touch counter (LRU order without wall
//! clocks), and records each session's CacheBytes gauge after every
//! request.
//!
//! Each session is a [`SessionState`] split into three halves:
//!
//! - the **write half** ([`WriteHalf`]): the incremental extractor
//!   plus the highest applied edit sequence number, locked only by
//!   mutating work (edit drains and cold first sweeps);
//! - the **snapshot** ([`Snapshot`]): an `Arc`-shared copy of the
//!   last completed extraction that `extract`/`query-net`/`lint`
//!   serve from without touching the write lock, so reads never
//!   queue behind an in-flight edit sweep;
//! - the **pending edit queue** ([`PendingEdit`]): edits parked by
//!   connection threads for the next drain job, which merges
//!   back-to-back diffs and pays for one sweep (coalescing).
//!
//! The evictor runs inline after each request (deterministic, no
//! background thread): while the summed gauges exceed the configured
//! budget, it walks sessions coldest-first and drops their band
//! caches ([`ace_core::IncrementalExtractor::evict_cache`]). An
//! evicted session stays open — its layout is small compared to the
//! cache — and keeps its snapshot, so reads still answer instantly;
//! only the next *edit* pays a cold re-sweep. Sessions whose write
//! half is locked by an in-flight request are skipped (`try_lock`):
//! a busy session is not cold, and skipping it keeps the evictor
//! free of lock-ordering deadlocks.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};

use ace_core::{Extraction, IncrementalExtractor};
use ace_layout::{FlatLayout, LayoutDiff};

use crate::protocol::{ErrorCode, Response, ServiceError, WireReport};

/// The mutating half of a session: the extractor (layout + band
/// cache) and the exactly-once bookkeeping. Held only by edit drains
/// and cold first sweeps; readers go through the snapshot instead.
pub struct WriteHalf {
    /// The resident incremental extractor.
    pub extractor: IncrementalExtractor,
    /// Highest `seq` applied (or consumed by a failed apply). An
    /// incoming edit with `seq <= last_seq` is a duplicate retry and
    /// is acknowledged idempotently instead of re-applied.
    pub last_seq: Option<i64>,
}

/// The last completed extraction, shared read-only with every reader.
///
/// Built after each successful sweep and swapped atomically into the
/// session, so `extract`/`query-net`/`lint` answer from it without
/// taking the write lock. Invalidated (cleared) when an edit apply
/// fails, because the write half's layout no longer matches it.
pub struct Snapshot {
    /// The circuit in CMU wirelist text form.
    pub wirelist: String,
    /// The report of the sweep that produced this snapshot.
    pub report: WireReport,
    /// The layout the snapshot was extracted from (lint needs it).
    pub layout: FlatLayout,
    /// The extraction itself, for `query-net`, `lint` and `drc`.
    /// Readers share it without a lock.
    pub extraction: Extraction,
}

/// One queued `edit-diff`, parked by a connection thread until a
/// drain job collects it under the session's write lock.
pub struct PendingEdit {
    /// Store-unique handle so a failed pool submit can retract
    /// exactly this entry.
    pub token: u64,
    /// The client's sequence number (`None` = unsequenced).
    pub seq: Option<i64>,
    /// The edit itself.
    pub diff: LayoutDiff,
    /// Where the drain sends the response; the receiver may already
    /// have timed out and gone away (sends are best-effort).
    pub tx: mpsc::Sender<Response>,
    /// Set by the connection thread when its deadline fires. A drain
    /// that finds this set at collect time discards the edit — the
    /// client was told `timeout` and will retry, and applying anyway
    /// would make that retry a double-apply.
    pub cancelled: Arc<AtomicBool>,
}

impl PendingEdit {
    /// Best-effort response delivery (the client may be gone).
    pub fn respond(&self, response: Response) {
        let _ = self.tx.send(response);
    }
}

/// One resident session: write half, read snapshot, pending edits.
pub struct SessionState {
    /// The mutating half. The daemon handles a poisoned lock here by
    /// auto-closing the session (the extractor's state after a panic
    /// is unknown), so one panicking worker costs one session, not a
    /// panic for every later request.
    pub write: Mutex<WriteHalf>,
    snapshot: Mutex<Option<Arc<Snapshot>>>,
    pending: Mutex<Vec<PendingEdit>>,
    next_token: AtomicU64,
}

impl SessionState {
    fn new(extractor: IncrementalExtractor) -> SessionState {
        SessionState {
            write: Mutex::new(WriteHalf {
                extractor,
                last_seq: None,
            }),
            snapshot: Mutex::new(None),
            pending: Mutex::new(Vec::new()),
            next_token: AtomicU64::new(0),
        }
    }

    /// The current read snapshot, if any extraction has completed.
    pub fn snapshot(&self) -> Option<Arc<Snapshot>> {
        self.lock_snapshot().clone()
    }

    /// Publishes a fresh snapshot for readers.
    pub fn set_snapshot(&self, snapshot: Arc<Snapshot>) {
        *self.lock_snapshot() = Some(snapshot);
    }

    /// Invalidates the snapshot (failed edit apply: the write half
    /// no longer matches the last published extraction).
    pub fn clear_snapshot(&self) {
        *self.lock_snapshot() = None;
    }

    fn lock_snapshot(&self) -> MutexGuard<'_, Option<Arc<Snapshot>>> {
        // Plain data behind the lock; recover rather than amplify a
        // poisoned guard.
        self.snapshot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_pending(&self) -> MutexGuard<'_, Vec<PendingEdit>> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Parks an edit for the next drain; returns its retraction
    /// token.
    pub fn enqueue_edit(
        &self,
        seq: Option<i64>,
        diff: LayoutDiff,
        tx: mpsc::Sender<Response>,
        cancelled: Arc<AtomicBool>,
    ) -> u64 {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        self.lock_pending().push(PendingEdit {
            token,
            seq,
            diff,
            tx,
            cancelled,
        });
        token
    }

    /// Retracts a parked edit after a failed pool submit. Returns
    /// false when an in-flight drain already collected it — the edit
    /// will be applied and answered, so the caller must wait for
    /// that answer instead of reporting the submit failure.
    pub fn remove_pending(&self, token: u64) -> bool {
        let mut pending = self.lock_pending();
        match pending.iter().position(|e| e.token == token) {
            Some(at) => {
                pending.remove(at);
                true
            }
            None => false,
        }
    }

    /// Collects every parked edit, in arrival order. Drain jobs call
    /// this *after* acquiring the write lock, so edits that queued
    /// behind an in-flight sweep all surface in one batch — that is
    /// the coalescing window.
    pub fn take_pending(&self) -> Vec<PendingEdit> {
        std::mem::take(&mut *self.lock_pending())
    }

    /// How many edits are parked (test observability only).
    #[cfg(test)]
    pub(crate) fn pending_len(&self) -> usize {
        self.lock_pending().len()
    }
}

struct Slot {
    state: Arc<SessionState>,
    /// Monotonic LRU stamp: higher = hotter.
    last_touch: u64,
    /// The CacheBytes gauge as of the session's last request.
    cache_bytes: u64,
}

struct Inner {
    slots: HashMap<String, Slot>,
    touch_counter: u64,
    evictions: u64,
}

/// Aggregate store gauges, for `status` responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Resident sessions.
    pub sessions: usize,
    /// Summed CacheBytes gauges across sessions.
    pub cache_bytes: u64,
    /// Caches reclaimed by the evictor since startup.
    pub evictions: u64,
}

/// Named resident sessions with LRU cache eviction against a byte
/// budget.
pub struct SessionStore {
    inner: Mutex<Inner>,
    budget_bytes: u64,
}

impl SessionStore {
    /// An empty store that evicts cold caches once the summed
    /// CacheBytes gauges exceed `budget_bytes`.
    pub fn new(budget_bytes: u64) -> SessionStore {
        SessionStore {
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                touch_counter: 0,
                evictions: 0,
            }),
            budget_bytes,
        }
    }

    /// Registers a new session.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::SessionExists`] when the name is taken.
    pub fn open(&self, name: &str, extractor: IncrementalExtractor) -> Result<(), ServiceError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.slots.contains_key(name) {
            return Err(ServiceError::new(
                ErrorCode::SessionExists,
                format!("session '{name}' already exists"),
            ));
        }
        inner.touch_counter += 1;
        let stamp = inner.touch_counter;
        let cache_bytes = extractor.cache_bytes();
        inner.slots.insert(
            name.to_string(),
            Slot {
                state: Arc::new(SessionState::new(extractor)),
                last_touch: stamp,
                cache_bytes,
            },
        );
        Ok(())
    }

    /// Checks a session out for a request, bumping its LRU stamp.
    /// Readers then go through the state's snapshot; mutators take
    /// its write lock.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownSession`] when no such session exists.
    pub fn checkout(&self, name: &str) -> Result<Arc<SessionState>, ServiceError> {
        let mut inner = self.inner.lock().unwrap();
        inner.touch_counter += 1;
        let stamp = inner.touch_counter;
        let slot = inner.slots.get_mut(name).ok_or_else(|| {
            ServiceError::new(
                ErrorCode::UnknownSession,
                format!("no session named '{name}'"),
            )
        })?;
        slot.last_touch = stamp;
        Ok(Arc::clone(&slot.state))
    }

    /// Drops a session entirely. Returns whether it existed.
    pub fn close(&self, name: &str) -> bool {
        self.inner.lock().unwrap().slots.remove(name).is_some()
    }

    /// Records a session's CacheBytes gauge after a request, then
    /// runs the evictor. Call this at the end of every session
    /// request; `name` is exempt from this eviction round (it is by
    /// definition the hottest session).
    pub fn note_cache_bytes(&self, name: &str, cache_bytes: u64) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(slot) = inner.slots.get_mut(name) {
            slot.cache_bytes = cache_bytes;
        }
        self.enforce_budget(&mut inner, Some(name));
    }

    /// Current aggregate gauges.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().unwrap();
        StoreStats {
            sessions: inner.slots.len(),
            cache_bytes: inner.slots.values().map(|s| s.cache_bytes).sum(),
            evictions: inner.evictions,
        }
    }

    /// Evicts coldest-first until the summed gauges fit the budget,
    /// the candidates run out, or every remaining candidate is busy.
    fn enforce_budget(&self, inner: &mut Inner, exempt: Option<&str>) {
        let mut skipped: Vec<String> = Vec::new();
        loop {
            let total: u64 = inner.slots.values().map(|s| s.cache_bytes).sum();
            if total <= self.budget_bytes {
                return;
            }
            // Coldest session still holding cache, excluding the one
            // that just ran and any we already failed to lock.
            let victim = inner
                .slots
                .iter()
                .filter(|(name, slot)| {
                    slot.cache_bytes > 0
                        && Some(name.as_str()) != exempt
                        && !skipped.iter().any(|s| s == *name)
                })
                .min_by_key(|(_, slot)| slot.last_touch)
                .map(|(name, _)| name.clone());
            let Some(victim) = victim else { return };
            let slot = inner.slots.get_mut(&victim).expect("victim exists");
            // A busy (or poisoned) session is not evictable right now.
            match slot.state.write.try_lock() {
                Ok(mut write) => {
                    write.extractor.evict_cache();
                    slot.cache_bytes = 0;
                    inner.evictions += 1;
                }
                Err(_) => skipped.push(victim),
            }
        }
    }
}

/// Stable shard assignment for a session name (FNV-1a). Requests for
/// one session always land on one shard's queue, so per-session work
/// stays ordered unless a stealing worker picks it up — and then the
/// session's write lock still serializes it.
pub fn shard_of(name: &str, shards: usize) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    (hash % shards.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_layout::FlatLayout;

    fn small_extractor() -> IncrementalExtractor {
        let mut flat = FlatLayout::new();
        flat.push_box(ace_geom::Layer::Metal, ace_geom::Rect::new(0, 0, 400, 400));
        IncrementalExtractor::new(flat, 2)
    }

    fn warmed_extractor() -> IncrementalExtractor {
        use ace_core::CircuitExtractor;
        let mut ex = small_extractor();
        ex.extract("warm").expect("extracts");
        assert!(ex.cache_bytes() > 0, "warm cache expected");
        ex
    }

    fn cache_bytes_of(state: &SessionState) -> u64 {
        state.write.lock().unwrap().extractor.cache_bytes()
    }

    #[test]
    fn open_checkout_close_lifecycle() {
        let store = SessionStore::new(u64::MAX);
        store.open("a", small_extractor()).unwrap();
        let err = store.open("a", small_extractor()).unwrap_err();
        assert_eq!(err.code, ErrorCode::SessionExists);
        assert!(store.checkout("a").is_ok());
        let err = store.checkout("ghost").err().expect("unknown session");
        assert_eq!(err.code, ErrorCode::UnknownSession);
        assert!(store.close("a"));
        assert!(!store.close("a"));
        assert_eq!(store.stats().sessions, 0);
    }

    #[test]
    fn evictor_reclaims_coldest_first_and_spares_the_hot_session() {
        // Budget 0: any recorded cache must be evicted, except the
        // session that just ran.
        let store = SessionStore::new(0);
        let cold = warmed_extractor();
        let cold_bytes = cold.cache_bytes();
        store.open("cold", cold).unwrap();
        store.open("hot", warmed_extractor()).unwrap();

        // "cold" reports first, then "hot" reports: enforcing after
        // hot's request must evict cold (older touch) but leave hot's
        // gauge alone for this round.
        store.note_cache_bytes("cold", cold_bytes);
        let _ = store.checkout("hot").unwrap();
        store.note_cache_bytes("hot", cold_bytes);
        let stats = store.stats();
        assert!(stats.evictions >= 1, "cold session should be evicted");
        // The cold session's extractor really lost its cache.
        let cold = store.checkout("cold").unwrap();
        assert_eq!(cache_bytes_of(&cold), 0);
    }

    #[test]
    fn busy_sessions_are_skipped_not_deadlocked() {
        let store = SessionStore::new(0);
        store.open("busy", warmed_extractor()).unwrap();
        store.open("idle", warmed_extractor()).unwrap();
        let busy = store.checkout("busy").unwrap();
        let guard = busy.write.lock().unwrap();
        // Evicting while "busy" is locked must terminate and reclaim
        // only the idle session.
        store.note_cache_bytes("fresh-name-not-present", 0);
        drop(guard);
        let idle = store.checkout("idle").unwrap();
        assert_eq!(cache_bytes_of(&idle), 0);
    }

    #[test]
    fn pending_edits_enqueue_retract_and_drain_in_order() {
        let state = SessionState::new(small_extractor());
        let (tx, _rx) = mpsc::channel();
        let flag = Arc::new(AtomicBool::new(false));
        let t1 = state.enqueue_edit(Some(1), LayoutDiff::new(), tx.clone(), Arc::clone(&flag));
        let t2 = state.enqueue_edit(Some(2), LayoutDiff::new(), tx.clone(), Arc::clone(&flag));
        let t3 = state.enqueue_edit(None, LayoutDiff::new(), tx, flag);
        assert_ne!(t1, t2);

        // Retracting the middle entry leaves arrival order intact.
        assert!(state.remove_pending(t2));
        assert!(!state.remove_pending(t2), "double retract finds nothing");
        let batch = state.take_pending();
        assert_eq!(
            batch.iter().map(|e| e.token).collect::<Vec<_>>(),
            vec![t1, t3]
        );
        assert!(state.take_pending().is_empty(), "drained");
        assert!(!state.remove_pending(t1), "collected entries are gone");
    }

    #[test]
    fn snapshot_swaps_and_clears() {
        use ace_core::CircuitExtractor;
        let state = SessionState::new(small_extractor());
        assert!(state.snapshot().is_none(), "no extraction yet");
        let mut ex = small_extractor();
        let extraction = ex.extract("snap").expect("extracts");
        let layout = ex.layout().clone();
        state.set_snapshot(Arc::new(Snapshot {
            wirelist: "wl".into(),
            report: WireReport::default(),
            layout,
            extraction,
        }));
        let snap = state.snapshot().expect("published");
        assert_eq!(snap.wirelist, "wl");
        assert!(snap.extraction.netlist.nets().count() > 0);
        state.clear_snapshot();
        assert!(state.snapshot().is_none(), "invalidated");
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for shards in [1, 2, 3, 8] {
            for name in ["a", "session-7", "", "λ"] {
                let s = shard_of(name, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(name, shards), "stable");
            }
        }
        assert_eq!(shard_of("anything", 0), 0);
    }
}
