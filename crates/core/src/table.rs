//! Concurrent t-variable tables with **dynamic allocation** — a lock-free
//! two-level **paged slab**.
//!
//! The paper's Algorithm 2 assumes statically indexed t-variables
//! (footnote 6), and the original `WordStm` interface mirrored that: every
//! t-variable had to be registered before transactions ran. Dynamic
//! data-structure workloads — the DSTM list-based IntSet the OFTM
//! literature benchmarks on — need the opposite: transactions allocate
//! fresh t-variables (list nodes) *while running*. [`VarTable`] is the
//! shared substrate every word-level STM backend uses to support both.
//!
//! ## Why a slab and not a map
//!
//! `VarTable::get` sits on the hottest path in the workspace: every
//! transactional read of every backend resolves its t-variable here
//! before touching any STM metadata. An earlier revision used sharded
//! `RwLock<HashMap>`s, which put a lock acquisition, a hash probe and the
//! attendant shared-cacheline traffic in front of *every* read — exactly
//! the kind of common-path synchronization cost the paper's
//! obstruction-free vs. lock-based comparison is about measuring, and
//! therefore exactly what the harness must not add on its own. The slab
//! exploits **id density**: ids are never reused and are handed out
//! contiguously, so the table can be an array, not a map.
//!
//! * Static registrations use caller-chosen ids below
//!   [`DYNAMIC_TVAR_BASE`] (conventionally small integers; the table
//!   supports ids up to [`STATIC_SPAN`]).
//! * Dynamic ids are handed out from a per-instance monotonic counter
//!   starting at [`DYNAMIC_TVAR_BASE`], in **contiguous blocks** so a
//!   multi-word node (e.g. a list node's `[value, next]` pair) is
//!   addressable from a single base id.
//!
//! Both ranges map to slots in lazily materialized, append-only **pages**
//! (`PAGE_SIZE` slots each) reached through atomic page directories:
//! one flat directory for the static range, a two-level one for the
//! (much larger) dynamic range. `get` is a wait-free double array index —
//! two or three `Acquire` loads plus an `Arc` clone, no lock, no hashing,
//! no allocation. Pages are installed with a single CAS on first touch
//! and never move or shrink, so readers need no synchronization with
//! growth; an insertion is visible to *already running* transactions,
//! which is what allocation inside a transaction requires.
//!
//! ## Tombstones, grace periods, and why eviction is safe
//!
//! Because dynamic ids are **never reused**, an evicted slot simply
//! becomes a permanent tombstone (a null pointer): a later `get` of the
//! freed id can only miss — it panics with the uniform `t-variable <x>
//! not registered` diagnostic, never aliases a newer allocation. Slots
//! are only cleared through the grace-period machinery: backends route
//! frees through [`crate::reclaim::GraceTracker`], which releases a
//! retired block only once **no in-flight transaction predates the
//! retiring commit** — so by the time [`VarTable::remove_block`] runs, no
//! transaction that could legitimately reach the block is still running.
//! The eviction itself is nonetheless fully race-safe: slots hold their
//! `Arc<V>` behind an epoch-protected pointer, a reader pins the epoch
//! across its load-and-clone, and `remove` retires the old pointer via
//! `defer_destroy` — a racing reader (a contract-breaking zombie) either
//! sees the value and keeps it alive through its own `Arc`, or sees the
//! tombstone and panics. Memory safety never depends on the caller
//! honoring the retire contract; only the panic-vs-value outcome does.
//!
//! ## Allocation vs. retirement semantics
//!
//! Allocation is deliberately **not** a transactional effect: a t-variable
//! allocated inside a transaction that later aborts stays allocated (and
//! unreachable — the write that would have published it was discarded).
//! This mirrors DSTM's object allocation semantics and keeps `alloc` safe
//! to call both inside and outside transactions. (The collection layer
//! compensates: its retry loop frees blocks allocated by an aborted
//! attempt immediately, which is safe precisely because they were never
//! published.) Freeing, by contrast, **is** transactional in effect: a
//! collection node is retired via [`crate::api::WordTx::retire_tvar_block`],
//! which defers the actual [`VarTable::remove_block`] to after the
//! unlinking transaction's commit *plus* the grace period. The
//! `live`/`freed` metrics are maintained with the same exactness as the
//! old sharded table: every slot transition empty→full bumps the live
//! count, every full→empty bumps `freed`, both driven by the atomic swap
//! that performs the transition, so concurrent churn cannot double-count.

use crossbeam_epoch::{self as epoch, Atomic, Guard, Owned, Shared};
use oftm_histories::{TVarId, Value};
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

/// First t-variable id handed out by dynamic allocation. Static
/// registrations use small ids, so the two ranges never collide; every
/// STM instance allocates from the same base, which keeps single-threaded
/// (sequential-replay) executions id-identical across implementations.
pub const DYNAMIC_TVAR_BASE: u64 = 1 << 32;

/// Slots per page (2^12). A page is one contiguous allocation; a fresh
/// table owns no pages at all, and a collection workload touching n
/// contiguous dynamic ids materializes ⌈n / PAGE_SIZE⌉ of them.
const PAGE_BITS: usize = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;
const PAGE_MASK: usize = PAGE_SIZE - 1;

/// Pages in the (flat) static directory: static ids must lie below
/// `STATIC_PAGES * PAGE_SIZE` = [`STATIC_SPAN`].
const STATIC_PAGES: usize = 256;
/// Exclusive upper bound on static t-variable ids (2^20).
pub const STATIC_SPAN: u64 = (STATIC_PAGES * PAGE_SIZE) as u64;

/// Pages per level-1 directory of the dynamic range (2^9 pages = 2^21
/// ids per L1), and L1 directories in the spine (2^9), for a total
/// dynamic capacity of 2^30 ids per table instance.
const L1_BITS: usize = 9;
const L1_PAGES: usize = 1 << L1_BITS;
const L1_MASK: usize = L1_PAGES - 1;
const DYN_L1S: usize = 1 << L1_BITS;
const DYN_CAPACITY: u64 = (DYN_L1S * L1_PAGES * PAGE_SIZE) as u64;

/// One page of epoch-protected slots. A slot owns (a boxed) `Arc<V>`;
/// null = never inserted, or tombstoned by `remove`.
struct Page<V> {
    slots: Box<[Atomic<Arc<V>>]>,
}

impl<V> Page<V> {
    fn new() -> Self {
        Page {
            slots: (0..PAGE_SIZE).map(|_| Atomic::null()).collect(),
        }
    }
}

impl<V> Drop for Page<V> {
    fn drop(&mut self) {
        // SAFETY: `Drop` has exclusive access; no concurrent readers.
        let guard = unsafe { epoch::unprotected() };
        for slot in self.slots.iter() {
            // ord: Relaxed — exclusive access in Drop; &mut self already
            // synchronized-with every past writer.
            let sh = slot.load(Ordering::Relaxed, guard);
            if !sh.is_null() {
                // SAFETY: sole owner; the pointee was allocated by
                // `Owned::new` in insert/alloc.
                drop(unsafe { sh.into_owned() });
            }
        }
    }
}

/// Level-1 directory of the dynamic range: 2^9 lazily installed pages.
struct L1<V> {
    pages: Box<[AtomicPtr<Page<V>>]>,
}

impl<V> L1<V> {
    fn new() -> Self {
        L1 {
            pages: (0..L1_PAGES).map(|_| AtomicPtr::default()).collect(),
        }
    }
}

/// Installs-or-reuses the pointee of an append-only directory cell.
/// Returns `None` when absent and `create` is false.
fn dir_entry<T>(cell: &AtomicPtr<T>, create: bool, make: impl FnOnce() -> T) -> Option<&T> {
    // ord: Acquire pairs with the Release half of the installing CAS below,
    // so a non-null pointer implies the pointee's construction is visible.
    let mut p = cell.load(Ordering::Acquire);
    if p.is_null() {
        if !create {
            return None;
        }
        let fresh = Box::into_raw(Box::new(make()));
        // ord: AcqRel — Release publishes the freshly built directory entry
        // to the Acquire load above; Acquire (success and failure) pairs
        // with a racing installer's Release so `winner` is safe to deref.
        match cell.compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire, // ord: failure pairs with the winner's Release
        ) {
            Ok(_) => p = fresh,
            Err(winner) => {
                // SAFETY: `fresh` never escaped; reclaim it and defer to
                // the concurrently installed entry.
                drop(unsafe { Box::from_raw(fresh) });
                p = winner;
            }
        }
    }
    // SAFETY: directory entries are append-only and live as long as the
    // table (freed only in `Drop`, which has exclusive access).
    Some(unsafe { &*p })
}

/// The lock-free paged-slab map from [`TVarId`] to shared per-variable
/// state, plus the dynamic-id allocator (see module docs).
pub struct VarTable<V> {
    /// Flat page directory of the static id range `[0, STATIC_SPAN)`.
    static_pages: Box<[AtomicPtr<Page<V>>]>,
    /// Two-level page directory of the dynamic id range.
    dynamic_l1s: Box<[AtomicPtr<L1<V>>]>,
    next_dynamic: AtomicU64,
    /// Slots currently full (exact: maintained by the swaps that fill and
    /// clear slots).
    live: AtomicU64,
    freed: AtomicU64,
}

// SAFETY: the auto-impls would be unconditional (`AtomicPtr<T>` is
// `Send + Sync` for *any* `T`), which must not stand: `get` clones
// `Arc<V>` handles out to arbitrary threads, so sharing the table is
// only sound when `V` itself is shareable. Explicit impls restore the
// bounds the old `RwLock<HashMap<_, Arc<V>>>` fields implied.
unsafe impl<V: Send + Sync> Send for VarTable<V> {}
unsafe impl<V: Send + Sync> Sync for VarTable<V> {}

impl<V> Default for VarTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> VarTable<V> {
    pub fn new() -> Self {
        VarTable {
            static_pages: (0..STATIC_PAGES).map(|_| AtomicPtr::default()).collect(),
            dynamic_l1s: (0..DYN_L1S).map(|_| AtomicPtr::default()).collect(),
            next_dynamic: AtomicU64::new(DYNAMIC_TVAR_BASE),
            live: AtomicU64::new(0),
            freed: AtomicU64::new(0),
        }
    }

    /// Resolves `x` to its slot. With `create`, missing pages (and L1
    /// directories) are installed on the way; without it, a missing page
    /// resolves to `None` (the id was certainly never inserted). Ids
    /// outside both ranges panic when `create` is set and miss otherwise.
    fn slot(&self, x: TVarId, create: bool) -> Option<&Atomic<Arc<V>>> {
        let (dir, idx) = if x.0 < DYNAMIC_TVAR_BASE {
            if x.0 >= STATIC_SPAN {
                assert!(
                    !create,
                    "static t-variable id {x} exceeds the table's static span ({STATIC_SPAN})"
                );
                return None;
            }
            let idx = x.0 as usize;
            (&self.static_pages[idx >> PAGE_BITS], idx)
        } else {
            let d = x.0 - DYNAMIC_TVAR_BASE;
            if d >= DYN_CAPACITY {
                assert!(
                    !create,
                    "dynamic t-variable id {x} exceeds the table's capacity"
                );
                return None;
            }
            let d = d as usize;
            let l1 = dir_entry(
                &self.dynamic_l1s[d >> (PAGE_BITS + L1_BITS)],
                create,
                L1::new,
            )?;
            (&l1.pages[(d >> PAGE_BITS) & L1_MASK], d)
        };
        let page = dir_entry(dir, create, Page::new)?;
        Some(&page.slots[idx & PAGE_MASK])
    }

    /// Fills `slot` with `v`, adjusting the live count (and retiring a
    /// replaced value through the epoch, for re-registration).
    fn fill(&self, slot: &Atomic<Arc<V>>, v: Arc<V>, guard: &Guard) {
        // ord: AcqRel — Release publishes `v`'s construction to `get_in`'s
        // Acquire load; Acquire pairs with the previous occupant's
        // publishing swap before we retire it.
        let old = slot.swap(Owned::new(v), Ordering::AcqRel, guard);
        if old.is_null() {
            // ord: Relaxed counter — read only by the `len` diagnostic.
            self.live.fetch_add(1, Ordering::Relaxed);
        } else {
            // SAFETY: `old` was unlinked by the swap; no new load returns it.
            unsafe { guard.defer_destroy(old) };
        }
    }

    /// Inserts (or replaces) the state for `x`.
    pub fn insert(&self, x: TVarId, v: V) {
        let slot = self.slot(x, true).expect("slot created");
        let guard = epoch::pin();
        self.fill(slot, Arc::new(v), &guard);
    }

    /// Inserts the state for `x` only if the slot is empty (atomic
    /// keep-first registration); `true` if `v` was installed. Racing
    /// registrations of the same id agree on the winner — no
    /// check-then-act window.
    pub fn insert_if_absent(&self, x: TVarId, v: V) -> bool {
        let slot = self.slot(x, true).expect("slot created");
        let guard = epoch::pin();
        // ord: AcqRel — Release publishes the new state to readers'
        // Acquire loads; Acquire on both outcomes pairs with the
        // incumbent's publishing store.
        match slot.compare_exchange(
            Shared::null(),
            Owned::new(Arc::new(v)),
            Ordering::AcqRel,
            Ordering::Acquire, // ord: failure pairs with the incumbent's Release
            &guard,
        ) {
            Ok(_) => {
                // ord: Relaxed counter — read only by the `len` diagnostic.
                self.live.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_rejected) => false, // the incumbent wins; `v` is dropped
        }
    }

    /// Looks up the state for `x` under a caller-held epoch pin.
    /// **Wait-free**: two (static ids) or three (dynamic ids) `Acquire`
    /// loads and an `Arc` clone — the hot path of every transactional
    /// read. Backends hold one pin for a whole transaction and thread it
    /// through here, so the per-read cost is pure loads.
    pub fn get_in(&self, x: TVarId, guard: &Guard) -> Option<Arc<V>> {
        let slot = self.slot(x, false)?;
        // ord: Acquire pairs with the Release swap/CAS that installed the
        // slot's value, making the pointee's construction visible.
        let sh = slot.load(Ordering::Acquire, guard);
        if sh.is_null() {
            None
        } else {
            // SAFETY: loaded under the pin; `remove` retires slot contents
            // via `defer_destroy`, so the pointee outlives the guard.
            Some(Arc::clone(unsafe { sh.deref() }))
        }
    }

    /// Like [`VarTable::get_in`] with a pin taken internally (external
    /// callers: oracles, registration-time checks).
    pub fn get(&self, x: TVarId) -> Option<Arc<V>> {
        self.get_in(x, &epoch::pin())
    }

    /// Borrowing variant of [`VarTable::get_in`] for read paths that do
    /// not retain the handle past the current operation (the declared
    /// read-only transactions keep no read-set): skips the `Arc`
    /// refcount round-trip — two atomic RMWs per read on the hottest
    /// path in the workspace. The reference is valid for the guard's
    /// lifetime: eviction retires the slot's `Arc` via `defer_destroy`,
    /// which cannot run before the pin is released.
    pub fn get_ref_in<'g>(&self, x: TVarId, guard: &'g Guard) -> Option<&'g V> {
        let slot = self.slot(x, false)?;
        // ord: Acquire pairs with the Release swap/CAS that installed the
        // slot's value, making the pointee's construction visible.
        let sh = slot.load(Ordering::Acquire, guard);
        if sh.is_null() {
            None
        } else {
            // SAFETY: loaded under the pin; `remove` retires slot contents
            // via `defer_destroy`, so the `Arc` — and hence the pointee it
            // keeps alive — outlives the guard.
            Some(unsafe { &**sh.deref() })
        }
    }

    /// Looks up `x` by reference under a caller-held pin, panicking with
    /// the uniform diagnostic if absent.
    pub fn get_ref_or_panic_in<'g>(&self, x: TVarId, guard: &'g Guard) -> &'g V {
        self.get_ref_in(x, guard)
            .unwrap_or_else(|| panic!("t-variable {x} not registered"))
    }

    /// Looks up `x` under a caller-held pin, panicking with the uniform
    /// diagnostic if absent.
    pub fn get_or_panic_in(&self, x: TVarId, guard: &Guard) -> Arc<V> {
        self.get_in(x, guard)
            .unwrap_or_else(|| panic!("t-variable {x} not registered"))
    }

    /// Looks up `x`, panicking with the uniform diagnostic if absent.
    pub fn get_or_panic(&self, x: TVarId) -> Arc<V> {
        self.get(x)
            .unwrap_or_else(|| panic!("t-variable {x} not registered"))
    }

    /// Allocates `initials.len()` fresh t-variables with **contiguous**
    /// ids, creating each one's state with `make`, and returns the first
    /// id. Safe to call concurrently and from inside running transactions:
    /// the id range is claimed with one `fetch_add`, and each slot store
    /// is independently visible — no lock is ever taken.
    pub fn alloc_block(
        &self,
        initials: &[Value],
        mut make: impl FnMut(TVarId, Value) -> V,
    ) -> TVarId {
        assert!(!initials.is_empty(), "alloc_block of zero t-variables");
        // ord: Relaxed — the fetch_add's atomicity alone guarantees
        // disjoint id blocks; slot contents are published by `fill`'s
        // Release swap, not by this counter.
        let base = self
            .next_dynamic
            .fetch_add(initials.len() as u64, Ordering::Relaxed);
        let guard = epoch::pin();
        for (k, &init) in initials.iter().enumerate() {
            let id = TVarId(base + k as u64);
            let slot = self.slot(id, true).expect("slot created");
            // Fresh ids are never concurrently targeted, but `fill` keeps
            // the accounting uniform.
            self.fill(slot, Arc::new(make(id, init)), &guard);
        }
        TVarId(base)
    }

    /// Tombstones the slot behind `slot`, returning whether it was full.
    fn clear(&self, slot: &Atomic<Arc<V>>, guard: &Guard) -> bool {
        // ord: AcqRel — Acquire pairs with the publishing swap so the
        // retired value is fully visible before `defer_destroy`; Release
        // orders the tombstone for subsequent Acquire readers.
        let old = slot.swap(Shared::null(), Ordering::AcqRel, guard);
        if old.is_null() {
            return false;
        }
        // SAFETY: unlinked by the swap; racing readers that loaded it
        // earlier hold the epoch pin `defer_destroy` waits out.
        unsafe { guard.defer_destroy(old) };
        // ord: Relaxed counters — read only by the len/freed diagnostics.
        self.freed.fetch_add(1, Ordering::Relaxed);
        self.live.fetch_sub(1, Ordering::Relaxed);
        true
    }

    /// Removes the state for `x`; `true` if it was present. Outstanding
    /// `Arc` handles (e.g. a zombie transaction's read-set) keep the state
    /// alive; only the table's reference is dropped. The slot becomes a
    /// permanent tombstone — dynamic ids are never reused, so a freed id
    /// can only ever miss.
    pub fn remove(&self, x: TVarId) -> bool {
        let Some(slot) = self.slot(x, false) else {
            return false;
        };
        let guard = epoch::pin();
        self.clear(slot, &guard)
    }

    /// Removes `len` contiguous t-variables starting at `base` under one
    /// epoch pin. Absent ids are skipped — removal is idempotent.
    pub fn remove_block(&self, base: TVarId, len: usize) {
        let guard = epoch::pin();
        for k in 0..len {
            if let Some(slot) = self.slot(TVarId(base.0 + k as u64), false) {
                self.clear(slot, &guard);
            }
        }
    }

    /// Number of live t-variables (exact; the leak-regression metric).
    pub fn len(&self) -> usize {
        // ord: Relaxed — monotonic diagnostic counter, no payload to order.
        self.live.load(Ordering::Relaxed) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of dynamic ids handed out so far (diagnostics).
    pub fn dynamic_allocated(&self) -> u64 {
        // ord: Relaxed — monotonic diagnostic counter, no payload to order.
        self.next_dynamic.load(Ordering::Relaxed) - DYNAMIC_TVAR_BASE
    }

    /// Number of t-variables removed so far (diagnostics; counts every
    /// slot actually tombstoned by [`VarTable::remove`]/
    /// [`VarTable::remove_block`]).
    pub fn freed(&self) -> u64 {
        // ord: Relaxed — monotonic diagnostic counter, no payload to order.
        self.freed.load(Ordering::Relaxed)
    }

    /// Visits every live t-variable (materialized pages only, non-null
    /// slots only) under one epoch pin. The walk is a racy snapshot:
    /// concurrent inserts/removals may or may not be observed — callers
    /// needing an exact live set must quiesce writers first (the hybrid
    /// backend's migration barrier does exactly that). Cost is
    /// O(materialized pages × PAGE_SIZE), not O(ids ever allocated):
    /// never-touched pages are skipped at the directory level.
    pub fn for_each_live(&self, mut f: impl FnMut(TVarId, &V)) {
        let guard = epoch::pin();
        let mut visit_page = |page: &Page<V>, first_id: u64| {
            for (k, slot) in page.slots.iter().enumerate() {
                // ord: Acquire pairs with the Release swap/CAS that
                // installed the slot's value (same pairing as `get_in`).
                let sh = slot.load(Ordering::Acquire, &guard);
                if !sh.is_null() {
                    // SAFETY: loaded under the pin; eviction retires slot
                    // contents via `defer_destroy`, so the pointee
                    // outlives the guard.
                    f(TVarId(first_id + k as u64), unsafe { sh.deref() });
                }
            }
        };
        for (i, cell) in self.static_pages.iter().enumerate() {
            if let Some(page) = dir_entry(cell, false, Page::new) {
                visit_page(page, (i * PAGE_SIZE) as u64);
            }
        }
        for (a, l1cell) in self.dynamic_l1s.iter().enumerate() {
            let Some(l1) = dir_entry(l1cell, false, L1::new) else {
                continue;
            };
            for (b, cell) in l1.pages.iter().enumerate() {
                if let Some(page) = dir_entry(cell, false, Page::new) {
                    let d = ((a << (PAGE_BITS + L1_BITS)) + (b << PAGE_BITS)) as u64;
                    visit_page(page, DYNAMIC_TVAR_BASE + d);
                }
            }
        }
    }
}

impl<V> Drop for VarTable<V> {
    fn drop(&mut self) {
        for cell in self
            .static_pages
            .iter()
            .chain(self.dynamic_l1s.iter().flat_map(|l1| {
                // ord: Relaxed — exclusive access in Drop (&mut self).
                let p = l1.load(Ordering::Relaxed);
                // SAFETY: exclusive access in Drop; entries are boxed.
                if p.is_null() {
                    [].iter()
                } else {
                    unsafe { (*p).pages.iter() }
                }
            }))
        {
            // ord: Relaxed — exclusive access in Drop (&mut self).
            let p = cell.load(Ordering::Relaxed);
            if !p.is_null() {
                // SAFETY: installed via Box::into_raw; Page::drop frees
                // the slots' contents.
                drop(unsafe { Box::from_raw(p) });
            }
        }
        for l1 in self.dynamic_l1s.iter() {
            // ord: Relaxed — exclusive access in Drop (&mut self).
            let p = l1.load(Ordering::Relaxed);
            if !p.is_null() {
                // SAFETY: installed via Box::into_raw; pages already freed.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_get() {
        let t: VarTable<u64> = VarTable::new();
        t.insert(TVarId(3), 30);
        assert_eq!(*t.get(TVarId(3)).unwrap(), 30);
        assert!(t.get(TVarId(4)).is_none());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn table_is_send_sync_for_shareable_state() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VarTable<u64>>();
        // (A `VarTable<Rc<_>>` must NOT compile as Send/Sync — enforced by
        // the bounded unsafe impls; not expressible as a runtime test.)
    }

    #[test]
    fn insert_if_absent_keeps_first() {
        let t: VarTable<u64> = VarTable::new();
        assert!(t.insert_if_absent(TVarId(3), 30));
        assert!(!t.insert_if_absent(TVarId(3), 99));
        assert_eq!(*t.get(TVarId(3)).unwrap(), 30);
        assert_eq!(t.len(), 1);
        // Racing registrations agree on one winner and one live entry.
        let t: VarTable<u64> = VarTable::new();
        let t = &t;
        let wins: usize = std::thread::scope(|s| {
            (0..4)
                .map(|k| s.spawn(move || usize::from(t.insert_if_absent(TVarId(7), k))))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(wins, 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn reinsert_replaces_without_inflating_live() {
        let t: VarTable<u64> = VarTable::new();
        t.insert(TVarId(3), 30);
        t.insert(TVarId(3), 31);
        assert_eq!(*t.get(TVarId(3)).unwrap(), 31);
        assert_eq!(t.len(), 1);
        assert_eq!(t.freed(), 0, "replacement is not a free");
    }

    #[test]
    fn blocks_are_contiguous_and_disjoint() {
        let t: VarTable<u64> = VarTable::new();
        let a = t.alloc_block(&[1, 2], |_, v| v);
        let b = t.alloc_block(&[3, 4, 5], |_, v| v);
        assert_eq!(a.0 + 2, b.0, "blocks must be back-to-back");
        assert!(a.0 >= DYNAMIC_TVAR_BASE);
        for (i, want) in [(a.0, 1), (a.0 + 1, 2), (b.0, 3), (b.0 + 1, 4), (b.0 + 2, 5)] {
            assert_eq!(*t.get(TVarId(i)).unwrap(), want);
        }
        assert_eq!(t.dynamic_allocated(), 5);
    }

    #[test]
    fn ids_between_the_ranges_simply_miss() {
        let t: VarTable<u64> = VarTable::new();
        assert!(t.get(TVarId(STATIC_SPAN)).is_none());
        assert!(t.get(TVarId(DYNAMIC_TVAR_BASE - 1)).is_none());
        assert!(!t.remove(TVarId(STATIC_SPAN + 7)));
    }

    #[test]
    #[should_panic(expected = "exceeds the table's static span")]
    fn oversized_static_id_rejected_on_insert() {
        let t: VarTable<u64> = VarTable::new();
        t.insert(TVarId(STATIC_SPAN), 1);
    }

    #[test]
    fn concurrent_allocation_never_overlaps() {
        let t: VarTable<u64> = VarTable::new();
        let ids: Vec<TVarId> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        (0..50)
                            .map(|_| t.alloc_block(&[0, 0], |_, v| v))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let mut starts: Vec<u64> = ids.iter().map(|x| x.0).collect();
        starts.sort_unstable();
        starts.dedup();
        assert_eq!(starts.len(), 8 * 50, "duplicate block bases");
        for w in starts.windows(2) {
            assert!(w[1] - w[0] >= 2, "blocks overlap");
        }
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn get_or_panic_diagnostic() {
        let t: VarTable<u64> = VarTable::new();
        let _ = t.get_or_panic(TVarId(77));
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn get_or_panic_diagnostic_on_freed_dynamic_id() {
        let t: VarTable<u64> = VarTable::new();
        let a = t.alloc_block(&[9], |_, v| v);
        t.remove(a);
        let _ = t.get_or_panic(a);
    }

    #[test]
    fn remove_block_evicts_exactly_the_block() {
        let t: VarTable<u64> = VarTable::new();
        let a = t.alloc_block(&[1, 2, 3], |_, v| v);
        let b = t.alloc_block(&[4, 5], |_, v| v);
        t.remove_block(a, 3);
        for k in 0..3 {
            assert!(t.get(TVarId(a.0 + k)).is_none(), "freed id still resolves");
        }
        assert_eq!(*t.get(b).unwrap(), 4);
        assert_eq!(*t.get(TVarId(b.0 + 1)).unwrap(), 5);
        assert_eq!(t.len(), 2);
        assert_eq!(t.freed(), 3);
        // Idempotent: re-removal is a no-op and does not inflate the metric.
        t.remove_block(a, 3);
        assert_eq!(t.freed(), 3);
        assert!(t.remove(b));
        assert!(!t.remove(b));
        assert_eq!(t.freed(), 4);
    }

    #[test]
    fn for_each_live_visits_exactly_the_live_set() {
        let t: VarTable<u64> = VarTable::new();
        t.insert(TVarId(3), 30);
        t.insert(TVarId(7), 70);
        let a = t.alloc_block(&[1, 2], |_, v| v);
        let b = t.alloc_block(&[5], |_, v| v);
        t.remove(TVarId(7));
        t.remove_block(b, 1);
        let mut seen: Vec<(u64, u64)> = Vec::new();
        t.for_each_live(|id, v| seen.push((id.0, *v)));
        seen.sort_unstable();
        assert_eq!(
            seen,
            vec![(3, 30), (a.0, 1), (a.0 + 1, 2)],
            "walk must see live slots only"
        );
    }

    #[test]
    fn outstanding_handles_survive_removal() {
        let t: VarTable<u64> = VarTable::new();
        let a = t.alloc_block(&[9], |_, v| v);
        let held = t.get(a).unwrap();
        t.remove(a);
        assert!(t.get(a).is_none());
        assert_eq!(*held, 9, "zombie-held state stays valid after eviction");
    }

    #[test]
    fn concurrent_alloc_and_remove_keep_count_exact() {
        let t: VarTable<u64> = VarTable::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let b = t.alloc_block(&[0, 0, 0], |_, v| v);
                        t.remove_block(b, 3);
                    }
                });
            }
        });
        assert_eq!(t.len(), 0);
        assert_eq!(t.dynamic_allocated(), 4 * 50 * 3);
        assert_eq!(t.freed(), 4 * 50 * 3);
    }

    #[test]
    fn blocks_spanning_page_boundaries_stay_contiguous() {
        let t: VarTable<u64> = VarTable::new();
        // Burn almost a page of ids so the next block straddles two pages.
        let filler: Vec<Value> = vec![0; PAGE_SIZE - 2];
        let _ = t.alloc_block(&filler, |_, v| v);
        let b = t.alloc_block(&[10, 11, 12, 13], |_, v| v);
        for k in 0..4 {
            assert_eq!(*t.get(TVarId(b.0 + k)).unwrap(), 10 + k);
        }
        t.remove_block(b, 4);
        for k in 0..4 {
            assert!(t.get(TVarId(b.0 + k)).is_none());
        }
        assert_eq!(t.len(), PAGE_SIZE - 2);
    }

    /// Readers racing eviction either get the value (kept alive by their
    /// own `Arc`) or a clean miss — never a torn state. This is the
    /// concurrent alloc/get/remove stress the epoch protection exists for.
    #[test]
    fn concurrent_get_races_remove_safely() {
        let t: std::sync::Arc<VarTable<u64>> = std::sync::Arc::new(VarTable::new());
        let stop = std::sync::atomic::AtomicBool::new(false);
        let published: std::sync::Mutex<Vec<TVarId>> = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            // Churner: allocate, publish, unpublish, remove.
            s.spawn(|| {
                for round in 0..300u64 {
                    let b = t.alloc_block(&[round, round + 1], |_, v| v);
                    published.lock().unwrap().push(b);
                    if round % 2 == 1 {
                        let victim = published.lock().unwrap().remove(0);
                        t.remove_block(victim, 2);
                    }
                }
                stop.store(true, std::sync::atomic::Ordering::Release);
            });
            // Readers: hammer ids that may be mid-eviction.
            for _ in 0..3 {
                s.spawn(|| {
                    while !stop.load(std::sync::atomic::Ordering::Acquire) {
                        let candidates: Vec<TVarId> =
                            published.lock().unwrap().iter().copied().collect();
                        for b in candidates {
                            if let Some(v) = t.get(b) {
                                // The paired word must agree if still live.
                                if let Some(w) = t.get(TVarId(b.0 + 1)) {
                                    assert_eq!(*w, *v + 1, "torn block observed");
                                }
                            }
                        }
                    }
                });
            }
        });
        // Exact accounting after the dust settles.
        assert_eq!(
            t.len() as u64 + t.freed(),
            t.dynamic_allocated(),
            "live + freed must equal allocated"
        );
    }
}
