//! # oftm-structs — transactional collections over the word-level STM
//!
//! The OFTM literature evaluates progress conditions on *dynamic*
//! data-structure workloads — DSTM's sorted linked-list IntSet above all.
//! This crate provides those workloads as reusable collections written
//! **once** against the uniform [`WordStm`]/[`WordTx`] interface, so each
//! runs unchanged on every STM in the workspace (DSTM, TL, TL2, coarse,
//! and both Algorithm 2 configurations):
//!
//! * [`TxIntSet`] — the canonical sorted linked-list integer set;
//! * [`TxHashMap`] — a bucketed hash map (separate chaining);
//! * [`TxQueue`] — an MPMC FIFO queue;
//! * [`TxCounter`] — a striped counter (disjoint-access increments);
//! * [`broken::BrokenIntSet`] — a deliberately *incorrect* list used as a
//!   negative oracle for the differential harness.
//!
//! ## Memory layout
//!
//! Every collection is a graph of word-sized t-variables. Nodes are
//! allocated with [`WordStm::alloc_tvar_block`], which returns a block of
//! **contiguous** t-variable ids: a list node `[value, next]` is addressed
//! as offsets from its base id, and a "pointer" is simply the base id of
//! the target block stored as a [`Value`]. Dynamic ids start at
//! [`oftm_core::table::DYNAMIC_TVAR_BASE`] (= 2³²), so the value `0` is
//! always safe as the null pointer [`NIL`].
//!
//! Allocation is not a transactional effect at the STM level (DSTM's
//! object-allocation semantics), but the drivers compensate: blocks
//! allocated through [`TxCtx`] by an attempt that aborts are freed before
//! the retry (they were never published, so the free is safe). Symmetrically,
//! nodes *unlinked* by `remove`/`dequeue` are retired via
//! [`WordTx::retire_tvar_block`] — reclaimed only after the unlinking
//! transaction commits and every transaction in flight at that commit has
//! finished. Together these keep the live t-variable count of a
//! steady-state churn workload bounded by the structure's size (the
//! `churn-steady-state` differential scenario enforces exactly this). All
//! *linking* happens through transactional writes, so the structures
//! inherit whatever safety the underlying STM provides.
//!
//! ## Quick start
//!
//! ```
//! use oftm_core::dstm::{Dstm, DstmWord};
//! use oftm_structs::TxIntSet;
//!
//! let stm = DstmWord::new(Dstm::default());
//! let set = TxIntSet::create(&stm);
//! assert!(set.insert(&stm, 0, 42));
//! assert!(!set.insert(&stm, 0, 42), "duplicate rejected");
//! assert!(set.contains(&stm, 0, 42));
//! assert_eq!(set.snapshot(&stm, 0), vec![42]);
//! assert!(set.remove(&stm, 0, 42));
//! assert_eq!(set.len(&stm, 0), 0);
//! ```

pub mod broken;
mod counter;
mod ctx;
mod intset;
mod map;
mod queue;

pub use counter::TxCounter;
pub use ctx::{atomically, atomically_budgeted, atomically_ro_budgeted};
pub use intset::TxIntSet;
pub use map::TxHashMap;
pub use oftm_core::api::TxCtx;
pub use queue::TxQueue;

use oftm_histories::Value;

#[allow(unused_imports)] // rustdoc links
use oftm_core::api::{WordStm, WordTx};

/// The null "pointer": no dynamically allocated t-variable has id 0
/// (dynamic ids start at [`oftm_core::table::DYNAMIC_TVAR_BASE`]).
pub const NIL: Value = 0;

/// splitmix64 finalizer — the bucket hash of [`TxHashMap`]. Deterministic,
/// so bucket layouts agree across STMs and runs.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
