//! # oftm-asyncrt — the async transaction runtime
//!
//! Serves *logical clients* in excess of OS threads: a transaction that
//! aborts under contention **parks** as a pending future instead of
//! spinning through randomized backoff, and is woken when a t-variable in
//! its footprint actually changes — i.e. when a conflicting peer
//! commits, the only event after which a re-run can observe a different
//! world. This is the ROADMAP "Async API" item, and the systems response
//! to the cost Kuznetsov & Ravi attribute to obstruction-freedom: under
//! contention, an obstruction-free TM's progress recipe (back off, re-run)
//! burns a core per waiting transaction; parking burns none.
//!
//! ## Architecture
//!
//! * **Commit notifications** live in `oftm-core` ([`oftm_core::notify`]):
//!   every backend (DSTM, TL, TL2, coarse, both Algorithm 2 configs)
//!   publishes its committed writes to its [`CommitNotifier`]; the
//!   runtime is therefore *backend-agnostic* — anything implementing
//!   [`WordStm`] gets async execution for free.
//! * **A future, not an executor contract** ([`transact_async`]): it
//!   runs the same [`TxCtx`] bodies with the same [`TxOpts`] as the sync
//!   driver ([`oftm_core::api::transact`]). A poll runs whole attempts
//!   synchronously (a `WordTx` is single-threaded and never crosses an
//!   await point); only retry state crosses polls. [`TxFuture`] is a plain
//!   `std::future::Future` — it runs on anything that can poll; the
//!   `async-executor` shim (a small work-stealing pool + `block_on`)
//!   exists because the container has no crates.io access.
//! * **The watchdog** ([`timer`]): wake-on-commit alone deadlocks when
//!   transactions *mutually abort* and nobody commits (possible under
//!   obstruction-freedom — both back off, both park, no publisher). A
//!   parked future therefore also arms a randomized timeout drawn from
//!   the same [`oftm_core::contention`] schedule the sync driver spins on —
//!   the safety net that preserves the paper's "eventually runs alone"
//!   progress argument.
//!
//! ## Fairness caveats
//!
//! Obstruction-freedom offers no fairness, and parking does not add any:
//! a woken transaction re-runs concurrently with whatever is live and may
//! lose again (shard-granular notifications also wake it spuriously for
//! neighbors' commits — it just re-parks). What parking changes is
//! *where the waiting happens* (off-CPU) and *when re-runs occur* (after
//! a state change instead of on a timer), which is why the stress suite
//! measures strictly fewer wasted re-runs than spin backoff at equal
//! contention — not better fairness.
//!
//! ## Quick start
//!
//! ```
//! use oftm_core::api::{TxOpts, WordStm};
//! use oftm_core::dstm::{Dstm, DstmWord};
//! use oftm_histories::TVarId;
//!
//! let stm = DstmWord::new(Dstm::default());
//! stm.register_tvar(TVarId(0), 0);
//! let fut = oftm_asyncrt::transact_async(&stm, 0, TxOpts::default(), |tx| {
//!     let v = tx.read(TVarId(0))?;
//!     tx.write(TVarId(0), v + 1)
//! });
//! let done = async_executor::block_on(fut).expect("within budget");
//! assert_eq!(done.attempts, 1);
//! assert_eq!(stm.peek(TVarId(0)), Some(1));
//! ```

mod collections;
mod future;
pub mod timer;

pub use collections::{AsyncHashMap, AsyncIntSet, AsyncQueue};
pub use future::{
    atomically_async_budgeted, atomically_async_ro_budgeted, transact_async, Committed, TxFuture,
};

#[allow(unused_imports)] // rustdoc links
use oftm_core::{
    api::{TxCtx, TxOpts, WordStm},
    notify::CommitNotifier,
};
