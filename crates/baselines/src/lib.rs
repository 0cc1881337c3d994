//! # oftm-baselines — the lock-based TMs the paper contrasts OFTMs against
//!
//! Section 1 of *On Obstruction-Free Transactions* positions OFTMs against
//! lock-based STMs on two axes:
//!
//! * **Progress** — lock-based TMs block: a preempted lock holder stalls
//!   peers (the real-time/kernel motivation for obstruction-freedom).
//! * **Disjoint-access-parallelism** — most lock-based TMs (two-phase
//!   locking à la TL \[11\]) are *strictly* disjoint-access-parallel, which
//!   Theorem 13 proves impossible for any OFTM; the global-clock designs
//!   (TL2 \[10\], TinySTM \[13\]) are the lock-based exception.
//!
//! Three baselines, all implementing the shared
//! [`WordStm`](oftm_core::api::WordStm) interface and the low-level
//! recorder, so the checkers and benchmarks treat them uniformly:
//!
//! | impl | progress | strictly DAP? |
//! |------|----------|----------------|
//! | [`CoarseStm`] | blocking (one global lock) | no (the lock) |
//! | [`TlStm`]     | blocking (commit-time per-object locks) | **yes** |
//! | [`Tl2Stm`]    | blocking + sharded version clock | no (the clock) |
//!
//! `TlStm` and `Tl2Stm` are the two instantiations of one engine,
//! [`LockStm`] (module [`tl`]). They share the versioned lock words, the
//! commit path, the declared read-only transaction and the forensic
//! writer stamps, and differ in one compile-time policy: a TL2 writable
//! transaction samples the clock at `begin` and validates every plain
//! read against that sample, while a TL one reads no clock and validates
//! its read-set by version equality at commit.

mod clock;
pub mod coarse;
pub mod tl;

pub use clock::CLOCK_SHARDS;
pub use coarse::CoarseStm;
pub use tl::{LockStm, Tl2Stm, TlStm};
