//! The transaction engine: acquisition, invisible reads, incremental
//! validation, commit and abort.
//!
//! This follows the DSTM recipe the paper describes in Section 1:
//!
//! * **writes** acquire exclusive-but-revocable ownership by CAS-ing a new
//!   locator into the t-variable;
//! * **reads** are invisible: they resolve the current committed value and
//!   remember `(locator, resolution)` in a private read-set;
//! * after every access and at commit the read-set is re-validated ("the
//!   state of `y` is re-read to ensure that `T_i` still observes a
//!   consistent state"), which yields opacity, not just serializability.
//!   The probes run only when the global commit counter moved since the
//!   last validation: with no update committed in between, nothing the
//!   transaction read can have changed, so the check is one load. A
//!   transaction's accesses therefore cost O(1) each while no update
//!   commits, and O(|read-set|) once per observed commit — the Ω(m²)
//!   bound for invisible-read progressive TMs applies only to weak-DAP
//!   designs, and the counter, a shared word every writing commit
//!   modifies, costs DSTM weak DAP;
//! * encountering a **live owner** invokes the contention manager, which
//!   may back off but must eventually abort the owner (obstruction-
//!   freedom);
//! * **commit** is a single CAS on the own descriptor's status word.

use super::descriptor::{Descriptor, TxState};
use super::locator::{Locator, ValueClass};
use super::stm::{Dstm, Progress};
use super::tvar::{Probe, TVar, TVarDyn};
use crate::api::{TxError, TxResult};
use crate::cm::Resolution;
use crossbeam_epoch::{Guard, Owned};
use oftm_histories::{Access, ProcId, TxId};
use oftm_obs::{pack_tx, AbortCause, Counter, VarAttr, TX_UNKNOWN};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One entry of the invisible read-set. The id is denormalized out of the
/// trait object: the dedup check and upgrade scans compare it, and a
/// virtual `tvar_id()` per comparison is measurable on the hot path.
pub(crate) struct ReadEntry {
    id: oftm_histories::TVarId,
    tvar: Arc<dyn TVarDyn>,
    probe: Probe,
}

/// A live transaction on a [`Dstm`] instance.
///
/// Not `Send`: a transaction is executed by a single process (thread), as
/// in the paper's model. Holds an epoch pin for its whole lifetime so that
/// read-set locator addresses cannot be reclaimed-and-reused (no ABA).
pub struct Tx<'s> {
    stm: &'s Dstm,
    desc: Arc<Descriptor>,
    guard: Guard,
    read_set: Vec<ReadEntry>,
    /// Commit-counter value at the last successful validation (or at
    /// begin): the read-set was consistent when the counter read this.
    seen: u64,
    /// Number of successful acquisitions (for statistics).
    writes: usize,
    finished: bool,
    /// Whether an abort cause has been recorded for this attempt. Each
    /// aborted attempt contributes exactly one cause to the telemetry; the
    /// first site that discovers the attempt dead tags it.
    cause_tagged: bool,
}

impl<'s> Tx<'s> {
    pub(crate) fn new(stm: &'s Dstm, desc: Arc<Descriptor>) -> Self {
        // Reuse a pooled read-set buffer: steady-state transactions
        // validate tens of entries and must not re-grow a fresh `Vec`
        // every attempt.
        let read_set = stm.take_read_scratch(desc.id().proc);
        let tx = Tx {
            stm,
            desc,
            guard: crossbeam_epoch::pin(),
            read_set,
            seen: stm.commits().load(),
            writes: 0,
            finished: false,
            cause_tagged: false,
        };
        tx.rstep(stm.commits().base, Access::Read);
        tx
    }

    /// This transaction's packed forensic identity ([`pack_tx`]).
    fn packed_id(&self) -> u64 {
        let id = self.desc.id();
        pack_tx(id.proc, id.seq)
    }

    /// Records the abort cause of this attempt, first tag wins. `var`
    /// attributes the t-variable the conflict was over and `aggressor`
    /// names the peer that won it ([`TX_UNKNOWN`] when no peer is
    /// identifiable), feeding the contention heatmap and the
    /// who-aborted-whom edge table.
    fn tag_abort(&mut self, cause: AbortCause, var: VarAttr, aggressor: u64) {
        if !self.cause_tagged {
            self.cause_tagged = true;
            self.stm
                .stats()
                .abort_at(cause, var, self.packed_id(), aggressor);
        }
    }

    /// This transaction's identifier.
    pub fn id(&self) -> TxId {
        self.desc.id()
    }

    fn proc(&self) -> ProcId {
        self.desc.id().process()
    }

    /// Records a low-level step if a recorder is attached.
    fn rstep(&self, obj: oftm_histories::BaseObjId, access: Access) {
        if let Some(rec) = self.stm.recorder() {
            rec.step(self.proc(), Some(self.desc.id()), obj, access);
        }
    }

    /// Checks our own fate: a forcefully aborted transaction must stop.
    /// Discovering the abort here means a peer killed us through the
    /// contention manager — the only writer of a foreign status word.
    fn check_self(&mut self) -> TxResult<()> {
        if self.desc.status() == TxState::Live {
            Ok(())
        } else {
            let (killer, kvar) = self.desc.killer();
            self.tag_abort(AbortCause::CmArbitrated, VarAttr::opt(kvar), killer);
            Err(TxError::Aborted)
        }
    }

    /// Re-validates the entire read-set (incremental validation). Returns
    /// the first invalidated entry's t-variable (the conflict attribution
    /// of a `ReadValidation` abort), or `None` when consistent.
    fn first_invalid(&self) -> Option<oftm_histories::TVarId> {
        self.read_set
            .iter()
            .find(|e| {
                self.rstep(e.tvar.base(), Access::Read);
                e.tvar.probe(&self.guard, &self.desc) != e.probe
            })
            .map(|e| e.id)
    }

    /// Post-access validation: samples the commit counter and
    /// revalidates only if an update committed since the last validation.
    fn validate_or_abort(&mut self) -> TxResult<()> {
        let now = self.stm.commits().load();
        self.rstep(self.stm.commits().base, Access::Read);
        self.revalidate(now)
    }

    /// Validates the read-set against counter sample `now` (taken before
    /// any probe). An unchanged counter means no update committed since
    /// the read-set was last found consistent: skip the probes. Otherwise
    /// probe every entry and, if all hold, advance `seen` to `now` — a
    /// commit after the sample moves the counter past it again.
    fn revalidate(&mut self, now: u64) -> TxResult<()> {
        if now == self.seen {
            return Ok(());
        }
        match self.first_invalid() {
            None => {
                self.seen = now;
                Ok(())
            }
            Some(x) => {
                self.abort_self(AbortCause::ReadValidation, VarAttr::Var(x.0), TX_UNKNOWN);
                Err(TxError::Aborted)
            }
        }
    }

    /// Marks ourselves aborted. `cause`, `var` and `aggressor` attribute
    /// the abort when the status CAS is ours to win; losing it means a
    /// peer got there first, which re-attributes the attempt to
    /// contention-manager arbitration by whoever the killer stamp names.
    fn abort_self(&mut self, cause: AbortCause, var: VarAttr, aggressor: u64) {
        let won = self.desc.try_abort();
        if won {
            self.rstep(self.desc.base(), Access::Modify);
            self.tag_abort(cause, var, aggressor);
        } else {
            let (killer, kvar) = self.desc.killer();
            self.tag_abort(AbortCause::CmArbitrated, VarAttr::opt(kvar), killer);
        }
        self.stm.cm().on_abort(&self.desc);
        self.finished = true;
    }

    /// Resolves a conflict over t-variable `var` with the live foreign
    /// `owner` per the contention manager and the progress policy. Returns
    /// when the owner is no longer live (aborted by us or completed by
    /// itself) or asks the caller to re-examine the variable.
    fn resolve_conflict(
        &self,
        owner: &Arc<Descriptor>,
        var: oftm_histories::TVarId,
        attempt: &mut u32,
    ) {
        match self.stm.cm().resolve(&self.desc, owner, *attempt) {
            Resolution::AbortOther => {
                // The eventual-ic variant (Definition 4) refuses to kill an
                // owner before its grace period elapsed, obstructing the
                // caller for a bounded time instead.
                if let Progress::EventualGrace(grace) = self.stm.progress() {
                    let now = self.stm.now_nanos();
                    let first = owner.note_conflict(now);
                    if now.saturating_sub(first) < grace.as_nanos() as u64 {
                        backoff(Duration::from_micros(5));
                        *attempt = attempt.saturating_add(1);
                        return;
                    }
                }
                // Leave the forensic who-aborted-whom stamp before the
                // abort CAS: a victim that sees itself Aborted can then
                // name us and the variable we fought over exactly.
                owner.stamp_killer(self.packed_id(), var.0);
                let killed = owner.try_abort();
                self.rstep(
                    owner.base(),
                    if killed { Access::Modify } else { Access::Read },
                );
            }
            Resolution::Backoff(d) => {
                backoff(d);
                *attempt = attempt.saturating_add(1);
            }
        }
    }

    /// Reads t-variable `v` within the transaction.
    pub fn read<T: Clone + Send + Sync + 'static>(&mut self, v: &TVar<T>) -> TxResult<T> {
        self.check_self()?;
        let mut attempt = 0u32;
        loop {
            let shared = v.inner.load(&self.guard);
            self.rstep(v.inner.base, Access::Read);
            // SAFETY: loaded under our guard, locators are retired via
            // defer_destroy only after unlinking.
            let loc = unsafe { shared.deref() };

            if Arc::ptr_eq(&loc.owner, &self.desc) {
                // Our own tentative value.
                self.rstep(loc.base, Access::Read);
                // SAFETY: we are the owner and live (checked above).
                let val = unsafe { loc.tentative_value().clone() };
                return Ok(val);
            }

            let status = loc.owner.status();
            self.rstep(loc.owner.base(), Access::Read);
            let (val, class) = match status {
                TxState::Committed => {
                    self.rstep(loc.base, Access::Read);
                    // SAFETY: observed Committed with Acquire.
                    (unsafe { loc.committed_value().clone() }, ValueClass::New)
                }
                TxState::Aborted => {
                    self.rstep(loc.base, Access::Read);
                    (loc.old.clone(), ValueClass::Old)
                }
                TxState::Live => {
                    // Paper: "T_i just needs to make sure that no other
                    // transaction T_k is currently updating y; if not, then
                    // T_i may have to eventually abort T_k."
                    self.resolve_conflict(&loc.owner, v.inner.id, &mut attempt);
                    self.check_self()?;
                    continue;
                }
            };

            let addr = shared.as_raw() as usize;
            let probe = Probe { addr, class };
            // An immediate re-read (read-then-re-read of one link) adds
            // no entry; other duplicates are harmless — `write` upgrades
            // and stale-checks every entry of the variable it acquires,
            // so none is left behind to fail later validations.
            if self
                .read_set
                .last()
                .map_or(true, |e| e.id != v.inner.id || e.probe != probe)
            {
                self.read_set.push(ReadEntry {
                    id: v.inner.id,
                    tvar: v.inner.clone() as Arc<dyn TVarDyn>,
                    probe,
                });
            }
            self.stm.cm().on_open(&self.desc);
            self.validate_or_abort()?;
            return Ok(val);
        }
    }

    /// Writes `value` to t-variable `v` within the transaction, acquiring
    /// ownership if not already held.
    pub fn write<T: Clone + Send + Sync + 'static>(
        &mut self,
        v: &TVar<T>,
        value: T,
    ) -> TxResult<()> {
        self.check_self()?;
        let mut attempt = 0u32;
        loop {
            let shared = v.inner.load(&self.guard);
            self.rstep(v.inner.base, Access::Read);
            // SAFETY: as in `read`.
            let loc = unsafe { shared.deref() };

            if Arc::ptr_eq(&loc.owner, &self.desc) {
                // Already own it: update the tentative value in place.
                // SAFETY: we are the live owner; no outstanding references
                // to the tentative value exist (reads clone it out).
                unsafe { loc.set_tentative(value) };
                self.rstep(loc.base, Access::Modify);
                return Ok(());
            }

            let status = loc.owner.status();
            self.rstep(loc.owner.base(), Access::Read);
            let old_val = match status {
                TxState::Committed => {
                    self.rstep(loc.base, Access::Read);
                    // SAFETY: observed Committed with Acquire.
                    unsafe { loc.committed_value().clone() }
                }
                TxState::Aborted => {
                    self.rstep(loc.base, Access::Read);
                    loc.old.clone()
                }
                TxState::Live => {
                    self.resolve_conflict(&loc.owner, v.inner.id, &mut attempt);
                    self.check_self()?;
                    continue;
                }
            };

            // If we read this variable earlier, the value we saw must still
            // be the one we are about to supersede — otherwise our snapshot
            // is stale. Every entry for the variable must agree (probes are
            // deduplicated, but distinct stale probes can coexist).
            let addr = shared.as_raw() as usize;
            if self
                .read_set
                .iter()
                .any(|e| e.id == v.inner.id && e.probe.addr != addr)
            {
                self.abort_self(
                    AbortCause::ReadValidation,
                    VarAttr::Var(v.inner.id.0),
                    TX_UNKNOWN,
                );
                return Err(TxError::Aborted);
            }

            let new_loc = Owned::new(Locator::new(Arc::clone(&self.desc), old_val, value.clone()));
            match v.inner.cas(shared, new_loc, &self.guard) {
                Ok(new_addr) => {
                    self.rstep(v.inner.base, Access::Modify);
                    // Upgrade every read entry of this variable: ownership
                    // now protects it.
                    for entry in self.read_set.iter_mut().filter(|e| e.id == v.inner.id) {
                        entry.probe = Probe {
                            addr: new_addr,
                            class: ValueClass::Mine,
                        };
                    }
                    self.writes += 1;
                    self.stm.cm().on_open(&self.desc);
                    self.validate_or_abort()?;
                    return Ok(());
                }
                Err(_rejected) => {
                    // Someone interposed; re-examine. (The rejected locator
                    // is dropped here, unpublished.)
                    continue;
                }
            }
        }
    }

    /// `tryC`: validates and attempts the commit CAS. Consumes the
    /// transaction.
    pub fn commit(mut self) -> TxResult<()> {
        if self.desc.status() != TxState::Live {
            let (killer, kvar) = self.desc.killer();
            self.tag_abort(AbortCause::CmArbitrated, VarAttr::opt(kvar), killer);
            self.finished = true;
            return Err(TxError::Aborted);
        }
        // DSTM has no commit lock; the "critical section" is the terminal
        // validate + status CAS, after which the new values are visible.
        let cs_started = Instant::now();
        // A writing commit announces itself on the counter *before* its
        // terminal validation, with an RMW: of two crossing writers (each
        // read what the other writes), the second to increment finds the
        // counter moved past its `seen`, validates, and sees the other's
        // locator. A commit that acquired nothing only samples it.
        let now = if self.writes > 0 {
            let prev = self.stm.commits().bump();
            self.rstep(self.stm.commits().base, Access::Modify);
            prev
        } else {
            let now = self.stm.commits().load();
            self.rstep(self.stm.commits().base, Access::Read);
            now
        };
        self.revalidate(now)?;
        let won = self.desc.try_commit();
        self.rstep(
            self.desc.base(),
            if won { Access::Modify } else { Access::Read },
        );
        self.finished = true;
        self.stm
            .stats()
            .record_commit_cs_ns(cs_started.elapsed().as_nanos() as u64);
        if won {
            self.stm.stats().incr(Counter::Commits);
            self.stm.cm().on_commit(&self.desc);
            Ok(())
        } else {
            // Lost the commit-point CAS on our own status word: a peer's
            // `try_abort` raced us between validation and the CAS; its
            // killer stamp names it and the fought-over variable.
            let (killer, kvar) = self.desc.killer();
            self.tag_abort(AbortCause::CasLost, VarAttr::opt(kvar), killer);
            self.stm.cm().on_abort(&self.desc);
            Err(TxError::Aborted)
        }
    }

    /// Read-only `tryC`: validates the read-set and completes without the
    /// commit CAS.
    ///
    /// Sound only for a transaction that acquired nothing: reads are
    /// invisible and install no locators, so no peer ever holds a
    /// reference to this descriptor, never consults its status word, and
    /// never races `try_abort` against us — the status CAS would publish
    /// nothing and can be elided. The final validation is still the
    /// linearization point (everything read was simultaneously current at
    /// that instant).
    pub fn commit_read_only(mut self) -> TxResult<()> {
        self.commit_read_only_inner(Counter::CommitsRo)
    }

    /// Read-only commit for a transaction that *declared* update intent but
    /// acquired nothing; the word-level adapter routes such transactions
    /// here and the promotion is counted separately.
    pub(crate) fn commit_read_only_promoted(mut self) -> TxResult<()> {
        self.commit_read_only_inner(Counter::CommitsPromoted)
    }

    fn commit_read_only_inner(&mut self, commit_counter: Counter) -> TxResult<()> {
        assert_eq!(
            self.writes, 0,
            "commit_read_only on a transaction that acquired variables"
        );
        if self.desc.status() != TxState::Live {
            let (killer, kvar) = self.desc.killer();
            self.tag_abort(AbortCause::CmArbitrated, VarAttr::opt(kvar), killer);
            self.finished = true;
            return Err(TxError::Aborted);
        }
        let cs_started = Instant::now();
        self.validate_or_abort()?;
        self.finished = true;
        self.stm
            .stats()
            .record_commit_cs_ns(cs_started.elapsed().as_nanos() as u64);
        self.stm.stats().incr(commit_counter);
        self.stm.cm().on_commit(&self.desc);
        Ok(())
    }

    /// `tryA`: voluntarily aborts. Consumes the transaction. Abandoning a
    /// still-viable attempt is an explicit retry in the abort taxonomy.
    pub fn rollback(mut self) {
        self.abort_self(AbortCause::ExplicitRetry, VarAttr::NoVar, TX_UNKNOWN);
    }

    /// Number of t-variables this transaction has acquired for writing.
    pub fn write_count(&self) -> usize {
        self.writes
    }

    /// Number of read-set entries.
    pub fn read_count(&self) -> usize {
        self.read_set.len()
    }
}

impl Drop for Tx<'_> {
    fn drop(&mut self) {
        // A transaction dropped without commit/rollback (e.g. on panic or
        // early return) must not stay live: its ownerships would make peers
        // abort it anyway, but marking it aborted immediately is cleaner.
        if !self.finished {
            self.abort_self(AbortCause::ExplicitRetry, VarAttr::NoVar, TX_UNKNOWN);
        }
        // Return the read-set buffer (cleared, capacity kept) to the pool.
        let mut buf = std::mem::take(&mut self.read_set);
        buf.clear();
        self.stm.return_read_scratch(self.desc.id().proc, buf);
    }
}

/// Sleeps/spins for roughly `d`. Sub-100µs waits spin (sleep granularity is
/// far coarser); longer waits sleep.
fn backoff(d: Duration) {
    if d < Duration::from_micros(100) {
        let end = Instant::now() + d;
        while Instant::now() < end {
            std::hint::spin_loop();
        }
    } else {
        std::thread::sleep(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cm::Aggressive;
    use oftm_histories::TVarId;

    fn stm() -> Dstm {
        Dstm::new(Arc::new(Aggressive))
    }

    #[test]
    fn read_initial_value() {
        let s = stm();
        let x: TVar<u64> = TVar::new(TVarId(0), 5);
        let mut tx = s.begin(1);
        assert_eq!(tx.read(&x).unwrap(), 5);
        tx.commit().unwrap();
    }

    #[test]
    fn write_then_read_own() {
        let s = stm();
        let x: TVar<u64> = TVar::new(TVarId(0), 5);
        let mut tx = s.begin(1);
        tx.write(&x, 9).unwrap();
        assert_eq!(tx.read(&x).unwrap(), 9);
        tx.commit().unwrap();
        assert_eq!(x.read_atomic(), 9);
    }

    #[test]
    fn rollback_discards_writes() {
        let s = stm();
        let x: TVar<u64> = TVar::new(TVarId(0), 5);
        let tx = {
            let mut tx = s.begin(1);
            tx.write(&x, 9).unwrap();
            tx
        };
        tx.rollback();
        assert_eq!(x.read_atomic(), 5);
    }

    #[test]
    fn drop_without_commit_aborts() {
        let s = stm();
        let x: TVar<u64> = TVar::new(TVarId(0), 5);
        {
            let mut tx = s.begin(1);
            tx.write(&x, 9).unwrap();
            // dropped here
        }
        assert_eq!(x.read_atomic(), 5);
    }

    #[test]
    fn forceful_abort_stops_victim() {
        let s = stm();
        let x: TVar<u64> = TVar::new(TVarId(0), 5);
        let mut t1 = s.begin(1);
        t1.write(&x, 6).unwrap();
        // T2 (aggressive CM) steals the variable, aborting T1.
        let mut t2 = s.begin(2);
        t2.write(&x, 7).unwrap();
        t2.commit().unwrap();
        // T1 is dead: all further operations observe the abort.
        assert_eq!(t1.read(&x), Err(TxError::Aborted));
        assert_eq!(t1.commit(), Err(TxError::Aborted));
        assert_eq!(x.read_atomic(), 7);
    }

    #[test]
    fn stale_read_detected_at_commit() {
        let s = stm();
        let x: TVar<u64> = TVar::new(TVarId(0), 0);
        let mut t1 = s.begin(1);
        assert_eq!(t1.read(&x).unwrap(), 0);
        // T2 commits a change to x behind T1's back.
        let mut t2 = s.begin(2);
        t2.write(&x, 1).unwrap();
        t2.commit().unwrap();
        // T1's commit must fail validation.
        assert_eq!(t1.commit(), Err(TxError::Aborted));
    }

    #[test]
    fn stale_read_detected_on_next_access() {
        let s = stm();
        let x: TVar<u64> = TVar::new(TVarId(0), 0);
        let y: TVar<u64> = TVar::new(TVarId(1), 0);
        let mut t1 = s.begin(1);
        assert_eq!(t1.read(&x).unwrap(), 0);
        let mut t2 = s.begin(2);
        t2.write(&x, 1).unwrap();
        t2.commit().unwrap();
        // Opacity: the very next operation of T1 must abort, it may not see
        // y in a state inconsistent with its earlier read of x.
        assert_eq!(t1.read(&y), Err(TxError::Aborted));
    }

    #[test]
    fn double_read_then_write_commits() {
        // Regression: reading a variable twice used to leave a duplicate
        // read-set entry behind; a subsequent write upgraded only one,
        // and the stale duplicate failed every later validation — an
        // unconditional self-abort loop even single-threaded.
        let s = stm();
        let x: TVar<u64> = TVar::new(TVarId(0), 3);
        let mut tx = s.begin(1);
        assert_eq!(tx.read(&x).unwrap(), 3);
        assert_eq!(tx.read(&x).unwrap(), 3);
        tx.write(&x, 4).unwrap();
        assert_eq!(tx.read(&x).unwrap(), 4);
        tx.commit().unwrap();
        assert_eq!(x.read_atomic(), 4);
    }

    #[test]
    fn read_write_upgrade_same_tx() {
        let s = stm();
        let x: TVar<u64> = TVar::new(TVarId(0), 3);
        let mut tx = s.begin(1);
        let v = tx.read(&x).unwrap();
        tx.write(&x, v + 1).unwrap();
        assert_eq!(tx.read(&x).unwrap(), 4);
        tx.commit().unwrap();
        assert_eq!(x.read_atomic(), 4);
    }

    #[test]
    fn upgrade_fails_if_var_changed_since_read() {
        let s = stm();
        let x: TVar<u64> = TVar::new(TVarId(0), 0);
        let mut t1 = s.begin(1);
        let _ = t1.read(&x).unwrap();
        let mut t2 = s.begin(2);
        t2.write(&x, 5).unwrap();
        t2.commit().unwrap();
        // T1 now upgrades its read to a write: must abort (snapshot stale).
        assert_eq!(t1.write(&x, 1), Err(TxError::Aborted));
    }

    #[test]
    fn crossing_writers_cannot_both_commit() {
        // T1 reads x and writes y; T2 reads y and writes x. Neither sees
        // the other's acquisition (reads are invisible), and T1's commit
        // leaves T2's skip-check stale: the second increment of the
        // commit counter must force T2 to validate and abort, or the two
        // would commit a write skew.
        for t1_first in [true, false] {
            let s = stm();
            let x: TVar<u64> = TVar::new(TVarId(0), 0);
            let y: TVar<u64> = TVar::new(TVarId(1), 0);
            let mut t1 = s.begin(1);
            let mut t2 = s.begin(2);
            assert_eq!(t1.read(&x).unwrap(), 0);
            assert_eq!(t2.read(&y).unwrap(), 0);
            t1.write(&y, 1).unwrap();
            t2.write(&x, 1).unwrap();
            let (first, second) = if t1_first { (t1, t2) } else { (t2, t1) };
            assert_eq!(first.commit(), Ok(()));
            assert_eq!(second.commit(), Err(TxError::Aborted));
            // Serializable: exactly the first committer's write survives.
            let expect = if t1_first { (0, 1) } else { (1, 0) };
            assert_eq!((x.read_atomic(), y.read_atomic()), expect);
        }
    }

    #[test]
    fn live_writer_on_read_var_aborts_reader_only_once_it_commits() {
        let s = stm();
        let x: TVar<u64> = TVar::new(TVarId(0), 0);
        let y: TVar<u64> = TVar::new(TVarId(1), 0);
        let z: TVar<u64> = TVar::new(TVarId(2), 0);
        let mut reader = s.begin(1);
        assert_eq!(reader.read(&x).unwrap(), 0);
        let mut writer = s.begin(2);
        writer.write(&x, 5).unwrap();
        // x's logical value is still 0 while its owner is live: the
        // reader's snapshot holds and it keeps going.
        assert_eq!(reader.read(&y).unwrap(), 0);
        assert_eq!(reader.read(&z).unwrap(), 0);
        writer.commit().unwrap();
        assert_eq!(reader.read(&y), Err(TxError::Aborted));
    }

    #[test]
    fn read_only_commit_after_unrelated_commit_validates_and_succeeds() {
        let s = stm();
        let x: TVar<u64> = TVar::new(TVarId(0), 7);
        let y: TVar<u64> = TVar::new(TVarId(1), 0);
        let mut t1 = s.begin(1);
        assert_eq!(t1.read(&x).unwrap(), 7);
        let mut t2 = s.begin(2);
        t2.write(&y, 1).unwrap();
        t2.commit().unwrap();
        assert_ne!(s.commits().load(), t1.seen, "counter moved: must probe");
        t1.commit_read_only().unwrap();
    }

    #[test]
    fn aborted_owner_value_resolves_to_old() {
        let s = stm();
        let x: TVar<u64> = TVar::new(TVarId(0), 5);
        let mut t1 = s.begin(1);
        t1.write(&x, 100).unwrap();
        t1.rollback();
        let mut t2 = s.begin(2);
        assert_eq!(t2.read(&x).unwrap(), 5);
        t2.commit().unwrap();
    }

    #[test]
    fn read_only_commit_detects_stale_read() {
        let s = stm();
        let x: TVar<u64> = TVar::new(TVarId(0), 0);
        let mut t1 = s.begin(1);
        assert_eq!(t1.read(&x).unwrap(), 0);
        let mut t2 = s.begin(2);
        t2.write(&x, 1).unwrap();
        t2.commit().unwrap();
        assert_eq!(t1.commit_read_only(), Err(TxError::Aborted));
    }

    #[test]
    fn read_only_commit_succeeds_without_interference() {
        let s = stm();
        let x: TVar<u64> = TVar::new(TVarId(0), 7);
        let mut t1 = s.begin(1);
        assert_eq!(t1.read(&x).unwrap(), 7);
        t1.commit_read_only().unwrap();
    }

    #[test]
    fn write_counts_tracked() {
        let s = stm();
        let x: TVar<u64> = TVar::new(TVarId(0), 0);
        let y: TVar<u64> = TVar::new(TVarId(1), 0);
        let mut tx = s.begin(1);
        tx.write(&x, 1).unwrap();
        tx.write(&y, 1).unwrap();
        tx.write(&x, 2).unwrap(); // same var: still one acquisition
        let _ = tx.read(&y).unwrap(); // own var: not a read-set entry
        assert_eq!(tx.write_count(), 2);
        assert_eq!(tx.read_count(), 0);
        tx.commit().unwrap();
    }
}
