//! The lock-based engine behind the `tl` and `tl2` backends: commit-time
//! per-object locking with per-variable version stamps (after Dice &
//! Shavit's "Transactional Locking" \[11\] and Dice, Shalev & Shavit's
//! TL2 \[10\]).
//!
//! [`LockStm`] is one engine. Its compile-time parameter `SNAPSHOT`
//! decides one thing: whether a *writable* transaction's plain reads are
//! anchored to a begin-time sample `rv` of the sharded commit clock
//! (the `clock` module). Everything else is shared: the versioned lock
//! words, the pooled scratch, the sorted lock/tick/apply/notify commit,
//! the declared read-only transaction and the forensic writer stamps.
//!
//! * [`TlStm`] (`SNAPSHOT = false`) — TL. `begin` reads no clock. A plain
//!   read takes any unlocked version, spinning up to
//!   [`LockStm::lock_patience`] times on a locked word; commit validates
//!   the read-set by version *equality*, and so does a promoted
//!   (empty-write-set) commit. The paper (Section 1) singles this design
//!   out as *strictly disjoint-access-parallel*: a transaction touches
//!   only the words of the t-variables it accesses. One measured
//!   deviation: a writing commit stamps its versions from the sharded
//!   clock, bumping its own process's shard, so writers whose process ids
//!   collide modulo [`CLOCK_SHARDS`] share one clock cell. Writers on
//!   distinct shards and all plain reads stay strictly disjoint
//!   (`exp_conflict_density` sees the difference). This is the price of
//!   giving declared read-only transactions a begin-time snapshot.
//! * [`Tl2Stm`] (`SNAPSHOT = true`) — TL2. `begin` samples every shard,
//!   so disjoint transactions meet on common clock memory — the paper's
//!   lock-based exception to strict disjoint-access-parallelism:
//!   *"every transaction has to access a common memory location to
//!   determine its timestamp"*. A plain read aborts at once on a locked
//!   or torn word (`lock_busy`) and on a stamp newer than `rv`
//!   (`read_validation`); commit checks each read against `rv`, and a
//!   promoted commit needs no revalidation.
//!
//! The clock is sharded to remove the global `fetch_add` hot spot: a
//! writing commit bumps only its own shard and stamps a packed
//! `(shard, count)` pair, and readers merge shards lazily by comparing
//! per shard. Each recorded clock access targets the shard's base object,
//! so the conflict-density experiments see TL2's unrelated-transaction
//! clock conflicts, spread over shards instead of one word.
//!
//! Both are *blocking*: a preempted transaction that holds commit locks
//! stalls every writer of those variables (E9 measures the stall).
//!
//! **Read-only transactions.** Two tiers:
//! * *detect-on-commit promotion* — an ordinary transaction that never
//!   wrote commits without locks or a clock bump (TL revalidates its
//!   read-set, as above);
//! * *declared* ([`WordStm::begin_ro`], `LockRoTx`), the same in both
//!   engines — no read-set, and bounded work per read: one version
//!   sandwich checked against the begin-time vector, with a one-shot
//!   snapshot refresh before the first successful read. Reads are
//!   wait-free, a transaction reading one t-variable never aborts, and a
//!   multi-read transaction aborts only when a writer commits into its
//!   frozen snapshot footprint mid-scan.
//!
//! Transactions reuse pooled scratch buffers (read-set, write-set, lock
//! log) across their lifetimes, the write-set carries the variable
//! handles it resolved (commit takes zero table probes), and a
//! transaction-lifetime epoch pin makes the paged-slab table's per-read
//! pins nest for free — steady-state transactions allocate nothing and
//! take no lock before commit.

use crate::clock::{readable, ShardedClock, CLOCK_SHARDS, LOCK_BIT};
use crossbeam_epoch::{self as epoch, Guard};
use oftm_core::api::{TxError, TxResult, WordStm, WordTx};
use oftm_core::notify::CommitNotifier;
use oftm_core::pool::SlotPool;
use oftm_core::reclaim::{GraceTracker, RetiredBlock, TxGrace};
use oftm_core::record::{fresh_base_id, Recorder};
use oftm_core::table::VarTable;
use oftm_histories::{Access, BaseObjId, TVarId, TmOp, TmResp, TxId, Value};
use oftm_obs::{pack_tx, AbortCause, Counter, StmStats, VarAttr, TX_UNKNOWN};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// TL: plain reads are not anchored to a begin-time snapshot.
pub type TlStm = LockStm<false>;
/// TL2: plain reads are validated against the begin-time clock sample.
pub type Tl2Stm = LockStm<true>;

/// One t-variable: a versioned lock word and the value cell.
struct LockVar {
    /// This variable's own id, so a read-set entry needs only the handle
    /// and the version: 16 bytes (a third word made plain reads
    /// measurably slower).
    id: TVarId,
    /// High bit: locked; rest: a packed `(shard, count)` clock stamp (see
    /// [`crate::clock`]). Each stamp is issued once, so an equal word
    /// means an unchanged variable.
    lock: AtomicU64,
    value: AtomicU64,
    /// Forensic writer stamp: packed id ([`pack_tx`]) of the last
    /// transaction to take this variable's commit lock — while the lock is
    /// held, the current holder; after a successful commit, the last
    /// committer. A victim aborting on this word reads the stamp to name
    /// its aggressor (who-aborted-whom edges). An aborted commit attempt
    /// leaves its id behind until the next holder, so a racing attribution
    /// can name a contender that never committed — a true contender on the
    /// variable, just not the committed invalidator.
    writer: AtomicU64,
    lock_base: BaseObjId,
    value_base: BaseObjId,
}

impl LockVar {
    fn new(id: TVarId, initial: Value) -> Self {
        LockVar {
            id,
            lock: AtomicU64::new(0),
            value: AtomicU64::new(initial),
            writer: AtomicU64::new(TX_UNKNOWN),
            lock_base: fresh_base_id(),
            value_base: fresh_base_id(),
        }
    }

    /// A consistent (version, value) snapshot, or `None` if locked/racing.
    /// The three loads run unconditionally and are judged once, which
    /// keeps the unlocked path free of an early branch.
    #[inline]
    fn read_consistent(&self) -> Option<(u64, Value)> {
        // ord: Acquire pairs with `unlock`'s Release so a clean version
        // word implies the committed value store is visible.
        let v1 = self.lock.load(Ordering::Acquire);
        // ord: Acquire pairs with the committer's Release value store.
        let val = self.value.load(Ordering::Acquire);
        // ord: Acquire re-read — an unchanged version word proves no
        // commit overlapped the value load (seqlock validation).
        let v2 = self.lock.load(Ordering::Acquire);
        (v1 & LOCK_BIT == 0 && v1 == v2).then_some((v1, val))
    }

    /// Tries to take the commit lock, preserving the version bits.
    #[inline]
    fn try_lock(&self) -> Option<u64> {
        // ord: Acquire pairs with the previous holder's Release unlock.
        let cur = self.lock.load(Ordering::Acquire);
        if cur & LOCK_BIT != 0 {
            return None;
        }
        self.lock
            // ord: AcqRel — Acquire makes the previous commit's writes
            // visible to the new lock holder; Release orders the lock
            // acquisition for validators. Failure Acquire pairs with the
            // racing locker.
            .compare_exchange(cur, cur | LOCK_BIT, Ordering::AcqRel, Ordering::Acquire)
            .ok()
            .map(|_| cur)
    }

    /// Releases the lock, restoring (abort) or installing (commit) the
    /// given unlocked version word.
    #[inline]
    fn unlock(&self, word: u64) {
        debug_assert_eq!(word & LOCK_BIT, 0);
        // ord: Release publishes the value stores made under the lock to
        // readers' Acquire version loads (seqlock release half).
        self.lock.store(word, Ordering::Release);
    }
}

/// A writable transaction's logs, pooled: popped at `begin`, cleared and
/// pushed back when the transaction completes.
#[derive(Default)]
struct Scratch {
    /// Read-set: (var, observed version).
    reads: Vec<(Arc<LockVar>, u64)>,
    /// Redo log, ordered by first write, carrying resolved handles;
    /// committed under locks.
    writes: Vec<(TVarId, Value, Arc<LockVar>)>,
    /// Lock log of the commit attempt: previous lock words, parallel to
    /// the (deduplicated, sorted) prefix of `writes`.
    locked: Vec<u64>,
    retired: Vec<RetiredBlock>,
}

/// The lock-based STM; see the module docs for what `SNAPSHOT` selects.
pub struct LockStm<const SNAPSHOT: bool> {
    vars: VarTable<LockVar>,
    reclaim: GraceTracker,
    notify: CommitNotifier,
    clocks: ShardedClock,
    tx_seq: AtomicU32,
    recorder: Option<Arc<Recorder>>,
    scratch: SlotPool<Scratch>,
    /// Always-on telemetry (begins/commits/aborts-by-cause, latency
    /// histograms). Behind an `Arc` so an embedding backend (the hybrid)
    /// can share one registry across engines.
    stats: Arc<StmStats>,
    /// Bounded spin on a locked variable before giving up and aborting
    /// (keeps writers from deadlocking; readers never block).
    pub lock_patience: u32,
}

impl<const SNAPSHOT: bool> Default for LockStm<SNAPSHOT> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const SNAPSHOT: bool> LockStm<SNAPSHOT> {
    pub fn new() -> Self {
        LockStm {
            vars: VarTable::new(),
            reclaim: GraceTracker::new(),
            notify: CommitNotifier::new(),
            clocks: ShardedClock::new(),
            tx_seq: AtomicU32::new(0),
            recorder: None,
            scratch: SlotPool::new(),
            stats: Arc::new(StmStats::new()),
            lock_patience: 4096,
        }
    }

    pub fn with_recorder(mut self, rec: Arc<Recorder>) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Replaces the telemetry registry with a shared one (the hybrid
    /// backend routes both embedded engines into a single registry).
    pub fn with_stats(mut self, stats: Arc<StmStats>) -> Self {
        self.stats = stats;
        self
    }

    /// Visits every live t-variable with its current committed value.
    /// Exact only while no writer is in flight (racy snapshot otherwise) —
    /// the hybrid's migration barrier provides that quiescence.
    pub fn for_each_live_value(&self, mut f: impl FnMut(TVarId, Value)) {
        self.vars.for_each_live(|id, var| {
            // ord: Acquire pairs with the committer's Release value store.
            f(id, var.value.load(Ordering::Acquire));
        });
    }

    pub fn peek(&self, x: TVarId) -> Option<Value> {
        // ord: Acquire pairs with the committer's Release value store
        // (oracle/inspection read; not validated against the lock word).
        self.vars.get(x).map(|v| v.value.load(Ordering::Acquire))
    }

    /// Total writing commits stamped so far across all shards
    /// (diagnostics; the lazy-merged "current time").
    pub fn clock_now(&self) -> u64 {
        self.clocks.now()
    }

    fn rstep(&self, id: TxId, obj: BaseObjId, access: Access) {
        if let Some(r) = self.recorder.as_deref() {
            r.step(id.process(), Some(id), obj, access);
        }
    }

    /// Samples the read-version vector, recording one Read step per shard
    /// cell — the common clock memory where TL2's disjoint transactions
    /// meet. TL pays this only in declared read-only transactions.
    fn sample_rv(&self, id: TxId) -> [u64; CLOCK_SHARDS] {
        let mut rv = [0u64; CLOCK_SHARDS];
        for (s, shard) in self.clocks.shards().iter().enumerate() {
            // ord: Acquire pairs with the shard tick's Release so commits
            // stamped at or below the sampled vector are fully visible.
            rv[s] = shard.count.load(Ordering::Acquire);
            self.rstep(id, shard.base, Access::Read);
        }
        rv
    }

    /// Reads `var` consistently, spinning while a committer holds it.
    /// Records one lock-word Read per try and the value Read on success;
    /// `None` once `lock_patience` tries have failed.
    #[inline]
    fn read_patiently(&self, id: TxId, var: &LockVar) -> Option<(u64, Value)> {
        self.rstep(id, var.lock_base, Access::Read);
        match var.read_consistent() {
            Some(pair) => {
                self.rstep(id, var.value_base, Access::Read);
                Some(pair)
            }
            None => self.spin_read(id, var),
        }
    }

    /// The locked-word retries of [`Self::read_patiently`], kept out of
    /// line so the unlocked path stays straight.
    #[cold]
    #[inline(never)]
    fn spin_read(&self, id: TxId, var: &LockVar) -> Option<(u64, Value)> {
        let mut patience = self.lock_patience;
        loop {
            patience = patience.saturating_sub(1);
            if patience == 0 {
                return None;
            }
            std::hint::spin_loop();
            self.rstep(id, var.lock_base, Access::Read);
            if let Some(pair) = var.read_consistent() {
                self.rstep(id, var.value_base, Access::Read);
                return Some(pair);
            }
        }
    }

    fn reclaim_after_commit(&self, grace: TxGrace, retired: &mut Vec<RetiredBlock>) {
        self.evict(
            self.reclaim
                .retire_and_flush(grace, std::mem::take(retired)),
        );
    }

    /// Frees every retired block that no active transaction predates —
    /// all of them once the engine is quiescent. The hybrid's migration
    /// barrier calls this on the engine it drained: otherwise blocks
    /// retired just before the switch would wait for a commit on an
    /// engine that no longer runs any.
    pub fn flush_retired(&self) {
        self.evict(self.reclaim.flush());
    }

    /// Evicts blocks whose grace period has elapsed from the table.
    fn evict(&self, freed: Vec<RetiredBlock>) {
        if !freed.is_empty() {
            self.stats.incr(Counter::GraceFlushes);
            self.stats.add(
                Counter::TvarsFreed,
                freed.iter().map(|b| b.len as u64).sum(),
            );
        }
        for blk in freed {
            self.vars.remove_block(blk.base, blk.len);
        }
    }

    fn next_id(&self, proc: u32) -> TxId {
        self.stats.incr(Counter::Begins);
        // ord: Relaxed — atomicity alone keeps transaction ids unique.
        TxId::new(proc, self.tx_seq.fetch_add(1, Ordering::Relaxed))
    }
}

/// What both transaction kinds share: identity, read snapshot, grace
/// slot, tag-once flags and the epoch pin. Dropping an attempt that was
/// neither committed nor aborted tags it as an explicit retry.
struct Attempt<'s, const SNAPSHOT: bool> {
    stm: &'s LockStm<SNAPSHOT>,
    id: TxId,
    /// Read version, one sampled count per clock shard (a TL writable
    /// transaction leaves it zero and never reads it).
    rv: [u64; CLOCK_SHARDS],
    /// Grace-period registration; dropping it (any abort path) releases
    /// the slot and discards the retire-set with the transaction.
    grace: Option<TxGrace>,
    dead: bool,
    /// Completed through `try_commit`/`try_abort`: every abort cause is
    /// already tagged.
    finished: bool,
    /// The variable an abort gave up on at read time: it is in no log,
    /// but it *is* part of the conflict footprint a parked re-run must
    /// wake on.
    conflict_hint: Option<TVarId>,
    /// Epoch pin held for the transaction's lifetime (nested table pins
    /// become a counter bump).
    pin: Guard,
}

impl<'s, const SNAPSHOT: bool> Attempt<'s, SNAPSHOT> {
    fn new(stm: &'s LockStm<SNAPSHOT>, id: TxId, rv: [u64; CLOCK_SHARDS]) -> Self {
        Attempt {
            stm,
            id,
            rv,
            grace: Some(stm.reclaim.begin()),
            dead: false,
            finished: false,
            conflict_hint: None,
            pin: epoch::pin(),
        }
    }

    fn rstep(&self, obj: BaseObjId, access: Access) {
        self.stm.rstep(self.id, obj, access);
    }

    fn rinvoke(&self, op: TmOp) {
        if let Some(r) = self.stm.recorder.as_deref() {
            r.invoke(self.id, op);
        }
    }

    fn rrespond(&self, resp: TmResp) {
        if let Some(r) = self.stm.recorder.as_deref() {
            r.respond(self.id, resp);
        }
    }

    /// Records the invocation of `op`; a dead attempt answers it with an
    /// abort.
    fn invoke(&self, op: TmOp) -> TxResult<()> {
        self.rinvoke(op);
        if self.dead {
            self.rrespond(TmResp::Aborted);
            return Err(TxError::Aborted);
        }
        Ok(())
    }

    /// This transaction's packed forensic identity ([`pack_tx`]).
    fn packed_id(&self) -> u64 {
        pack_tx(self.id.proc, self.id.seq)
    }

    /// Kills the attempt on a read-time conflict over `at`, naming
    /// `aggressor`; the variable joins the conflict footprint.
    #[cold]
    fn abort_read(&mut self, cause: AbortCause, at: VarAttr, aggressor: u64) -> TxResult<Value> {
        self.dead = true;
        self.conflict_hint = at.id().map(TVarId);
        self.stm
            .stats
            .abort_at(cause, at, self.packed_id(), aggressor);
        self.rrespond(TmResp::Aborted);
        Err(TxError::Aborted)
    }

    /// Answers the commit and releases the grace slot, retiring `retired`.
    fn committed(&mut self, retired: &mut Vec<RetiredBlock>) {
        self.rrespond(TmResp::Committed);
        let grace = self.grace.take().expect("grace slot held until completion");
        self.stm.reclaim_after_commit(grace, retired);
    }

    /// `tryA`. Nothing to undo: writes were buffered; dropping `grace`
    /// releases the reclamation slot and discards the retire-set.
    fn try_abort(&mut self) {
        self.rinvoke(TmOp::TryAbort);
        self.finished = true;
        if !self.dead {
            // Abandoning a still-viable attempt: an explicit retry — no
            // variable and no peer are attributable by construction.
            self.stm.stats.abort_at(
                AbortCause::ExplicitRetry,
                VarAttr::NoVar,
                self.packed_id(),
                TX_UNKNOWN,
            );
        }
        self.rrespond(TmResp::Aborted);
    }
}

impl<const SNAPSHOT: bool> Drop for Attempt<'_, SNAPSHOT> {
    fn drop(&mut self) {
        if !self.finished && !self.dead {
            // Dropped live without tryC/tryA: counted as an explicit retry
            // (the only way an attempt can end with no cause tagged).
            self.stm.stats.abort_at(
                AbortCause::ExplicitRetry,
                VarAttr::NoVar,
                self.packed_id(),
                TX_UNKNOWN,
            );
        }
    }
}

/// A writable transaction.
struct LockTx<'s, const SNAPSHOT: bool> {
    a: Attempt<'s, SNAPSHOT>,
    log: Scratch,
}

impl<const SNAPSHOT: bool> LockTx<'_, SNAPSHOT> {
    /// Resolves `x`, preferring handles this transaction already holds
    /// (write-set entries, then the most recent read — the read-then-
    /// write upgrade pattern) over a table probe.
    fn var(&self, x: TVarId) -> Arc<LockVar> {
        if let Some((_, _, var)) = self.log.writes.iter().rev().find(|(w, _, _)| *w == x) {
            return Arc::clone(var);
        }
        if let Some((var, _)) = self.log.reads.last() {
            if var.id == x {
                return Arc::clone(var);
            }
        }
        self.a.stm.vars.get_or_panic_in(x, &self.a.pin)
    }

    fn buffered(&self, x: TVarId) -> Option<Value> {
        self.log
            .writes
            .iter()
            .rev()
            .find(|(w, _, _)| *w == x)
            .map(|(_, v, _)| *v)
    }

    /// Commit-time read-set validation; on failure, the stale variable
    /// and its writer stamp. A variable this transaction writes is judged
    /// by its lock-log word (we hold its lock); any other must be
    /// unlocked. TL then requires the version seen at read time, TL2 a
    /// version within `rv`.
    fn validate_reads(&self) -> Result<(), (TVarId, u64)> {
        for (var, ver) in &self.log.reads {
            self.a.rstep(var.lock_base, Access::Read);
            // ord: Acquire pairs with `unlock`'s Release (validation read).
            let cur = var.lock.load(Ordering::Acquire);
            let version = match self
                .log
                .writes
                .binary_search_by_key(&var.id, |(w, _, _)| *w)
            {
                Ok(i) => Some(self.log.locked[i]),
                Err(_) => (cur & LOCK_BIT == 0).then_some(cur),
            };
            let valid = version.is_some_and(|v| {
                if SNAPSHOT {
                    readable(v, &self.a.rv)
                } else {
                    v == *ver
                }
            });
            if !valid {
                // ord: Relaxed — forensic stamp, carries no payload.
                return Err((var.id, var.writer.load(Ordering::Relaxed)));
            }
        }
        Ok(())
    }
}

impl<const SNAPSHOT: bool> WordTx for LockTx<'_, SNAPSHOT> {
    fn id(&self) -> TxId {
        self.a.id
    }

    fn read(&mut self, x: TVarId) -> TxResult<Value> {
        self.a.invoke(TmOp::Read(x))?;
        if let Some(v) = self.buffered(x) {
            self.a.rrespond(TmResp::Value(v));
            return Ok(v);
        }
        let a = &self.a;
        let var = a.stm.vars.get_or_panic_in(x, &a.pin);
        let read = if SNAPSHOT {
            // TL2: one sandwich, valid iff unlocked, untorn and within
            // the read snapshot. A locked or torn word means a committer
            // holds it (lock-busy); a clean but too-new stamp is the
            // snapshot check proper (read-validation).
            a.rstep(var.lock_base, Access::Read);
            let seen = var.read_consistent();
            a.rstep(var.value_base, Access::Read);
            match seen {
                Some((ver, _)) if !readable(ver, &a.rv) => Err(AbortCause::ReadValidation),
                Some(pair) => Ok(pair),
                None => Err(AbortCause::LockBusy),
            }
        } else {
            // TL: any unlocked version; spin briefly on a locked one.
            a.stm.read_patiently(a.id, &var).ok_or(AbortCause::LockBusy)
        };
        match read {
            Ok((ver, val)) => {
                self.log.reads.push((var, ver));
                self.a.rrespond(TmResp::Value(val));
                Ok(val)
            }
            Err(cause) => {
                // The writer stamp names the aggressor: the current
                // holder, or the committer whose stamp postdates `rv`.
                // ord: Relaxed — forensic stamp, carries no payload.
                let aggressor = var.writer.load(Ordering::Relaxed);
                self.a.abort_read(cause, VarAttr::Var(x.0), aggressor)
            }
        }
    }

    fn write(&mut self, x: TVarId, v: Value) -> TxResult<()> {
        self.a.invoke(TmOp::Write(x, v))?;
        let var = self.var(x); // existence check + handle capture
        self.log.writes.push((x, v, var));
        self.a.rrespond(TmResp::Ok);
        Ok(())
    }

    fn try_commit(mut self: Box<Self>) -> TxResult<()> {
        self.a.finished = true;
        self.a.invoke(TmOp::TryCommit)?;
        let stm = self.a.stm;
        let me = self.a.packed_id();
        if self.log.writes.is_empty() {
            // Detect-on-commit promotion: no locks and no clock bump. TL2
            // validated each read against `rv` as it happened. TL reads
            // are not snapshot-anchored, so revalidating is what makes
            // two reads at different times mutually consistent.
            if !SNAPSHOT {
                if let Err((x, writer)) = self.validate_reads() {
                    stm.stats
                        .abort_at(AbortCause::ReadValidation, VarAttr::Var(x.0), me, writer);
                    self.a.rrespond(TmResp::Aborted);
                    return Err(TxError::Aborted);
                }
            }
            stm.stats.incr(Counter::CommitsPromoted);
            self.a.committed(&mut self.log.retired);
            return Ok(());
        }

        // Deduplicate the write-set in place (stable sort keeps program
        // order within a key; keep the *last* write) and lock in global
        // t-variable order to avoid deadlock among committers. No table
        // probe and no allocation: the handles ride in the write-set.
        self.log.writes.sort_by_key(|(x, _, _)| *x);
        self.log.writes.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                earlier.1 = later.1;
                true
            } else {
                false
            }
        });

        let unlock_all = |writes: &[(TVarId, Value, Arc<LockVar>)], locked: &[u64]| {
            for ((_, _, var), prev) in writes.iter().zip(locked).rev() {
                var.unlock(*prev);
            }
        };

        // Commit critical section: from the first lock acquisition to the
        // final unlock, every concurrent writer of these variables stalls.
        let cs_started = Instant::now();
        self.log.locked.clear();
        for i in 0..self.log.writes.len() {
            let var = &self.log.writes[i].2;
            let mut patience = stm.lock_patience;
            loop {
                self.a.rstep(var.lock_base, Access::Modify);
                if let Some(prev) = var.try_lock() {
                    self.log.locked.push(prev);
                    // Forensic holder stamp: any peer that aborts on this
                    // word while we hold it (or validates against our
                    // commit stamp later) names us as the aggressor.
                    // ord: Relaxed — forensic stamp, carries no payload.
                    var.writer.store(me, Ordering::Relaxed);
                    break;
                }
                patience = patience.saturating_sub(1);
                if patience == 0 {
                    let x = self.log.writes[i].0;
                    // ord: Relaxed — forensic stamp, carries no payload.
                    let holder = var.writer.load(Ordering::Relaxed);
                    unlock_all(&self.log.writes[..self.log.locked.len()], &self.log.locked);
                    stm.stats
                        .abort_at(AbortCause::LockBusy, VarAttr::Var(x.0), me, holder);
                    self.a.rrespond(TmResp::Aborted);
                    return Err(TxError::Aborted);
                }
                std::hint::spin_loop();
            }
        }

        // The commit stamp: a bump of OUR clock shard only. For TL this is
        // the one non-strictly-DAP access of a writing commit.
        let wv = stm.clocks.tick(self.a.id.proc);
        stm.stats.incr(Counter::ClockShardTicks);
        let shard = self.a.id.proc as usize & (CLOCK_SHARDS - 1);
        self.a
            .rstep(stm.clocks.shards()[shard].base, Access::Modify);

        if let Err((x, writer)) = self.validate_reads() {
            unlock_all(&self.log.writes, &self.log.locked);
            stm.stats
                .abort_at(AbortCause::ReadValidation, VarAttr::Var(x.0), me, writer);
            self.a.rrespond(TmResp::Aborted);
            return Err(TxError::Aborted);
        }

        // Apply and release with the new commit stamp.
        for (_x, v, var) in self.log.writes.iter() {
            // ord: Release — together with `unlock`'s Release version store,
            // pairs with readers' Acquire value/version loads.
            var.value.store(*v, Ordering::Release);
            self.a.rstep(var.value_base, Access::Modify);
            var.unlock(wv);
            self.a.rstep(var.lock_base, Access::Modify);
        }
        stm.stats
            .record_commit_cs_ns(cs_started.elapsed().as_nanos() as u64);
        stm.stats.incr(Counter::Commits);
        // Writes are visible and unlocked: wake parked conflicters.
        stm.notify
            .publish(self.log.writes.iter().map(|(x, _, _)| *x));
        self.a.committed(&mut self.log.retired);
        Ok(())
    }

    fn try_abort(mut self: Box<Self>) {
        self.a.try_abort();
    }

    fn retire_tvar_block(&mut self, base: TVarId, len: usize) {
        self.log.retired.push(RetiredBlock { base, len });
    }

    fn footprint(&self, out: &mut Vec<TVarId>) {
        out.extend(self.log.reads.iter().map(|(var, _)| var.id));
        out.extend(self.log.writes.iter().map(|(x, _, _)| *x));
        out.extend(self.a.conflict_hint);
    }
}

impl<const SNAPSHOT: bool> Drop for LockTx<'_, SNAPSHOT> {
    fn drop(&mut self) {
        // Return the (cleared) buffers to the pool: the next transaction
        // begins with warm capacity instead of fresh allocations.
        let mut log = std::mem::take(&mut self.log);
        log.reads.clear();
        log.writes.clear();
        log.locked.clear();
        log.retired.clear();
        self.a
            .stm
            .scratch
            .put(self.a.id.proc as usize, Box::new(log));
    }
}

/// A **declared read-only** transaction ([`WordStm::begin_ro`]), the same
/// in both engines.
///
/// Keeps *no read-set*: each read is a lock-word/value/lock-word sandwich
/// validated against the begin-time version vector `rv`, so it is
/// serializable at begin time the moment it loads — nothing to revalidate
/// at commit, no locks, no clock bump. Per-operation work is bounded
/// (one sandwich, at most one snapshot refresh, at most `lock_patience`
/// spins on a locked word before aborting), which is the wait-free bound
/// the read-only oracle asserts.
///
/// Two refinements keep single-read transactions abort-free:
/// * **first-read snapshot refresh** — until the first read succeeds, no
///   value has been exposed, so on observing a consistent-but-too-new
///   version the transaction slides `rv` forward (resample) instead of
///   aborting. The observed stamp `(s, c)` was published before the
///   resample, so `rv[s] ≥ c` afterwards and the read succeeds — a
///   transaction whose footprint is one t-variable therefore *never*
///   retries, no matter how fast writers commit to it;
/// * after the first read the snapshot is frozen (a later refresh could
///   tear a multi-variable invariant), and a too-new version aborts.
struct LockRoTx<'s, const SNAPSHOT: bool> {
    a: Attempt<'s, SNAPSHOT>,
    /// A read has succeeded: the snapshot is frozen from here on.
    read_any: bool,
}

impl<const SNAPSHOT: bool> WordTx for LockRoTx<'_, SNAPSHOT> {
    fn id(&self) -> TxId {
        self.a.id
    }

    fn read(&mut self, x: TVarId) -> TxResult<Value> {
        self.a.invoke(TmOp::Read(x))?;
        let a = &mut self.a;
        // No read-set to retain the handle in: borrow under the pin and
        // skip the per-read `Arc` refcount round-trip.
        let var = a.stm.vars.get_ref_or_panic_in(x, &a.pin);
        let Some((ver, val)) = a.stm.read_patiently(a.id, var) else {
            // ord: Relaxed — forensic stamp, carries no payload.
            let holder = var.writer.load(Ordering::Relaxed);
            return a.abort_read(AbortCause::LockBusy, VarAttr::Var(x.0), holder);
        };
        if !readable(ver, &a.rv) {
            if self.read_any {
                // Snapshot frozen; this value postdates it. The writer
                // stamp names the committer that broke the snapshot.
                // ord: Relaxed — forensic stamp, carries no payload.
                let writer = var.writer.load(Ordering::Relaxed);
                return a.abort_read(AbortCause::ReadValidation, VarAttr::Var(x.0), writer);
            }
            // First read: refresh the snapshot instead of aborting. The
            // stamp we saw was published before the resample, so it is
            // readable afterwards.
            a.rv = a.stm.sample_rv(a.id);
            debug_assert!(readable(ver, &a.rv));
        }
        self.read_any = true;
        a.rrespond(TmResp::Value(val));
        Ok(val)
    }

    fn write(&mut self, _x: TVarId, _v: Value) -> TxResult<()> {
        panic!(
            "{}: write on a declared read-only transaction",
            self.a.stm.name()
        );
    }

    fn try_commit(mut self: Box<Self>) -> TxResult<()> {
        self.a.finished = true;
        self.a.invoke(TmOp::TryCommit)?;
        // Every read was serializable at begin time: nothing to validate,
        // nothing to lock, no clock bump. Commit is the grace release.
        self.a.stm.stats.incr(Counter::CommitsRo);
        self.a.committed(&mut Vec::new());
        Ok(())
    }

    fn try_abort(mut self: Box<Self>) {
        self.a.try_abort();
    }

    fn retire_tvar_block(&mut self, _base: TVarId, _len: usize) {
        panic!(
            "{}: retire on a declared read-only transaction",
            self.a.stm.name()
        );
    }

    fn footprint(&self, out: &mut Vec<TVarId>) {
        // No read-set is kept; only the variable an abort gave up on is
        // known. Read-only futures never park, so this is purely
        // diagnostic.
        out.extend(self.a.conflict_hint);
    }
}

impl<const SNAPSHOT: bool> WordStm for LockStm<SNAPSHOT> {
    fn name(&self) -> &'static str {
        if SNAPSHOT {
            "tl2"
        } else {
            "tl"
        }
    }

    fn register_tvar(&self, x: TVarId, initial: Value) {
        self.stats.incr(Counter::TvarsAllocated);
        self.vars.insert(x, LockVar::new(x, initial));
    }

    fn alloc_tvar_block(&self, initials: &[Value]) -> TVarId {
        self.stats
            .add(Counter::TvarsAllocated, initials.len() as u64);
        self.vars.alloc_block(initials, LockVar::new)
    }

    fn free_tvar_block(&self, base: TVarId, len: usize) {
        self.stats.add(Counter::TvarsFreed, len as u64);
        self.vars.remove_block(base, len);
    }

    fn live_tvars(&self) -> usize {
        self.vars.len()
    }

    fn begin(&self, proc: u32) -> Box<dyn WordTx + '_> {
        let id = self.next_id(proc);
        let rv = if SNAPSHOT {
            self.sample_rv(id)
        } else {
            [0; CLOCK_SHARDS]
        };
        let log = self
            .scratch
            .take(proc as usize)
            .map(|b| *b)
            .unwrap_or_default();
        Box::new(LockTx {
            a: Attempt::new(self, id, rv),
            log,
        })
    }

    fn begin_ro(&self, proc: u32) -> Box<dyn WordTx + '_> {
        let id = self.next_id(proc);
        self.stats.incr(Counter::BeginsRo);
        let rv = self.sample_rv(id);
        Box::new(LockRoTx {
            a: Attempt::new(self, id, rv),
            read_any: false,
        })
    }

    fn notifier(&self) -> &CommitNotifier {
        &self.notify
    }

    fn stats(&self) -> &StmStats {
        &self.stats
    }

    fn is_obstruction_free(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftm_core::api::run_transaction;

    const X: TVarId = TVarId(0);
    const Y: TVarId = TVarId(1);

    fn stm<const S: bool>() -> LockStm<S> {
        let s = LockStm::new();
        s.register_tvar(X, 0);
        s.register_tvar(Y, 0);
        s
    }

    /// Runs each generic test below once per engine, as
    /// `tests::tl::<name>` and `tests::tl2::<name>`.
    macro_rules! per_engine {
        ($($(#[$attr:meta])* $name:ident),* $(,)?) => {
            mod tl {
                $(#[test] $(#[$attr])* fn $name() { super::$name::<false>() })*
            }
            mod tl2 {
                $(#[test] $(#[$attr])* fn $name() { super::$name::<true>() })*
            }
        };
    }

    per_engine!(
        read_write_roundtrip_advances_the_clock,
        buffered_writes_read_back,
        duplicate_writes_last_value_wins,
        stale_read_aborts_at_commit,
        ro_first_read_refreshes_snapshot,
        ro_snapshot_frozen_after_first_read,
        #[should_panic(expected = "read-only")]
        ro_write_panics,
        ro_commit_does_not_advance_clock,
        concurrent_counter,
        invariant_across_two_vars,
        recorded_histories_serializable,
    );

    fn read_write_roundtrip_advances_the_clock<const S: bool>() {
        let s = stm::<S>();
        assert_eq!(s.clock_now(), 0);
        run_transaction(&s, 0, |tx| tx.write(X, 3));
        assert_eq!(s.clock_now(), 1);
        let (v, _) = run_transaction(&s, 0, |tx| tx.read(X));
        assert_eq!(v, 3);
        // Read-only commit does not advance the clock.
        assert_eq!(s.clock_now(), 1);
    }

    fn buffered_writes_read_back<const S: bool>() {
        let s = stm::<S>();
        run_transaction(&s, 0, |tx| {
            tx.write(X, 1)?;
            assert_eq!(tx.read(X)?, 1);
            tx.write(X, 2)?;
            assert_eq!(tx.read(X)?, 2);
            Ok(())
        });
        assert_eq!(s.peek(X), Some(2));
    }

    fn duplicate_writes_last_value_wins<const S: bool>() {
        let s = stm::<S>();
        run_transaction(&s, 0, |tx| {
            tx.write(X, 1)?;
            tx.write(Y, 7)?;
            tx.write(X, 2)?;
            tx.write(X, 3)
        });
        assert_eq!(s.peek(X), Some(3));
        assert_eq!(s.peek(Y), Some(7));
    }

    fn stale_read_aborts_at_commit<const S: bool>() {
        let s = stm::<S>();
        let mut t1 = s.begin(0);
        assert_eq!(t1.read(X).unwrap(), 0);
        run_transaction(&s, 1, |tx| tx.write(X, 9));
        t1.write(Y, 1).unwrap();
        assert!(t1.try_commit().is_err());
    }

    fn ro_first_read_refreshes_snapshot<const S: bool>() {
        let s = stm::<S>();
        let mut ro = s.begin_ro(0); // rv = all-zero vector
        run_transaction(&s, 1, |tx| tx.write(X, 9)); // stamped after begin
        assert_eq!(ro.read(X).unwrap(), 9, "first read slides the snapshot");
        assert!(ro.try_commit().is_ok());
    }

    fn ro_snapshot_frozen_after_first_read<const S: bool>() {
        let s = stm::<S>();
        run_transaction(&s, 0, |tx| tx.write(Y, 1));
        let mut ro = s.begin_ro(0);
        assert_eq!(ro.read(Y).unwrap(), 1); // snapshot now frozen
        run_transaction(&s, 1, |tx| tx.write(X, 7));
        assert!(
            ro.read(X).is_err(),
            "a post-freeze commit must not leak into the snapshot"
        );
    }

    fn ro_write_panics<const S: bool>() {
        let s = stm::<S>();
        let mut ro = s.begin_ro(0);
        let _ = ro.write(X, 1);
    }

    fn ro_commit_does_not_advance_clock<const S: bool>() {
        let s = stm::<S>();
        run_transaction(&s, 0, |tx| tx.write(X, 3));
        let before = s.clock_now();
        let mut ro = s.begin_ro(1);
        assert_eq!(ro.read(X).unwrap(), 3);
        assert!(ro.try_commit().is_ok());
        assert_eq!(s.clock_now(), before);
    }

    fn concurrent_counter<const S: bool>() {
        let s = Arc::new(stm::<S>());
        std::thread::scope(|sc| {
            for p in 0..4u32 {
                let s = Arc::clone(&s);
                sc.spawn(move || {
                    for _ in 0..200 {
                        run_transaction(&*s, p, |tx| {
                            let v = tx.read(X)?;
                            tx.write(X, v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(s.peek(X), Some(800));
    }

    fn invariant_across_two_vars<const S: bool>() {
        let s = Arc::new(stm::<S>());
        run_transaction(&*s, 0, |tx| {
            tx.write(X, 500)?;
            tx.write(Y, 500)
        });
        std::thread::scope(|sc| {
            for p in 0..4u32 {
                let s = Arc::clone(&s);
                sc.spawn(move || {
                    for i in 0..100u64 {
                        let d = i % 9;
                        run_transaction(&*s, p, |tx| {
                            let x = tx.read(X)?;
                            let y = tx.read(Y)?;
                            if x >= d {
                                tx.write(X, x - d)?;
                                tx.write(Y, y + d)?;
                            }
                            Ok(())
                        });
                    }
                });
            }
        });
        let (sum, _) = run_transaction(&*s, 9, |tx| Ok(tx.read(X)? + tx.read(Y)?));
        assert_eq!(sum, 1000);
    }

    fn recorded_histories_serializable<const S: bool>() {
        let rec = Arc::new(Recorder::new());
        let s = Arc::new(LockStm::<S>::new().with_recorder(Arc::clone(&rec)));
        s.register_tvar(X, 0);
        s.register_tvar(Y, 0);
        std::thread::scope(|sc| {
            for p in 0..3u32 {
                let s = Arc::clone(&s);
                sc.spawn(move || {
                    for _ in 0..10 {
                        run_transaction(&*s, p, |tx| {
                            let x = tx.read(X)?;
                            tx.write(Y, x + 1)?;
                            tx.write(X, x + 1)
                        });
                    }
                });
            }
        });
        assert!(oftm_histories::conflict_serializable(&rec.snapshot()));
    }

    #[test]
    fn promoted_commit_revalidates_only_without_snapshot() {
        // The one policy difference at promotion: TL reads are not
        // snapshot-anchored, so a stale empty-write-set commit aborts;
        // TL2 validated the read against `rv` and serializes at begin.
        fn stale_promoted_commit<const S: bool>() -> TxResult<()> {
            let s = stm::<S>();
            let mut t1 = s.begin(0);
            assert_eq!(t1.read(X).unwrap(), 0);
            run_transaction(&s, 1, |tx| tx.write(X, 9));
            t1.try_commit()
        }
        assert!(stale_promoted_commit::<false>().is_err());
        assert!(stale_promoted_commit::<true>().is_ok());
    }

    #[test]
    fn disjoint_transactions_touch_disjoint_base_objects() {
        // The strict-DAP property (the paper's Section 1 claim about TL).
        let rec = Arc::new(Recorder::new());
        let s = TlStm::new().with_recorder(Arc::clone(&rec));
        s.register_tvar(X, 0);
        s.register_tvar(Y, 0);
        run_transaction(&s, 0, |tx| {
            let v = tx.read(X)?;
            tx.write(X, v + 1)
        });
        run_transaction(&s, 1, |tx| {
            let v = tx.read(Y)?;
            tx.write(Y, v + 1)
        });
        let h = rec.snapshot();
        let violations = oftm_histories::check_strict_dap(&h);
        assert!(
            violations.is_empty(),
            "TL must be strictly DAP, found {violations:?}"
        );
    }

    #[test]
    fn disjoint_writers_conflict_on_the_clock() {
        // The paper's point about TL2: disjoint transactions still meet at
        // the version clock — NOT strictly disjoint-access-parallel. With
        // the sharded clock the meeting point is the begin-time sample of
        // every shard against the writer's shard bump.
        let rec = Arc::new(Recorder::new());
        let s = Tl2Stm::new().with_recorder(Arc::clone(&rec));
        s.register_tvar(X, 0);
        s.register_tvar(Y, 0);
        run_transaction(&s, 0, |tx| tx.write(X, 1));
        run_transaction(&s, 1, |tx| tx.write(Y, 1));
        let h = rec.snapshot();
        let violations = oftm_histories::check_strict_dap(&h);
        assert!(
            violations.iter().any(|v| !v.tx_a.proc.eq(&v.tx_b.proc)),
            "TL2 disjoint writers must conflict on the clock, got {violations:?}"
        );
    }

    #[test]
    fn stale_snapshot_aborts_on_read() {
        let s = stm::<true>();
        let mut t1 = s.begin(0); // rv = all-zero vector
        run_transaction(&s, 1, |tx| tx.write(X, 9)); // version(X) now newer
        assert!(t1.read(X).is_err(), "TL2 must reject too-new versions");
    }

    #[test]
    fn stale_read_rejected_across_every_shard() {
        // The per-shard regression: whichever shard the writer stamps
        // with (drive every process id through one full shard rotation),
        // a reader that began earlier must never validate the new value —
        // per-shard counts must not be confused across shards.
        for writer_proc in 0..(2 * CLOCK_SHARDS as u32) {
            let s = stm::<true>();
            // Warm several shards so counts are non-trivial and unequal.
            for p in 0..4u32 {
                run_transaction(&s, p, |tx| tx.write(Y, u64::from(p)));
            }
            let mut old = s.begin(100); // samples the rv vector now
            run_transaction(&s, writer_proc, |tx| tx.write(X, 777));
            let r = old.read(X);
            assert!(
                r.is_err(),
                "reader began before writer (proc {writer_proc}, shard \
                 {}) committed, yet validated its write",
                writer_proc as usize & (CLOCK_SHARDS - 1)
            );
        }
    }

    #[test]
    fn stale_read_rejected_at_commit_across_every_shard() {
        // Same regression at commit-time validation: the reader's read
        // precedes the foreign commit; its own writing commit must abort.
        for writer_proc in 0..(CLOCK_SHARDS as u32) {
            let s = stm::<true>();
            let mut old = s.begin(100);
            assert_eq!(old.read(X).unwrap(), 0);
            run_transaction(&s, writer_proc, |tx| tx.write(X, 5));
            old.write(Y, 1).unwrap();
            assert!(
                old.try_commit().is_err(),
                "stale read validated at commit (writer proc {writer_proc})"
            );
        }
    }
}
