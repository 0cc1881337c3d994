//! # oftm-hybrid — contention-adaptive backend over TL2 + DSTM
//!
//! The paper proves obstruction-free TMs give up throughput that
//! lock-based progressive designs keep; Kuznetsov & Ravi's *"Why
//! Transactional Memory Should Not Be Obstruction-Free"* argues the
//! practical winner is a lock-based TM with contention management bolted
//! on. This crate turns that thesis into a backend: a [`HybridStm`] runs
//! transactions on an embedded **TL2** engine by default (the fast path —
//! invisible reads, commit-time locking) and **migrates the whole
//! instance to an embedded DSTM engine** when measured contention says
//! the optimistic path is losing (eager ownership + contention-manager
//! arbitration degrade far more gracefully when conflict density spikes).
//!
//! ## Why migrate at all
//!
//! On this repo's reference box, a workload that acquires a hot variable
//! early and then runs a long tail with a preemption point collapses TL2
//! to ~2.6k ops/s @8T (every resumed transaction re-runs its full body
//! only to fail commit-time read validation), while DSTM under the
//! [`oftm_core::cm::Courteous`] yield-to-owner manager runs the same
//! shape at ~100k ops/s — and conversely TL2 is ~2× DSTM when conflicts
//! are rare. No fixed choice wins a phase-shifting workload; a measured
//! switch does.
//!
//! ## The migration barrier (correctness argument)
//!
//! Both engines see one coherent t-variable space:
//!
//! * **One allocator.** All ids are minted by the TL2 engine's
//!   [`oftm_core::table::VarTable`] (static registrations and dynamic
//!   `alloc_tvar_block`), then mirrored into the DSTM engine's table at
//!   the *same ids*. The DSTM table's own dynamic allocator is never
//!   used, so the two tables can never disagree on what an id means.
//! * **Only one engine is ever hot.** A transaction is admitted to the
//!   current mode's engine only after publishing itself in a per-mode
//!   active count and re-checking the mode/migration flag (a
//!   store-buffering a.k.a. Dekker handshake — both sides are `SeqCst`,
//!   so either the beginner sees the migration and backs out, or the
//!   migrator sees the beginner's count and waits). The migrator then
//!   drains the outgoing engine's active count to **zero** before
//!   touching either table: no TL2 transaction can race a DSTM locator
//!   on the same variable, ever.
//! * **Value copy at quiescence.** With both engines quiescent, the
//!   migrator walks the outgoing engine's live set and writes every
//!   differing value into the incoming engine through ordinary (chunked)
//!   transactions — which trivially commit, because nothing else is
//!   running. Ids retired-with-commit are freed on the *passive* engine
//!   immediately at commit time (the passive engine has no in-flight
//!   readers), so the copy simply skips ids the incoming table no longer
//!   has.
//! * **Parking survives the switch.** The hybrid owns its
//!   [`CommitNotifier`]; the transaction wrapper publishes the committed
//!   write-set there regardless of which engine executed it, so futures
//!   parked before a migration are woken by commits after it.
//!
//! ## The policy (knobs in [`HybridConfig`])
//!
//! *Escalate fast*: any transaction that fails `escalation_budget`
//! consecutive attempts while the window's abort profile is
//! `lock_busy`/`read_validation`-dominated requests escalation at its
//! next begin. *De-escalate slowly*: only after `deescalate_windows`
//! consecutive calm windows (abort ratio ≤ `deescalate_abort_ratio`),
//! and never closer than `dwell_ops` begins after the last migration —
//! the de-escalation side is the throttled one, so the controller
//! cannot thrash back into a still-raging storm, while escalation is
//! always immediate.
//!
//! The hybrid is **not** obstruction-free: its default mode is a
//! lock-based TM, which is exactly the trade the motivating papers argue
//! for. [`WordStm::is_obstruction_free`] answers `false`.

use oftm_baselines::Tl2Stm;
use oftm_core::api::{TxResult, WordStm, WordTx};
use oftm_core::cm::Courteous;
use oftm_core::notify::CommitNotifier;
use oftm_core::record::Recorder;
use oftm_core::{Dstm, DstmWord};
use oftm_histories::{TVarId, TxId, Value};
use oftm_obs::{AbortCause, Counter, StmStats};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Which embedded engine currently executes transactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// TL2 fast path (default): optimistic reads, commit-time locking.
    Tl2 = 0,
    /// DSTM arbitration: eager ownership + courteous contention manager.
    Dstm = 1,
}

impl Mode {
    fn other(self) -> Mode {
        match self {
            Mode::Tl2 => Mode::Dstm,
            Mode::Dstm => Mode::Tl2,
        }
    }

    fn from_usize(m: usize) -> Mode {
        if m == Mode::Dstm as usize {
            Mode::Dstm
        } else {
            Mode::Tl2
        }
    }

    /// Index into [`oftm_obs::MODE_NAMES`] (0 is "none").
    fn stats_tag(self) -> usize {
        self as usize + 1
    }
}

/// Per-process slots for the consecutive-abort escalation counters.
const PROC_SLOTS: usize = 64;

/// Process id the migration copy transactions run under; outside the
/// harness range so per-proc telemetry and clock-shard choice stay
/// distinguishable in traces.
const MIGRATION_PROC: u32 = 63;

/// Transaction-sequence base of the embedded DSTM engine: keeps its
/// `TxId`s disjoint from the TL2 engine's when both feed one recorder.
const DSTM_TX_BASE: u32 = 1 << 31;

/// Migration-policy knobs (see crate docs for the policy shape).
#[derive(Clone, Copy, Debug)]
pub struct HybridConfig {
    /// Consecutive failed attempts by one process before that process
    /// requests escalation at its next begin.
    pub escalation_budget: u32,
    /// Begins per controller window; each window closes with a
    /// `stats().snapshot()` delta the policy decides on.
    pub window_ops: u64,
    /// Escalate when a window's aborts/begins ratio reaches this…
    pub escalate_abort_ratio: f64,
    /// …and `lock_busy + read_validation` hold at least this share of
    /// the window's aborts (CM-arbitrated or explicit-retry storms are
    /// not TL2's pathology and must not trigger the switch).
    pub escalate_cause_share: f64,
    /// A window is *calm* when its abort ratio is at or below this.
    pub deescalate_abort_ratio: f64,
    /// Consecutive calm windows before migrating back to TL2.
    pub deescalate_windows: u32,
    /// Minimum begins between a migration and a subsequent
    /// *de-escalation* (DSTM → TL2): the anti-oscillation dwell.
    /// Escalation is never dwell-blocked — a storm response must not
    /// wait out a throttle while TL2 livelocks.
    pub dwell_ops: u64,
    /// Writes per migration-copy transaction.
    pub copy_chunk: usize,
    /// Patience (scheduler yields) of the embedded DSTM engine's
    /// [`Courteous`] contention manager.
    pub patience: u32,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            escalation_budget: 8,
            window_ops: 512,
            escalate_abort_ratio: 0.5,
            escalate_cause_share: 0.5,
            deescalate_abort_ratio: 0.1,
            deescalate_windows: 4,
            dwell_ops: 4096,
            copy_chunk: 128,
            patience: 64,
        }
    }
}

impl HybridConfig {
    /// A hair-trigger policy for migration-forcing tests and seeds: tiny
    /// budget, window and dwell, so a short synthetic storm flips the
    /// mode within a few operations.
    pub fn eager() -> Self {
        HybridConfig {
            escalation_budget: 2,
            window_ops: 32,
            escalate_abort_ratio: 0.3,
            escalate_cause_share: 0.3,
            deescalate_abort_ratio: 0.2,
            deescalate_windows: 2,
            dwell_ops: 16,
            copy_chunk: 128,
            patience: 64,
        }
    }

    /// A deliberately miswired policy that escalates on *any* abort and
    /// never de-escalates — the negative oracle the throughput gate must
    /// catch (it parks the backend in DSTM mode on low-contention phases
    /// where TL2 is ~2× faster).
    pub fn always_escalate() -> Self {
        HybridConfig {
            escalation_budget: 1,
            window_ops: 16,
            escalate_abort_ratio: 0.0,
            escalate_cause_share: 0.0,
            deescalate_abort_ratio: -1.0, // no window is ever calm
            deescalate_windows: u32::MAX,
            dwell_ops: 0,
            copy_chunk: 128,
            patience: 64,
        }
    }
}

/// The contention-adaptive hybrid backend (see crate docs).
pub struct HybridStm {
    tl2: Tl2Stm,
    dstm: DstmWord,
    /// One registry shared by the facade and both engines.
    stats: Arc<StmStats>,
    /// The hybrid's own notification endpoint: commits publish here no
    /// matter which engine executed them, so parked futures survive
    /// migrations.
    notify: CommitNotifier,
    cfg: HybridConfig,
    /// Current [`Mode`] as usize.
    mode: AtomicUsize,
    /// A migration is in progress: begins back off, at most one migrator.
    migrating: AtomicBool,
    /// The words every begin writes.
    begins: BeginCounters,
    /// Next window boundary (in begins), claimed by CAS.
    next_window: AtomicU64,
    /// `ops` value at the last migration (dwell reference);
    /// `u64::MAX` until the first migration, which dwell never blocks.
    last_migration_op: AtomicU64,
    /// Consecutive calm windows while in DSTM mode.
    calm_windows: AtomicU32,
    /// Consecutive failed attempts per process slot.
    consec_aborts: [AtomicU32; PROC_SLOTS],
    /// Snapshot at the last window close; deltas against it drive the
    /// policy. Taken only by the single window-closing thread and by
    /// escalation-profile checks (uncontended in practice).
    window_prev: Mutex<StatsSnapshotBox>,
}

/// The controller words every begin writes, on a cache line of their
/// own. The engines are stored inline, so without the padding this line
/// would also hold whichever read-mostly fields the compiler laid out
/// next to it, and every begin would evict them from the other cores.
#[repr(align(64))]
struct BeginCounters {
    /// In-flight transactions per mode; the migration barrier drains the
    /// outgoing slot to zero.
    active: [AtomicU64; 2],
    /// Begins observed — the controller's logical clock.
    ops: AtomicU64,
}

/// Newtype so the `Mutex` field above names a sized default.
struct StatsSnapshotBox(oftm_obs::StatsSnapshot);

impl HybridStm {
    /// A hybrid with the given policy and no recorder.
    pub fn new(cfg: HybridConfig) -> Self {
        Self::build(cfg, None)
    }

    /// A hybrid with the given policy whose embedded engines share one
    /// low-level history recorder (instrumented runs).
    pub fn with_recorder(cfg: HybridConfig, rec: Arc<Recorder>) -> Self {
        Self::build(cfg, Some(rec))
    }

    fn build(cfg: HybridConfig, rec: Option<Arc<Recorder>>) -> Self {
        let stats = Arc::new(StmStats::new());
        stats.set_mode(Mode::Tl2.stats_tag());
        let mut tl2 = Tl2Stm::new().with_stats(Arc::clone(&stats));
        let mut dstm_inner = Dstm::new(Arc::new(Courteous {
            patience: cfg.patience,
        }))
        .with_stats(Arc::clone(&stats))
        .with_tx_base(DSTM_TX_BASE);
        if let Some(rec) = rec {
            tl2 = tl2.with_recorder(Arc::clone(&rec));
            dstm_inner = dstm_inner.with_recorder(rec);
        }
        let prev = stats.snapshot();
        HybridStm {
            tl2,
            dstm: DstmWord::new(dstm_inner),
            stats,
            notify: CommitNotifier::new(),
            cfg,
            mode: AtomicUsize::new(Mode::Tl2 as usize),
            migrating: AtomicBool::new(false),
            begins: BeginCounters {
                active: [AtomicU64::new(0), AtomicU64::new(0)],
                ops: AtomicU64::new(0),
            },
            next_window: AtomicU64::new(cfg.window_ops.max(1)),
            last_migration_op: AtomicU64::new(u64::MAX),
            calm_windows: AtomicU32::new(0),
            consec_aborts: std::array::from_fn(|_| AtomicU32::new(0)),
            window_prev: Mutex::new(StatsSnapshotBox(prev)),
        }
    }

    /// Current execution mode.
    pub fn mode(&self) -> Mode {
        // ord: SeqCst — one end of the begin/migrate Dekker handshake.
        Mode::from_usize(self.mode.load(Ordering::SeqCst))
    }

    /// Process-wide migrations performed so far.
    pub fn migrations(&self) -> u64 {
        self.stats.snapshot().get(Counter::ModeMigrations)
    }

    /// Reads a t-variable non-transactionally from the active engine
    /// (test oracle; racy against a concurrent migration).
    pub fn peek(&self, x: TVarId) -> Option<Value> {
        match self.mode() {
            Mode::Tl2 => self.tl2.peek(x),
            Mode::Dstm => self.dstm.peek(x),
        }
    }

    /// The per-begin policy hook: per-transaction escalation requests,
    /// then the windowed controller.
    fn note_begin(&self, proc: u32) {
        // ord: Relaxed — the controller's logical clock; atomicity alone
        // keeps window claims disjoint.
        let op = self.begins.ops.fetch_add(1, Ordering::Relaxed) + 1;
        if self.mode() == Mode::Tl2 {
            let slot = &self.consec_aborts[(proc as usize) & (PROC_SLOTS - 1)];
            // ord: Relaxed — a heuristic trigger; worst case the request
            // fires one begin late.
            if slot.load(Ordering::Relaxed) >= self.cfg.escalation_budget && self.storm_profile() {
                slot.store(0, Ordering::Relaxed);
                self.stats.incr(Counter::Escalations);
                self.try_migrate(Mode::Dstm, op);
            }
        }
        // ord: Relaxed CAS — only window-claim uniqueness matters; the
        // snapshot delta inside carries its own ordering.
        let boundary = self.next_window.load(Ordering::Relaxed);
        if op >= boundary
            && self
                .next_window
                .compare_exchange(
                    boundary,
                    op + self.cfg.window_ops.max(1),
                    // ord: Relaxed on success and failure — see above.
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
                .is_ok()
        {
            self.close_window(op);
        }
    }

    /// Is the recent abort profile the TL2 pathology (`lock_busy` /
    /// `read_validation` dominated)? Evaluated as a delta since the last
    /// closed window. One process's streak alone is not enough: a thread
    /// repeatedly preempted mid-transaction can string together aborts
    /// in a globally calm run (sub-percent abort ratio), and escalating
    /// then trades a fast TL2 phase for a DSTM round trip — so the
    /// window delta must also show at least half the controller's
    /// escalation abort-ratio. An abort-free delta (window closed
    /// between the streak and this begin) defers to the next request,
    /// by which point the delta has the evidence.
    fn storm_profile(&self) -> bool {
        let snap = self.stats.snapshot();
        let delta = snap.since(&self.window_prev.lock().0);
        delta.aborts() > 0
            && delta.abort_ratio() >= self.cfg.escalate_abort_ratio * 0.5
            && delta.cause_share(AbortCause::LockBusy)
                + delta.cause_share(AbortCause::ReadValidation)
                >= self.cfg.escalate_cause_share
    }

    /// Closes a controller window: escalate fast, de-escalate slowly.
    fn close_window(&self, op: u64) {
        let snap = self.stats.snapshot();
        let delta = {
            let mut prev = self.window_prev.lock();
            let delta = snap.since(&prev.0);
            prev.0 = snap;
            delta
        };
        let ratio = delta.abort_ratio();
        match self.mode() {
            Mode::Tl2 => {
                let storm = delta.cause_share(AbortCause::LockBusy)
                    + delta.cause_share(AbortCause::ReadValidation);
                if ratio >= self.cfg.escalate_abort_ratio && storm >= self.cfg.escalate_cause_share
                {
                    self.try_migrate(Mode::Dstm, op);
                }
            }
            Mode::Dstm => {
                if ratio <= self.cfg.deescalate_abort_ratio {
                    // ord: Relaxed — monotonic calm streak, single
                    // window-closer at a time by CAS construction.
                    let calm = self.calm_windows.fetch_add(1, Ordering::Relaxed) + 1;
                    if calm >= self.cfg.deescalate_windows {
                        self.try_migrate(Mode::Tl2, op);
                    }
                } else {
                    // ord: Relaxed — same single-closer streak counter.
                    self.calm_windows.store(0, Ordering::Relaxed);
                }
            }
        }
    }

    /// Attempts a migration to `target`; returns whether it happened.
    /// Synchronous: runs the full barrier (drain + copy + flip) on the
    /// calling thread, which holds no transaction at this point.
    fn try_migrate(&self, target: Mode, op: u64) -> bool {
        // Dwell: a de-escalation may not follow the previous migration
        // closer than the configured distance — the anti-oscillation
        // throttle. Escalation is exempt: holding a storm in TL2 costs
        // far more than an extra round trip, and a de-escalation that
        // proves premature must be reversible immediately.
        // ord: Relaxed — heuristic throttle; staleness only delays or
        // duplicates a dwell check, never corrupts the barrier.
        let last = self.last_migration_op.load(Ordering::Relaxed);
        if target == Mode::Tl2 && last != u64::MAX && op.saturating_sub(last) < self.cfg.dwell_ops {
            return false;
        }
        // ord: SeqCst CAS — the migrator side of the Dekker handshake;
        // also serializes migrators (at most one wins).
        if self
            .migrating
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return false;
        }
        let from = self.mode();
        if from == target {
            // ord: SeqCst — release the flag symmetric with the CAS.
            self.migrating.store(false, Ordering::SeqCst);
            return false;
        }
        // Timeline span for the whole barrier (drain + copy + flip): the
        // stop-the-world window every backed-off beginner is waiting out.
        let span_started = oftm_obs::ring::enabled().then(oftm_obs::ring::clock_ns);
        // Drain: wait out every in-flight transaction of the outgoing
        // engine. New begins observe `migrating` (SeqCst on both sides)
        // and back off, so the count is monotonically non-increasing.
        // ord: SeqCst — pairs with the beginner's SeqCst fetch_add:
        // either we see their count, or they see our flag.
        while self.begins.active[from as usize].load(Ordering::SeqCst) > 0 {
            std::thread::yield_now();
        }
        // Blocks the outgoing engine retired while a predating reader was
        // in flight wait in its grace tracker, which only its own commits
        // flush. It is quiescent now and will run no commit until the
        // next migration back: free them here.
        match from {
            Mode::Tl2 => self.tl2.flush_retired(),
            Mode::Dstm => self.dstm.flush_retired(),
        }
        self.copy_values(from);
        // ord: SeqCst — publish the new mode before lifting the flag.
        self.mode.store(target as usize, Ordering::SeqCst);
        self.stats.set_mode(target.stats_tag());
        self.stats.incr(Counter::ModeMigrations);
        self.last_migration_op
            .store(self.begins.ops.load(Ordering::Relaxed), Ordering::Relaxed);
        self.calm_windows.store(0, Ordering::Relaxed);
        for slot in &self.consec_aborts {
            // ord: Relaxed — heuristic counters; resets published lazily.
            slot.store(0, Ordering::Relaxed);
        }
        // ord: SeqCst — beginners may now admit into the new mode.
        self.migrating.store(false, Ordering::SeqCst);
        if let Some(t0) = span_started {
            oftm_obs::ring::emit_span("migration", "hybrid", from as u64, target as u64, t0);
        }
        true
    }

    /// With both engines quiescent, copies every differing live value
    /// from the outgoing engine into the incoming one via ordinary
    /// chunked transactions (they commit unopposed). Ids the incoming
    /// table no longer has were retired-with-commit and already freed on
    /// the passive side — skipped.
    fn copy_values(&self, from: Mode) {
        let mut pending: Vec<(TVarId, Value)> = Vec::new();
        match from {
            Mode::Tl2 => self.tl2.for_each_live_value(|id, v| {
                if self.dstm.peek(id).is_some_and(|cur| cur != v) {
                    pending.push((id, v));
                }
            }),
            Mode::Dstm => self.dstm.for_each_live_value(|id, v| {
                if self.tl2.peek(id).is_some_and(|cur| cur != v) {
                    pending.push((id, v));
                }
            }),
        }
        let engine: &dyn WordStm = match from.other() {
            Mode::Tl2 => &self.tl2,
            Mode::Dstm => &self.dstm,
        };
        for chunk in pending.chunks(self.cfg.copy_chunk.max(1)) {
            // Quiescent engine: the first attempt commits; loop anyway so
            // a contract violation surfaces as livelock in tests rather
            // than silent value loss.
            loop {
                let mut tx = engine.begin(MIGRATION_PROC);
                let wrote = chunk.iter().try_for_each(|&(id, v)| tx.write(id, v));
                match wrote {
                    Ok(()) => {
                        if tx.try_commit().is_ok() {
                            break;
                        }
                    }
                    Err(_) => tx.try_abort(),
                }
            }
        }
    }

    /// Admission: publish an active slot for the current mode and
    /// re-check the migration handshake.
    fn admit(&self) -> Mode {
        loop {
            let m = self.mode();
            // ord: SeqCst — the beginner side of the Dekker handshake:
            // our count must be globally ordered against the migrator's
            // flag store before we re-read it.
            self.begins.active[m as usize].fetch_add(1, Ordering::SeqCst);
            if self.migrating.load(Ordering::SeqCst) || self.mode() != m {
                // ord: SeqCst — symmetric retreat; the migrator's drain
                // loop may be watching this count.
                self.begins.active[m as usize].fetch_sub(1, Ordering::SeqCst);
                std::thread::yield_now();
                continue;
            }
            return m;
        }
    }

    fn begin_inner(&self, proc: u32, ro: bool) -> Box<dyn WordTx + '_> {
        self.note_begin(proc);
        let mode = self.admit();
        let inner = match (mode, ro) {
            (Mode::Tl2, false) => self.tl2.begin(proc),
            (Mode::Tl2, true) => self.tl2.begin_ro(proc),
            (Mode::Dstm, false) => self.dstm.begin(proc),
            (Mode::Dstm, true) => self.dstm.begin_ro(proc),
        };
        Box::new(HybridTx {
            stm: self,
            inner: Some(inner),
            mode,
            proc,
            written: Vec::new(),
            retired: Vec::new(),
            settled: false,
        })
    }
}

/// A hybrid transaction: delegates to the engine it was admitted to and
/// keeps the facade-level bookkeeping (commit notification, passive-side
/// frees, escalation streaks, the active-count slot).
struct HybridTx<'s> {
    stm: &'s HybridStm,
    inner: Option<Box<dyn WordTx + 's>>,
    mode: Mode,
    proc: u32,
    /// Ids written; published to the hybrid's notifier on commit.
    written: Vec<TVarId>,
    /// Blocks retired; freed on the passive engine after commit (the
    /// active engine defers through its own grace tracker).
    retired: Vec<(TVarId, usize)>,
    /// A commit or abort was decided (vs dropped live by a retry loop).
    settled: bool,
}

impl HybridTx<'_> {
    fn inner(&mut self) -> &mut (dyn WordTx + '_) {
        self.inner
            .as_mut()
            .expect("transaction still running")
            .as_mut()
    }

    fn abort_slot(&self) -> &AtomicU32 {
        &self.stm.consec_aborts[(self.proc as usize) & (PROC_SLOTS - 1)]
    }
}

impl WordTx for HybridTx<'_> {
    fn id(&self) -> TxId {
        self.inner.as_ref().expect("transaction still running").id()
    }

    fn read(&mut self, x: TVarId) -> TxResult<Value> {
        self.inner().read(x)
    }

    fn write(&mut self, x: TVarId, v: Value) -> TxResult<()> {
        self.inner().write(x, v)?;
        self.written.push(x);
        Ok(())
    }

    fn try_commit(mut self: Box<Self>) -> TxResult<()> {
        let inner = self.inner.take().expect("transaction still running");
        let r = inner.try_commit();
        self.settled = true;
        match r {
            Ok(()) => {
                // Passive-side frees first (the migration drain cannot
                // start until our active slot drops in Drop, so the
                // passive engine is still transaction-free here).
                for &(base, len) in &self.retired {
                    match self.mode.other() {
                        Mode::Tl2 => self.stm.tl2.free_tvar_block(base, len),
                        Mode::Dstm => self.stm.dstm.free_tvar_block(base, len),
                    }
                }
                if !self.written.is_empty() {
                    self.stm.notify.publish(self.written.iter().copied());
                }
                // ord: Relaxed — escalation streak bookkeeping.
                self.abort_slot().store(0, Ordering::Relaxed);
            }
            Err(_) => {
                // ord: Relaxed — escalation streak bookkeeping.
                self.abort_slot().fetch_add(1, Ordering::Relaxed);
            }
        }
        r
    }

    fn try_abort(mut self: Box<Self>) {
        let inner = self.inner.take().expect("transaction still running");
        inner.try_abort();
        self.settled = true;
        // A voluntary abort still extends the streak: the retry loops
        // abandon attempts this way, and an engine-tagged cause (if any)
        // is what the escalation profile check filters on.
        // ord: Relaxed — escalation streak bookkeeping.
        self.abort_slot().fetch_add(1, Ordering::Relaxed);
    }

    fn retire_tvar_block(&mut self, base: TVarId, len: usize) {
        self.inner().retire_tvar_block(base, len);
        self.retired.push((base, len));
    }

    fn footprint(&self, out: &mut Vec<TVarId>) {
        if let Some(inner) = self.inner.as_ref() {
            inner.footprint(out);
        }
    }
}

impl Drop for HybridTx<'_> {
    fn drop(&mut self) {
        if !self.settled {
            // Dropped live by a retry loop (the body errored): the inner
            // engine tags the cause in its own Drop; we extend the
            // escalation streak.
            // ord: Relaxed — escalation streak bookkeeping.
            self.abort_slot().fetch_add(1, Ordering::Relaxed);
        }
        // Drop the inner transaction (releasing engine-side state)
        // *before* retiring our active slot: the migration drain treats a
        // zero count as "the outgoing engine is quiescent".
        self.inner = None;
        // ord: SeqCst — pairs with the migrator's SeqCst drain loads.
        self.stm.begins.active[self.mode as usize].fetch_sub(1, Ordering::SeqCst);
    }
}

impl WordStm for HybridStm {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn register_tvar(&self, x: TVarId, initial: Value) {
        // TL2 is the id authority; the DSTM table mirrors every id.
        self.tl2.register_tvar(x, initial);
        self.dstm.register_tvar(x, initial);
    }

    fn alloc_tvar_block(&self, initials: &[Value]) -> TVarId {
        let base = self.tl2.alloc_tvar_block(initials);
        for (k, &v) in initials.iter().enumerate() {
            self.dstm.register_tvar(TVarId(base.0 + k as u64), v);
        }
        base
    }

    fn free_tvar_block(&self, base: TVarId, len: usize) {
        self.tl2.free_tvar_block(base, len);
        self.dstm.free_tvar_block(base, len);
    }

    fn live_tvars(&self) -> usize {
        // The TL2 table is the allocator of record. (The DSTM mirror may
        // briefly exceed it while an active-side grace period defers a
        // retired block's eviction — mirrors are freed eagerly.)
        self.tl2.live_tvars()
    }

    fn begin(&self, proc: u32) -> Box<dyn WordTx + '_> {
        self.begin_inner(proc, false)
    }

    fn begin_ro(&self, proc: u32) -> Box<dyn WordTx + '_> {
        self.begin_inner(proc, true)
    }

    fn notifier(&self) -> &CommitNotifier {
        &self.notify
    }

    fn stats(&self) -> &StmStats {
        &self.stats
    }

    fn is_obstruction_free(&self) -> bool {
        // The default mode is a lock-based TM; the paper's trade-off is
        // the whole point of this backend.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftm_core::api::run_transaction;

    const X: TVarId = TVarId(0);
    const Y: TVarId = TVarId(1);

    fn stm(cfg: HybridConfig) -> HybridStm {
        let s = HybridStm::new(cfg);
        s.register_tvar(X, 0);
        s.register_tvar(Y, 0);
        s
    }

    /// Drives one `read_validation` storm round on the facade: a
    /// transaction begun before a foreign commit reads stale. In TL2
    /// mode the read deterministically aborts; once escalation flips
    /// the mode (possibly inside this very begin) a fresh DSTM read
    /// succeeds — callers watch `s.mode()` rather than the abort.
    fn one_stale_abort(s: &HybridStm, round: u64) {
        let mut stale = s.begin(0);
        run_transaction(s, 1, |tx| tx.write(X, round));
        let _ = stale.read(X);
        // Dropped unsettled: the engine tags the cause in its Drop.
        drop(stale);
    }

    #[test]
    fn starts_in_tl2_mode_and_commits() {
        let s = stm(HybridConfig::default());
        assert_eq!(s.mode(), Mode::Tl2);
        let (v, _) = run_transaction(&s, 0, |tx| {
            let v = tx.read(X)?;
            tx.write(X, v + 5)?;
            Ok(v)
        });
        assert_eq!(v, 0);
        assert_eq!(s.peek(X), Some(5));
        assert_eq!(s.stats().snapshot().mode, Mode::Tl2.stats_tag());
    }

    #[test]
    fn escalates_under_read_validation_storm_and_deescalates_after() {
        let cfg = HybridConfig::eager();
        let s = stm(cfg);
        // Storm: every iteration is one read_validation abort on proc 0
        // plus one commit on proc 1.
        let mut ops_to_escalate = None;
        for round in 0..200u64 {
            one_stale_abort(&s, round);
            if s.mode() == Mode::Dstm {
                ops_to_escalate = Some(round);
                break;
            }
        }
        let escalated_at = ops_to_escalate.expect("storm must escalate to DSTM");
        // Escalate fast: a handful of rounds, not the whole storm.
        assert!(
            escalated_at <= 64,
            "escalated only after {escalated_at} rounds"
        );
        let snap = s.stats().snapshot();
        assert!(snap.get(Counter::ModeMigrations) >= 1);
        assert!(snap.get(Counter::Escalations) >= 1);
        assert_eq!(snap.mode, Mode::Dstm.stats_tag());

        // Values must have survived the migration coherently.
        let (x, _) = run_transaction(&s, 2, |tx| tx.read(X));
        assert_eq!(x, escalated_at, "migrated value space lost a commit");

        // Calm traffic: commits only. Must de-escalate, but only after
        // deescalate_windows × window_ops begins at the earliest (dwell
        // and calm-streak respected).
        let migrations_before = s.migrations();
        let mut begins = 0u64;
        let mut back_at = None;
        for i in 0..(cfg.window_ops * (u64::from(cfg.deescalate_windows) + 4) * 4) {
            run_transaction(&s, 3, |tx| tx.write(Y, i));
            begins += 1;
            if s.mode() == Mode::Tl2 {
                back_at = Some(begins);
                break;
            }
        }
        let back_at = back_at.expect("calm traffic must de-escalate to TL2");
        assert_eq!(s.migrations(), migrations_before + 1);
        // De-escalate slowly: no earlier than the calm-streak length
        // minus the storm residue already in the open window.
        assert!(
            back_at + cfg.window_ops >= cfg.window_ops * u64::from(cfg.deescalate_windows),
            "de-escalated after only {back_at} calm begins"
        );
        // And the world is still coherent on the TL2 side.
        let (x, _) = run_transaction(&s, 2, |tx| tx.read(X));
        assert_eq!(x, escalated_at);
    }

    #[test]
    fn dwell_blocks_immediate_oscillation() {
        let mut cfg = HybridConfig::eager();
        cfg.dwell_ops = 10_000; // enormous dwell: second migration impossible
        let s = stm(cfg);
        for round in 0..200u64 {
            one_stale_abort(&s, round);
            if s.mode() == Mode::Dstm {
                break;
            }
        }
        assert_eq!(s.mode(), Mode::Dstm);
        // Calm traffic well past the calm-streak threshold, but far
        // below the dwell: the mode must hold.
        for i in 0..500u64 {
            run_transaction(&s, 3, |tx| tx.write(Y, i));
        }
        assert_eq!(s.mode(), Mode::Dstm, "dwell violated");
        assert_eq!(s.migrations(), 1);
    }

    #[test]
    fn always_escalate_policy_parks_in_dstm() {
        // The miswired policy: a single abort escalates, nothing ever
        // de-escalates. The bench-side throughput gate is what catches
        // this; here we pin the behavioral signature it keys on.
        let s = stm(HybridConfig::always_escalate());
        one_stale_abort(&s, 1);
        for i in 0..100u64 {
            run_transaction(&s, 3, |tx| tx.write(Y, i));
        }
        assert_eq!(s.mode(), Mode::Dstm, "always-escalate must park in DSTM");
        assert_eq!(s.stats().snapshot().mode, Mode::Dstm.stats_tag());
    }

    #[test]
    fn allocation_is_coherent_across_migration() {
        let s = stm(HybridConfig::eager());
        let blk = s.alloc_tvar_block(&[7, 8, 9]);
        run_transaction(&s, 1, |tx| tx.write(TVarId(blk.0 + 1), 80));
        for round in 0..200u64 {
            one_stale_abort(&s, round);
            if s.mode() == Mode::Dstm {
                break;
            }
        }
        assert_eq!(s.mode(), Mode::Dstm);
        // The block reads back through the DSTM engine with the TL2-era
        // values (one written, two initial).
        let (vals, _) = run_transaction(&s, 2, |tx| {
            Ok((
                tx.read(blk)?,
                tx.read(TVarId(blk.0 + 1))?,
                tx.read(TVarId(blk.0 + 2))?,
            ))
        });
        assert_eq!(vals, (7, 80, 9));
        // Allocate while in DSTM mode, migrate back, read through TL2.
        let blk2 = s.alloc_tvar_block(&[42]);
        run_transaction(&s, 2, |tx| tx.write(blk2, 43));
        for i in 0..10_000u64 {
            run_transaction(&s, 3, |tx| tx.write(Y, i));
            if s.mode() == Mode::Tl2 {
                break;
            }
        }
        assert_eq!(s.mode(), Mode::Tl2, "calm traffic must return to TL2");
        assert_eq!(s.peek(blk2), Some(43));
        assert_eq!(s.peek(TVarId(blk.0 + 1)), Some(80));
    }

    #[test]
    fn migration_frees_blocks_the_outgoing_engine_still_held() {
        let s = stm(HybridConfig::default());
        let blk = s.alloc_tvar_block(&[1, 2]);
        let live = s.live_tvars();
        // A reader in flight across the retiring commit parks the block
        // in the TL2 engine's grace tracker.
        let reader = s.begin(1);
        let mut tx = s.begin(2);
        tx.write(X, 1).unwrap();
        tx.retire_tvar_block(blk, 2);
        tx.try_commit().unwrap();
        reader.try_abort();
        assert_eq!(s.live_tvars(), live, "grace period holds the block");
        // No TL2 commit follows the switch: only the barrier can free it.
        assert!(s.try_migrate(Mode::Dstm, 0));
        assert_eq!(s.live_tvars(), live - 2);
        assert_eq!(s.tl2.peek(blk), None);
    }

    #[test]
    fn retire_frees_both_engines_after_commit() {
        let s = stm(HybridConfig::default());
        let blk = s.alloc_tvar_block(&[1, 2]);
        let live = s.live_tvars();
        let mut tx = s.begin(1);
        tx.write(X, 1).unwrap();
        tx.retire_tvar_block(blk, 2);
        tx.try_commit().unwrap();
        assert_eq!(s.live_tvars(), live - 2);
        // Both engines dropped the block: a fresh transaction in either
        // mode panics on the uniform diagnostic (checked via peek here).
        assert_eq!(s.tl2.peek(blk), None);
        assert_eq!(s.dstm.peek(blk), None);
    }

    #[test]
    fn notifier_wakes_across_migration() {
        // A waiter parks on the hybrid notifier before a migration; a
        // commit executed by the *other* engine afterwards must still
        // bump the watched shard version.
        let s = stm(HybridConfig::eager());
        let watched = [X];
        let mut snap = oftm_core::notify::WaitSnapshot::default();
        s.notifier().snapshot(watched.iter().copied(), &mut snap);
        for round in 0..200u64 {
            one_stale_abort(&s, round);
            if s.mode() == Mode::Dstm {
                break;
            }
        }
        assert_eq!(s.mode(), Mode::Dstm);
        run_transaction(&s, 2, |tx| tx.write(X, 999));
        assert!(
            s.notifier().changed_since(&snap),
            "post-migration commit must be visible to pre-migration parkers"
        );
    }

    #[test]
    fn concurrent_counter_survives_forced_migrations() {
        // Mixed traffic on an eager policy: the counter total must be
        // exact no matter how many migrations interleave.
        let s = Arc::new(stm(HybridConfig::eager()));
        std::thread::scope(|sc| {
            for p in 0..4u32 {
                let s = Arc::clone(&s);
                sc.spawn(move || {
                    for i in 0..200u64 {
                        run_transaction(&*s, p, |tx| {
                            let v = tx.read(X)?;
                            if i % 8 == 0 {
                                std::thread::yield_now();
                            }
                            tx.write(X, v + 1)
                        });
                    }
                });
            }
        });
        let (v, _) = run_transaction(&*s, 9, |tx| tx.read(X));
        assert_eq!(v, 800);
    }

    #[test]
    fn ro_transactions_admit_and_commit_in_both_modes() {
        let s = stm(HybridConfig::eager());
        run_transaction(&s, 0, |tx| tx.write(X, 3));
        let (v, _) = oftm_core::api::run_transaction_ro(&s, 1, |tx| tx.read(X));
        assert_eq!(v, 3);
        for round in 0..200u64 {
            one_stale_abort(&s, 100 + round);
            if s.mode() == Mode::Dstm {
                break;
            }
        }
        assert_eq!(s.mode(), Mode::Dstm);
        let (v, _) = oftm_core::api::run_transaction_ro(&s, 1, |tx| tx.read(X));
        assert!(v >= 100, "RO read must see a storm-era commit, got {v}");
    }
}
