//! The uniform word-level STM interface (`WordStm`) shared by every STM in
//! the workspace, and the sync driver ([`transact`]) that runs transactions
//! over it.
//!
//! The paper compares classes of STM implementations (OFTMs, lock-based
//! TMs, Algorithm 2). To run identical workloads and the same
//! history-checkers over all of them, each implementation exposes this
//! minimal interface over word-sized t-variables, mirroring the TM
//! operations of Section 2.2: `read`, `write`, `tryC`, `tryA`. The richer
//! typed API (`TVar<T>`) of the DSTM implementation is layered separately.

use crate::notify::CommitNotifier;
use oftm_histories::{TVarId, TxId, Value};
use oftm_obs::{pack_tx, AbortCause, Forensics, StmStats, VarAttr, TX_UNKNOWN};
use std::fmt;
use std::time::Instant;

/// Why a transactional operation did not produce a result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxError {
    /// The transaction received the abort event `A_k`. It must not perform
    /// further operations; the application may retry with a *new*
    /// transaction (paper, Section 2.2: restarts use fresh identifiers).
    Aborted,
}

impl fmt::Display for TxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxError::Aborted => write!(f, "transaction aborted"),
        }
    }
}

impl std::error::Error for TxError {}

/// Result alias for transactional operations.
pub type TxResult<T> = Result<T, TxError>;

/// A transaction handle bound to one word-level STM instance.
///
/// Handles are single-threaded (the paper's model: each transaction is
/// executed by one process); they are deliberately `!Sync` by containing
/// interior state.
pub trait WordTx {
    /// This transaction's identifier.
    fn id(&self) -> TxId;

    /// Reads t-variable `x` within the transaction.
    fn read(&mut self, x: TVarId) -> TxResult<Value>;

    /// Writes `v` to t-variable `x` within the transaction.
    fn write(&mut self, x: TVarId, v: Value) -> TxResult<()>;

    /// `tryC`: requests commitment. `Ok(())` is the commit event `C_k`;
    /// `Err(Aborted)` is `A_k`.
    fn try_commit(self: Box<Self>) -> TxResult<()>;

    /// `tryA`: requests abortion; always succeeds.
    fn try_abort(self: Box<Self>);

    /// Schedules a contiguous block of dynamically allocated t-variables
    /// for reclamation as a **deferred effect of this transaction's
    /// commit**. If the transaction aborts, the retire-set is discarded —
    /// a node unlinked by an attempt that never committed must survive.
    /// On commit, the block enters the STM's grace-period tracker
    /// ([`crate::reclaim::GraceTracker`]) and is evicted once every
    /// transaction that was in flight at commit time has finished.
    ///
    /// The caller asserts that, once its unlinking writes commit, no
    /// *future* transaction can reach `base..base+len` (single incoming
    /// link, rewritten in the same transaction). A transaction touching a
    /// block after it was evicted aborts or panics with the uniform
    /// `t-variable <x> not registered` diagnostic — it never observes a
    /// stale value.
    fn retire_tvar_block(&mut self, base: TVarId, len: usize);

    /// Retires a single t-variable (see [`WordTx::retire_tvar_block`]).
    fn retire_tvar(&mut self, x: TVarId) {
        self.retire_tvar_block(x, 1);
    }

    /// Appends the t-variables this transaction has accessed so far (its
    /// *footprint*: reads and writes) to `out`. Implementations may emit
    /// duplicates — a consumer that registers per-entry state (e.g. park
    /// registration in the async runtime) must dedup first.
    ///
    /// The async runtime calls this on an aborted transaction before
    /// dropping it: the footprint is exactly the set of t-variables whose
    /// change could make a re-run observe a different world, so it is
    /// what the parked transaction registers with the STM's
    /// [`CommitNotifier`]. An abort cannot shrink what was accessed, so
    /// the footprint stays valid on every abort path.
    fn footprint(&self, out: &mut Vec<TVarId>);
}

/// A word-level software transactional memory.
pub trait WordStm: Send + Sync {
    /// Human-readable implementation name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Declares a t-variable with an initial value under a caller-chosen
    /// id. Static ids conventionally stay below
    /// [`crate::table::DYNAMIC_TVAR_BASE`] so they never collide with
    /// dynamically allocated ones.
    fn register_tvar(&self, x: TVarId, initial: Value);

    /// Allocates one fresh t-variable with the given initial value and
    /// returns its id. Safe to call both outside transactions and *inside*
    /// a running transaction (dynamic data structures allocate nodes
    /// mid-transaction). Allocation is not a transactional effect: if the
    /// allocating transaction aborts, the t-variable stays allocated but
    /// unreachable (the write publishing it was discarded), mirroring
    /// DSTM's object-allocation semantics.
    fn alloc_tvar(&self, initial: Value) -> TVarId {
        self.alloc_tvar_block(&[initial])
    }

    /// Allocates `initials.len()` fresh t-variables with **contiguous**
    /// ids and returns the first id. Multi-word records (e.g. a list
    /// node's `[value, next]` pair) are addressed as offsets from the
    /// returned base. Same allocation semantics as [`WordStm::alloc_tvar`].
    fn alloc_tvar_block(&self, initials: &[Value]) -> TVarId;

    /// Immediately evicts the per-variable state of `len` contiguous
    /// t-variables starting at `base`. This is the *unguarded* primitive
    /// the grace-period machinery bottoms out in: callers must guarantee
    /// no in-flight transaction can still reach the block — either by
    /// routing the free through [`WordTx::retire_tvar_block`] (which
    /// defers to commit + grace period), or because the block was never
    /// published (allocated by an attempt that aborted). A transaction
    /// that reads a freed id aborts or panics with the uniform
    /// `t-variable <x> not registered` diagnostic, never a stale value.
    fn free_tvar_block(&self, base: TVarId, len: usize);

    /// Number of t-variables currently registered or allocated and not
    /// yet freed — the live-count metric leak regressions assert on.
    fn live_tvars(&self) -> usize;

    /// Begins a transaction on behalf of process `proc`.
    fn begin(&self, proc: u32) -> Box<dyn WordTx + '_>;

    /// Begins a **declared read-only** transaction on behalf of `proc`.
    ///
    /// The returned handle supports `read` and `try_commit` only — calling
    /// `write` (or `retire_tvar_block`) on it is a programming error and
    /// panics. In exchange, backends override this with the cheapest
    /// consistent-read path they admit; on TL/TL2 every read validates
    /// against a begin-time version vector, so the transaction keeps **no
    /// read-set, takes no locks, and commits without revalidation** — a
    /// bounded number of loads per operation, hence wait-free. Other
    /// backends document their guarantee in their module docs.
    ///
    /// The default is the plain [`WordStm::begin`] path: an ordinary
    /// transaction that never writes is already a correct read-only
    /// transaction, and every backend additionally *promotes* such
    /// transactions at commit (detect-on-commit: an empty write-set skips
    /// lock/CAS commit work).
    fn begin_ro(&self, proc: u32) -> Box<dyn WordTx + '_> {
        self.begin(proc)
    }

    /// The commit-notification endpoint of this STM instance. Every
    /// backend publishes its written t-variables here after a successful
    /// commit's effects are visible; the async runtime parks aborted
    /// transactions on it (see [`crate::notify`]).
    fn notifier(&self) -> &CommitNotifier;

    /// The telemetry registry of this STM instance. Backends tag every
    /// aborted attempt with exactly one [`AbortCause`] and count
    /// begins/commits/reclamation at their own sites; the drivers
    /// record attempt latencies and budget exhaustion into the same
    /// registry (see [`oftm_obs`]). Always on — the cost is a handful of
    /// uncontended relaxed increments per transaction.
    fn stats(&self) -> &StmStats;

    /// The conflict-forensics tables of this STM instance: the per-tvar
    /// contention heatmap and the who-aborted-whom edge table that every
    /// var-attributed abort ([`StmStats::abort_at`]) feeds. Bundled inside
    /// [`WordStm::stats`], so instances that share a stats registry (the
    /// hybrid's two engines) automatically share one forensic view.
    fn forensics(&self) -> &Forensics {
        self.stats().forensics()
    }

    /// True if this implementation claims obstruction-freedom (Definition
    /// 2). Used by experiments to decide which checkers apply.
    fn is_obstruction_free(&self) -> bool;
}

/// A transaction's retry budget ran out before any attempt committed:
/// `attempts` transactions were tried and all aborted. Surfacing this
/// instead of looping forever turns a livelocking workload into a
/// diagnosable failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// Number of aborted attempts (equals the budget that was given).
    pub attempts: u32,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "transaction retry budget exhausted after {} attempts",
            self.attempts
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// How a driver runs a transaction: the two choices every caller makes.
/// The default is a read-write transaction that retries until it commits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxOpts {
    /// Begin every attempt with [`WordStm::begin_ro`], the backend's
    /// cheapest consistent read path (wait-free on TL/TL2). The body must
    /// not write, retire or allocate.
    pub ro: bool,
    /// Attempts tried before the driver gives up with [`BudgetExceeded`].
    /// Harness workloads bound it so a livelocking STM produces a seeded,
    /// reportable failure rather than a silent hang.
    pub budget: u32,
}

impl Default for TxOpts {
    fn default() -> Self {
        TxOpts {
            ro: false,
            budget: u32::MAX,
        }
    }
}

/// One attempt's transaction plus the STM it runs on, handed to every
/// transaction body.
///
/// Reads, writes and retirement go through the transaction: `TxCtx`
/// dereferences to its [`WordTx`], so bodies call them on the context
/// directly and pass `&mut **ctx` to helpers taking `&mut dyn WordTx`.
/// Node allocation goes through the STM ([`WordStm::alloc_tvar_block`] is
/// safe mid-transaction) and is logged. An aborted attempt's blocks were never
/// published (the write that would have linked them rolled back), so no
/// other transaction can hold their ids. Dropping the context without a
/// commit, whether the attempt aborted or its body panicked, therefore
/// drops the transaction first (releasing its grace slot and any lock it
/// holds) and then frees the logged blocks. Without this, every aborted
/// insert would leak a node.
pub struct TxCtx<'s> {
    stm: &'s dyn WordStm,
    /// `None` only once [`Attempts::settle`] has consumed the transaction.
    tx: Option<Box<dyn WordTx + 's>>,
    /// Blocks allocated by this attempt, freed on drop unless it commits.
    allocs: Vec<(TVarId, usize)>,
    started: Instant,
    /// Ring-clock start of this attempt, when tracing is on.
    span_started: Option<u64>,
}

impl<'s> TxCtx<'s> {
    /// Allocates one fresh t-variable (see [`WordStm::alloc_tvar`]).
    #[inline]
    pub fn alloc(&mut self, initial: Value) -> TVarId {
        self.alloc_block(std::slice::from_ref(&initial))
    }

    /// Allocates a contiguous block of fresh t-variables (a node). The
    /// block is released automatically if this attempt does not commit.
    #[inline]
    pub fn alloc_block(&mut self, initials: &[Value]) -> TVarId {
        let base = self.stm.alloc_tvar_block(initials);
        self.allocs.push((base, initials.len()));
        base
    }

    fn free_allocs(&mut self) {
        for (base, len) in self.allocs.drain(..) {
            self.stm.free_tvar_block(base, len);
        }
    }
}

// `#[inline]` on the accessors below: bodies in other crates (the
// collections) go through them on every read and write, and without it a
// non-generic function is not inlined across crates.
impl<'s> std::ops::Deref for TxCtx<'s> {
    type Target = dyn WordTx + 's;

    #[inline]
    fn deref(&self) -> &Self::Target {
        self.tx.as_deref().expect("transaction already settled")
    }
}

impl std::ops::DerefMut for TxCtx<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.tx.as_deref_mut().expect("transaction already settled")
    }
}

impl Drop for TxCtx<'_> {
    fn drop(&mut self) {
        // The transaction goes first: its drop releases the grace slot
        // and whatever the backend holds, so the blocks freed below are
        // out of reach of every attempt that could have seen them.
        self.tx = None;
        self.free_allocs();
    }
}

/// The attempt lifecycle both drivers share: [`transact`] spins between
/// attempts, `oftm_asyncrt::transact_async` parks. It runs no loop itself.
///
/// Per attempt, [`Attempts::begin_attempt`] bumps the `Retries` counter
/// after the first and begins with `begin` or `begin_ro` from the
/// options. [`Attempts::settle`] commits or drops the transaction, frees
/// an aborted attempt's blocks, and records the attempt-latency sample and
/// the ring `attempt` span. [`Attempts::budget_exceeded`] tags the spent
/// budget once.
pub struct Attempts<'s> {
    /// The STM, process and options the driver was called with.
    pub stm: &'s dyn WordStm,
    pub proc: u32,
    pub opts: TxOpts,
    /// Attempts begun so far.
    count: u32,
    /// Allocation log reused by every attempt, so retries allocate nothing.
    allocs: Vec<(TVarId, usize)>,
}

impl<'s> Attempts<'s> {
    pub fn new(stm: &'s dyn WordStm, proc: u32, opts: TxOpts) -> Self {
        Attempts {
            stm,
            proc,
            opts,
            count: 0,
            allocs: Vec::new(),
        }
    }

    /// Attempts begun so far (the `attempts` a committed run reports).
    #[inline]
    pub fn count(&self) -> u32 {
        self.count
    }

    /// True once the budget is spent.
    #[inline]
    pub fn exhausted(&self) -> bool {
        self.count >= self.opts.budget
    }

    /// Begins the next attempt; each one is a fresh transaction with a
    /// fresh identifier (paper, Section 2.2).
    pub fn begin_attempt(&mut self) -> TxCtx<'s> {
        if self.count > 0 {
            self.stm.stats().incr(oftm_obs::Counter::Retries);
        }
        self.count += 1;
        let started = Instant::now();
        // Attempt spans (Chrome-trace "X" slices) only when tracing is on;
        // the ring clock is sampled per attempt so slices nest correctly
        // inside the emitting thread's track.
        let span_started = oftm_obs::ring::enabled().then(oftm_obs::ring::clock_ns);
        let tx = if self.opts.ro {
            self.stm.begin_ro(self.proc)
        } else {
            self.stm.begin(self.proc)
        };
        TxCtx {
            stm: self.stm,
            tx: Some(tx),
            allocs: std::mem::take(&mut self.allocs),
            started,
            span_started,
        }
    }

    /// Decides the attempt the body returned `out` for: on `Ok` requests
    /// commitment, on `Err` drops (not `tryA`s) the transaction, since the
    /// body already observed the abort event and an explicit `tryA` would
    /// record a second operation on a completed transaction. Returns the
    /// result if the attempt committed.
    pub fn settle<R>(&mut self, mut ctx: TxCtx<'s>, out: TxResult<R>) -> Option<R> {
        let tx = ctx.tx.take().expect("transaction already settled");
        let committed = match out {
            Ok(r) => tx.try_commit().ok().map(|()| r),
            Err(TxError::Aborted) => {
                drop(tx); // before the frees below, as in `TxCtx::drop`
                None
            }
        };
        self.stm
            .stats()
            .record_attempt_ns(ctx.started.elapsed().as_nanos() as u64);
        if committed.is_some() {
            ctx.allocs.clear(); // published by the commit
        } else {
            ctx.free_allocs();
        }
        self.allocs = std::mem::take(&mut ctx.allocs);
        if let Some(t0) = ctx.span_started {
            oftm_obs::ring::emit_span(
                "attempt",
                self.stm.name(),
                u64::from(self.proc),
                u64::from(self.count),
                t0,
            );
        }
        committed
    }

    /// Tags the spent budget and returns the error the drivers report.
    pub fn budget_exceeded(&self) -> BudgetExceeded {
        // Only the loop can see its budget run dry; the per-attempt causes
        // were tagged by the backend as each attempt died. No single
        // t-variable is responsible and no peer won anything, hence the
        // explicit NoVar / unknown-aggressor attribution.
        self.stm.stats().abort_at(
            AbortCause::BudgetExhausted,
            VarAttr::NoVar,
            pack_tx(self.proc, self.opts.budget),
            TX_UNKNOWN,
        );
        BudgetExceeded {
            attempts: self.opts.budget,
        }
    }
}

/// **The sync driver.** Runs `body` in fresh transactions until one
/// commits or `opts.budget` attempts have aborted, and returns the
/// committed result together with the number of attempts.
///
/// Aborted attempts are separated by randomized bounded exponential
/// backoff ([`crate::contention::spin_backoff`]). This is the paper's own
/// progress recipe (Section 1): obstruction-free TMs guarantee nothing
/// under sustained step contention, but contention that is *spread out*
/// by backoff makes solo runs, and hence commits, overwhelmingly likely.
/// Without it, symmetric workloads on CM-less implementations (e.g.
/// Algorithm 2, where even reads take revocable ownership) mutually abort
/// forever. Sequential executions never abort, so they never pay the
/// backoff.
pub fn transact<R>(
    stm: &dyn WordStm,
    proc: u32,
    opts: TxOpts,
    mut body: impl FnMut(&mut TxCtx<'_>) -> TxResult<R>,
) -> Result<(R, u32), BudgetExceeded> {
    let mut run = Attempts::new(stm, proc, opts);
    while !run.exhausted() {
        if run.count() > 0 {
            crate::contention::spin_backoff(proc, run.count());
        }
        let mut ctx = run.begin_attempt();
        let out = body(&mut ctx);
        if let Some(r) = run.settle(ctx, out) {
            return Ok((r, run.count()));
        }
    }
    Err(run.budget_exceeded())
}

/// [`transact`] with default options, panicking if `u32::MAX` attempts
/// abort. It stays as the most-used entry point: tests, examples and the
/// harness pass it plain `&mut dyn WordTx` bodies.
pub fn run_transaction<R>(
    stm: &dyn WordStm,
    proc: u32,
    mut body: impl FnMut(&mut dyn WordTx) -> TxResult<R>,
) -> (R, u32) {
    transact(stm, proc, TxOpts::default(), |tx| body(&mut **tx))
        .unwrap_or_else(|e| panic!("run_transaction: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_error_display() {
        assert_eq!(TxError::Aborted.to_string(), "transaction aborted");
    }
}
