//! The async driver: retry-until-commit as a `Future`, with
//! **wake-on-commit parking** instead of spin backoff between aborted
//! attempts. It runs the same [`TxCtx`] bodies with the same [`TxOpts`]
//! as the sync driver ([`oftm_core::api::transact`]), through the same
//! attempt lifecycle ([`Attempts`]), so attempt counts, retry counters,
//! latency samples, `attempt` spans and abort-path frees agree.
//!
//! A poll runs whole attempts synchronously — `begin`, body, `tryC` — so
//! a transaction never holds STM state across an await point (a
//! `WordTx` is single-threaded and must die with its attempt). What
//! crosses polls is only the retry state: the attempt count, the aborted
//! attempt's *footprint* ([`oftm_core::api::WordTx::footprint`]), and the
//! [`WaitSnapshot`] of the park protocol.
//!
//! The per-abort decision tree (one policy with the sync driver — see
//! [`oftm_core::contention`]):
//!
//! 1. the first [`IMMEDIATE_RETRIES`] consecutive aborts re-run inline —
//!    the conflicting commit usually *just* happened, so an immediate
//!    re-run sees the new world;
//! 2. otherwise the future parks: snapshot the footprint's notification
//!    shards, register the task's [`Waker`] with the STM's
//!    [`CommitNotifier`], arm the watchdog timeout
//!    ([`crate::timer`]), and return `Pending`. A conflicting commit —
//!    the only event that can change what the re-run observes — wakes the
//!    task; the watchdog covers the mutual-abort corner where no commit
//!    is coming;
//! 3. if a commit raced the registration ([`CommitNotifier::park`]
//!    returned `false`), the world already changed: re-run inline.
//!
//! An abort with an **empty footprint** (the body aborted before touching
//! any t-variable) has nothing to park on; the future yields (self-wake +
//! `Pending`) so a contended executor still interleaves other tasks.

use crate::timer;
use oftm_core::api::{Attempts, TxCtx, TxOpts, TxResult, WordStm, WordTx};
use oftm_core::contention::{park_timeout, IMMEDIATE_RETRIES};
use oftm_core::notify::WaitSnapshot;
use oftm_core::BudgetExceeded;
use oftm_histories::TVarId;
use oftm_obs::Counter;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

#[allow(unused_imports)] // rustdoc links
use oftm_core::notify::CommitNotifier;

/// A committed async transaction: the body's result plus the retry
/// accounting, reported with the same meaning as the sync driver's
/// `(result, attempts)` pairs (one attempt per `begin`).
#[derive(Clone, Copy, Debug)]
pub struct Committed<R> {
    pub value: R,
    /// Transactions begun, committed and aborted alike (≥ 1).
    pub attempts: u32,
    /// Times this future parked on commit notifications.
    pub parks: u32,
}

/// Cross-poll retry state of a [`TxFuture`]: the attempt lifecycle plus
/// the park protocol's state.
pub(crate) struct ParkCore<'s> {
    pub run: Attempts<'s>,
    consecutive_aborts: u32,
    parks: u32,
    footprint: Vec<TVarId>,
    snap: WaitSnapshot,
    /// `Some` while parked: the armed watchdog deadline. Lets a re-poll
    /// distinguish a *meaningful* wake (footprint changed, or our own
    /// deadline passed) from a stale one — a watchdog entry armed by an
    /// earlier park whose commit-wake won the race. Without this filter
    /// every stale timer fire would trigger a full doomed re-run that
    /// arms yet another timer: the chains self-perpetuate and multiply
    /// with every commit, burying the "fewer wasted re-runs" win.
    parked_until: Option<std::time::Instant>,
    /// When the current park began (set with `parked_until`); feeds the
    /// park-duration histogram on the unparking poll.
    parked_at: Option<std::time::Instant>,
    /// Ring-clock start of the current park: emitted as a `"park"` span
    /// on the meaningful wake (only when tracing is enabled).
    park_started_ns: Option<u64>,
}

impl<'s> ParkCore<'s> {
    /// With `opts.ro`, aborts never park: a read-only abort means a
    /// conflicting commit *just* landed, so the immediate re-run observes
    /// the new snapshot and (on the wait-free backends) cannot abort the
    /// same way again — parking would trade that certain progress for a
    /// wake round-trip. Past the immediate retries the future yields
    /// (self-wake) instead of parking, so a contended executor still
    /// interleaves peers.
    pub fn new(stm: &'s dyn WordStm, proc: u32, opts: TxOpts) -> Self {
        ParkCore {
            run: Attempts::new(stm, proc, opts),
            consecutive_aborts: 0,
            parks: 0,
            footprint: Vec::new(),
            snap: WaitSnapshot::new(),
            parked_until: None,
            parked_at: None,
            park_started_ns: None,
        }
    }

    /// Poll-entry gate. `true`: run attempts. `false`: this wake was
    /// stale — neither the parked footprint changed nor our deadline
    /// passed; stay `Pending`. The notifier registration is necessarily
    /// still standing (a publish on our shards would have changed the
    /// snapshot), and the armed watchdog entry is still pending, so no
    /// re-registration is needed: both route wakes to the task, not to a
    /// specific waker clone.
    pub fn should_run(&mut self) -> bool {
        match self.parked_until {
            None => true,
            Some(deadline) => {
                let stats = self.run.stm.stats();
                if self.run.stm.notifier().changed_since(&self.snap)
                    || std::time::Instant::now() >= deadline
                {
                    self.parked_until = None;
                    stats.incr(Counter::Wakes);
                    if let Some(at) = self.parked_at.take() {
                        stats.record_park_ns(at.elapsed().as_nanos() as u64);
                    }
                    if let Some(t0) = self.park_started_ns.take() {
                        oftm_obs::ring::emit_span(
                            "park",
                            "async_park_core",
                            u64::from(self.run.proc),
                            u64::from(self.parks),
                            t0,
                        );
                    }
                    true
                } else {
                    stats.incr(Counter::StaleWakes);
                    false
                }
            }
        }
    }

    /// Captures `tx`'s footprint (call on every attempt right before its
    /// fate is decided — `tryC` consumes the transaction, and an abort
    /// needs the footprint to park on). [`WordTx::footprint`] may emit
    /// duplicates (collection traversals re-touch link words constantly),
    /// so the log is deduplicated here, before anything registers
    /// per-entry state on it: parking on an N-op transaction must
    /// register each notify shard once, not once per touch.
    pub fn capture_footprint(&mut self, tx: &dyn WordTx) {
        self.footprint.clear();
        tx.footprint(&mut self.footprint);
        self.footprint.sort_unstable();
        self.footprint.dedup();
    }

    pub fn committed<R>(&self, value: R) -> Committed<R> {
        Committed {
            value,
            attempts: self.run.count(),
            parks: self.parks,
        }
    }

    /// The park protocol (see module docs). `waker` is the polling task's.
    /// `Ready`: re-run inside this same poll. `Pending`: return `Pending`;
    /// a wake (commit, watchdog or self-wake) re-polls.
    pub fn after_abort(&mut self, waker: &Waker) -> Poll<()> {
        self.consecutive_aborts += 1;
        if self.consecutive_aborts <= IMMEDIATE_RETRIES {
            return Poll::Ready(());
        }
        if self.run.opts.ro || self.footprint.is_empty() {
            // Read-only futures never park (see `new`), and an empty
            // footprint has nothing to watch: yield (stay runnable, let
            // peers in), then re-run.
            waker.wake_by_ref();
            return Poll::Pending;
        }
        let stm = self.run.stm;
        let notifier = stm.notifier();
        notifier.snapshot(self.footprint.iter().copied(), &mut self.snap);
        if !notifier.park(&self.snap, waker) {
            // A commit raced the registration — the world changed under
            // us, exactly the event we would have waited for.
            return Poll::Ready(());
        }
        self.parks += 1;
        stm.stats().incr(Counter::Parks);
        let timeout = park_timeout(self.run.proc, self.consecutive_aborts);
        let now = std::time::Instant::now();
        self.parked_until = Some(now + timeout);
        self.parked_at = Some(now);
        self.park_started_ns = oftm_obs::ring::enabled().then(oftm_obs::ring::clock_ns);
        timer::wake_after(timeout, waker.clone());
        Poll::Pending
    }
}

/// Future returned by [`transact_async`].
pub struct TxFuture<'s, R, F> {
    core: ParkCore<'s>,
    body: F,
    _r: std::marker::PhantomData<fn() -> R>,
}

impl<R, F> Future for TxFuture<'_, R, F>
where
    F: FnMut(&mut TxCtx<'_>) -> TxResult<R> + Unpin,
{
    type Output = Result<Committed<R>, BudgetExceeded>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if !this.core.should_run() {
            return Poll::Pending; // stale wake: stay parked
        }
        loop {
            if this.core.run.exhausted() {
                return Poll::Ready(Err(this.core.run.budget_exceeded()));
            }
            let mut ctx = this.core.run.begin_attempt();
            let out = (this.body)(&mut ctx);
            this.core.capture_footprint(&*ctx);
            if let Some(value) = this.core.run.settle(ctx, out) {
                return Poll::Ready(Ok(this.core.committed(value)));
            }
            // A spent budget is reported at the loop top at once, as the
            // sync driver does: parking first would delay the error by a
            // park timeout and count a park no attempt could follow.
            if !this.core.run.exhausted() && this.core.after_abort(cx.waker()).is_pending() {
                return Poll::Pending;
            }
        }
    }
}

/// **The async driver**: like [`oftm_core::api::transact`], runs `body`
/// in fresh transactions until one commits or `opts.budget` attempts have
/// aborted, but parks between contended attempts instead of spinning.
/// Resolves to the committed result with its attempt/park accounting.
pub fn transact_async<'s, R, F>(
    stm: &'s dyn WordStm,
    proc: u32,
    opts: TxOpts,
    body: F,
) -> TxFuture<'s, R, F>
where
    F: FnMut(&mut TxCtx<'_>) -> TxResult<R> + Unpin,
{
    TxFuture {
        core: ParkCore::new(stm, proc, opts),
        body,
        _r: std::marker::PhantomData,
    }
}

/// [`transact_async`] with a budget of `max_attempts`. Kept because the
/// benchmark client imports it.
pub fn atomically_async_budgeted<'s, R, F>(
    stm: &'s dyn WordStm,
    proc: u32,
    max_attempts: u32,
    body: F,
) -> TxFuture<'s, R, F>
where
    F: FnMut(&mut TxCtx<'_>) -> TxResult<R> + Unpin,
{
    transact_async(
        stm,
        proc,
        TxOpts {
            ro: false,
            budget: max_attempts,
        },
        body,
    )
}

/// Read-only [`atomically_async_budgeted`]: its aborted attempts never
/// park, so `Committed::parks` is always zero. Kept because the benchmark
/// client imports it.
pub fn atomically_async_ro_budgeted<'s, R, F>(
    stm: &'s dyn WordStm,
    proc: u32,
    max_attempts: u32,
    body: F,
) -> TxFuture<'s, R, F>
where
    F: FnMut(&mut TxCtx<'_>) -> TxResult<R> + Unpin,
{
    transact_async(
        stm,
        proc,
        TxOpts {
            ro: true,
            budget: max_attempts,
        },
        body,
    )
}
