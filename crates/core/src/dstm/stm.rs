//! The `Dstm` STM instance: configuration, transaction factory, and the
//! `atomically` retry loop.

use super::descriptor::Descriptor;
use super::tvar::TVar;
use super::tx::{ReadEntry, Tx};
use crate::api::{TxError, TxResult};
use crate::cm::{Aggressive, ContentionManager};
use crate::pool::SlotPool;
use crate::record::Recorder;
use oftm_histories::{BaseObjId, TVarId, TxId};
use oftm_obs::{Counter, StmStats};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Progress policy of a [`Dstm`] instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Progress {
    /// Obstruction-free per Definition 2: a live owner can be aborted
    /// immediately (subject only to the contention manager's bounded
    /// courtesy).
    ObstructionFree,
    /// Eventually ic-obstruction-free per Definition 4: a live owner is
    /// protected by a grace period from the first conflict; within it,
    /// conflicting transactions wait (even if the owner's process crashed).
    /// This deliberately weakens the progress guarantee to the one
    /// Theorem 6 starts from.
    EventualGrace(Duration),
}

/// The global commit counter (Spear et al.'s commit-counter heuristic,
/// DISC 2006): every writing commit increments it before its terminal
/// validation, so a transaction that finds it unchanged since its last
/// validation knows no update committed in between and skips re-probing
/// its read-set. It is one shared word that every writing commit
/// modifies, so two t-variable-disjoint writers conflict on it with no
/// transaction linking them: DSTM gives up weak DAP, not only the
/// strict DAP that Theorem 13 already rules out (without the counter,
/// disjoint transactions met only on the descriptor of a transaction
/// conflicting with both). Losing weak DAP is what lets reads escape the
/// Ω(m²) validation bound of invisible-read progressive TMs.
///
/// On its own cache line: the counter is the one word every committer
/// and every validating reader touches.
#[repr(align(64))]
pub(crate) struct CommitCounter {
    count: AtomicU64,
    /// Base-object identity of the counter in recorded histories.
    pub(crate) base: BaseObjId,
}

impl CommitCounter {
    fn new() -> Self {
        CommitCounter {
            count: AtomicU64::new(0),
            base: crate::record::fresh_base_id(),
        }
    }

    /// Samples the counter.
    pub(crate) fn load(&self) -> u64 {
        // ord: Acquire pairs with the writers' AcqRel `fetch_add` in
        // `bump`: a sample that sees a writer's increment also sees every
        // locator that writer installed, so the validation that follows
        // probes them. A reader that Acquire-loads a writer's `Committed`
        // status synchronizes with its status CAS, which the `fetch_add`
        // happens-before, so its next sample sees the increment.
        self.count.load(Ordering::Acquire)
    }

    /// Announces a writing commit; returns the previous value. An RMW,
    /// not a load: of two crossing writers, the one that increments
    /// second sees the other's increment and validates.
    pub(crate) fn bump(&self) -> u64 {
        // ord: AcqRel — Release publishes our locator installs to `load`'s
        // Acquire and happens-before our status CAS, which a reader's
        // Acquire load of `Committed` synchronizes with; Acquire shows
        // earlier writers' installs to our terminal validation.
        self.count.fetch_add(1, Ordering::AcqRel)
    }
}

/// A DSTM-style obstruction-free software transactional memory.
///
/// Create one instance per logical memory; create t-variables with
/// [`Dstm::new_tvar`] and run transactions with [`Dstm::atomically`] or the
/// explicit [`Dstm::begin`] / [`Tx::commit`] pair.
pub struct Dstm {
    cm: Arc<dyn ContentionManager>,
    progress: Progress,
    recorder: Option<Arc<Recorder>>,
    epoch: Instant,
    tx_seq: AtomicU32,
    tvar_seq: AtomicU32,
    /// Pooled read-set buffers (keyed by process), recycled across
    /// transactions so the steady state allocates nothing per attempt.
    read_scratch: SlotPool<Vec<ReadEntry>>,
    /// Writing commits so far; lets a validation with nothing new to see
    /// skip its read-set probes (see [`CommitCounter`]).
    commits: CommitCounter,
    /// Always-on telemetry: begins/commits/aborts-by-cause and latency
    /// histograms. Shared with the word-level adapter ([`super::word`]),
    /// so one registry covers both API layers of this instance. Behind an
    /// `Arc` so an embedding backend (the hybrid) can share one registry
    /// across engines.
    stats: Arc<StmStats>,
}

impl Default for Dstm {
    fn default() -> Self {
        Dstm::new(Arc::new(Aggressive))
    }
}

impl Dstm {
    /// Creates an obstruction-free instance with the given contention
    /// manager.
    pub fn new(cm: Arc<dyn ContentionManager>) -> Self {
        Dstm {
            cm,
            progress: Progress::ObstructionFree,
            recorder: None,
            epoch: Instant::now(),
            tx_seq: AtomicU32::new(0),
            tvar_seq: AtomicU32::new(0),
            read_scratch: SlotPool::new(),
            commits: CommitCounter::new(),
            stats: Arc::new(StmStats::new()),
        }
    }

    /// Replaces the telemetry registry with a shared one (the hybrid
    /// backend routes both embedded engines into a single registry).
    pub fn with_stats(mut self, stats: Arc<StmStats>) -> Self {
        self.stats = stats;
        self
    }

    /// Starts transaction sequence numbers at `base`, so two engines
    /// embedded behind one facade (and one recorder) never mint colliding
    /// `TxId`s for the same process.
    pub fn with_tx_base(self, base: u32) -> Self {
        // ord: Relaxed — single-threaded builder; atomicity alone keeps
        // later ids unique.
        self.tx_seq.store(base, Ordering::Relaxed);
        self
    }

    /// The telemetry registry of this instance (shared with the word-level
    /// adapter). Counters use relaxed sharded atomics; reading them is
    /// always safe and never perturbs transactions.
    pub fn stats(&self) -> &StmStats {
        &self.stats
    }

    /// The global commit counter.
    pub(crate) fn commits(&self) -> &CommitCounter {
        &self.commits
    }

    /// Pops a pooled read-set buffer (empty, warm capacity).
    pub(crate) fn take_read_scratch(&self, proc: u32) -> Vec<ReadEntry> {
        self.read_scratch
            .take(proc as usize)
            .map(|b| *b)
            .unwrap_or_default()
    }

    /// Returns a cleared read-set buffer to the pool.
    pub(crate) fn return_read_scratch(&self, proc: u32, buf: Vec<ReadEntry>) {
        self.read_scratch.put(proc as usize, Box::new(buf));
    }

    /// Switches the instance to the eventually-ic progress policy with the
    /// given grace period (see [`Progress::EventualGrace`]).
    pub fn with_grace(mut self, grace: Duration) -> Self {
        self.progress = Progress::EventualGrace(grace);
        self
    }

    /// Attaches a low-level history recorder (instrumented runs).
    pub fn with_recorder(mut self, rec: Arc<Recorder>) -> Self {
        self.recorder = Some(rec);
        self
    }

    pub fn cm(&self) -> &dyn ContentionManager {
        &*self.cm
    }

    pub fn progress(&self) -> Progress {
        self.progress
    }

    pub(crate) fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_deref()
    }

    /// Shared recorder handle, if any.
    pub fn recorder_arc(&self) -> Option<Arc<Recorder>> {
        self.recorder.clone()
    }

    /// Nanoseconds since this instance was created.
    pub fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Creates a fresh t-variable managed by this instance.
    pub fn new_tvar<T: Clone + Send + Sync + 'static>(&self, initial: T) -> TVar<T> {
        // ord: Relaxed — atomicity alone keeps ids unique; the t-variable
        // itself is published by the registry's Release install.
        let id = TVarId(u64::from(self.tvar_seq.fetch_add(1, Ordering::Relaxed)));
        TVar::new(id, initial)
    }

    /// Begins a transaction on behalf of process `proc`.
    ///
    /// Per footnote 3 of the paper, the transaction id combines the process
    /// id with a counter; we use a global counter, which also yields unique
    /// ids.
    pub fn begin(&self, proc: u32) -> Tx<'_> {
        // ord: Relaxed — atomicity alone keeps transaction ids unique.
        let seq = self.tx_seq.fetch_add(1, Ordering::Relaxed);
        let desc = Arc::new(Descriptor::new(TxId::new(proc, seq), self.now_nanos()));
        self.stats.incr(Counter::Begins);
        Tx::new(self, desc)
    }

    /// Runs `body` in a transaction, retrying on abort until it commits
    /// (each retry is a fresh transaction, as the paper prescribes), and
    /// returns the result of the committed attempt. This is the typed
    /// object API: its [`Tx`] reads and writes [`TVar`]s of any type, so
    /// it keeps its own loop instead of the word-level driver
    /// ([`crate::api::transact`]); contention is left to the manager.
    pub fn atomically<R>(&self, proc: u32, mut body: impl FnMut(&mut Tx<'_>) -> TxResult<R>) -> R {
        let mut attempts = 0u32;
        loop {
            if attempts > 0 {
                self.stats.incr(Counter::Retries);
            }
            attempts += 1;
            let started = Instant::now();
            let mut tx = self.begin(proc);
            let committed = match body(&mut tx) {
                Ok(r) => tx.commit().is_ok().then_some(r),
                // The body observed the abort; loop for a fresh attempt.
                Err(TxError::Aborted) => None,
            };
            self.stats
                .record_attempt_ns(started.elapsed().as_nanos() as u64);
            if let Some(r) = committed {
                return r;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cm::Polite;

    #[test]
    fn atomically_counter_increment() {
        let stm = Dstm::default();
        let x = stm.new_tvar(0u64);
        for i in 0..10 {
            stm.atomically(0, |tx| {
                let v = tx.read(&x)?;
                tx.write(&x, v + 1)
            });
            assert_eq!(x.read_atomic(), i + 1);
        }
    }

    #[test]
    fn unique_tvar_ids() {
        let stm = Dstm::default();
        let a = stm.new_tvar(0u64);
        let b = stm.new_tvar(0u64);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn concurrent_counter_is_linear() {
        let stm = Arc::new(Dstm::new(Arc::new(Polite::default())));
        let x = stm.new_tvar(0u64);
        const THREADS: u32 = 4;
        const PER: u64 = 250;
        std::thread::scope(|s| {
            for p in 0..THREADS {
                let stm = Arc::clone(&stm);
                let x = x.clone();
                s.spawn(move || {
                    for _ in 0..PER {
                        stm.atomically(p, |tx| {
                            let v = tx.read(&x)?;
                            tx.write(&x, v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(x.read_atomic(), u64::from(THREADS) * PER);
    }

    #[test]
    fn concurrent_disjoint_vars_no_interference() {
        let stm = Arc::new(Dstm::default());
        let vars: Vec<_> = (0..4).map(|_| stm.new_tvar(0u64)).collect();
        std::thread::scope(|s| {
            for (p, v) in vars.iter().enumerate() {
                let stm = Arc::clone(&stm);
                let v = v.clone();
                s.spawn(move || {
                    for _ in 0..500 {
                        stm.atomically(p as u32, |tx| {
                            let cur = tx.read(&v)?;
                            tx.write(&v, cur + 1)
                        });
                    }
                });
            }
        });
        for v in &vars {
            assert_eq!(v.read_atomic(), 500);
        }
    }

    #[test]
    fn multi_var_invariant_preserved() {
        // Transfer between two accounts; total must be conserved at every
        // commit point.
        let stm = Arc::new(Dstm::new(Arc::new(Polite::default())));
        let a = stm.new_tvar(500i64 as u64);
        let b = stm.new_tvar(500u64);
        std::thread::scope(|s| {
            for p in 0..4u32 {
                let stm = Arc::clone(&stm);
                let (a, b) = (a.clone(), b.clone());
                s.spawn(move || {
                    for i in 0..200u64 {
                        let amount = i % 7;
                        stm.atomically(p, |tx| {
                            let va = tx.read(&a)?;
                            let vb = tx.read(&b)?;
                            if va >= amount {
                                tx.write(&a, va - amount)?;
                                tx.write(&b, vb + amount)?;
                            }
                            Ok(())
                        });
                    }
                });
            }
            // Concurrent observers check the invariant transactionally.
            for p in 4..6u32 {
                let stm = Arc::clone(&stm);
                let (a, b) = (a.clone(), b.clone());
                s.spawn(move || {
                    for _ in 0..200 {
                        let total = stm.atomically(p, |tx| {
                            let va = tx.read(&a)?;
                            let vb = tx.read(&b)?;
                            Ok(va + vb)
                        });
                        assert_eq!(total, 1000);
                    }
                });
            }
        });
        assert_eq!(a.read_atomic() + b.read_atomic(), 1000);
    }

    #[test]
    fn concurrent_crossing_writers_never_commit_write_skew() {
        // Round r: two transactions read x and y and, seeing both <= r,
        // set their own one to r + 1. The commits cross; serializability
        // lets only the first see both <= r. A writing commit that
        // samples the counter instead of incrementing it lets both skip
        // validation and both write (a write skew).
        const ROUNDS: u64 = 20_000;
        let stm = Dstm::default();
        let (x, y) = (stm.new_tvar(0u64), stm.new_tvar(0u64));
        let arrived = AtomicU64::new(0);
        let wrote: Vec<Vec<bool>> = std::thread::scope(|s| {
            let workers: Vec<_> = [&x, &y]
                .into_iter()
                .enumerate()
                .map(|(p, mine)| {
                    let (stm, x, y, arrived) = (&stm, &x, &y, &arrived);
                    s.spawn(move || {
                        (0..ROUNDS)
                            .map(|r| {
                                // ord: SeqCst — test-only spin barrier.
                                arrived.fetch_add(1, Ordering::SeqCst);
                                // ord: SeqCst — test-only spin barrier.
                                while arrived.load(Ordering::SeqCst) < 2 * (r + 1) {
                                    std::thread::yield_now();
                                }
                                stm.atomically(p as u32, |tx| {
                                    let free = tx.read(x)? <= r && tx.read(y)? <= r;
                                    if free {
                                        tx.write(mine, r + 1)?;
                                    }
                                    Ok(free)
                                })
                            })
                            .collect()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (r, (a, b)) in wrote[0].iter().zip(&wrote[1]).enumerate() {
            assert!(!(a & b), "write skew in round {r}");
        }
    }

    #[test]
    fn attempts_reported() {
        let stm = Dstm::default();
        let x = stm.new_tvar(0u64);
        let mut attempts = 0;
        let v = stm.atomically(0, |tx| {
            attempts += 1;
            tx.read(&x)
        });
        assert_eq!(v, 0);
        assert_eq!(attempts, 1);
    }

    #[test]
    fn grace_policy_configured() {
        let stm = Dstm::default().with_grace(Duration::from_millis(1));
        assert!(matches!(stm.progress(), Progress::EventualGrace(_)));
    }
}
