//! The two workloads: how each instance is built, how one client drives
//! it for a slice, and the oracle that checks every result.
//!
//! Every workload has exactly one closed-loop client (a sync thread, or
//! one executor thread for `bank-async`), so no transaction conflicts.
//! See the crate docs for why.

use crate::metrics::{Histogram, FAILED_LATENCY};
use crate::trace::{self, LayerAcc, OpScope, OpToken, Traced};
use async_executor::Executor;
use oftm_bench::harness::ATTEMPT_BUDGET;
use oftm_bench::{make_stm, SplitMix};
use oftm_core::api::WordStm;
use oftm_histories::TVarId;
use oftm_structs::{atomically_budgeted, atomically_ro_budgeted, TxIntSet};
use std::collections::BTreeSet;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

/// The backends measured, in report order; all built by `make_stm`.
pub const BACKENDS: [&str; 5] = ["dstm", "tl", "tl2", "coarse", "hybrid"];

/// Keys of the integer set are drawn from `0..KEY_RANGE`…
pub const KEY_RANGE: u64 = 128;
/// …and it starts with this many of them.
pub const SET_SIZE: usize = 64;
/// Bank accounts: a table that stays in a core's L2 cache (see the crate
/// docs for why not a larger one).
pub const ACCOUNTS: u64 = 1 << 10;
/// Accounts that half of all account picks go to.
pub const HOT_ACCOUNTS: usize = 16;
/// Initial balance of every account.
pub const BALANCE: u64 = 1000;
/// Async clients of `bank-async`, all on one executor thread.
pub const CLIENTS: u32 = 32;
/// Accounts read by one `bank-async` audit.
pub const AUDIT_SPAN: usize = 64;

const CLIENT_PROC: u32 = 0;

/// A workload, by its command-line name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    IntsetLookup,
    BankAsync,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::IntsetLookup, Workload::BankAsync];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IntsetLookup => "intset-lookup",
            Workload::BankAsync => "bank-async",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How long a slice's client runs.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// For a time (the benchmark).
    For(Duration),
    /// For exactly this many ops (per client), so runs repeat exactly.
    Ops(u64),
}

/// What one slice measured.
#[derive(Debug, Default)]
pub struct SliceOut {
    /// Client ops attempted.
    pub ops: u64,
    /// Ops that exhausted [`ATTEMPT_BUDGET`] or returned a wrong result.
    pub failed: u64,
    pub elapsed: Duration,
    /// Per-op latency in ns, from the op's first attempt to its commit;
    /// [`FAILED_LATENCY`] for a failed op.
    pub latencies: Histogram,
    /// Per-layer sums (traced slices only).
    pub layers: LayerAcc,
    /// The first few oracle failures, for the report.
    pub errors: Vec<String>,
}

impl SliceOut {
    fn fail(&mut self, msg: impl FnOnce() -> String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg());
        }
    }
}

enum State {
    Set {
        set: TxIntSet,
        /// Sequential model: the client is the only mutator, so it
        /// predicts every result.
        model: BTreeSet<u64>,
    },
    Bank {
        hot: [u64; HOT_ACCOUNTS],
    },
}

/// One backend populated for one workload.
pub struct Instance {
    backend: &'static str,
    workload: Workload,
    /// The backend itself: untraced slices, set-up, the writer, oracles.
    pub stm: Arc<dyn WordStm>,
    /// The same backend behind the tracing decorator.
    traced: Arc<dyn WordStm>,
    state: State,
    rng: SplitMix,
}

impl Instance {
    /// Builds and populates `backend` for `workload`; inputs follow `seed`.
    pub fn build(workload: Workload, backend: &'static str, seed: u64) -> Instance {
        let stm: Arc<dyn WordStm> = Arc::from(make_stm(backend, None));
        let mut rng = SplitMix(seed);
        let state = match workload {
            Workload::IntsetLookup => {
                let set = TxIntSet::create(&*stm);
                let mut keys: Vec<u64> = (0..KEY_RANGE).collect();
                for i in (1..keys.len()).rev() {
                    keys.swap(i, rng.below(i + 1));
                }
                keys.truncate(SET_SIZE);
                for &k in &keys {
                    assert!(
                        set.insert(&*stm, CLIENT_PROC, k),
                        "{backend}: set-up insert"
                    );
                }
                State::Set {
                    set,
                    model: keys.into_iter().collect(),
                }
            }
            Workload::BankAsync => {
                for a in 0..ACCOUNTS {
                    stm.register_tvar(TVarId(a), BALANCE);
                }
                let mut hot = [0; HOT_ACCOUNTS];
                let mut chosen = BTreeSet::new();
                for h in &mut hot {
                    loop {
                        let a = rng.below(ACCOUNTS as usize) as u64;
                        if chosen.insert(a) {
                            *h = a;
                            break;
                        }
                    }
                }
                State::Bank { hot }
            }
        };
        let traced: Arc<dyn WordStm> = Arc::new(Traced::new(Arc::clone(&stm)));
        Instance {
            backend,
            workload,
            stm,
            traced,
            state,
            rng,
        }
    }

    /// Runs the client for one slice, through the tracing decorator when
    /// `traced`.
    pub fn run_slice(&mut self, budget: Budget, traced: bool, exec: &Executor) -> SliceOut {
        let stm = Arc::clone(if traced { &self.traced } else { &self.stm });
        match self.workload {
            Workload::IntsetLookup => self.intset_client(&*stm, budget, traced),
            Workload::BankAsync => self.bank_slice(stm, budget, traced, exec),
        }
    }

    /// The sync client: 90% `contains`, 5% inserts and 5% removes of
    /// random keys, each result checked against the model.
    fn intset_client(&mut self, stm: &dyn WordStm, budget: Budget, traced: bool) -> SliceOut {
        let State::Set { set, model } = &mut self.state else {
            unreachable!("set workload")
        };
        let set = *set;
        let mut out = SliceOut::default();
        let start = Instant::now();
        let mut now = start;
        loop {
            match budget {
                Budget::For(d) if now - start >= d => break,
                Budget::Ops(n) if out.ops >= n => break,
                _ => {}
            }
            let pick = self.rng.below(100);
            let key = self.rng.below(KEY_RANGE as usize) as u64;
            let t0 = Instant::now();
            let tok = traced.then(trace::op_start);
            let res = if pick < 90 {
                atomically_ro_budgeted(stm, CLIENT_PROC, ATTEMPT_BUDGET, |ctx| {
                    set.contains_in(ctx, key)
                })
            } else if pick < 95 {
                atomically_budgeted(stm, CLIENT_PROC, ATTEMPT_BUDGET, |ctx| {
                    set.insert_in(ctx, key)
                })
            } else {
                atomically_budgeted(stm, CLIENT_PROC, ATTEMPT_BUDGET, |ctx| {
                    set.remove_in(ctx, key)
                })
            };
            if let Some(t) = tok {
                trace::op_end(t, &mut out.layers);
            }
            now = Instant::now();
            out.ops += 1;
            let expect = match pick {
                0..=89 => model.contains(&key),
                90..=94 => model.insert(key),
                _ => model.remove(&key),
            };
            let verdict = match res {
                Ok((b, _)) if b == expect => Ok(()),
                Ok((b, _)) => Err(format!(
                    "op {pick} on key {key} returned {b}, the model {expect}"
                )),
                Err(e) => Err(e.to_string()),
            };
            match verdict {
                Ok(()) => out.latencies.record((now - t0).as_nanos() as u64),
                Err(e) => {
                    out.latencies.record(FAILED_LATENCY);
                    out.fail(|| format!("{}: {e}", stm.name()));
                }
            }
        }
        out.elapsed = now - start;
        out
    }

    /// `CLIENTS` async clients on the single-worker `exec`: 15/16 of ops
    /// are transfers, 1/16 read-only audits; each client yields after
    /// every op.
    fn bank_slice(
        &mut self,
        stm: Arc<dyn WordStm>,
        budget: Budget,
        traced: bool,
        exec: &Executor,
    ) -> SliceOut {
        let State::Bank { hot } = self.state else {
            unreachable!("bank workload")
        };
        let stop = Arc::new(AtomicBool::new(false));
        let limit = match budget {
            Budget::For(_) => u64::MAX,
            Budget::Ops(n) => n,
        };
        let start = Instant::now();
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = BankClient {
                    stm: Arc::clone(&stm),
                    stop: Arc::clone(&stop),
                    hot,
                    seed: self.rng.next(),
                    proc: c,
                    limit,
                    traced,
                };
                exec.spawn(client.run())
            })
            .collect();
        if let Budget::For(d) = budget {
            std::thread::sleep(d);
            stop.store(true, Ordering::Relaxed);
        }
        let mut out = SliceOut::default();
        for h in handles {
            let c = h.join();
            out.ops += c.ops;
            out.latencies.merge(&c.latencies);
            out.layers.merge(&c.layers);
            for e in c.errors {
                out.fail(|| e);
            }
        }
        out.elapsed = start.elapsed();
        out
    }

    /// The end-of-build oracle: `intset-lookup`'s set equals the model,
    /// and `bank-async` conserves money.
    pub fn check_final(&self) -> Result<(), String> {
        let name = self.backend;
        match &self.state {
            State::Set { set, model } => {
                let snap = set.snapshot(&*self.stm, CLIENT_PROC);
                if !snap.iter().eq(model.iter()) {
                    return Err(format!(
                        "{name}: final set {snap:?} differs from the sequential model"
                    ));
                }
            }
            State::Bank { .. } => {
                // Chunks keep each read-only transaction short; the clients
                // have stopped, so the chunk sums add up to one snapshot.
                let mut total = 0;
                for chunk in (0..ACCOUNTS).step_by(256) {
                    let (sum, _) =
                        atomically_ro_budgeted(&*self.stm, CLIENT_PROC, ATTEMPT_BUDGET, |ctx| {
                            (chunk..chunk + 256).try_fold(0, |s, a| Ok(s + ctx.read(TVarId(a))?))
                        })
                        .map_err(|e| format!("{name}: audit: {e}"))?;
                    total += sum;
                }
                if total != ACCOUNTS * BALANCE {
                    return Err(format!(
                        "{name}: total balance {total}, expected {}",
                        ACCOUNTS * BALANCE
                    ));
                }
            }
        }
        Ok(())
    }
}

struct BankClient {
    stm: Arc<dyn WordStm>,
    stop: Arc<AtomicBool>,
    hot: [u64; HOT_ACCOUNTS],
    seed: u64,
    proc: u32,
    limit: u64,
    traced: bool,
}

#[derive(Default)]
struct ClientOut {
    ops: u64,
    latencies: Histogram,
    layers: LayerAcc,
    errors: Vec<String>,
}

impl BankClient {
    fn pick(&self, rng: &mut SplitMix) -> u64 {
        if rng.next() & 1 == 0 {
            self.hot[rng.below(HOT_ACCOUNTS)]
        } else {
            rng.below(ACCOUNTS as usize) as u64
        }
    }

    async fn run(self) -> ClientOut {
        let mut rng = SplitMix(self.seed);
        let mut out = ClientOut::default();
        let stm = &*self.stm;
        while out.ops < self.limit && !self.stop.load(Ordering::Relaxed) {
            let audit = rng.below(16) == 0;
            let (t0, tok);
            let res = if audit {
                let mut span = [0u64; AUDIT_SPAN];
                for a in &mut span {
                    *a = self.pick(&mut rng);
                }
                t0 = Instant::now();
                tok = self.traced.then(trace::op_start);
                let fut = oftm_asyncrt::atomically_async_ro_budgeted(
                    stm,
                    self.proc,
                    ATTEMPT_BUDGET,
                    move |ctx| {
                        span.iter()
                            .try_fold(0, |s, &a| Ok(s + ctx.read(TVarId(a))?))
                    },
                );
                match scoped(tok.as_ref(), fut).await {
                    // Duplicates may repeat an account; the sum stays bounded.
                    Ok(c) if c.value <= ACCOUNTS * BALANCE => Ok(()),
                    Ok(c) => Err(format!("audit read {} > all money", c.value)),
                    Err(e) => Err(e.to_string()),
                }
            } else {
                let (from, to) = (self.pick(&mut rng), self.pick(&mut rng));
                let amount = rng.below(100) as u64;
                t0 = Instant::now();
                tok = self.traced.then(trace::op_start);
                let fut = oftm_asyncrt::atomically_async_budgeted(
                    stm,
                    self.proc,
                    ATTEMPT_BUDGET,
                    move |ctx| {
                        let f = ctx.read(TVarId(from))?;
                        let t = ctx.read(TVarId(to))?;
                        if from == to {
                            ctx.write(TVarId(from), f)
                        } else {
                            let amt = amount.min(f);
                            ctx.write(TVarId(from), f - amt)?;
                            ctx.write(TVarId(to), t + amt)
                        }
                    },
                );
                scoped(tok.as_ref(), fut)
                    .await
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            };
            if let Some(t) = tok {
                trace::op_end(t, &mut out.layers);
            }
            let lat = t0.elapsed().as_nanos() as u64;
            out.ops += 1;
            match res {
                Ok(()) => out.latencies.record(lat),
                Err(e) => {
                    out.latencies.record(FAILED_LATENCY);
                    out.errors.push(format!("{}: {e}", stm.name()));
                }
            }
            YieldNow(false).await;
        }
        out
    }
}

/// Polls `fut` inside its op's scope when traced.
async fn scoped<F: Future + Unpin>(tok: Option<&OpToken>, fut: F) -> F::Output {
    match tok {
        Some(t) => OpScope::new(t, fut).await,
        None => fut.await,
    }
}

/// Returns `Pending` once, after waking itself: lets the executor run the
/// other clients.
struct YieldNow(bool);

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.0 {
            Poll::Ready(())
        } else {
            self.0 = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}
