//! Oracles for the two transaction drivers (`oftm_core::api::transact`,
//! which spins between attempts, and `oftm_asyncrt::transact_async`,
//! which parks):
//!
//! 1. **Retry accounting** — for every body style and both read-write and
//!    read-only options, a body that aborts k times and then commits is
//!    reported as k+1 attempts, k `Retries`, k+1 attempt-latency samples
//!    and k+1 ring `attempt` spans; a budget of k ends in exactly one
//!    `BudgetExhausted` tag and `BudgetExceeded { attempts: k }`.
//! 2. **Panic safety** — on every backend, a body that allocates a block
//!    and then panics leaves the live t-variable count unchanged, and a
//!    follow-up writer on the same t-variable commits on its first
//!    attempt (no lock or ownership record is left behind).

use oftm_asyncrt::transact_async;
use oftm_bench::{make_stm, STM_NAMES};
use oftm_core::api::{
    run_transaction, transact, BudgetExceeded, TxCtx, TxError, TxOpts, TxResult, WordStm, WordTx,
};
use oftm_histories::TVarId;
use oftm_obs::{ring, Counter};
use std::panic::{catch_unwind, AssertUnwindSafe};

const X: TVarId = TVarId(0);

#[derive(Clone, Copy, Debug, PartialEq)]
enum Driver {
    /// A plain `&mut dyn WordTx` body: `run_transaction` when the options
    /// are the defaults, `transact` otherwise.
    SyncWord,
    /// `transact` over a `TxCtx` body that also allocates (read-write).
    SyncCtx,
    /// `transact_async` over the same `TxCtx` body, polled by `block_on`.
    Async,
}

/// Reads `X`; the first `k` calls abort, the next one commits (writing
/// `X + 1` unless read-only).
fn body(tx: &mut dyn WordTx, ro: bool, k: u32, calls: &mut u32) -> TxResult<u64> {
    *calls += 1;
    let v = tx.read(X)?;
    if *calls <= k {
        return Err(TxError::Aborted);
    }
    if !ro {
        tx.write(X, v + 1)?;
    }
    Ok(v)
}

/// [`body`] through a `TxCtx`, allocating a block per read-write attempt
/// (freed unless the attempt commits).
fn ctx_body(ctx: &mut TxCtx<'_>, ro: bool, k: u32, calls: &mut u32) -> TxResult<u64> {
    if !ro {
        ctx.alloc(7);
    }
    body(&mut **ctx, ro, k, calls)
}

fn drive(
    driver: Driver,
    stm: &dyn WordStm,
    proc: u32,
    opts: TxOpts,
    k: u32,
) -> Result<(u64, u32), BudgetExceeded> {
    let mut calls = 0;
    let ro = opts.ro;
    match driver {
        Driver::SyncWord if opts == TxOpts::default() => {
            Ok(run_transaction(stm, proc, |tx| body(tx, ro, k, &mut calls)))
        }
        Driver::SyncWord => transact(stm, proc, opts, |tx| body(&mut **tx, ro, k, &mut calls)),
        Driver::SyncCtx => transact(stm, proc, opts, |ctx| ctx_body(ctx, ro, k, &mut calls)),
        Driver::Async => async_executor::block_on(transact_async(stm, proc, opts, |ctx| {
            ctx_body(ctx, ro, k, &mut calls)
        }))
        .map(|c| (c.value, c.attempts)),
    }
}

fn attempt_spans(stm: &str, proc: u32) -> usize {
    ring::drain()
        .events
        .iter()
        .filter(|e| e.kind == "attempt" && e.stm == stm && e.a == u64::from(proc))
        .count()
}

#[test]
fn drivers_agree_on_retry_accounting() {
    const K: u32 = 3;
    ring::set_enabled(true);
    let mut proc = 100;
    for name in STM_NAMES {
        for driver in [Driver::SyncWord, Driver::SyncCtx, Driver::Async] {
            for ro in [false, true] {
                let cell = format!("{name} / {driver:?} / ro={ro}");
                let stm = make_stm(name, None);
                stm.register_tvar(X, 0);
                let live = stm.live_tvars();
                let _ = ring::drain();

                // k aborts, then a commit.
                proc += 1;
                let base = stm.stats().snapshot();
                let opts = TxOpts {
                    ro,
                    ..TxOpts::default()
                };
                let (v, attempts) = drive(driver, &*stm, proc, opts, K).expect(&cell);
                let d = stm.stats().snapshot().since(&base);
                assert_eq!((v, attempts), (0, K + 1), "{cell}");
                assert_eq!(d.get(Counter::Retries), u64::from(K), "{cell}: retries");
                assert_eq!(d.attempt_ns.count(), u64::from(K + 1), "{cell}: samples");
                assert_eq!(d.get(Counter::AbortBudgetExhausted), 0, "{cell}");
                assert_eq!(attempt_spans(stm.name(), proc), K as usize + 1, "{cell}");
                let kept = usize::from(!ro && driver != Driver::SyncWord);
                assert_eq!(
                    stm.live_tvars(),
                    live + kept,
                    "{cell}: aborted blocks freed"
                );

                // A budget of k runs out just before the commit.
                proc += 1;
                let base = stm.stats().snapshot();
                let opts = TxOpts { ro, budget: K };
                let err = drive(driver, &*stm, proc, opts, K).unwrap_err();
                let d = stm.stats().snapshot().since(&base);
                assert_eq!(err, BudgetExceeded { attempts: K }, "{cell}");
                assert_eq!(d.get(Counter::AbortBudgetExhausted), 1, "{cell}: one tag");
                assert_eq!(d.get(Counter::Retries), u64::from(K - 1), "{cell}");
                assert_eq!(d.attempt_ns.count(), u64::from(K), "{cell}: samples");
                assert_eq!(attempt_spans(stm.name(), proc), K as usize, "{cell}");
                assert_eq!(
                    stm.live_tvars(),
                    live + kept,
                    "{cell}: aborted blocks freed"
                );
            }
        }
    }
}

#[test]
fn panicking_body_frees_its_blocks_and_holds_nothing() {
    for name in STM_NAMES {
        for asynchronous in [false, true] {
            let cell = format!("{name} / async={asynchronous}");
            let stm = make_stm(name, None);
            stm.register_tvar(X, 0);
            let live = stm.live_tvars();
            let panicking = |ctx: &mut TxCtx<'_>| -> TxResult<()> {
                let v = ctx.read(X)?;
                ctx.write(X, v + 1)?;
                ctx.alloc_block(&[1, 2, 3]);
                panic!("body panics mid-attempt");
            };
            let opts = TxOpts::default();
            let res = catch_unwind(AssertUnwindSafe(|| {
                if asynchronous {
                    let fut = transact_async(&*stm, 0, opts, panicking);
                    let _ = async_executor::block_on(fut);
                } else {
                    let _ = transact(&*stm, 0, opts, panicking);
                }
            }));
            assert!(res.is_err(), "{cell}: the panic propagates");
            assert_eq!(stm.live_tvars(), live, "{cell}: the attempt's block freed");

            let writer = TxOpts {
                ro: false,
                budget: 1,
            };
            let incr = |ctx: &mut TxCtx<'_>| {
                let v = ctx.read(X)?;
                ctx.write(X, v + 1)?;
                Ok(v)
            };
            let (v, attempts) = if asynchronous {
                async_executor::block_on(transact_async(&*stm, 1, writer, incr))
                    .map(|c| (c.value, c.attempts))
            } else {
                transact(&*stm, 1, writer, incr)
            }
            .unwrap_or_else(|e| panic!("{cell}: follow-up writer: {e}"));
            assert_eq!((v, attempts), (0, 1), "{cell}: nothing left held");
        }
    }
}
