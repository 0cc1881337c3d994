//! Parked-transaction stress suite: the async runtime must (1) stay
//! exact under many more logical clients than worker threads on every
//! backend, (2) actually park (not spin) under contention, (3) never
//! lose a wakeup — every parked client completes — and (4) waste
//! strictly fewer re-runs than the spin-backoff baseline at equal
//! contention.

mod common;

use async_executor::Executor;
use common::{make_stm, STM_NAMES};
use oftm_asyncrt::{atomically_async_budgeted, transact_async};
use oftm_core::api::{transact, TxOpts, WordStm};
use oftm_histories::TVarId;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Generous budget: exhausting it means livelock (or a lost wakeup that
/// even the watchdog path failed to paper over), reported as a failure.
const BUDGET: u32 = 50_000;
const RW: TxOpts = TxOpts {
    ro: false,
    budget: BUDGET,
};
const RO: TxOpts = TxOpts {
    ro: true,
    budget: BUDGET,
};

const COUNTER: TVarId = TVarId(0);

/// Drives `clients` async increment clients of one shared counter over
/// `workers` executor threads; returns (attempts, parks) totals.
fn run_async_counter(
    stm: &Arc<dyn WordStm>,
    workers: usize,
    clients: u32,
    ops_per_client: u32,
) -> (u64, u64) {
    let ex = Executor::new(workers);
    let attempts = Arc::new(AtomicU64::new(0));
    let parks = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let stm = Arc::clone(stm);
            let attempts = Arc::clone(&attempts);
            let parks = Arc::clone(&parks);
            ex.spawn(async move {
                for _ in 0..ops_per_client {
                    let done = transact_async(&*stm, c, RW, |tx| {
                        let v = tx.read(COUNTER)?;
                        tx.write(COUNTER, v + 1)
                    })
                    .await
                    .unwrap_or_else(|e| panic!("client {c} livelocked: {e}"));
                    attempts.fetch_add(u64::from(done.attempts), Ordering::Relaxed);
                    parks.fetch_add(u64::from(done.parks), Ordering::Relaxed);
                }
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
    (
        attempts.load(Ordering::Relaxed),
        parks.load(Ordering::Relaxed),
    )
}

/// 4× more logical clients than workers, exact counts, on all six STMs —
/// completion of every client is also the no-lost-wakeup check: a parked
/// client that is never woken (and whose watchdog deadline were lost)
/// would hang the test.
#[test]
fn async_counter_exact_with_4x_clients_per_worker() {
    for &name in STM_NAMES {
        let stm = make_stm(name);
        stm.register_tvar(COUNTER, 0);
        let workers = 4;
        let clients = (workers as u32) * 4;
        // Algorithm 2's version chains grow with every abort; keep its
        // cell small (the differential harness covers its correctness).
        let ops = if name.starts_with("algo2") { 8 } else { 120 };
        let (attempts, _parks) = run_async_counter(&stm, workers, clients, ops);
        let (v, _) = transact(&*stm, 999, RW, |tx| tx.read(COUNTER)).expect("final read");
        assert_eq!(
            v,
            u64::from(clients * ops),
            "{name}: lost increments under async execution"
        );
        assert!(
            attempts >= u64::from(clients * ops),
            "{name}: at least one attempt per committed op"
        );
    }
}

/// The park path must actually engage (otherwise the runtime silently
/// degraded to a spin loop inside poll). A waiter whose condition is not
/// yet true parks; a writer satisfies it 20 commits later; the waiter
/// must complete with at least one park on the books.
#[test]
fn condition_waiter_parks_and_is_woken() {
    let stm = make_stm("tl2");
    stm.register_tvar(COUNTER, 0);
    let target = 20u64;

    let ex = Executor::new(2);
    let waiter = {
        let stm = Arc::clone(&stm);
        ex.spawn(async move {
            transact_async(&*stm, 1, RW, |tx| {
                if tx.read(COUNTER)? < target {
                    return Err(oftm_core::TxError::Aborted); // condition unmet
                }
                Ok(())
            })
            .await
            .expect("waiter livelocked")
        })
    };
    for _ in 0..target {
        std::thread::sleep(std::time::Duration::from_micros(500));
        transact(&*stm, 0, RW, |tx| {
            let v = tx.read(COUNTER)?;
            tx.write(COUNTER, v + 1)
        })
        .expect("writer commits");
    }
    let done = waiter.join();
    assert!(
        done.parks > 0,
        "waiter with an unmet condition never parked — the wake-on-commit path is dead"
    );
}

/// **Strictly fewer wasted re-runs than the spin-backoff baseline at
/// equal contention.** The scenario is the condition-wait that
/// wake-on-commit exists for (the blocking-dequeue shape): waiters abort
/// until a shared variable, advanced by one writer on a fixed cadence,
/// reaches a target. Identical bodies, identical writer cadence, same
/// number of waiters on both sides; the spin baseline re-runs whenever
/// its randomized backoff expires (capped at 256 µs, far below the
/// writer's period, so most re-runs observe no change and are pure
/// waste), while the parked runtime re-runs on actual commits — plus the
/// occasional watchdog timeout. Wasted re-runs = attempts − commits.
#[test]
fn parked_retries_waste_less_than_spin_backoff() {
    const WAITERS: u32 = 4;
    const TARGET: u64 = 40;
    const WRITER_PERIOD: std::time::Duration = std::time::Duration::from_micros(1500);

    fn run_writer(stm: &dyn WordStm) {
        for _ in 0..TARGET {
            std::thread::sleep(WRITER_PERIOD);
            transact(stm, 0, RW, |tx| {
                let v = tx.read(COUNTER)?;
                tx.write(COUNTER, v + 1)
            })
            .expect("writer commits");
        }
    }

    fn wait_body(tx: &mut dyn oftm_core::api::WordTx) -> oftm_core::TxResult<()> {
        if tx.read(COUNTER)? < TARGET {
            return Err(oftm_core::TxError::Aborted); // condition unmet
        }
        Ok(())
    }

    for name in ["tl", "tl2", "dstm"] {
        // Spin-backoff baseline: one OS thread per waiter.
        let sync_stm = make_stm(name);
        sync_stm.register_tvar(COUNTER, 0);
        let sync_attempts = AtomicU64::new(0);
        std::thread::scope(|s| {
            for c in 1..=WAITERS {
                let stm = Arc::clone(&sync_stm);
                let sync_attempts = &sync_attempts;
                s.spawn(move || {
                    let (_, tries) = transact(&*stm, c, RW, |tx| wait_body(&mut **tx))
                        .expect("sync waiter livelocked");
                    sync_attempts.fetch_add(u64::from(tries), Ordering::Relaxed);
                });
            }
            run_writer(&*sync_stm);
        });

        // Parked runtime: the same waiters as async clients.
        let async_stm = make_stm(name);
        async_stm.register_tvar(COUNTER, 0);
        let ex = Executor::new(2);
        let handles: Vec<_> = (1..=WAITERS)
            .map(|c| {
                let stm = Arc::clone(&async_stm);
                ex.spawn(async move {
                    transact_async(&*stm, c, RW, |tx| wait_body(&mut **tx))
                        .await
                        .expect("async waiter livelocked")
                })
            })
            .collect();
        run_writer(&*async_stm);
        let mut async_attempts = 0u64;
        let mut parks = 0u64;
        for h in handles {
            let done = h.join();
            async_attempts += u64::from(done.attempts);
            parks += u64::from(done.parks);
        }

        let commits = u64::from(WAITERS); // each waiter commits once
        let sync_wasted = sync_attempts.load(Ordering::Relaxed) - commits;
        let async_wasted = async_attempts - commits;
        eprintln!(
            "[{name}] wasted re-runs: spin {sync_wasted}, parked {async_wasted} ({parks} parks)"
        );
        assert!(
            async_wasted < sync_wasted,
            "{name}: parked path wasted {async_wasted} re-runs, spin baseline {sync_wasted} — \
             parking must strictly reduce wasted work at equal contention"
        );
    }
}

/// Parking must survive a hybrid mode migration: a waiter parks on the
/// hybrid's notifier while the instance is in TL2 mode, a contention
/// storm migrates it to DSTM, and the satisfying commit is executed by
/// the *other* embedded engine — which must still wake the parked waiter
/// (the facade owns the notification endpoint, not the engines).
#[test]
fn hybrid_parked_waiter_survives_migration() {
    const STORM: TVarId = TVarId(1);
    // Budget-only escalation (windowed controller effectively off): the
    // storm below holds a stale transaction open across a foreign commit,
    // and a window-triggered migration at that moment would wait out the
    // holder — the documented way to force a deterministic escalation
    // without that interaction.
    let cfg = oftm_hybrid::HybridConfig {
        window_ops: 1 << 40,
        ..oftm_hybrid::HybridConfig::eager()
    };
    let hy = Arc::new(oftm_hybrid::HybridStm::new(cfg));
    let stm: Arc<dyn WordStm> = Arc::clone(&hy) as Arc<dyn WordStm>;
    stm.register_tvar(COUNTER, 0);
    stm.register_tvar(STORM, 0);
    assert_eq!(hy.mode(), oftm_hybrid::Mode::Tl2);

    let ex = Executor::new(2);
    let waiter = {
        let stm = Arc::clone(&stm);
        ex.spawn(async move {
            transact_async(&*stm, 5, RW, |tx| {
                if tx.read(COUNTER)? == 0 {
                    return Err(oftm_core::TxError::Aborted); // condition unmet
                }
                Ok(())
            })
            .await
            .expect("waiter livelocked")
        })
    };
    // Let the waiter reach its parked state while still in TL2 mode.
    std::thread::sleep(std::time::Duration::from_millis(5));

    // Read-validation storm on a disjoint variable until the instance
    // escalates: a stale transaction begun before a foreign commit.
    for round in 0..200u64 {
        let mut stale = stm.begin(0);
        transact(&*stm, 1, RW, |tx| tx.write(STORM, round + 1)).expect("storm writer commits");
        let _ = stale.read(STORM);
        drop(stale);
        if hy.migrations() > 0 {
            break;
        }
    }
    assert!(hy.migrations() > 0, "storm never forced a migration");
    assert_eq!(hy.mode(), oftm_hybrid::Mode::Dstm);

    // The satisfying commit now runs on the DSTM engine; the waiter —
    // parked under TL2 — must wake and complete.
    transact(&*stm, 2, RW, |tx| tx.write(COUNTER, 1)).expect("post-migration writer commits");
    let done = waiter.join();
    assert!(
        done.parks > 0,
        "waiter never parked — the scenario did not exercise the migration-crossing wake"
    );
}

/// Composed async collection transactions stay conservative: clients
/// shuttle elements between two queues (dequeue + enqueue in ONE
/// transaction); the element multiset is invariant.
#[test]
fn async_two_queue_transfer_conserves_elements() {
    use oftm_asyncrt::AsyncQueue;
    for &name in STM_NAMES {
        let stm = make_stm(name);
        let a = AsyncQueue::create(&*stm);
        let b = AsyncQueue::create(&*stm);
        let population: Vec<u64> = (100..116).collect();
        for &v in &population {
            a.0.enqueue(&*stm, 0, v);
        }

        let ex = Executor::new(4);
        let rounds = if name.starts_with("algo2") { 6 } else { 40 };
        let handles: Vec<_> = (0..8u32)
            .map(|c| {
                let stm = Arc::clone(&stm);
                ex.spawn(async move {
                    for i in 0..rounds {
                        // Alternate directions so both queues stay busy.
                        let (src, dst) = if (c + i) % 2 == 0 { (a, b) } else { (b, a) };
                        src.transfer_to(&*stm, c, dst).await;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        drop(ex);

        let mut rest = a.0.snapshot(&*stm, 99);
        rest.extend(b.0.snapshot(&*stm, 99));
        rest.sort_unstable();
        assert_eq!(
            rest, population,
            "{name}: elements not conserved across async two-queue transfers"
        );
    }
}

/// The async collection loop releases an aborted attempt's allocations,
/// exactly like the sync `atomically_budgeted`.
#[test]
fn aborted_async_attempt_releases_allocations() {
    let stm = make_stm("dstm");
    let anchor = stm.alloc_tvar(0);
    assert_eq!(stm.live_tvars(), 1);
    let first = AtomicU32::new(0);
    let done = async_executor::block_on(atomically_async_budgeted(&*stm, 0, 8, |ctx| {
        let node = ctx.alloc_block(&[1, 2]);
        if first.fetch_add(1, Ordering::Relaxed) == 0 {
            return Err(oftm_core::TxError::Aborted); // simulated conflict
        }
        ctx.write(anchor, node.0)?;
        Ok(node)
    }))
    .expect("second attempt commits");
    assert_eq!(done.attempts, 2);
    assert_eq!(stm.live_tvars(), 3, "aborted attempt's block must be freed");
    let (v, _) = transact(
        &*stm,
        1,
        TxOpts {
            ro: false,
            budget: 8,
        },
        |tx| tx.read(done.value),
    )
    .unwrap();
    assert_eq!(v, 1);
}

/// A parked future that is dropped (client gave up) must not wedge the
/// notifier: later commits still succeed and other waiters still wake.
#[test]
fn dropped_parked_future_is_harmless() {
    let stm = make_stm("tl2");
    stm.register_tvar(COUNTER, 0);

    // Construct a future parked on COUNTER by aborting it twice by hand:
    // poll it with a no-op waker against a conflicting writer.
    struct NoopWake;
    impl std::task::Wake for NoopWake {
        fn wake(self: Arc<Self>) {}
    }
    let waker = std::task::Waker::from(Arc::new(NoopWake));
    let mut cx = std::task::Context::from_waker(&waker);

    {
        let stm_ref: &dyn WordStm = &*stm;
        let mut parked = Box::pin(transact_async(stm_ref, 7, RW, |tx| {
            let v = tx.read(COUNTER)?;
            // Force an abort every time: a peer bumped the version
            // between our read and commit.
            transact(stm_ref, 8, RW, |peer| {
                let p = peer.read(COUNTER)?;
                peer.write(COUNTER, p + 1)
            })
            .expect("peer commits");
            tx.write(COUNTER, v + 1)
        }));
        // Poll once: the future retries immediately once, then parks.
        assert!(std::future::Future::poll(parked.as_mut(), &mut cx).is_pending());
        // Drop it while parked.
    }

    // The notifier still works: a fresh client completes normally.
    let (attempts, _) = run_async_counter(&stm, 2, 4, 50);
    assert!(attempts >= 200);
}

/// Declared read-only futures never park: aborted RO attempts retry
/// inline or yield (they hold no footprint a peer's commit could
/// unblock), so `parks` stays zero on every backend even with a writer
/// continuously committing into the read footprint.
#[test]
fn read_only_futures_never_park() {
    use std::sync::atomic::AtomicBool;

    /// Stops the writer even if an assertion below unwinds, so a failure
    /// cannot leak a spinning thread into the rest of the suite.
    struct StopOnDrop(Arc<AtomicBool>);
    impl Drop for StopOnDrop {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    for name in STM_NAMES {
        let stm = make_stm(name);
        stm.register_tvar(COUNTER, 0);
        let reads: u32 = if name.starts_with("algo2") { 40 } else { 400 };
        let stop = Arc::new(AtomicBool::new(false));
        let _stop_guard = StopOnDrop(Arc::clone(&stop));

        let writer = {
            let stm = Arc::clone(&stm);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    transact(&*stm, 0, RW, |tx| {
                        let v = tx.read(COUNTER)?;
                        tx.write(COUNTER, v + 1)
                    })
                    .expect("writer livelocked");
                }
            })
        };

        let ex = Executor::new(2);
        let handles: Vec<_> = (1..=3u32)
            .map(|c| {
                let stm = Arc::clone(&stm);
                ex.spawn(async move {
                    let mut parks = 0u64;
                    let mut last = 0u64;
                    for _ in 0..reads {
                        let done = transact_async(&*stm, c, RO, |tx| tx.read(COUNTER))
                            .await
                            .expect("RO future livelocked");
                        parks += u64::from(done.parks);
                        assert!(done.value >= last, "RO reads went backwards");
                        last = done.value;
                    }
                    parks
                })
            })
            .collect();
        let mut parks = 0u64;
        for h in handles {
            parks += h.join();
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        assert_eq!(
            parks, 0,
            "{name}: read-only futures parked {parks} times — the RO path must \
             yield, never park"
        );
    }
}
