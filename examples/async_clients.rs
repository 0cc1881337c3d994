//! Many logical clients, few threads: the async transaction runtime.
//!
//! 64 async clients share one sorted-list IntSet and one counter over a
//! 4-thread work-stealing executor. An aborted client parks as a pending
//! future and is woken when a t-variable in its footprint changes (a
//! conflicting commit), instead of spinning through randomized backoff —
//! see `crates/asyncrt` and the README "Async runtime" section.
//!
//! ```text
//! cargo run --release --example async_clients
//! ```

use async_executor::Executor;
use oftm::core::api::WordStm;
use oftm::core::dstm::{Dstm, DstmWord};
use oftm::histories::TVarId;
use oftm::{transact_async, TxIntSet, TxOpts};
use std::sync::Arc;

const COUNTER: TVarId = TVarId(0);
const CLIENTS: u32 = 64;
const WORKERS: usize = 4;
const OPS_PER_CLIENT: u64 = 25;

fn main() {
    let stm = Arc::new(DstmWord::new(Dstm::default()));
    stm.register_tvar(COUNTER, 0);
    let set = TxIntSet::create(&*stm);

    let ex = Executor::new(WORKERS);
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let stm = Arc::clone(&stm);
            ex.spawn(async move {
                let mut attempts = 0u64;
                let mut parks = 0u64;
                for i in 0..OPS_PER_CLIENT {
                    // A collection op and a counter bump, each its own
                    // parked-retry transaction.
                    let v = (u64::from(c) * 7 + i) % 32;
                    let done = transact_async(&*stm, c, TxOpts::default(), move |ctx| {
                        if i % 3 == 0 {
                            set.remove_in(ctx, v).map(|_| ())
                        } else {
                            set.insert_in(ctx, v).map(|_| ())
                        }
                    })
                    .await
                    .expect("unbounded budget");
                    attempts += u64::from(done.attempts);
                    parks += u64::from(done.parks);

                    let done = transact_async(&*stm, c, TxOpts::default(), |tx| {
                        let n = tx.read(COUNTER)?;
                        tx.write(COUNTER, n + 1)
                    })
                    .await
                    .expect("unbounded budget");
                    attempts += u64::from(done.attempts);
                    parks += u64::from(done.parks);
                }
                (attempts, parks)
            })
        })
        .collect();

    let (attempts, parks) = handles
        .into_iter()
        .map(|h| h.join())
        .fold((0u64, 0u64), |(a, p), (da, dp)| (a + da, p + dp));

    let total = u64::from(CLIENTS) * OPS_PER_CLIENT;
    let count = stm.peek(COUNTER).expect("counter registered");
    println!(
        "{CLIENTS} clients on {WORKERS} workers: {} committed transactions, \
         {attempts} attempts, {parks} parks",
        2 * total
    );
    println!("shared counter: {count} (expected {total})");
    assert_eq!(count, total, "every increment must survive");
}
