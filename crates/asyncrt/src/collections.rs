//! Async façades over the `oftm-structs` collections: every operation is
//! a future that runs one parked-retry transaction
//! ([`crate::transact_async`]) around the corresponding `*_in`
//! primitive.
//!
//! The wrappers are deliberately thin — each holds the `Copy`able
//! collection handle — and the `*_in` primitives remain available through
//! [`crate::transact_async`] for *composed* transactions (e.g. the
//! atomic two-queue transfer below), which is where transactions earn
//! their keep over per-operation locks.

use crate::future::{transact_async, Committed};
use oftm_core::api::{TxCtx, TxOpts, TxResult, WordStm};
use oftm_histories::Value;
use oftm_structs::{TxHashMap, TxIntSet, TxQueue};

/// Runs one operation to commit (`u32::MAX` attempts; exhausting them
/// panics, as the sync collections do). Read-only operations never park.
async fn run<R>(
    stm: &dyn WordStm,
    proc: u32,
    ro: bool,
    body: impl FnMut(&mut TxCtx<'_>) -> TxResult<R> + Unpin,
) -> Committed<R> {
    let opts = TxOpts {
        ro,
        ..TxOpts::default()
    };
    transact_async(stm, proc, opts, body)
        .await
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Async sorted-list integer set (see [`TxIntSet`]).
#[derive(Clone, Copy, Debug)]
pub struct AsyncIntSet(pub TxIntSet);

impl AsyncIntSet {
    pub fn create(stm: &dyn WordStm) -> Self {
        AsyncIntSet(TxIntSet::create(stm))
    }

    pub async fn insert(&self, stm: &dyn WordStm, proc: u32, v: u64) -> Committed<bool> {
        let set = self.0;
        run(stm, proc, false, move |ctx| set.insert_in(ctx, v)).await
    }

    pub async fn remove(&self, stm: &dyn WordStm, proc: u32, v: u64) -> Committed<bool> {
        let set = self.0;
        run(stm, proc, false, move |ctx| set.remove_in(ctx, v)).await
    }

    /// Runs as a read-only transaction (never parks).
    pub async fn contains(&self, stm: &dyn WordStm, proc: u32, v: u64) -> Committed<bool> {
        let set = self.0;
        run(stm, proc, true, move |ctx| set.contains_in(ctx, v)).await
    }

    /// Runs as a read-only transaction (never parks).
    pub async fn snapshot(&self, stm: &dyn WordStm, proc: u32) -> Committed<Vec<u64>> {
        let set = self.0;
        run(stm, proc, true, move |ctx| set.snapshot_in(ctx)).await
    }
}

/// Async bucketed hash map (see [`TxHashMap`]).
#[derive(Clone, Copy, Debug)]
pub struct AsyncHashMap(pub TxHashMap);

impl AsyncHashMap {
    pub fn create(stm: &dyn WordStm, nbuckets: usize) -> Self {
        AsyncHashMap(TxHashMap::create(stm, nbuckets))
    }

    pub async fn put(
        &self,
        stm: &dyn WordStm,
        proc: u32,
        key: u64,
        value: Value,
    ) -> Committed<Option<Value>> {
        let map = self.0;
        run(stm, proc, false, move |ctx| map.put_in(ctx, key, value)).await
    }

    pub async fn remove(&self, stm: &dyn WordStm, proc: u32, key: u64) -> Committed<Option<Value>> {
        let map = self.0;
        run(stm, proc, false, move |ctx| map.remove_in(ctx, key)).await
    }

    /// Runs as a read-only transaction (never parks).
    pub async fn get(&self, stm: &dyn WordStm, proc: u32, key: u64) -> Committed<Option<Value>> {
        let map = self.0;
        run(stm, proc, true, move |ctx| map.get_in(ctx, key)).await
    }
}

/// Async MPMC FIFO queue (see [`TxQueue`]).
#[derive(Clone, Copy, Debug)]
pub struct AsyncQueue(pub TxQueue);

impl AsyncQueue {
    pub fn create(stm: &dyn WordStm) -> Self {
        AsyncQueue(TxQueue::create(stm))
    }

    pub async fn enqueue(&self, stm: &dyn WordStm, proc: u32, v: Value) -> Committed<()> {
        let q = self.0;
        run(stm, proc, false, move |ctx| q.enqueue_in(ctx, v)).await
    }

    pub async fn dequeue(&self, stm: &dyn WordStm, proc: u32) -> Committed<Option<Value>> {
        let q = self.0;
        run(stm, proc, false, move |ctx| q.dequeue_in(ctx)).await
    }

    /// Atomically moves the front of `self` onto the back of `to` in one
    /// transaction — the composed-operation idiom: both queues observe
    /// the element exactly once under any interleaving.
    pub async fn transfer_to(
        &self,
        stm: &dyn WordStm,
        proc: u32,
        to: AsyncQueue,
    ) -> Committed<Option<Value>> {
        let src = self.0;
        let dst = to.0;
        run(stm, proc, false, move |ctx| {
            let v = src.dequeue_in(ctx)?;
            if let Some(v) = v {
                dst.enqueue_in(ctx, v)?;
            }
            Ok(v)
        })
        .await
    }
}
