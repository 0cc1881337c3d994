//! A striped counter: increments touch one stripe, reads sum all stripes.

use crate::ctx::atomically;
use crate::TxCtx;
use oftm_core::api::WordStm;
use oftm_core::TxResult;
use oftm_histories::{TVarId, Value};

/// A counter sharded over `stripes` t-variables. `add` touches a single
/// stripe chosen by the caller's hint (conventionally the process id), so
/// increments from different processes are disjoint-access — on a
/// strictly-DAP STM they never conflict. `value` reads every stripe in
/// one transaction for a consistent total.
#[derive(Clone, Copy, Debug)]
pub struct TxCounter {
    stripes: TVarId,
    n: u64,
}

impl TxCounter {
    /// Allocates a zeroed counter with `stripes` shards on `stm`.
    pub fn create(stm: &dyn WordStm, stripes: usize) -> Self {
        assert!(stripes > 0, "counter needs at least one stripe");
        TxCounter {
            stripes: stm.alloc_tvar_block(&vec![0; stripes]),
            n: stripes as u64,
        }
    }

    fn stripe(&self, hint: u32) -> TVarId {
        TVarId(self.stripes.0 + u64::from(hint) % self.n)
    }

    /// Adds `delta` to the stripe picked by `hint`, inside the caller's
    /// transaction. Wrapping arithmetic: totals are modular in u64.
    pub fn add_in(&self, ctx: &mut TxCtx<'_>, hint: u32, delta: Value) -> TxResult<()> {
        let x = self.stripe(hint);
        let v = ctx.read(x)?;
        ctx.write(x, v.wrapping_add(delta))
    }

    /// Consistent total across all stripes, inside the caller's
    /// transaction.
    pub fn value_in(&self, ctx: &mut TxCtx<'_>) -> TxResult<Value> {
        let mut sum = 0u64;
        for k in 0..self.n {
            sum = sum.wrapping_add(ctx.read(TVarId(self.stripes.0 + k))?);
        }
        Ok(sum)
    }

    /// `add` in its own retry-until-commit transaction (stripe = `proc`).
    pub fn add(&self, stm: &dyn WordStm, proc: u32, delta: Value) {
        atomically(stm, proc, |ctx| self.add_in(ctx, proc, delta))
    }

    /// Total in its own transaction.
    pub fn value(&self, stm: &dyn WordStm, proc: u32) -> Value {
        atomically(stm, proc, |ctx| self.value_in(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftm_core::dstm::{Dstm, DstmWord};

    #[test]
    fn striped_total_is_exact() {
        let s = std::sync::Arc::new(DstmWord::new(Dstm::default()));
        let c = TxCounter::create(&*s, 4);
        std::thread::scope(|sc| {
            for p in 0..4u32 {
                let s = std::sync::Arc::clone(&s);
                sc.spawn(move || {
                    for _ in 0..100 {
                        c.add(&*s, p, 2);
                    }
                });
            }
        });
        assert_eq!(c.value(&*s, 9), 4 * 100 * 2);
    }

    #[test]
    fn more_procs_than_stripes_still_exact() {
        let s = DstmWord::new(Dstm::default());
        let c = TxCounter::create(&s, 2);
        for p in 0..6u32 {
            c.add(&s, p, 1);
        }
        assert_eq!(c.value(&s, 0), 6);
    }
}
