//! The collection-level entry points: [`atomically`] and its bounded
//! variants run a [`TxCtx`] body through the sync driver
//! ([`oftm_core::api::transact`]), which frees an aborted attempt's
//! allocations (see [`TxCtx`]).

use oftm_core::api::{transact, TxCtx, TxOpts, WordStm};
use oftm_core::{BudgetExceeded, TxResult};

/// Runs `body` in a retry-until-commit transaction, panicking if
/// `u32::MAX` attempts abort. Kept as the collections' own unbounded
/// entry point (their `insert`/`remove`/… wrap it) and for the benchmark
/// client, which imports it.
pub fn atomically<R>(
    stm: &dyn WordStm,
    proc: u32,
    body: impl FnMut(&mut TxCtx<'_>) -> TxResult<R>,
) -> R {
    transact(stm, proc, TxOpts::default(), body)
        .unwrap_or_else(|e| panic!("atomically: {e}"))
        .0
}

/// Read-only [`atomically`] for the collections' queries: attempts run on
/// [`WordStm::begin_ro`] (see [`TxOpts::ro`]).
pub(crate) fn atomically_ro<R>(
    stm: &dyn WordStm,
    proc: u32,
    body: impl FnMut(&mut TxCtx<'_>) -> TxResult<R>,
) -> R {
    let opts = TxOpts {
        ro: true,
        ..TxOpts::default()
    };
    transact(stm, proc, opts, body)
        .unwrap_or_else(|e| panic!("atomically_ro: {e}"))
        .0
}

/// [`transact`] with a budget of `max_attempts`. Kept because the
/// benchmark client imports it.
pub fn atomically_budgeted<R>(
    stm: &dyn WordStm,
    proc: u32,
    max_attempts: u32,
    body: impl FnMut(&mut TxCtx<'_>) -> TxResult<R>,
) -> Result<(R, u32), BudgetExceeded> {
    transact(
        stm,
        proc,
        TxOpts {
            ro: false,
            budget: max_attempts,
        },
        body,
    )
}

/// Read-only [`atomically_budgeted`]. Kept because the benchmark client
/// imports it.
pub fn atomically_ro_budgeted<R>(
    stm: &dyn WordStm,
    proc: u32,
    max_attempts: u32,
    body: impl FnMut(&mut TxCtx<'_>) -> TxResult<R>,
) -> Result<(R, u32), BudgetExceeded> {
    transact(
        stm,
        proc,
        TxOpts {
            ro: true,
            budget: max_attempts,
        },
        body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftm_core::dstm::{Dstm, DstmWord};
    use oftm_core::TxError;

    #[test]
    fn aborted_attempt_releases_its_allocations() {
        let stm = DstmWord::new(Dstm::default());
        let anchor = stm.alloc_tvar(0);
        assert_eq!(stm.live_tvars(), 1);
        let mut first = true;
        let (got, attempts) = atomically_budgeted(&stm, 0, 8, |ctx| {
            let node = ctx.alloc_block(&[1, 2]);
            if std::mem::take(&mut first) {
                return Err(TxError::Aborted); // simulate a conflict abort
            }
            ctx.write(anchor, node.0)?;
            Ok(node)
        })
        .unwrap();
        assert_eq!(attempts, 2);
        // The aborted attempt's block was freed; the committed one lives.
        assert_eq!(stm.live_tvars(), 3);
        assert_eq!(stm.peek(got), Some(1));
    }

    #[test]
    fn budget_exhaustion_releases_every_attempt() {
        let stm = DstmWord::new(Dstm::default());
        let err = atomically_budgeted::<()>(&stm, 0, 3, |ctx| {
            let _ = ctx.alloc_block(&[7, 7, 7]);
            Err(TxError::Aborted)
        })
        .unwrap_err();
        assert_eq!(err.attempts, 3);
        assert_eq!(stm.live_tvars(), 0, "every attempt's block released");
    }
}
