//! The traced run's instrumentation: a decorator around a backend that
//! times every call into the backend's public functions, plus op spans
//! opened by the benchmark's clients.
//!
//! Spans nest strictly, op → attempt → call (`begin`, `begin_ro`, `read`,
//! `write`, `commit`, `alloc`), so no span is stored. The op open on a
//! thread keeps running sums, and closing a span charges its time at
//! once:
//!
//! * a call adds its duration to its kind's [`CallAcc`] and to the call
//!   time of the open attempt;
//! * closing an attempt adds its duration less that call time to
//!   `self_ticks` (the collection code);
//! * closing an op adds its duration less its attempts' to `wait_ticks`.
//!
//! An attempt span opens in [`Traced::begin`]/[`Traced::begin_ro`] and
//! closes on `try_commit`, on `try_abort`, or when the transaction is
//! dropped — the retry loops drop, rather than abort, a transaction whose
//! body returned `Err`. Calls made while no op is open (set-up, the
//! end-of-build oracles) are forwarded untimed.
//!
//! The decorator overrides every method of [`WordStm`] and [`WordTx`],
//! defaulted ones included, so the backend's own overrides (its
//! `begin_ro` above all) still run; the tracer-equivalence test checks
//! this through the backends' commit and allocation counters.
//!
//! The tracer's own work (clock reads, the sums, boxing the wrapped
//! transaction) falls inside the spans it measures. [`Overhead`] measures
//! that work on a backend that does nothing, and
//! [`LayerAcc::without`] takes it out again, so that the layer figures
//! are the program's.

use oftm_core::api::{TxResult, WordStm, WordTx};
use oftm_core::notify::CommitNotifier;
use oftm_histories::{TVarId, TxId, Value};
use oftm_obs::{Forensics, StmStats};
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, OnceLock};
use std::task::{Context, Poll};
use std::time::Instant;

/// A backend call the decorator times, in [`LayerAcc::calls`] order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Begin,
    BeginRo,
    Read,
    Write,
    Commit,
    Alloc,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::Begin,
        Kind::BeginRo,
        Kind::Read,
        Kind::Write,
        Kind::Commit,
        Kind::Alloc,
    ];

    /// The name in `stm.<name>_ns`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Begin => "begin",
            Kind::BeginRo => "begin_ro",
            Kind::Read => "read",
            Kind::Write => "write",
            Kind::Commit => "commit",
            Kind::Alloc => "alloc",
        }
    }
}

/// Calls of one kind: how many, and their total time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallAcc {
    pub n: u64,
    pub ticks: u64,
}

/// Per-layer totals of finished ops; times are in trace clock ticks (see
/// [`ns_per_tick`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerAcc {
    pub ops: u64,
    pub attempts: u64,
    /// Op time not covered by attempts: backoff and waits (sync), poll
    /// overhead and parks (async).
    pub wait_ticks: u64,
    /// Attempt time not covered by backend calls: the collection code.
    pub self_ticks: u64,
    pub calls: [CallAcc; Kind::ALL.len()],
}

impl LayerAcc {
    pub fn merge(&mut self, o: &LayerAcc) {
        self.ops += o.ops;
        self.attempts += o.attempts;
        self.wait_ticks += o.wait_ticks;
        self.self_ticks += o.self_ticks;
        for (a, b) in self.calls.iter_mut().zip(&o.calls) {
            a.n += b.n;
            a.ticks += b.ticks;
        }
    }

    pub fn call(&self, k: Kind) -> CallAcc {
        self.calls[k as usize]
    }

    fn call_totals(&self) -> (u64, u64) {
        self.calls
            .iter()
            .fold((0, 0), |(n, t), c| (n + c.n, t + c.ticks))
    }

    /// These totals less the tracer's own cost `o`, each clamped at zero.
    pub fn without(&self, o: &Overhead) -> LayerAcc {
        let less = |ticks: u64, n: u64, per: f64| ticks.saturating_sub((n as f64 * per) as u64);
        let (calls, _) = self.call_totals();
        let mut a = *self;
        a.wait_ticks = less(self.wait_ticks, self.ops, o.op);
        a.self_ticks = less(
            less(self.self_ticks, self.attempts, o.attempt),
            calls,
            o.call_outside,
        );
        for c in &mut a.calls {
            c.ticks = less(c.ticks, c.n, o.call);
        }
        a
    }
}

/// The trace clock's origin: an `Instant` and the tick count read with it.
fn origin() -> &'static (Instant, u64) {
    static ORIGIN: OnceLock<(Instant, u64)> = OnceLock::new();
    ORIGIN.get_or_init(|| (Instant::now(), raw_ticks()))
}

/// The time-stamp counter: about 8 ns a read on a 2-vCPU EPYC host,
/// against 21 ns for `Instant::now`, and a traced op reads it twice per
/// backend call.
#[cfg(target_arch = "x86_64")]
fn raw_ticks() -> u64 {
    // SAFETY: `rdtsc` has no memory effects and is available on every
    // x86-64 processor.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn raw_ticks() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Span timestamps, in trace clock ticks; see [`ns_per_tick`].
fn now_ticks() -> u64 {
    origin();
    raw_ticks()
}

/// Nanoseconds per trace clock tick, measured from the first timestamp
/// taken to now: call it at the end of a run.
pub fn ns_per_tick() -> f64 {
    let (t0, k0) = *origin();
    let ticks = raw_ticks().saturating_sub(k0);
    if ticks == 0 {
        return 1.0;
    }
    t0.elapsed().as_nanos() as f64 / ticks as f64
}

/// The running sums of the op open on a thread.
#[derive(Clone, Copy, Debug, Default)]
struct OpState {
    /// 0 when no op is open.
    id: u64,
    start: u64,
    /// Ticks in this op's closed attempts.
    in_attempts: u64,
    /// Ticks in calls since the open attempt began.
    in_calls: u64,
    acc: LayerAcc,
}

impl OpState {
    fn call(&mut self, kind: Kind, ticks: u64) {
        self.in_calls += ticks;
        let c = &mut self.acc.calls[kind as usize];
        c.n += 1;
        c.ticks += ticks;
    }

    fn open_attempt(&mut self) {
        self.in_calls = 0;
    }

    fn close_attempt(&mut self, ticks: u64) {
        self.acc.attempts += 1;
        self.in_attempts += ticks;
        self.acc.self_ticks += ticks.saturating_sub(self.in_calls);
        self.in_calls = 0;
    }

    /// Closes the op at `end` and adds it to `acc`.
    fn finish(&self, end: u64, acc: &mut LayerAcc) {
        let mut a = self.acc;
        a.ops = 1;
        a.wait_ticks = end
            .saturating_sub(self.start)
            .saturating_sub(self.in_attempts);
        acc.merge(&a);
    }
}

thread_local! {
    static OP: RefCell<OpState> = RefCell::new(OpState::default());
    static LAST_ID: Cell<u64> = const { Cell::new(0) };
}

/// An op opened by [`op_start`]; pass it to [`op_end`].
#[derive(Debug)]
pub struct OpToken {
    id: u64,
}

/// Opens an op on this thread: calls made until [`op_end`] (or, for an
/// async op, inside its [`OpScope`]'s polls) count towards it.
pub fn op_start() -> OpToken {
    let id = LAST_ID.with(|n| {
        n.set(n.get() + 1);
        n.get()
    });
    let start = now_ticks();
    OP.with(|s| {
        *s.borrow_mut() = OpState {
            id,
            start,
            ..OpState::default()
        }
    });
    OpToken { id }
}

/// Closes `op`, which must be the op open on this thread, and adds it to
/// `acc`.
pub fn op_end(op: OpToken, acc: &mut LayerAcc) {
    let end = now_ticks();
    let st = OP.with(|s| std::mem::take(&mut *s.borrow_mut()));
    assert_eq!(st.id, op.id, "op_end: op {} is not open here", op.id);
    st.finish(end, acc);
}

/// Runs `f` as a call of kind `kind` of the open op, if there is one.
fn timed<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    if OP.with(|s| s.borrow().id == 0) {
        return f();
    }
    let start = now_ticks();
    let r = f();
    let ticks = now_ticks().saturating_sub(start);
    OP.with(|s| s.borrow_mut().call(kind, ticks));
    r
}

/// An open attempt: the op it belongs to (0 if begun outside any op; it
/// is then not timed) and when it began.
#[derive(Clone, Copy)]
struct Attempt {
    op: u64,
    start: u64,
}

fn open_attempt() -> Attempt {
    OP.with(|s| {
        let mut s = s.borrow_mut();
        if s.id == 0 {
            return Attempt { op: 0, start: 0 };
        }
        s.open_attempt();
        Attempt {
            op: s.id,
            start: now_ticks(),
        }
    })
}

fn close_attempt(a: Attempt) {
    if a.op == 0 {
        return;
    }
    let ticks = now_ticks().saturating_sub(a.start);
    OP.with(|s| {
        let mut s = s.borrow_mut();
        if s.id == a.op {
            s.close_attempt(ticks);
        }
    });
}

/// A future that carries its op between polls, so that async ops
/// interleaved on one executor thread keep their sums apart. While it is
/// polled its op is the open op of the thread; once it is ready the op
/// stays open there for [`op_end`], which must follow before the next
/// await.
pub struct OpScope<F> {
    st: OpState,
    fut: F,
}

impl<F> OpScope<F> {
    /// Takes `op`, the op open on this thread, along with `fut`.
    pub fn new(op: &OpToken, fut: F) -> Self {
        let st = OP.with(|s| std::mem::take(&mut *s.borrow_mut()));
        assert_eq!(st.id, op.id, "OpScope: op {} is not open here", op.id);
        OpScope { st, fut }
    }
}

impl<F: Future + Unpin> Future for OpScope<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let st = std::mem::take(&mut self.st);
        OP.with(|s| *s.borrow_mut() = st);
        let out = Pin::new(&mut self.fut).poll(cx);
        if out.is_pending() {
            self.st = OP.with(|s| std::mem::take(&mut *s.borrow_mut()));
        }
        out
    }
}

/// The tracing decorator: a [`WordStm`] that forwards every call to the
/// backend it wraps and times the calls made inside an open op.
pub struct Traced {
    inner: Arc<dyn WordStm>,
}

impl Traced {
    pub fn new(inner: Arc<dyn WordStm>) -> Self {
        Traced { inner }
    }

    fn wrap<'a>(
        &'a self,
        kind: Kind,
        begin: impl FnOnce() -> Box<dyn WordTx + 'a>,
    ) -> Box<dyn WordTx + 'a> {
        let attempt = open_attempt();
        let tx = timed(kind, begin);
        Box::new(TracedTx {
            inner: Some(tx),
            attempt,
        })
    }
}

impl WordStm for Traced {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn register_tvar(&self, x: TVarId, initial: Value) {
        self.inner.register_tvar(x, initial)
    }

    fn alloc_tvar(&self, initial: Value) -> TVarId {
        timed(Kind::Alloc, || self.inner.alloc_tvar(initial))
    }

    fn alloc_tvar_block(&self, initials: &[Value]) -> TVarId {
        timed(Kind::Alloc, || self.inner.alloc_tvar_block(initials))
    }

    fn free_tvar_block(&self, base: TVarId, len: usize) {
        self.inner.free_tvar_block(base, len)
    }

    fn live_tvars(&self) -> usize {
        self.inner.live_tvars()
    }

    fn begin(&self, proc: u32) -> Box<dyn WordTx + '_> {
        self.wrap(Kind::Begin, || self.inner.begin(proc))
    }

    fn begin_ro(&self, proc: u32) -> Box<dyn WordTx + '_> {
        self.wrap(Kind::BeginRo, || self.inner.begin_ro(proc))
    }

    fn notifier(&self) -> &CommitNotifier {
        self.inner.notifier()
    }

    fn stats(&self) -> &StmStats {
        self.inner.stats()
    }

    fn forensics(&self) -> &Forensics {
        self.inner.forensics()
    }

    fn is_obstruction_free(&self) -> bool {
        self.inner.is_obstruction_free()
    }
}

struct TracedTx<'a> {
    /// `None` once `try_commit`/`try_abort` consumed the backend's handle.
    inner: Option<Box<dyn WordTx + 'a>>,
    attempt: Attempt,
}

impl<'a> TracedTx<'a> {
    fn tx(&self) -> &(dyn WordTx + 'a) {
        self.inner.as_deref().expect("transaction already finished")
    }

    fn tx_mut(&mut self) -> &mut (dyn WordTx + 'a) {
        self.inner
            .as_deref_mut()
            .expect("transaction already finished")
    }

    /// Closes the attempt span once.
    fn close(&mut self) {
        close_attempt(self.attempt);
        self.attempt.op = 0;
    }
}

impl WordTx for TracedTx<'_> {
    fn id(&self) -> TxId {
        self.tx().id()
    }

    fn read(&mut self, x: TVarId) -> TxResult<Value> {
        let tx = self.tx_mut();
        timed(Kind::Read, || tx.read(x))
    }

    fn write(&mut self, x: TVarId, v: Value) -> TxResult<()> {
        let tx = self.tx_mut();
        timed(Kind::Write, || tx.write(x, v))
    }

    fn try_commit(mut self: Box<Self>) -> TxResult<()> {
        let tx = self.inner.take().expect("transaction already finished");
        let r = timed(Kind::Commit, || tx.try_commit());
        self.close();
        r
    }

    fn try_abort(mut self: Box<Self>) {
        let tx = self.inner.take().expect("transaction already finished");
        tx.try_abort();
        self.close();
    }

    fn retire_tvar_block(&mut self, base: TVarId, len: usize) {
        self.tx_mut().retire_tvar_block(base, len)
    }

    fn retire_tvar(&mut self, x: TVarId) {
        self.tx_mut().retire_tvar(x)
    }

    fn footprint(&self, out: &mut Vec<TVarId>) {
        self.tx().footprint(out)
    }
}

impl Drop for TracedTx<'_> {
    fn drop(&mut self) {
        // The backend settles a dropped transaction in its own drop; that
        // belongs to the attempt, so it happens before the span closes.
        drop(self.inner.take());
        self.close();
    }
}

/// The tracer's own cost, in ticks, as it falls in the spans it measures.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Overhead {
    /// Per call, inside the call's span.
    pub call: f64,
    /// Per call, inside the attempt but outside the call's span.
    pub call_outside: f64,
    /// Per attempt, outside its calls: opening and closing it, and boxing
    /// the wrapped transaction.
    pub attempt: f64,
    /// Per op, outside its attempts.
    pub op: f64,
}

impl Overhead {
    /// Reads the overhead off two runs of ops on a backend that does
    /// nothing: one attempt each, of `2 + reads` calls (begin, the reads,
    /// commit) in `long` and of 2 in `short`. Whatever those spans hold is
    /// the tracer's; an attempt's self time grows by `call_outside` per
    /// read.
    pub fn from_runs(short: &LayerAcc, long: &LayerAcc, reads: u64) -> Overhead {
        let self_per_attempt = |a: &LayerAcc| a.self_ticks as f64 / a.attempts as f64;
        let call_outside =
            ((self_per_attempt(long) - self_per_attempt(short)) / reads as f64).max(0.0);
        let (n_short, t_short) = short.call_totals();
        let (n_long, t_long) = long.call_totals();
        Overhead {
            call: (t_short + t_long) as f64 / (n_short + n_long) as f64,
            call_outside,
            attempt: (self_per_attempt(short) - 2.0 * call_outside).max(0.0),
            op: (short.wait_ticks + long.wait_ticks) as f64 / (short.ops + long.ops) as f64,
        }
    }

    /// Measures the overhead on this thread: the median of repeated
    /// [`Overhead::from_runs`] over a backend that does nothing.
    pub fn calibrate() -> Overhead {
        const REPS: usize = 31;
        const OPS: usize = 256;
        const READS: u64 = 32;
        let stm = Traced::new(Arc::new(NullStm::default()));
        let runs: Vec<Overhead> = (0..REPS)
            .map(|_| {
                let short = null_ops(&stm, 0, OPS);
                let long = null_ops(&stm, READS, OPS);
                Overhead::from_runs(&short, &long, READS)
            })
            .collect();
        let med = |f: fn(&Overhead) -> f64| {
            crate::metrics::median(&runs.iter().map(f).collect::<Vec<_>>())
        };
        Overhead {
            call: med(|o| o.call),
            call_outside: med(|o| o.call_outside),
            attempt: med(|o| o.attempt),
            op: med(|o| o.op),
        }
    }
}

/// `ops` traced ops of one transaction of `reads` reads each.
fn null_ops(stm: &Traced, reads: u64, ops: usize) -> LayerAcc {
    let mut acc = LayerAcc::default();
    for _ in 0..ops {
        let op = op_start();
        let mut tx = stm.begin(0);
        for x in 0..reads {
            let _ = std::hint::black_box(tx.read(TVarId(x)));
        }
        let _ = std::hint::black_box(tx.try_commit());
        op_end(op, &mut acc);
    }
    acc
}

/// A backend that does nothing, for [`Overhead::calibrate`].
#[derive(Default)]
struct NullStm {
    notifier: CommitNotifier,
    stats: StmStats,
}

impl WordStm for NullStm {
    fn name(&self) -> &'static str {
        "null"
    }

    fn register_tvar(&self, _: TVarId, _: Value) {}

    fn alloc_tvar_block(&self, _: &[Value]) -> TVarId {
        TVarId(0)
    }

    fn free_tvar_block(&self, _: TVarId, _: usize) {}

    fn live_tvars(&self) -> usize {
        0
    }

    fn begin(&self, _: u32) -> Box<dyn WordTx + '_> {
        Box::new(NullTx)
    }

    fn notifier(&self) -> &CommitNotifier {
        &self.notifier
    }

    fn stats(&self) -> &StmStats {
        &self.stats
    }

    fn is_obstruction_free(&self) -> bool {
        true
    }
}

struct NullTx;

impl WordTx for NullTx {
    fn id(&self) -> TxId {
        TxId::new(0, 0)
    }

    fn read(&mut self, _: TVarId) -> TxResult<Value> {
        Ok(0)
    }

    fn write(&mut self, _: TVarId, _: Value) -> TxResult<()> {
        Ok(())
    }

    fn try_commit(self: Box<Self>) -> TxResult<()> {
        Ok(())
    }

    fn try_abort(self: Box<Self>) {}

    fn retire_tvar_block(&mut self, _: TVarId, _: usize) {}

    fn footprint(&self, _: &mut Vec<TVarId>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_under_nested_spans() {
        // op [0,100) ⊃ attempt [10,60) ⊃ reads of 10 ticks each;
        // a second attempt [70,90) makes no calls.
        let mut st = OpState {
            id: 1,
            ..OpState::default()
        };
        st.open_attempt();
        st.call(Kind::Read, 10);
        st.call(Kind::Read, 10);
        st.close_attempt(50);
        st.open_attempt();
        st.close_attempt(20);
        let mut acc = LayerAcc::default();
        st.finish(100, &mut acc);
        assert_eq!((acc.ops, acc.attempts), (1, 2));
        assert_eq!(acc.wait_ticks, 100 - 50 - 20, "calls not subtracted twice");
        assert_eq!(acc.self_ticks, (50 - 20) + 20);
        assert_eq!(acc.call(Kind::Read), CallAcc { n: 2, ticks: 20 });
    }

    #[test]
    fn overhead_is_solved_from_two_lengths_and_taken_out() {
        // 10 ops of one attempt each. Per call: 3 ticks inside its span, 2
        // outside; per attempt 7 more, per op 5.
        let synth = |reads: u64| {
            let calls = 2 + reads;
            let mut a = LayerAcc {
                ops: 10,
                attempts: 10,
                wait_ticks: 10 * 5,
                self_ticks: 10 * (7 + 2 * calls),
                ..LayerAcc::default()
            };
            a.calls[Kind::Begin as usize] = CallAcc { n: 10, ticks: 30 };
            a.calls[Kind::Read as usize] = CallAcc {
                n: 10 * reads,
                ticks: 30 * reads,
            };
            a.calls[Kind::Commit as usize] = CallAcc { n: 10, ticks: 30 };
            a
        };
        let o = Overhead::from_runs(&synth(0), &synth(8), 8);
        assert_eq!(
            o,
            Overhead {
                call: 3.0,
                call_outside: 2.0,
                attempt: 7.0,
                op: 5.0
            }
        );
        let net = synth(8).without(&o);
        assert_eq!((net.wait_ticks, net.self_ticks), (0, 0));
        assert!(net.calls.iter().all(|c| c.ticks == 0));
        assert_eq!(net.call(Kind::Read).n, 80, "counts are kept");
        // More overhead than time clamps at zero.
        let big = Overhead { call: 100.0, ..o };
        assert_eq!(synth(0).without(&big).call(Kind::Begin).ticks, 0);
    }

    #[test]
    fn calibration_reads_a_positive_finite_cost() {
        let o = Overhead::calibrate();
        for v in [o.call, o.call_outside, o.attempt, o.op] {
            assert!(v.is_finite() && v >= 0.0, "{o:?}");
        }
        assert!(o.call > 0.0, "two clock reads take time: {o:?}");
        OP.with(|s| assert_eq!(s.borrow().id, 0, "no op left open"));
    }

    #[test]
    fn decorator_times_a_retried_op() {
        use oftm_core::dstm::{Dstm, DstmWord};
        use oftm_core::TxError;
        let stm = Traced::new(Arc::new(DstmWord::new(Dstm::default())));
        stm.register_tvar(TVarId(0), 5);
        let mut acc = LayerAcc::default();
        let op = op_start();
        let mut first = true;
        let (v, attempts) = oftm_structs::atomically_budgeted(&stm, 0, 4, |ctx| {
            let v = ctx.read(TVarId(0))?;
            if std::mem::take(&mut first) {
                return Err(TxError::Aborted); // dropped, not aborted
            }
            ctx.alloc(1);
            ctx.write(TVarId(0), v + 1)?;
            Ok(v)
        })
        .unwrap();
        op_end(op, &mut acc);
        assert_eq!((v, attempts), (5, 2));
        assert_eq!(acc.ops, 1);
        assert_eq!(acc.attempts, 2, "the dropped attempt closed its span");
        assert_eq!(acc.call(Kind::Begin).n, 2);
        assert_eq!(acc.call(Kind::Read).n, 2);
        assert_eq!(acc.call(Kind::Alloc).n, 1);
        assert_eq!(acc.call(Kind::Write).n, 1);
        assert_eq!(acc.call(Kind::Commit).n, 1);

        // Outside an op nothing is recorded.
        let _ = oftm_structs::atomically(&stm, 0, |ctx| ctx.read(TVarId(0)));
        OP.with(|s| {
            let s = s.borrow();
            assert_eq!((s.id, s.acc), (0, LayerAcc::default()));
        });
    }
}
