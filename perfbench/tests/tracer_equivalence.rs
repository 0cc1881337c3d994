//! Tracing must not change what a backend is asked to do. At one client
//! thread and a fixed seed, a traced and an untraced run of the same ops
//! leave identical `StmStats` deltas on every backend. A decorator that
//! missed a defaulted method would show here: without its `begin_ro`
//! override, for example, read-only transactions would run as general
//! ones and `begins_ro` would read 0 on the traced side.

use async_executor::Executor;
use oftm_obs::Counter;
use oftm_perfbench::trace::Kind;
use oftm_perfbench::workloads::{Budget, Instance, Workload, BACKENDS};

const COUNTERS: [Counter; 7] = [
    Counter::Begins,
    Counter::BeginsRo,
    Counter::Commits,
    Counter::CommitsRo,
    Counter::CommitsPromoted,
    Counter::TvarsAllocated,
    Counter::TvarsFreed,
];

/// Ops per client: `intset-lookup` has one client, `bank-async` 32.
fn budget(w: Workload) -> Budget {
    match w {
        Workload::IntsetLookup => Budget::Ops(4000),
        Workload::BankAsync => Budget::Ops(64),
    }
}

fn run(w: Workload, backend: &'static str, traced: bool, exec: &Executor) -> Vec<u64> {
    let mut inst = Instance::build(w, backend, 42);
    let base = inst.stm.stats().snapshot();
    let out = inst.run_slice(budget(w), traced, exec);
    let delta = inst.stm.stats().snapshot().since(&base);
    assert_eq!(out.failed, 0, "{backend}: {:?}", out.errors);
    inst.check_final().unwrap();
    if traced {
        assert_eq!(out.layers.ops, out.ops, "{backend}: every op folded");
        assert_eq!(
            out.layers.attempts, out.ops,
            "{backend}: no conflicts, one attempt per op"
        );
        let begins = out.layers.call(Kind::Begin).n + out.layers.call(Kind::BeginRo).n;
        assert_eq!(begins, out.ops, "{backend}: one begin span per attempt");
    }
    COUNTERS.iter().map(|&c| delta.get(c)).collect()
}

#[test]
fn traced_and_untraced_runs_leave_identical_stats() {
    let exec = Executor::new(1);
    for w in Workload::ALL {
        for backend in BACKENDS {
            let plain = run(w, backend, false, &exec);
            let traced = run(w, backend, true, &exec);
            assert_eq!(plain, traced, "{} on {backend}: {COUNTERS:?}", w.name());
            assert!(
                plain[0] > 0 && plain[1] > 0,
                "{} on {backend}: both transaction kinds ran",
                w.name()
            );
        }
    }
}
