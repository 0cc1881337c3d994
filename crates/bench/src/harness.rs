//! Deterministic cross-STM differential stress harness.
//!
//! Drives every registered STM implementation ([`crate::STM_NAMES`])
//! through *identical, seed-derived* concurrent workloads over the uniform
//! [`WordStm`] interface, records each run with a [`Recorder`], and then
//! checks three independent oracles:
//!
//! 1. **History safety** — every recorded history must be well-formed and
//!    conflict-serializable; small histories are additionally put through
//!    the exact (exponential) serializability and final-state-opacity
//!    checkers from `oftm-histories`.
//! 2. **Algebraic invariants** — scenario-specific facts that hold under
//!    *any* correct interleaving: conserved bank totals, exact commutative
//!    counter sums, per-thread disjoint counters.
//! 3. **Cross-STM sequential agreement** — the same transaction programs
//!    replayed single-threaded must leave *byte-identical* final states on
//!    all implementations (sequential execution is deterministic, so any
//!    divergence is an implementation bug, not a scheduling artifact).
//!
//! Every failure carries the scenario's seed; re-running with that seed
//! (e.g. `HARNESS_SEED=0x1234 cargo test -p oftm-bench`) regenerates the
//! exact same workload.

use crate::{make_stm, SplitMix, STM_NAMES};
use oftm_core::api::{run_transaction, transact, TxOpts, WordStm};
use oftm_core::record::Recorder;
use oftm_histories::{
    conflict_serializable, final_state_opaque, serializable, well_formed, OpacityCheck, SerCheck,
    TVarId, Value,
};
use std::fmt;
use std::sync::Arc;

/// Transaction-count ceiling for the exact (exponential) checkers; larger
/// histories fall back to conflict-serializability only.
const EXACT_CHECK_CAP: usize = 10;

/// Retry budget per workload transaction: orders of magnitude beyond any
/// legitimate abort streak, so hitting it means the STM livelocked —
/// reported as a seeded harness failure instead of a silent hang. Kept
/// small enough that exhausting it (with the retry loop's ≤256 µs
/// randomized backoff per attempt) reports within seconds, not minutes.
pub const ATTEMPT_BUDGET: u32 = 50_000;

/// [`ATTEMPT_BUDGET`] as read-write driver options.
pub const ATTEMPT_OPTS: TxOpts = TxOpts {
    ro: false,
    budget: ATTEMPT_BUDGET,
};

/// The five seeded workload shapes the differential suite exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Mostly read-only snapshot transactions, occasional increments.
    ReadHeavy,
    /// Every transaction is a read-modify-write increment of a random var.
    WriteHeavy,
    /// All writes target one variable; other vars are only read.
    Hotspot,
    /// Thread `t` touches only variable `t`: zero data conflicts.
    Disjoint,
    /// Conditional transfers between random account pairs; the total is
    /// conserved by construction.
    BankTransfer,
}

/// All scenario kinds, in suite order.
pub const ALL_SCENARIOS: &[ScenarioKind] = &[
    ScenarioKind::ReadHeavy,
    ScenarioKind::WriteHeavy,
    ScenarioKind::Hotspot,
    ScenarioKind::Disjoint,
    ScenarioKind::BankTransfer,
];

impl ScenarioKind {
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::ReadHeavy => "read-heavy",
            ScenarioKind::WriteHeavy => "write-heavy",
            ScenarioKind::Hotspot => "hotspot",
            ScenarioKind::Disjoint => "disjoint",
            ScenarioKind::BankTransfer => "bank-transfer",
        }
    }

    /// Initial value of every t-variable in this scenario.
    fn initial(&self) -> Value {
        match self {
            ScenarioKind::BankTransfer => 100,
            _ => 0,
        }
    }
}

/// A fully specified, reproducible workload: the tuple
/// `(kind, threads, vars, ops_per_thread, seed)` determines every
/// transaction program exactly.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    pub kind: ScenarioKind,
    pub threads: usize,
    pub vars: usize,
    pub ops_per_thread: u64,
    pub seed: u64,
}

impl Scenario {
    pub fn new(kind: ScenarioKind, threads: usize, seed: u64) -> Self {
        let vars = match kind {
            ScenarioKind::Disjoint => threads,
            ScenarioKind::Hotspot => 4,
            _ => 8,
        };
        Scenario {
            kind,
            threads,
            vars,
            ops_per_thread: 16,
            seed,
        }
    }

    /// One-line reproduction recipe, printed on every failure.
    pub fn repro(&self) -> String {
        format!(
            "reproduce: HARNESS_SEED={:#018x} cargo test -p oftm-bench -- --nocapture  \
             (scenario={} threads={} vars={} ops={})",
            self.seed,
            self.kind.name(),
            self.threads,
            self.vars,
            self.ops_per_thread
        )
    }
}

/// One transaction's intent, generated deterministically from the seed and
/// interpreted identically against every STM.
#[derive(Clone, Debug)]
pub enum TxProgram {
    /// Read the listed vars (a consistent snapshot is required; values are
    /// returned so the sequential replay can compare them).
    ReadOnly(Vec<TVarId>),
    /// `x += amount` (commutative: the final value of `x` is independent
    /// of interleaving).
    Increment(TVarId, Value),
    /// Move `amount` from `from` to `to` iff the balance suffices.
    Transfer {
        from: TVarId,
        to: TVarId,
        amount: Value,
    },
}

fn mix(seed: u64, salt: u64) -> u64 {
    let mut s = SplitMix(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    s.next()
}

/// Generates the per-thread transaction programs for a scenario. Pure in
/// `sc`: the concurrent run and the sequential replay share these exact
/// programs.
pub fn generate_programs(sc: &Scenario) -> Vec<Vec<TxProgram>> {
    (0..sc.threads)
        .map(|t| {
            let mut rng = SplitMix(mix(sc.seed, t as u64 + 1));
            (0..sc.ops_per_thread)
                .map(|_| generate_one(sc, t, &mut rng))
                .collect()
        })
        .collect()
}

fn generate_one(sc: &Scenario, thread: usize, rng: &mut SplitMix) -> TxProgram {
    let var = |i: usize| TVarId(i as u64);
    match sc.kind {
        ScenarioKind::ReadHeavy => {
            // 3 in 4 transactions are pure snapshot reads.
            if rng.next() % 4 != 0 {
                let k = 2 + rng.below(sc.vars.min(4));
                TxProgram::ReadOnly((0..k).map(|_| var(rng.below(sc.vars))).collect())
            } else {
                TxProgram::Increment(var(rng.below(sc.vars)), 1 + rng.next() % 3)
            }
        }
        ScenarioKind::WriteHeavy => {
            TxProgram::Increment(var(rng.below(sc.vars)), 1 + rng.next() % 5)
        }
        ScenarioKind::Hotspot => {
            if rng.next() % 3 == 0 && sc.vars > 1 {
                TxProgram::ReadOnly(vec![var(0), var(1 + rng.below(sc.vars - 1))])
            } else {
                TxProgram::Increment(var(0), 1)
            }
        }
        ScenarioKind::Disjoint => TxProgram::Increment(var(thread), 1),
        ScenarioKind::BankTransfer => {
            let from = rng.below(sc.vars);
            let mut to = rng.below(sc.vars);
            if to == from {
                to = (to + 1) % sc.vars;
            }
            TxProgram::Transfer {
                from: var(from),
                to: var(to),
                amount: 1 + rng.next() % 7,
            }
        }
    }
}

/// Interprets one program inside a budgeted retry-until-commit
/// transaction; returns the read observations and the attempt count, or
/// `None` when the retry budget ran out (livelock).
fn run_program(stm: &dyn WordStm, proc: u32, prog: &TxProgram) -> Option<(Vec<Value>, u32)> {
    run_program_inner(stm, proc, prog, false)
}

/// `preempt` inserts a scheduler yield between a program's first read and
/// its writes. Semantically a no-op (the program's effect is identical),
/// but on few-core hosts it turns the read–write window into a real
/// preemption point, so update transactions actually overlap and conflict
/// — the deterministic contention source for migration-forcing cells.
fn run_program_inner(
    stm: &dyn WordStm,
    proc: u32,
    prog: &TxProgram,
    preempt: bool,
) -> Option<(Vec<Value>, u32)> {
    transact(stm, proc, ATTEMPT_OPTS, |tx| match prog {
        TxProgram::ReadOnly(vars) => {
            let mut seen = Vec::with_capacity(vars.len());
            for &x in vars {
                seen.push(tx.read(x)?);
            }
            Ok(seen)
        }
        TxProgram::Increment(x, amount) => {
            let v = tx.read(*x)?;
            if preempt {
                std::thread::yield_now();
            }
            tx.write(*x, v + amount)?;
            Ok(vec![])
        }
        TxProgram::Transfer { from, to, amount } => {
            let f = tx.read(*from)?;
            if preempt {
                std::thread::yield_now();
            }
            if f >= *amount {
                let t = tx.read(*to)?;
                tx.write(*from, f - amount)?;
                tx.write(*to, t + amount)?;
            }
            Ok(vec![])
        }
    })
    .ok()
}

/// Reads the final value of every variable in one committed transaction.
fn final_state(stm: &dyn WordStm, vars: usize) -> Vec<Value> {
    let (state, _) = run_transaction(stm, u32::MAX - 1, |tx| {
        (0..vars).map(|i| tx.read(TVarId(i as u64))).collect()
    });
    state
}

/// What the invariant oracle expects of a concurrent run's final state.
enum Expectation {
    /// Every variable's final value is fully determined (commutative
    /// increments or disjoint access).
    Exact(Vec<Value>),
    /// Only the total is determined (conditional transfers).
    ConservedSum(Value),
}

fn expectation(sc: &Scenario, programs: &[Vec<TxProgram>]) -> Expectation {
    match sc.kind {
        ScenarioKind::BankTransfer => {
            Expectation::ConservedSum(sc.kind.initial() * sc.vars as Value)
        }
        _ => {
            let mut finals = vec![sc.kind.initial(); sc.vars];
            for thread_progs in programs {
                for prog in thread_progs {
                    if let TxProgram::Increment(x, amount) = prog {
                        finals[x.0 as usize] += amount;
                    }
                }
            }
            Expectation::Exact(finals)
        }
    }
}

/// A single oracle violation, with everything needed to reproduce it.
#[derive(Debug)]
pub struct HarnessFailure {
    pub stm: &'static str,
    pub scenario: Scenario,
    pub detail: String,
}

impl fmt::Display for HarnessFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} / {} / {} threads] {}\n  {}",
            self.stm,
            self.scenario.kind.name(),
            self.scenario.threads,
            self.detail,
            self.scenario.repro()
        )
    }
}

/// Outcome of one STM's concurrent run (exposed for experiment binaries).
#[derive(Debug)]
pub struct StmRunOutcome {
    pub stm: &'static str,
    pub final_state: Vec<Value>,
    pub recorded_txs: usize,
    /// True when the history was small enough for the exact checkers.
    pub exact_checked: bool,
    /// Total transaction attempts across the workload (commits + aborts);
    /// `attempts / committed ops` is the retry overhead.
    pub attempts: u64,
    /// The STM's telemetry at the end of the run (migration-forcing cells
    /// assert on mode-switch counters here).
    pub stats: oftm_obs::StatsSnapshot,
}

/// Runs `sc` concurrently on the named STM and applies the history and
/// invariant oracles.
pub fn run_concurrent(
    stm_name: &'static str,
    sc: &Scenario,
    programs: &[Vec<TxProgram>],
) -> Result<StmRunOutcome, HarnessFailure> {
    run_concurrent_inner(stm_name, sc, programs, false)
}

fn run_concurrent_inner(
    stm_name: &'static str,
    sc: &Scenario,
    programs: &[Vec<TxProgram>],
    preempt: bool,
) -> Result<StmRunOutcome, HarnessFailure> {
    let fail = |detail: String| HarnessFailure {
        stm: stm_name,
        scenario: *sc,
        detail,
    };

    let recorder = Arc::new(Recorder::new());
    let stm = make_stm(stm_name, Some(Arc::clone(&recorder)));
    for i in 0..sc.vars {
        stm.register_tvar(TVarId(i as u64), sc.kind.initial());
    }

    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let attempts = AtomicU64::new(0);
    let livelocked = AtomicBool::new(false);
    std::thread::scope(|s| {
        for (t, thread_progs) in programs.iter().enumerate() {
            let stm = &stm;
            let attempts = &attempts;
            let livelocked = &livelocked;
            s.spawn(move || {
                for prog in thread_progs {
                    match run_program_inner(&**stm, t as u32, prog, preempt) {
                        Some((_, tries)) => {
                            attempts.fetch_add(u64::from(tries), Ordering::Relaxed);
                        }
                        None => {
                            livelocked.store(true, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            });
        }
    });
    if livelocked.load(Ordering::Relaxed) {
        return Err(fail(format!(
            "livelock: a transaction exhausted its {ATTEMPT_BUDGET}-attempt retry budget"
        )));
    }

    // Snapshot before the final-state read so the checked history contains
    // exactly the workload's transactions.
    let history = recorder.snapshot();
    let state = final_state(&*stm, sc.vars);

    // Oracle 1: history safety.
    if let Err(e) = well_formed(&history) {
        return Err(fail(format!("recorded history is not well-formed: {e:?}")));
    }
    if !conflict_serializable(&history) {
        return Err(fail("recorded history is not conflict-serializable".into()));
    }
    let tx_count = history.tx_views().len();
    let mut exact_checked = false;
    if tx_count <= EXACT_CHECK_CAP {
        exact_checked = true;
        if let SerCheck::NotSerializable = serializable(&history, EXACT_CHECK_CAP) {
            return Err(fail("recorded history is not exactly serializable".into()));
        }
        if let OpacityCheck::NotOpaque = final_state_opaque(&history, EXACT_CHECK_CAP) {
            return Err(fail("recorded history is not final-state opaque".into()));
        }
    }

    // Oracle 2: algebraic invariants.
    match expectation(sc, programs) {
        Expectation::Exact(expected) => {
            if state != expected {
                return Err(fail(format!(
                    "final state diverged from the commutative oracle:\n    got      {state:?}\n    expected {expected:?}"
                )));
            }
        }
        Expectation::ConservedSum(total) => {
            let got: Value = state.iter().sum();
            if got != total {
                return Err(fail(format!(
                    "conserved sum violated: got {got}, expected {total} (state {state:?})"
                )));
            }
        }
    }

    Ok(StmRunOutcome {
        stm: stm_name,
        final_state: state,
        recorded_txs: tx_count,
        exact_checked,
        attempts: attempts.load(Ordering::Relaxed),
        stats: stm.stats().snapshot(),
    })
}

/// Replays the programs of `sc` strictly sequentially (thread order, then
/// program order) on the named STM and returns the final state plus every
/// value observed by read-only transactions. Sequential execution is
/// deterministic, so these must agree across all implementations.
pub fn sequential_replay(
    stm_name: &'static str,
    sc: &Scenario,
    programs: &[Vec<TxProgram>],
) -> (Vec<Value>, Vec<Value>) {
    let stm = make_stm(stm_name, None);
    for i in 0..sc.vars {
        stm.register_tvar(TVarId(i as u64), sc.kind.initial());
    }
    let mut observed = Vec::new();
    for (t, thread_progs) in programs.iter().enumerate() {
        for prog in thread_progs {
            let (vals, _) = run_program(&*stm, t as u32, prog)
                .expect("sequential execution cannot exhaust the retry budget");
            observed.extend(vals);
        }
    }
    (final_state(&*stm, sc.vars), observed)
}

/// Report of a full differential pass over one scenario.
#[derive(Debug)]
pub struct DifferentialReport {
    pub outcomes: Vec<StmRunOutcome>,
    /// The agreed sequential final state.
    pub sequential_state: Vec<Value>,
}

/// The tentpole entry point: runs `sc` concurrently on **every
/// registered** STM,
/// applies the history + invariant oracles to each, then cross-checks
/// every implementation's sequential replay for exact agreement (final
/// state *and* every read-only observation).
pub fn run_differential(sc: &Scenario) -> Result<DifferentialReport, Vec<HarnessFailure>> {
    let programs = generate_programs(sc);
    let mut failures = Vec::new();
    let mut outcomes = Vec::new();

    for &name in STM_NAMES {
        match run_concurrent(name, sc, &programs) {
            Ok(o) => outcomes.push(o),
            Err(f) => failures.push(f),
        }
    }

    // Oracle 3: cross-STM sequential agreement against the first STM.
    let (ref_state, ref_observed) = sequential_replay(STM_NAMES[0], sc, &programs);
    for &name in &STM_NAMES[1..] {
        let (state, observed) = sequential_replay(name, sc, &programs);
        if state != ref_state {
            failures.push(HarnessFailure {
                stm: name,
                scenario: *sc,
                detail: format!(
                    "sequential replay diverged from {}:\n    got      {state:?}\n    expected {ref_state:?}",
                    STM_NAMES[0]
                ),
            });
        } else if observed != ref_observed {
            failures.push(HarnessFailure {
                stm: name,
                scenario: *sc,
                detail: format!(
                    "sequential read observations diverged from {} ({} vs {} values)",
                    STM_NAMES[0],
                    observed.len(),
                    ref_observed.len()
                ),
            });
        }
    }

    if failures.is_empty() {
        Ok(DifferentialReport {
            outcomes,
            sequential_state: ref_state,
        })
    } else {
        Err(failures)
    }
}

/// Migration-forcing differential cell: runs `sc` on the hair-trigger
/// `hybrid-eager` policy (not in [`STM_NAMES`] — it deliberately thrashes
/// on healthy workloads) with a preemption point inside every update
/// transaction, under the full oracle set, cross-checks its sequential
/// replay against `tl2`, and additionally **requires the run to have
/// migrated modes at least once** — so the differential suite provably
/// exercises the migration barrier mid-scenario, not just the TL2 fast
/// path.
pub fn run_migration_forcing(sc: &Scenario) -> Result<StmRunOutcome, Vec<HarnessFailure>> {
    let programs = generate_programs(sc);
    let outcome = run_concurrent_inner("hybrid-eager", sc, &programs, true).map_err(|f| vec![f])?;
    let mut failures = Vec::new();
    if outcome.stats.get(oftm_obs::Counter::ModeMigrations) == 0 {
        failures.push(HarnessFailure {
            stm: "hybrid-eager",
            scenario: *sc,
            detail: "migration-forcing cell completed without a single mode migration".into(),
        });
    }
    let (ref_state, ref_observed) = sequential_replay("tl2", sc, &programs);
    let (state, observed) = sequential_replay("hybrid-eager", sc, &programs);
    if state != ref_state {
        failures.push(HarnessFailure {
            stm: "hybrid-eager",
            scenario: *sc,
            detail: format!(
                "sequential replay diverged from tl2:\n    got      {state:?}\n    expected {ref_state:?}"
            ),
        });
    } else if observed != ref_observed {
        failures.push(HarnessFailure {
            stm: "hybrid-eager",
            scenario: *sc,
            detail: format!(
                "sequential read observations diverged from tl2 ({} vs {} values)",
                observed.len(),
                ref_observed.len()
            ),
        });
    }
    if failures.is_empty() {
        Ok(outcome)
    } else {
        Err(failures)
    }
}

/// Default base seed when `HARNESS_SEED` is not set: CI is reproducible
/// run-to-run.
const DEFAULT_BASE_SEED: u64 = 0x0F7A_57ED_5EED_0001;

/// The explicit replay seed: `HARNESS_SEED` (decimal or 0x-hex) if set.
pub fn replay_seed() -> Option<u64> {
    match std::env::var("HARNESS_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = if let Some(hex) = s.strip_prefix("0x") {
                u64::from_str_radix(hex, 16)
            } else {
                s.parse()
            };
            Some(parsed.unwrap_or_else(|_| panic!("unparseable HARNESS_SEED: {s:?}")))
        }
        Err(_) => None,
    }
}

/// Base seed for harness-driven tests: `HARNESS_SEED` if set, else the
/// fixed default.
pub fn base_seed() -> u64 {
    replay_seed().unwrap_or(DEFAULT_BASE_SEED)
}

/// The scenario seed for a test-suite cell: normally a distinct value
/// derived from the default base and the cell's `salt`, but when
/// `HARNESS_SEED` is set, the **verbatim** env value — so the seed printed
/// by a failure report reproduces that failing workload exactly (the
/// failing cell's scenario kind and thread count rerun with its seed).
pub fn derive_seed(salt: u64) -> u64 {
    match replay_seed() {
        Some(s) => s,
        None => mix(DEFAULT_BASE_SEED, salt),
    }
}

/// Runs the full scenario × thread-count matrix and panics with every
/// failure's reproduction seed if any oracle is violated. This is the
/// enforced gate behind `tests/cross_stm_correctness.rs`.
pub fn run_matrix(thread_counts: &[usize], seeds_per_cell: u64) -> Result<usize, String> {
    let mut cells = 0;
    let mut report = String::new();
    for &kind in ALL_SCENARIOS {
        for &threads in thread_counts {
            for round in 0..seeds_per_cell {
                let seed = derive_seed((cells as u64) << 16 | round);
                let sc = Scenario::new(kind, threads, seed);
                cells += 1;
                if let Err(failures) = run_differential(&sc) {
                    for f in failures {
                        report.push_str(&format!("{f}\n"));
                    }
                }
            }
        }
    }
    if report.is_empty() {
        Ok(cells)
    } else {
        Err(report)
    }
}
