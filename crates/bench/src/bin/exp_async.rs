//! **Async runtime scaling table** — logical clients ≫ worker threads,
//! emitted as `BENCH_async.json`.
//!
//! The ROADMAP north star is serving orders of magnitude more logical
//! clients than OS threads; this binary is the gate and the datum. Every
//! cell drives `clients` async clients (each a chain of parked-retry
//! transactions from `oftm-asyncrt`) over a small work-stealing executor
//! with `workers` threads — **clients ≥ 8× workers in every cell** (the
//! acceptance floor is 4×) — against every STM backend:
//!
//! * `async-intset` — insert/remove/contains mix on a shared sorted-list
//!   set (the canonical OFTM workload, now with parked retries);
//! * `async-transfer` — atomic two-queue transfers (dequeue + enqueue in
//!   one transaction), checked for element conservation after the run;
//! * `async-counter` — read-modify-write on one shared t-variable: the
//!   maximal-conflict cell where parking either works or livelocks.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p oftm-bench --bin exp_async            # full table
//! cargo run --release -p oftm-bench --bin exp_async -- --smoke # CI-sized
//! ```
//!
//! Transactions run under the harness retry budget: a livelocked cell is
//! reported (`"livelocked": true`, non-zero exit), never a hang. The
//! JSON also records per-cell parks and attempts — `attempts_per_op`
//! near 1 under a 16× client oversubscription is the whole point of the
//! subsystem. CI greps for livelocked cells and missing STMs, mirroring
//! the hot-path gate.

use async_executor::Executor;
use oftm_asyncrt::{atomically_async_budgeted, transact_async};
use oftm_bench::harness::{base_seed, ATTEMPT_BUDGET, ATTEMPT_OPTS};
use oftm_bench::{make_stm, SplitMix, STM_NAMES};
use oftm_core::api::WordStm;
use oftm_histories::TVarId;
use oftm_structs::{TxIntSet, TxQueue};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const SCENARIOS: &[&str] = &["async-intset", "async-transfer", "async-counter"];

const COUNTER: TVarId = TVarId(0);

struct Cell {
    scenario: &'static str,
    stm: &'static str,
    workers: usize,
    clients: u32,
    ops: u64,
    elapsed_s: f64,
    attempts: u64,
    parks: u64,
    livelocked: bool,
    profile: &'static str,
    /// Telemetry delta of the run (abort causes, attempt/park latency
    /// percentiles) — the per-cell `stats` block of `BENCH_async.json`.
    stats: oftm_obs::StatsSnapshot,
    /// Conflict forensics of the run: top hot t-variables and
    /// who-aborted-whom edges as JSON array fragments (reset after
    /// structure pre-population, like the stats baseline).
    hot_vars: String,
    hot_edges: String,
}

impl Cell {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed_s.max(1e-9)
    }

    fn attempts_per_op(&self) -> f64 {
        self.attempts as f64 / self.ops.max(1) as f64
    }
}

/// Per-cell shared structures.
struct Instance {
    set: TxIntSet,
    queue_a: TxQueue,
    queue_b: TxQueue,
    transfer_population: Vec<u64>,
}

impl Instance {
    fn create(scenario: &str, stm: &dyn WordStm, universe: u64) -> Self {
        stm.register_tvar(COUNTER, 0);
        let set = TxIntSet::create(stm);
        let queue_a = TxQueue::create(stm);
        let queue_b = TxQueue::create(stm);
        let mut transfer_population = Vec::new();
        match scenario {
            "async-intset" => {
                for v in (0..universe).step_by(2) {
                    set.insert(stm, u32::MAX - 2, v);
                }
            }
            "async-transfer" => {
                transfer_population = (1000..1000 + universe / 2).collect();
                for &v in &transfer_population {
                    queue_a.enqueue(stm, u32::MAX - 2, v);
                }
            }
            _ => {}
        }
        Instance {
            set,
            queue_a,
            queue_b,
            transfer_population,
        }
    }
}

/// What one client actually did — reported truthfully even when the
/// client livelocked partway, so a failing cell's numbers describe real
/// work, not the planned schedule.
#[derive(Default)]
struct ClientOutcome {
    attempts: u64,
    parks: u64,
    completed_ops: u64,
    livelocked: bool,
}

/// One client's whole life: `ops_per_client` parked-retry transactions.
async fn run_client(
    scenario: &'static str,
    stm: Arc<dyn WordStm>,
    inst: Arc<Instance>,
    client: u32,
    ops_per_client: u64,
    seed: u64,
    universe: u64,
) -> ClientOutcome {
    let mut rng = SplitMix(seed ^ ((u64::from(client) + 1) << 18));
    let mut out = ClientOutcome::default();
    for i in 0..ops_per_client {
        let done = match scenario {
            "async-intset" => {
                let v = rng.next() % universe;
                let set = inst.set;
                match rng.next() % 4 {
                    0 => {
                        atomically_async_budgeted(&*stm, client, ATTEMPT_BUDGET, move |ctx| {
                            set.insert_in(ctx, v).map(|_| ())
                        })
                        .await
                    }
                    1 => {
                        atomically_async_budgeted(&*stm, client, ATTEMPT_BUDGET, move |ctx| {
                            set.remove_in(ctx, v).map(|_| ())
                        })
                        .await
                    }
                    _ => {
                        atomically_async_budgeted(&*stm, client, ATTEMPT_BUDGET, move |ctx| {
                            set.contains_in(ctx, v).map(|_| ())
                        })
                        .await
                    }
                }
            }
            "async-transfer" => {
                let (src, dst) = if (u64::from(client) + i) % 2 == 0 {
                    (inst.queue_a, inst.queue_b)
                } else {
                    (inst.queue_b, inst.queue_a)
                };
                atomically_async_budgeted(&*stm, client, ATTEMPT_BUDGET, move |ctx| {
                    if let Some(v) = src.dequeue_in(ctx)? {
                        dst.enqueue_in(ctx, v)?;
                    }
                    Ok(())
                })
                .await
            }
            "async-counter" => transact_async(&*stm, client, ATTEMPT_OPTS, |tx| {
                let v = tx.read(COUNTER)?;
                tx.write(COUNTER, v + 1)
            })
            .await
            .map(|c| oftm_asyncrt::Committed {
                value: (),
                attempts: c.attempts,
                parks: c.parks,
            }),
            other => panic!("unknown scenario {other}"),
        };
        match done {
            Ok(c) => {
                out.attempts += u64::from(c.attempts);
                out.parks += u64::from(c.parks);
                out.completed_ops += 1;
            }
            Err(e) => {
                out.attempts += u64::from(e.attempts);
                out.livelocked = true;
                return out;
            }
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn measure(
    scenario: &'static str,
    stm_name: &'static str,
    workers: usize,
    clients: u32,
    ops_per_client: u64,
    seed: u64,
    small: bool,
) -> Cell {
    let universe = if small { 16u64 } else { 64 };
    let stm: Arc<dyn WordStm> = Arc::from(make_stm(stm_name, None));
    let inst = Arc::new(Instance::create(scenario, &*stm, universe));

    // Telemetry baseline after setup: the cell's stats block describes
    // the clients' transactions, not the structure pre-population.
    let stats_base = stm.stats().snapshot();
    stm.forensics().reset();
    let ex = Executor::new(workers);
    let attempts = Arc::new(AtomicU64::new(0));
    let parks = Arc::new(AtomicU64::new(0));
    let completed = Arc::new(AtomicU64::new(0));
    let livelocked = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let stm = Arc::clone(&stm);
            let inst = Arc::clone(&inst);
            let attempts = Arc::clone(&attempts);
            let parks = Arc::clone(&parks);
            let completed = Arc::clone(&completed);
            let livelocked = Arc::clone(&livelocked);
            ex.spawn(async move {
                let out = run_client(scenario, stm, inst, c, ops_per_client, seed, universe).await;
                attempts.fetch_add(out.attempts, Ordering::Relaxed);
                parks.fetch_add(out.parks, Ordering::Relaxed);
                completed.fetch_add(out.completed_ops, Ordering::Relaxed);
                if out.livelocked {
                    livelocked.store(true, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    drop(ex);
    let stats = oftm_bench::stats_since(&*stm, &stats_base);
    // Capture forensics before the oracle probes below run any
    // transactions of their own.
    let hot_vars = stm.forensics().hot_vars_json(8);
    let hot_edges = stm.forensics().hot_edges_json(8);
    let completed = completed.load(Ordering::Relaxed);

    // Conservation oracle for the transfer scenario: the two queues must
    // still hold exactly the initial population.
    if scenario == "async-transfer" && !livelocked.load(Ordering::Relaxed) {
        let mut rest = inst.queue_a.snapshot(&*stm, u32::MAX - 1);
        rest.extend(inst.queue_b.snapshot(&*stm, u32::MAX - 1));
        rest.sort_unstable();
        assert_eq!(
            rest, inst.transfer_population,
            "{stm_name}/{scenario}: elements not conserved across async transfers"
        );
    }
    // Exactness oracle for the counter scenario: every completed op is
    // one committed increment, so a lost update under parked retries is
    // a hard failure, not a throughput blip.
    if scenario == "async-counter" {
        let (v, _) = oftm_core::transact(&*stm, u32::MAX - 1, ATTEMPT_OPTS, |tx| tx.read(COUNTER))
            .expect("final counter read");
        assert_eq!(
            v, completed,
            "{stm_name}/{scenario}: counter lost increments under async execution"
        );
    }

    Cell {
        scenario,
        stm: stm_name,
        workers,
        clients,
        ops: completed,
        elapsed_s,
        attempts: attempts.load(Ordering::Relaxed),
        parks: parks.load(Ordering::Relaxed),
        livelocked: livelocked.load(Ordering::Relaxed),
        profile: if small { "small" } else { "full" },
        stats,
        hot_vars,
        hot_edges,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // "full", not "default": meta.run_profile values must mean the same
    // thing across BENCH_*.json emitters (exp_hotpath uses "full").
    let run_profile = if smoke { "smoke" } else { "full" };
    let seed = base_seed();
    // (workers, clients): every cell oversubscribes at least 8× (the
    // acceptance floor is 4× — kept with headroom so the gate tests the
    // claim, not its boundary).
    let shapes: &[(usize, u32)] = if smoke {
        &[(2, 16)]
    } else {
        &[(2, 32), (4, 64), (4, 256)]
    };

    let mut cells: Vec<Cell> = Vec::new();
    println!(
        "== async runtime throughput (ops/sec), seed {seed:#018x}, profile {run_profile} ==\n"
    );
    oftm_bench::print_header(&[
        "scenario",
        "stm",
        "workers",
        "clients",
        "ops/sec",
        "attempts/op",
        "parks",
    ]);
    for &scenario in SCENARIOS {
        for &stm_name in STM_NAMES {
            for &(workers, clients) in shapes {
                let small = stm_name.starts_with("algo2");
                // Algorithm 2 runs a recorded small profile (version
                // chains make big structures impractical — the paper's
                // own caveat), like exp_structs_scaling/exp_hotpath.
                let ops_per_client: u64 = match (smoke, small) {
                    (true, true) => 2,
                    (true, false) => 12,
                    (false, true) => 4,
                    (false, false) => 60,
                };
                if small && clients > 64 {
                    continue;
                }
                let cell = measure(
                    scenario,
                    stm_name,
                    workers,
                    clients,
                    ops_per_client,
                    seed,
                    small,
                );
                oftm_bench::print_row(&[
                    cell.scenario.to_string(),
                    cell.stm.to_string(),
                    cell.workers.to_string(),
                    cell.clients.to_string(),
                    if cell.livelocked {
                        "LIVELOCK".into()
                    } else {
                        format!("{:.0}", cell.ops_per_sec())
                    },
                    format!("{:.2}", cell.attempts_per_op()),
                    cell.parks.to_string(),
                ]);
                cells.push(cell);
            }
        }
    }

    // Hand-rolled JSON, same style as the other BENCH emitters (the
    // serde shim is marker-only).
    let mut json = oftm_bench::bench_json_head("async", seed, run_profile, STM_NAMES);
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"stm\": \"{}\", \"workers\": {}, \"clients\": {}, \
             \"ops\": {}, \"elapsed_s\": {:.6}, \"ops_per_sec\": {:.1}, \
             \"attempts_per_op\": {:.4}, \"parks\": {}, \"livelocked\": {}, \
             \"profile\": \"{}\", \"hot_vars\": {}, \"hot_edges\": {}, \
             \"stats\": {}}}{}\n",
            oftm_bench::json_escape_free(c.scenario),
            oftm_bench::json_escape_free(c.stm),
            c.workers,
            c.clients,
            c.ops,
            c.elapsed_s,
            c.ops_per_sec(),
            c.attempts_per_op(),
            c.parks,
            c.livelocked,
            oftm_bench::json_escape_free(c.profile),
            c.hot_vars,
            c.hot_edges,
            c.stats.json(),
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    let path = "BENCH_async.json";
    let mut f = std::fs::File::create(path).expect("create BENCH_async.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_async.json");
    println!("\nwrote {} ({} cells)", path, cells.len());

    // Gates: every STM present, every cell ≥ 4× oversubscribed, zero
    // livelocks.
    for &name in STM_NAMES {
        assert!(
            cells.iter().any(|c| c.stm == name),
            "STM {name} missing from the async table"
        );
    }
    for c in &cells {
        assert!(
            u64::from(c.clients) >= 4 * c.workers as u64,
            "cell {}/{} under-subscribed: {} clients on {} workers",
            c.scenario,
            c.stm,
            c.clients,
            c.workers
        );
    }
    if cells.iter().any(|c| c.livelocked) {
        eprintln!("ERROR: at least one cell exhausted its retry budget (livelock)");
        std::process::exit(1);
    }
}
