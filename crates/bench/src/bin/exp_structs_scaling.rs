//! **Collection scaling table** — throughput of every transactional
//! collection on every STM across thread counts, emitted as
//! `BENCH_structs.json` (the start of the perf trajectory).
//!
//! Workloads (seeded, deterministic shape per `HARNESS_SEED`):
//!
//! * `intset`  — insert/remove/contains mix over a 256-value universe,
//!   list pre-populated to half capacity;
//! * `queue`   — alternating enqueue/dequeue (always near-nonempty);
//! * `map`     — put/del/get churn over 256 keys, 64 buckets;
//! * `counter` — one striped increment per op (the disjoint-access best
//!   case).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p oftm-bench --bin exp_structs_scaling                    # full table
//! cargo run --release -p oftm-bench --bin exp_structs_scaling -- --smoke         # CI-sized
//! cargo run --release -p oftm-bench --bin exp_structs_scaling -- --profile bench # stable numbers
//! ```
//!
//! `--smoke` keeps CI fast (its `ops_per_sec` is noise — it exists for
//! the livelock/leak gates); `--profile bench` runs enough ops per cell,
//! after an untimed warmup phase, for `ops_per_sec` to be a stable
//! perf-trajectory datum. The default profile sits in between. Every
//! profile runs the warmup (pools, table pages and caches reach steady
//! state before the clock starts); the JSON records which profile ran.
//!
//! Every transaction runs under the harness retry budget, so a livelock
//! shows up as a reported failure row, never a hang. Every cell also
//! reports the STM's **live t-variable count** after quiescence and the
//! exact count the final structure sizes predict; a mismatch (a
//! reclamation leak) fails the run, so CI's `--smoke` pass gates the
//! leak-freedom of all four structures on all six STMs.

use oftm_bench::harness::{base_seed, ATTEMPT_BUDGET};
use oftm_bench::{make_stm, SplitMix, STM_NAMES};
use oftm_core::api::WordStm;
use oftm_structs::{atomically_budgeted, TxCounter, TxHashMap, TxIntSet, TxQueue};
use std::io::Write;
use std::time::Instant;

const STRUCTURES: &[&str] = &["intset", "queue", "map", "counter"];

struct Cell {
    structure: &'static str,
    stm: &'static str,
    threads: usize,
    ops: u64,
    elapsed_s: f64,
    attempts: u64,
    livelocked: bool,
    /// Live t-variables after the run (quiescent), and the exact count
    /// the final structure sizes predict. Unequal ⇒ reclamation leak.
    live_tvars: usize,
    expected_live: usize,
    /// Workload profile: "full", or "small" for Algorithm 2, whose
    /// version chains grow with every commit and abort (the paper:
    /// "its use of unbounded memory and high time complexity make it
    /// rather impractical") — full-size structures do not terminate in
    /// reasonable time under contention.
    profile: &'static str,
    /// Telemetry delta of the timed phase (abort causes, latency
    /// percentiles) — the per-cell `stats` block of `BENCH_structs.json`.
    stats: oftm_obs::StatsSnapshot,
    /// Conflict forensics of the timed phase: top hot t-variables and
    /// who-aborted-whom edges as JSON array fragments (reset after
    /// warmup, captured before the leak-probe transactions run).
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

/// One op on the structure under test; returns attempts or None on budget
/// exhaustion.
#[allow(clippy::too_many_arguments)]
fn run_one(
    structure: &str,
    stm: &dyn WordStm,
    set: TxIntSet,
    queue: TxQueue,
    map: TxHashMap,
    counter: TxCounter,
    proc: u32,
    rng: &mut SplitMix,
    universe: u64,
) -> Option<u32> {
    let r = match structure {
        "intset" => {
            let v = rng.next() % universe;
            match rng.next() % 4 {
                0 => atomically_budgeted(stm, proc, ATTEMPT_BUDGET, |ctx| {
                    set.insert_in(ctx, v).map(|_| ())
                }),
                1 => atomically_budgeted(stm, proc, ATTEMPT_BUDGET, |ctx| {
                    set.remove_in(ctx, v).map(|_| ())
                }),
                _ => atomically_budgeted(stm, proc, ATTEMPT_BUDGET, |ctx| {
                    set.contains_in(ctx, v).map(|_| ())
                }),
            }
        }
        "queue" => {
            if rng.next() % 2 == 0 {
                let v = rng.next();
                atomically_budgeted(stm, proc, ATTEMPT_BUDGET, |ctx| q_enq(&queue, ctx, v))
            } else {
                atomically_budgeted(stm, proc, ATTEMPT_BUDGET, |ctx| {
                    queue.dequeue_in(ctx).map(|_| ())
                })
            }
        }
        "map" => {
            let k = rng.next() % universe;
            match rng.next() % 4 {
                0 | 1 => {
                    let v = rng.next() % 1000;
                    atomically_budgeted(stm, proc, ATTEMPT_BUDGET, |ctx| {
                        map.put_in(ctx, k, v).map(|_| ())
                    })
                }
                2 => atomically_budgeted(stm, proc, ATTEMPT_BUDGET, |ctx| {
                    map.remove_in(ctx, k).map(|_| ())
                }),
                _ => atomically_budgeted(stm, proc, ATTEMPT_BUDGET, |ctx| {
                    map.get_in(ctx, k).map(|_| ())
                }),
            }
        }
        "counter" => atomically_budgeted(stm, proc, ATTEMPT_BUDGET, |ctx| {
            counter.add_in(ctx, proc, 1)
        }),
        other => panic!("unknown structure {other}"),
    };
    r.ok().map(|(_, attempts)| attempts)
}

fn q_enq(q: &TxQueue, ctx: &mut oftm_structs::TxCtx<'_>, v: u64) -> oftm_core::TxResult<()> {
    q.enqueue_in(ctx, v)
}

fn measure(
    structure: &'static str,
    stm_name: &'static str,
    threads: usize,
    ops_per_thread: u64,
    warmup_per_thread: u64,
    seed: u64,
) -> Cell {
    // Algorithm 2 gets a small-profile structure: every commit AND abort
    // appends a version that all later acquires must rescan, so large
    // prepopulated structures degrade quadratically (footnote 6 of the
    // paper, measured). The profile is recorded in the JSON row.
    let small = stm_name.starts_with("algo2");
    let (universe, queue_prepop, buckets) = if small {
        (32u64, 8u64, 16)
    } else {
        (256, 64, 64)
    };

    let stm = make_stm(stm_name, None);
    let set = TxIntSet::create(&*stm);
    let queue = TxQueue::create(&*stm);
    let map = TxHashMap::create(&*stm, buckets);
    let counter = TxCounter::create(&*stm, threads.max(1));

    // Pre-populate to a steady-state shape (half-full structures).
    match structure {
        "intset" => {
            for v in (0..universe).step_by(2) {
                set.insert(&*stm, u32::MAX - 2, v);
            }
        }
        "queue" => {
            for v in 0..queue_prepop {
                queue.enqueue(&*stm, u32::MAX - 2, v);
            }
        }
        "map" => {
            for k in (0..universe).step_by(2) {
                map.put(&*stm, u32::MAX - 2, k, k);
            }
        }
        _ => {}
    }

    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let attempts = AtomicU64::new(0);
    let livelocked = AtomicBool::new(false);
    let run_phase = |phase_ops: u64, phase_seed: u64, count: bool| {
        std::thread::scope(|s| {
            for t in 0..threads {
                let stm = &stm;
                let attempts = &attempts;
                let livelocked = &livelocked;
                s.spawn(move || {
                    let mut rng = SplitMix(phase_seed ^ ((t as u64 + 1) << 20));
                    let mut local = 0u64;
                    for _ in 0..phase_ops {
                        match run_one(
                            structure, &**stm, set, queue, map, counter, t as u32, &mut rng,
                            universe,
                        ) {
                            Some(a) => local += u64::from(a),
                            None => {
                                livelocked.store(true, Ordering::Relaxed);
                                return;
                            }
                        }
                    }
                    if count {
                        attempts.fetch_add(local, Ordering::Relaxed);
                    }
                });
            }
        });
    };
    // Untimed warmup: scratch pools, table pages and handle caches reach
    // steady state before the measured phase starts.
    run_phase(warmup_per_thread, seed ^ 0xDEAD_BEEF, false);
    // Telemetry baseline after warmup: the stats block describes the
    // timed phase only (the leak-probe transactions below run after the
    // delta is taken).
    let stats_base = stm.stats().snapshot();
    stm.forensics().reset();
    let start = Instant::now();
    run_phase(ops_per_thread, seed, true);
    let elapsed_s = start.elapsed().as_secs_f64();
    let stats = oftm_bench::stats_since(&*stm, &stats_base);
    let hot_vars = stm.forensics().hot_vars_json(8);
    let hot_edges = stm.forensics().hot_edges_json(8);

    // Reclamation sanity check: after quiescence (the len() transactions
    // below commit with nobody else in flight, flushing every grace bin),
    // the live t-variable count must match the structures exactly:
    // intset head(1) + 2/node, queue ptrs(2) + 2/node, map buckets +
    // 3/node, counter stripes. Any surplus is a leak.
    let probe = u32::MAX - 3;
    let expected_live = 1
        + 2 * set.len(&*stm, probe)
        + 2
        + 2 * queue.len(&*stm, probe)
        + buckets
        + 3 * map.len(&*stm, probe)
        + threads.max(1);
    let live_tvars = stm.live_tvars();

    Cell {
        structure,
        stm: stm_name,
        threads,
        ops: threads as u64 * ops_per_thread,
        elapsed_s,
        attempts: attempts.load(Ordering::Relaxed),
        livelocked: livelocked.load(Ordering::Relaxed),
        live_tvars,
        expected_live,
        profile: if small { "small" } else { "full" },
        stats,
        hot_vars,
        hot_edges,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let bench = args
        .windows(2)
        .any(|w| w[0] == "--profile" && w[1] == "bench");
    assert!(
        !(smoke && bench),
        "--smoke and --profile bench are mutually exclusive"
    );
    let run_profile = if smoke {
        "smoke"
    } else if bench {
        "bench"
    } else {
        "default"
    };
    let seed = base_seed();
    let thread_axis: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };

    let mut cells: Vec<Cell> = Vec::new();
    println!("== collection throughput (ops/sec), seed {seed:#018x}, profile {run_profile} ==\n");
    oftm_bench::print_header(&[
        "structure",
        "stm",
        "threads",
        "ops/sec",
        "attempts/op",
        "live tvars",
    ]);
    for &structure in STRUCTURES {
        for &stm_name in STM_NAMES {
            for &threads in thread_axis {
                // Algorithm 2 is orders of magnitude slower (the paper:
                // "rather impractical"); scale op counts so the table
                // finishes, and skip its oversubscribed high-thread cells.
                // `--smoke` stays tiny for CI (its throughput numbers are
                // noise — the gates are livelock and leaks); `--profile
                // bench` runs long enough for stable `ops_per_sec`.
                let (ops_per_thread, warmup): (u64, u64) = match stm_name {
                    n if n.starts_with("algo2") => {
                        let heavy = n == "algo2-splitter";
                        if smoke {
                            (10, 3)
                        } else if bench {
                            (if heavy { 80 } else { 400 }, if heavy { 10 } else { 50 })
                        } else {
                            (if heavy { 50 } else { 250 }, if heavy { 5 } else { 25 })
                        }
                    }
                    _ => {
                        if smoke {
                            (50, 15)
                        } else if bench {
                            (6000, 800)
                        } else {
                            (1500, 200)
                        }
                    }
                };
                // Algorithm 2's contention behaviour degrades superlinearly
                // (aborts lengthen every version scan); cap its thread axis
                // so the table terminates — the cut-off is itself the
                // "impractical" data point.
                let cap = if stm_name == "algo2-splitter" { 2 } else { 4 };
                if stm_name.starts_with("algo2") && threads > cap {
                    continue;
                }
                let cell = measure(structure, stm_name, threads, ops_per_thread, warmup, seed);
                oftm_bench::print_row(&[
                    cell.structure.to_string(),
                    cell.stm.to_string(),
                    cell.threads.to_string(),
                    if cell.livelocked {
                        "LIVELOCK".into()
                    } else {
                        format!("{:.0}", cell.ops_per_sec())
                    },
                    format!("{:.2}", cell.attempts_per_op()),
                    format!("{} (= {})", cell.live_tvars, cell.expected_live),
                ]);
                cells.push(cell);
            }
        }
    }

    // Hand-rolled JSON (the serde shim is marker-only; the format is flat
    // enough that string assembly is clearer than a dependency).
    let mut json = oftm_bench::bench_json_head("structs_scaling", seed, run_profile, &[]);
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"structure\": \"{}\", \"stm\": \"{}\", \"threads\": {}, \"ops\": {}, \
             \"elapsed_s\": {:.6}, \"ops_per_sec\": {:.1}, \"attempts_per_op\": {:.4}, \
             \"livelocked\": {}, \"live_tvars\": {}, \"expected_live\": {}, \
             \"profile\": \"{}\", \"hot_vars\": {}, \"hot_edges\": {}, \
             \"stats\": {}}}{}\n",
            oftm_bench::json_escape_free(c.structure),
            oftm_bench::json_escape_free(c.stm),
            c.threads,
            c.ops,
            c.elapsed_s,
            c.ops_per_sec(),
            c.attempts_per_op(),
            c.livelocked,
            c.live_tvars,
            c.expected_live,
            oftm_bench::json_escape_free(c.profile),
            c.hot_vars,
            c.hot_edges,
            c.stats.json(),
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    let path = "BENCH_structs.json";
    let mut f = std::fs::File::create(path).expect("create BENCH_structs.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_structs.json");
    println!("\nwrote {} ({} cells)", path, cells.len());

    if cells.iter().any(|c| c.livelocked) {
        eprintln!("ERROR: at least one cell exhausted its retry budget (livelock)");
        std::process::exit(1);
    }
    let leaks: Vec<&Cell> = cells
        .iter()
        .filter(|c| c.live_tvars != c.expected_live)
        .collect();
    if !leaks.is_empty() {
        for c in &leaks {
            eprintln!(
                "ERROR: t-variable leak in {}/{}/{}: {} live, expected {}",
                c.structure, c.stm, c.threads, c.live_tvars, c.expected_live
            );
        }
        std::process::exit(1);
    }
}
