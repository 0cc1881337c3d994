//! **Hot-path throughput table** — the metadata-lookup benchmark the
//! paged-slab `VarTable` and the sharded TL2 clock are measured by,
//! emitted as `BENCH_hotpath.json`.
//!
//! Every transactional read on every backend funnels through
//! `VarTable::get`, and every TL2 writer used to funnel through one
//! global `fetch_add`. The paper's obstruction-free vs. lock-based
//! comparison is about the cost of synchronization on the *common* path
//! (Kuznetsov & Ravi frame it as the decisive metric), so the harness
//! must measure that cost — not the variable table's lock overhead.
//! This binary pins the workloads that exercise the lookup path hardest:
//!
//! * `intset-read-mostly` — 90% `contains`, 5% `insert`, 5% `remove` on a
//!   pre-populated sorted-list set: long traversals, almost all reads.
//!   The `contains` ops run as *declared read-only* transactions
//!   ([`atomically_ro_budgeted`]) — on TL/TL2 that path validates against
//!   the begin-time version vector and commits without read-set
//!   bookkeeping or revalidation;
//! * `intset-ro-scan` — 90% whole-set `snapshot` scans as declared
//!   read-only transactions, 5% `insert`, 5% `remove`: the longest read
//!   footprint in the suite, overlapping writers — the workload the RO
//!   fast path exists for (a scan's read-set is the entire list, so the
//!   default path pays O(n) validation on top of the O(n) traversal);
//! * `intset-write-heavy` — 50% `insert`, 50% `remove`: allocation,
//!   retirement and commit-lock churn;
//! * `mixed-map` — 40% `put`, 20% `del`, 40% `get` on a bucketed map:
//!   point ops, two-level traversal;
//! * `scan-vs-writers` — one thread scans the whole set as declared
//!   read-only transactions while every other thread commits blind
//!   writes to a t-variable of its own, which no scan reads. Nothing
//!   conflicts, but commits land throughout every scan: DSTM's global
//!   commit counter moves mid-scan and the scan re-probes its read-set,
//!   the case in which the counter saves nothing. At 1 thread no writer
//!   runs. The cell is timed (like the phase-shift cells) and counts
//!   scans only.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p oftm-bench --bin exp_hotpath            # full table
//! cargo run --release -p oftm-bench --bin exp_hotpath -- --smoke # CI-sized
//! ```
//!
//! Every cell runs an untimed warmup phase first (the table pages, pools
//! and caches reach steady state), then the timed phase. Transactions run
//! under the harness retry budget, so a livelock is a reported failing
//! cell (`"livelocked": true` + non-zero exit), never a hang. CI greps
//! the JSON for `livelocked` cells and for missing STMs.

use oftm_bench::harness::{base_seed, ATTEMPT_BUDGET, ATTEMPT_OPTS};
use oftm_bench::{make_stm, SplitMix, STM_NAMES};
use oftm_core::api::{transact, WordStm};
use oftm_histories::TVarId;
use oftm_structs::{atomically_budgeted, atomically_ro_budgeted, TxHashMap, TxIntSet};
use std::io::Write;
use std::time::{Duration, Instant};

const SCENARIOS: &[&str] = &[
    "intset-read-mostly",
    "intset-ro-scan",
    "intset-write-heavy",
    "mixed-map",
];

/// The phase-shifting workload: conflict density goes low → high → low
/// mid-run on **one live STM instance**, which is exactly the shape the
/// adaptive hybrid exists for (escalate into the storm, de-escalate
/// after it). Each phase is a separately timed cell with its own
/// telemetry delta, so the JSON exposes per-phase throughput and — for
/// the hybrid — per-phase `mode`/`mode_migrations` movements.
const PHASE_NAMES: &[&str] = &[
    "contention-phase-shift-low1",
    "contention-phase-shift-high",
    "contention-phase-shift-low2",
];

/// STMs in the timed tables (phase shift, scan-vs-writers). Algorithm 2
/// is excluded: its per-variable version chains under sustained writers
/// grow without bound within a cell (the paper calls the construction
/// "rather impractical"; here it would only measure chain-walking).
const PHASE_SHIFT_STMS: &[&str] = &["dstm", "tl", "tl2", "coarse", "hybrid"];

/// Phase-shift variable space: one hot word plus a cold tail.
const PS_HOT: TVarId = TVarId(0);
const PS_COLD_VARS: u64 = 64;

/// One phase-shift op. The high-contention shape is the *early-write
/// tail*: acquire the hot word up front, then a long cold tail with a
/// scheduler yield inside the conflict window — the shape that collapses
/// commit-time-validation STMs on few-core hosts (every resumed
/// transaction replays its full body only to fail validation), while
/// eager-ownership arbitration keeps the owner running. The low shape is
/// a handful of cold reads plus one cold write: conflicts are rare and
/// optimistic commit wins.
fn phase_shift_op(stm: &dyn WordStm, proc: u32, rng: &mut SplitMix, high: bool) -> Option<u32> {
    // Draw the op's cold indices up front so every retry replays the
    // identical footprint.
    let cold = |r: u64| TVarId(1 + (r % PS_COLD_VARS));
    if high {
        let reads: Vec<TVarId> = (0..16).map(|_| cold(rng.next())).collect();
        let wr = cold(rng.next());
        transact(stm, proc, ATTEMPT_OPTS, |tx| {
            let h = tx.read(PS_HOT)?;
            tx.write(PS_HOT, h + 1)?;
            std::thread::yield_now(); // preemption point inside the conflict window
            let mut acc = 0;
            for &x in &reads {
                acc += tx.read(x)?;
            }
            tx.write(wr, acc % 1024)
        })
        .ok()
        .map(|(_, tries)| tries)
    } else {
        let reads: Vec<TVarId> = (0..8).map(|_| cold(rng.next())).collect();
        let wr = cold(rng.next());
        transact(stm, proc, ATTEMPT_OPTS, |tx| {
            let mut acc = 0;
            for &x in &reads {
                acc += tx.read(x)?;
            }
            tx.write(wr, acc % 1024)
        })
        .ok()
        .map(|(_, tries)| tries)
    }
}

/// Runs one timed phase-shift phase on a live instance; ops are counted,
/// not fixed, so a collapsing backend degrades to a low count instead of
/// stretching the wall clock.
fn run_shift_phase(
    stm: &dyn WordStm,
    threads: usize,
    high: bool,
    dur: Duration,
    seed: u64,
) -> (u64, u64, f64, bool) {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let ops = AtomicU64::new(0);
    let attempts = AtomicU64::new(0);
    let livelocked = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let (ops, attempts, livelocked) = (&ops, &attempts, &livelocked);
            s.spawn(move || {
                let mut rng = SplitMix(seed ^ ((t as u64 + 1) << 40));
                let (mut local_ops, mut local_att) = (0u64, 0u64);
                while start.elapsed() < dur {
                    match phase_shift_op(stm, t as u32, &mut rng, high) {
                        Some(a) => {
                            local_ops += 1;
                            local_att += u64::from(a);
                        }
                        None => {
                            livelocked.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                ops.fetch_add(local_ops, Ordering::Relaxed);
                attempts.fetch_add(local_att, Ordering::Relaxed);
            });
        }
    });
    (
        ops.load(std::sync::atomic::Ordering::Relaxed),
        attempts.load(std::sync::atomic::Ordering::Relaxed),
        start.elapsed().as_secs_f64(),
        livelocked.load(std::sync::atomic::Ordering::Relaxed),
    )
}

/// The `scan-vs-writers` cell (see the module docs): thread 0 scans for
/// `dur` while threads `1..threads` commit blind writes until it stops.
fn measure_scan_vs_writers(stm_name: &'static str, threads: usize, dur: Duration) -> Cell {
    use std::sync::atomic::{AtomicBool, Ordering};
    let stm = make_stm(stm_name, None);
    let set = TxIntSet::create(&*stm);
    for v in (0..128).step_by(2) {
        set.insert(&*stm, u32::MAX - 2, v);
    }
    let own = stm.alloc_tvar_block(&vec![0; threads]);
    let run = |dur: Duration| {
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 1..threads {
                let (stm, stop) = (&*stm, &stop);
                s.spawn(move || {
                    let x = TVarId(own.0 + t as u64);
                    let mut n = 0;
                    while !stop.load(Ordering::Relaxed) {
                        n += 1;
                        let w = transact(stm, t as u32, ATTEMPT_OPTS, |tx| tx.write(x, n));
                        if w.is_err() {
                            break;
                        }
                    }
                });
            }
            let start = Instant::now();
            let (mut scans, mut attempts, mut livelocked) = (0u64, 0u64, false);
            while start.elapsed() < dur {
                match atomically_ro_budgeted(&*stm, 0, ATTEMPT_BUDGET, |ctx| {
                    set.snapshot_in(ctx).map(|_| ())
                }) {
                    Ok((_, a)) => {
                        scans += 1;
                        attempts += u64::from(a);
                    }
                    Err(_) => {
                        livelocked = true;
                        break;
                    }
                }
            }
            stop.store(true, Ordering::Relaxed);
            (scans, attempts, start.elapsed().as_secs_f64(), livelocked)
        })
    };
    let warm_livelock = run(dur / 4).3;
    let stats_base = stm.stats().snapshot();
    stm.forensics().reset();
    let (ops, attempts, elapsed_s, livelocked) = run(dur);
    Cell {
        scenario: "scan-vs-writers",
        stm: stm_name,
        threads,
        ops,
        elapsed_s,
        attempts,
        livelocked: livelocked || warm_livelock,
        profile: "full",
        stats: oftm_bench::stats_since(&*stm, &stats_base),
        hot_vars: stm.forensics().hot_vars_json(8),
        hot_edges: stm.forensics().hot_edges_json(8),
    }
}

/// Runs the three phases back-to-back on one instance and returns one
/// cell per phase.
fn measure_phase_shift(
    stm_name: &'static str,
    threads: usize,
    phase_ms: u64,
    seed: u64,
) -> Vec<Cell> {
    let stm = make_stm(stm_name, None);
    stm.register_tvar(PS_HOT, 0);
    for i in 1..=PS_COLD_VARS {
        stm.register_tvar(TVarId(i), i);
    }
    // Untimed warmup on the low shape: pages, pools, clock shards.
    let _ = run_shift_phase(
        &*stm,
        threads,
        false,
        Duration::from_millis(phase_ms / 4),
        seed ^ 0xDEAD_BEEF,
    );
    PHASE_NAMES
        .iter()
        .enumerate()
        .map(|(i, &phase)| {
            let high = i == 1;
            let stats_base = stm.stats().snapshot();
            stm.forensics().reset();
            let (ops, attempts, elapsed_s, livelocked) = run_shift_phase(
                &*stm,
                threads,
                high,
                Duration::from_millis(phase_ms),
                seed ^ (i as u64) << 56,
            );
            Cell {
                scenario: phase,
                stm: stm_name,
                threads,
                ops,
                elapsed_s,
                attempts,
                livelocked,
                profile: "full",
                stats: oftm_bench::stats_since(&*stm, &stats_base),
                hot_vars: stm.forensics().hot_vars_json(8),
                hot_edges: stm.forensics().hot_edges_json(8),
            }
        })
        .collect()
}

struct Cell {
    scenario: &'static str,
    stm: &'static str,
    threads: usize,
    ops: u64,
    elapsed_s: f64,
    attempts: u64,
    livelocked: bool,
    profile: &'static str,
    /// Telemetry delta of the timed phase (abort causes, latency
    /// percentiles) — the per-cell `stats` block of `BENCH_hotpath.json`.
    stats: oftm_obs::StatsSnapshot,
    /// Conflict forensics of the timed phase: the top hot t-variables
    /// (`hot_vars`) and who-aborted-whom edges (`hot_edges`) as JSON
    /// array fragments — reset after warmup, so a cell's heatmap counts
    /// are attributions of its own timed aborts only.
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

/// One op against the structure under test; `None` on budget exhaustion.
fn run_one(
    scenario: &str,
    stm: &dyn WordStm,
    set: TxIntSet,
    map: TxHashMap,
    proc: u32,
    rng: &mut SplitMix,
    universe: u64,
) -> Option<u32> {
    let r = match scenario {
        "intset-read-mostly" => {
            let v = rng.next() % universe;
            match rng.next() % 20 {
                0 => atomically_budgeted(stm, proc, ATTEMPT_BUDGET, |ctx| {
                    set.insert_in(ctx, v).map(|_| ())
                }),
                1 => atomically_budgeted(stm, proc, ATTEMPT_BUDGET, |ctx| {
                    set.remove_in(ctx, v).map(|_| ())
                }),
                _ => atomically_ro_budgeted(stm, proc, ATTEMPT_BUDGET, |ctx| {
                    set.contains_in(ctx, v).map(|_| ())
                }),
            }
        }
        "intset-ro-scan" => {
            let v = rng.next() % universe;
            match rng.next() % 20 {
                0 => atomically_budgeted(stm, proc, ATTEMPT_BUDGET, |ctx| {
                    set.insert_in(ctx, v).map(|_| ())
                }),
                1 => atomically_budgeted(stm, proc, ATTEMPT_BUDGET, |ctx| {
                    set.remove_in(ctx, v).map(|_| ())
                }),
                _ => atomically_ro_budgeted(stm, proc, ATTEMPT_BUDGET, |ctx| {
                    set.snapshot_in(ctx).map(|_| ())
                }),
            }
        }
        "intset-write-heavy" => {
            let v = rng.next() % universe;
            if rng.next() % 2 == 0 {
                atomically_budgeted(stm, proc, ATTEMPT_BUDGET, |ctx| {
                    set.insert_in(ctx, v).map(|_| ())
                })
            } else {
                atomically_budgeted(stm, proc, ATTEMPT_BUDGET, |ctx| {
                    set.remove_in(ctx, v).map(|_| ())
                })
            }
        }
        "mixed-map" => {
            let k = rng.next() % universe;
            match rng.next() % 10 {
                0..=3 => {
                    let v = rng.next() % 1000;
                    atomically_budgeted(stm, proc, ATTEMPT_BUDGET, |ctx| {
                        map.put_in(ctx, k, v).map(|_| ())
                    })
                }
                4..=5 => atomically_budgeted(stm, proc, ATTEMPT_BUDGET, |ctx| {
                    map.remove_in(ctx, k).map(|_| ())
                }),
                _ => atomically_budgeted(stm, proc, ATTEMPT_BUDGET, |ctx| {
                    map.get_in(ctx, k).map(|_| ())
                }),
            }
        }
        other => panic!("unknown scenario {other}"),
    };
    r.ok().map(|(_, attempts)| attempts)
}

/// Runs `ops_per_thread` ops per thread; returns (attempts, livelocked).
#[allow(clippy::too_many_arguments)]
fn run_phase(
    scenario: &'static str,
    stm: &dyn WordStm,
    set: TxIntSet,
    map: TxHashMap,
    threads: usize,
    ops_per_thread: u64,
    seed: u64,
    universe: u64,
) -> (u64, bool) {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let attempts = AtomicU64::new(0);
    let livelocked = AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 0..threads {
            let attempts = &attempts;
            let livelocked = &livelocked;
            s.spawn(move || {
                let mut rng = SplitMix(seed ^ ((t as u64 + 1) << 24));
                let mut local = 0u64;
                for _ in 0..ops_per_thread {
                    match run_one(scenario, stm, set, map, t as u32, &mut rng, universe) {
                        Some(a) => local += u64::from(a),
                        None => {
                            livelocked.store(true, Ordering::Relaxed);
                            return;
                        }
                    }
                }
                attempts.fetch_add(local, Ordering::Relaxed);
            });
        }
    });
    (
        attempts.load(std::sync::atomic::Ordering::Relaxed),
        livelocked.load(std::sync::atomic::Ordering::Relaxed),
    )
}

fn measure(
    scenario: &'static str,
    stm_name: &'static str,
    threads: usize,
    ops_per_thread: u64,
    warmup_per_thread: u64,
    seed: u64,
) -> Cell {
    // Algorithm 2's version chains make full-size structures impractical
    // (the paper: "rather impractical"); it runs a recorded small profile,
    // exactly like exp_structs_scaling.
    let small = stm_name.starts_with("algo2");
    let (universe, buckets) = if small { (24u64, 8) } else { (128, 32) };

    let stm = make_stm(stm_name, None);
    let set = TxIntSet::create(&*stm);
    let map = TxHashMap::create(&*stm, buckets);
    for v in (0..universe).step_by(2) {
        set.insert(&*stm, u32::MAX - 2, v);
        map.put(&*stm, u32::MAX - 2, v, v);
    }

    // Warmup: untimed, distinct seed stream; brings table pages, scratch
    // pools and per-thread state to steady state before the clock starts.
    let (_, warm_livelock) = run_phase(
        scenario,
        &*stm,
        set,
        map,
        threads,
        warmup_per_thread,
        seed ^ 0xDEAD_BEEF,
        universe,
    );

    // Telemetry baseline after warmup: the cell's stats block describes
    // the timed phase only. Forensics have no snapshot/delta form —
    // reset them outright so the hot-var table covers the same window.
    let stats_base = stm.stats().snapshot();
    stm.forensics().reset();
    let start = Instant::now();
    let (attempts, livelocked) = run_phase(
        scenario,
        &*stm,
        set,
        map,
        threads,
        ops_per_thread,
        seed,
        universe,
    );
    let elapsed_s = start.elapsed().as_secs_f64();
    let stats = oftm_bench::stats_since(&*stm, &stats_base);

    Cell {
        scenario,
        stm: stm_name,
        threads,
        ops: threads as u64 * ops_per_thread,
        elapsed_s,
        attempts,
        livelocked: livelocked || warm_livelock,
        profile: if small { "small" } else { "full" },
        stats,
        hot_vars: stm.forensics().hot_vars_json(8),
        hot_edges: stm.forensics().hot_edges_json(8),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed = base_seed();
    let thread_axis: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };

    let mut cells: Vec<Cell> = Vec::new();
    println!(
        "== hot-path throughput (ops/sec), seed {seed:#018x}{} ==\n",
        if smoke { ", --smoke" } else { "" }
    );
    oftm_bench::print_header(&["scenario", "stm", "threads", "ops/sec", "attempts/op"]);
    for &scenario in SCENARIOS {
        for &stm_name in STM_NAMES {
            for &threads in thread_axis {
                let (ops_per_thread, warmup): (u64, u64) = match (smoke, stm_name) {
                    (true, n) if n.starts_with("algo2") => (10, 5),
                    (true, _) => (60, 20),
                    (false, "algo2-splitter") => (40, 10),
                    (false, "algo2-cas") => (150, 30),
                    (false, _) => (4000, 500),
                };
                // Algorithm 2 degrades superlinearly with threads; cap its
                // axis like exp_structs_scaling does.
                let cap = if stm_name == "algo2-splitter" { 2 } else { 4 };
                if stm_name.starts_with("algo2") && threads > cap {
                    continue;
                }
                let cell = measure(scenario, stm_name, threads, ops_per_thread, warmup, seed);
                oftm_bench::print_row(&[
                    cell.scenario.to_string(),
                    cell.stm.to_string(),
                    cell.threads.to_string(),
                    if cell.livelocked {
                        "LIVELOCK".into()
                    } else {
                        format!("{:.0}", cell.ops_per_sec())
                    },
                    format!("{:.2}", cell.attempts_per_op()),
                ]);
                cells.push(cell);
            }
        }
    }

    // Phase-shifting runs: one live instance per (stm, threads), three
    // timed phases each.
    let phase_ms: u64 = if smoke { 100 } else { 400 };
    for &stm_name in PHASE_SHIFT_STMS {
        for &threads in thread_axis {
            for cell in measure_phase_shift(stm_name, threads, phase_ms, seed) {
                oftm_bench::print_row(&[
                    cell.scenario.to_string(),
                    cell.stm.to_string(),
                    cell.threads.to_string(),
                    if cell.livelocked {
                        "LIVELOCK".into()
                    } else {
                        format!("{:.0}", cell.ops_per_sec())
                    },
                    format!("{:.2}", cell.attempts_per_op()),
                ]);
                cells.push(cell);
            }
        }
    }

    for &stm_name in PHASE_SHIFT_STMS {
        for &threads in thread_axis {
            let cell = measure_scan_vs_writers(stm_name, threads, Duration::from_millis(phase_ms));
            oftm_bench::print_row(&[
                cell.scenario.to_string(),
                cell.stm.to_string(),
                cell.threads.to_string(),
                if cell.livelocked {
                    "LIVELOCK".into()
                } else {
                    format!("{:.0}", cell.ops_per_sec())
                },
                format!("{:.2}", cell.attempts_per_op()),
            ]);
            cells.push(cell);
        }
    }

    // Hand-rolled JSON, same style as BENCH_structs.json (the serde shim
    // is marker-only).
    let mut json = oftm_bench::bench_json_head(
        "hotpath",
        seed,
        if smoke { "smoke" } else { "full" },
        STM_NAMES,
    );
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"stm\": \"{}\", \"threads\": {}, \"ops\": {}, \
             \"elapsed_s\": {:.6}, \"ops_per_sec\": {:.1}, \"attempts_per_op\": {:.4}, \
             \"livelocked\": {}, \"profile\": \"{}\", \"hot_vars\": {}, \
             \"hot_edges\": {}, \"stats\": {}}}{}\n",
            oftm_bench::json_escape_free(c.scenario),
            oftm_bench::json_escape_free(c.stm),
            c.threads,
            c.ops,
            c.elapsed_s,
            c.ops_per_sec(),
            c.attempts_per_op(),
            c.livelocked,
            oftm_bench::json_escape_free(c.profile),
            c.hot_vars,
            c.hot_edges,
            c.stats.json(),
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    let path = "BENCH_hotpath.json";
    let mut f = std::fs::File::create(path).expect("create BENCH_hotpath.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_hotpath.json");
    println!("\nwrote {} ({} cells)", path, cells.len());

    // Transaction timelines: with tracing on (`OFTM_TRACE=1`) and an
    // export path requested, drain every thread's event ring into a
    // Chrome-trace JSON — the file `check_trace` validates in CI.
    if let Ok(trace_path) = std::env::var("OFTM_TRACE_CHROME") {
        match oftm_obs::trace::export_chrome(&trace_path) {
            Ok(n) => println!("wrote {trace_path} ({n} trace events)"),
            Err(e) => {
                eprintln!("ERROR: chrome-trace export to {trace_path} failed: {e}");
                std::process::exit(1);
            }
        }
    }

    // Every STM must have produced at least one cell.
    for &name in STM_NAMES {
        assert!(
            cells.iter().any(|c| c.stm == name),
            "STM {name} missing from the hot-path table"
        );
    }
    if cells.iter().any(|c| c.livelocked) {
        eprintln!("ERROR: at least one cell exhausted its retry budget (livelock)");
        std::process::exit(1);
    }
}
