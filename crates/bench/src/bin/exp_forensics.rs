//! **Conflict-forensics report** — a seeded maximum-contention duel on
//! every backend, read back through the forensics tables, emitted as
//! `BENCH_forensics.json`.
//!
//! The other bench bins carry `hot_vars`/`hot_edges` as per-cell
//! context; this binary is the forensics *demonstration and gate*. Every
//! thread hammers one hot t-variable (read-modify-write with a scheduler
//! yield inside the conflict window) plus a small cold tail, so every
//! conflict-capable backend must attribute aborts:
//!
//! * the heatmap concentrates on the hot word (`var 0` dominates);
//! * the edge table names who aborted whom — DSTM via the killer stamp,
//!   TL/TL2 via the commit-lock writer stamp, Algorithm 2 via the
//!   `Owner`/`V[x]` registers, the hybrid via whichever engine it is
//!   currently running (both inner engines share one stats hub).
//!
//! `coarse` is the control: a single global mutex never takes a
//! contention abort, so its tables must stay **empty** — a non-empty
//! coarse heatmap means misattribution, and a missing edge on any other
//! backend means an attribution path regressed. Both directions are
//! asserted, which is what makes this a gate rather than a printout.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p oftm-bench --bin exp_forensics            # full
//! cargo run --release -p oftm-bench --bin exp_forensics -- --smoke # CI
//! ```

use oftm_bench::harness::{base_seed, ATTEMPT_OPTS};
use oftm_bench::{make_stm, SplitMix, STM_NAMES};
use oftm_core::api::{transact, WordStm};
use oftm_histories::TVarId;
use std::io::Write;
use std::time::Instant;

/// The duel target: every transaction RMWs this word.
const HOT: TVarId = TVarId(0);
/// Cold tail the duel reads around the hot word.
const COLD_VARS: u64 = 16;

struct Cell {
    stm: &'static str,
    threads: usize,
    ops: u64,
    elapsed_s: f64,
    livelocked: bool,
    /// Forensics of the duel (warmup excluded): top hot t-variables and
    /// who-aborted-whom edges as JSON array fragments, plus the exact
    /// recorded-edge total the gate reads.
    hot_vars: String,
    hot_edges: String,
    edges_total: u64,
    heat_total: u64,
    stats: oftm_obs::StatsSnapshot,
}

/// One duel op: RMW the hot word with a yield inside the conflict
/// window, then a short cold tail — the shape that maximizes real
/// read-write conflicts without growing any footprint.
fn duel_op(stm: &dyn WordStm, proc: u32, rng: &mut SplitMix) -> Option<u32> {
    let cold: Vec<TVarId> = (0..4)
        .map(|_| TVarId(1 + (rng.next() % COLD_VARS)))
        .collect();
    transact(stm, proc, ATTEMPT_OPTS, |tx| {
        let h = tx.read(HOT)?;
        tx.write(HOT, h + 1)?;
        std::thread::yield_now(); // widen the conflict window
        let mut acc = 0;
        for &x in &cold {
            acc += tx.read(x)?;
        }
        tx.write(cold[0], acc % 1024)
    })
    .ok()
    .map(|(_, tries)| tries)
}

fn run_duel(stm: &dyn WordStm, threads: usize, ops_per_thread: u64, seed: u64) -> (bool, f64) {
    use std::sync::atomic::{AtomicBool, Ordering};
    let livelocked = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let livelocked = &livelocked;
            s.spawn(move || {
                let mut rng = SplitMix(seed ^ ((t as u64 + 1) << 24));
                for _ in 0..ops_per_thread {
                    if duel_op(stm, t as u32, &mut rng).is_none() {
                        livelocked.store(true, Ordering::Relaxed);
                        return;
                    }
                }
            });
        }
    });
    (
        livelocked.load(std::sync::atomic::Ordering::Relaxed),
        start.elapsed().as_secs_f64(),
    )
}

fn measure(stm_name: &'static str, smoke: bool, seed: u64) -> Cell {
    // Algorithm 2's version chains grow with every abort, and this
    // workload is all aborts — keep its duel tiny (the attribution gate
    // needs one edge, not a throughput datum).
    let small = stm_name.starts_with("algo2");
    let threads = if small { 2 } else { 4 };
    let ops_per_thread: u64 = match (smoke, small) {
        (true, true) => 15,
        (true, false) => 150,
        (false, true) => 40,
        (false, false) => 1000,
    };

    let stm = make_stm(stm_name, None);
    stm.register_tvar(HOT, 0);
    for i in 1..=COLD_VARS {
        stm.register_tvar(TVarId(i), 0);
    }

    // Untimed warmup, then reset: the reported tables attribute the
    // timed duel only.
    run_duel(&*stm, threads, ops_per_thread / 4 + 1, seed ^ 0xF0E1);
    let stats_base = stm.stats().snapshot();
    stm.forensics().reset();
    let (livelocked, elapsed_s) = run_duel(&*stm, threads, ops_per_thread, seed);

    let f = stm.forensics();
    Cell {
        stm: stm_name,
        threads,
        ops: threads as u64 * ops_per_thread,
        elapsed_s,
        livelocked,
        hot_vars: f.hot_vars_json(8),
        hot_edges: f.hot_edges_json(8),
        edges_total: f.edges().total(),
        heat_total: f.heatmap().total(),
        stats: oftm_bench::stats_since(&*stm, &stats_base),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let run_profile = if smoke { "smoke" } else { "full" };
    let seed = base_seed();

    let mut cells: Vec<Cell> = Vec::new();
    println!("== conflict forensics (hot-word duel), seed {seed:#018x}, profile {run_profile} ==");
    for &stm_name in STM_NAMES {
        let cell = measure(stm_name, smoke, seed);
        let s = &cell.stats;
        println!(
            "\n-- {} ({} threads, {} ops, {} aborts, {} attributed, {} edges){}",
            cell.stm,
            cell.threads,
            cell.ops,
            s.aborts(),
            cell.heat_total,
            cell.edges_total,
            if cell.livelocked { "  LIVELOCK" } else { "" }
        );
        oftm_bench::print_header(&["var", "count", "dominant cause"]);
        for h in stm_from_cell_heatmap(&cell) {
            oftm_bench::print_row(&[h.0, h.1, h.2]);
        }
        println!("  edges (aggressor → victim): {}", cell.hot_edges);
        cells.push(cell);
    }

    // Hand-rolled JSON, same style as the other BENCH emitters.
    let mut json = oftm_bench::bench_json_head("forensics", seed, run_profile, STM_NAMES);
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"stm\": \"{}\", \"threads\": {}, \"ops\": {}, \"elapsed_s\": {:.6}, \
             \"livelocked\": {}, \"edges_total\": {}, \"heat_total\": {}, \
             \"hot_vars\": {}, \"hot_edges\": {}, \"stats\": {}}}{}\n",
            oftm_bench::json_escape_free(c.stm),
            c.threads,
            c.ops,
            c.elapsed_s,
            c.livelocked,
            c.edges_total,
            c.heat_total,
            c.hot_vars,
            c.hot_edges,
            c.stats.json(),
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    let path = "BENCH_forensics.json";
    let mut f = std::fs::File::create(path).expect("create BENCH_forensics.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_forensics.json");
    println!("\nwrote {} ({} cells)", path, cells.len());

    // The attribution gate, both directions.
    let mut failed = false;
    for c in &cells {
        if c.livelocked {
            eprintln!("ERROR: {} exhausted its retry budget (livelock)", c.stm);
            failed = true;
        }
        if c.stm == "coarse" {
            // The control: a global mutex takes no contention aborts, so
            // any attribution here is fabricated.
            if c.heat_total != 0 || c.edges_total != 0 {
                eprintln!(
                    "ERROR: coarse attributed {} heatmap hits / {} edges on a workload \
                     it serializes — misattribution",
                    c.heat_total, c.edges_total
                );
                failed = true;
            }
        } else {
            if c.heat_total == 0 {
                eprintln!(
                    "ERROR: {} recorded no heatmap attributions under a hot-word duel",
                    c.stm
                );
                failed = true;
            }
            if c.edges_total == 0 {
                eprintln!(
                    "ERROR: {} named no aggressor under a hot-word duel — \
                     who-aborted-whom attribution regressed",
                    c.stm
                );
                failed = true;
            }
            // Sampled attributions can never exceed the exact counters.
            if c.heat_total > c.stats.aborts() {
                eprintln!(
                    "ERROR: {} attributed {} aborts but counted only {}",
                    c.stm,
                    c.heat_total,
                    c.stats.aborts()
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Renders a cell's heatmap JSON fragment back into table rows (the
/// fragment is this crate's own fixed shape, so a split-parse is exact).
fn stm_from_cell_heatmap(cell: &Cell) -> Vec<(String, String, String)> {
    let mut rows = Vec::new();
    for part in cell.hot_vars.trim_matches(['[', ']']).split("}, {") {
        let field = |key: &str| {
            part.find(key).map(|i| {
                part[i + key.len()..]
                    .trim_start_matches([':', ' ', '"'])
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect::<String>()
            })
        };
        if let (Some(v), Some(c), Some(d)) =
            (field("\"var\""), field("\"count\""), field("\"dominant\""))
        {
            rows.push((v, c, d));
        }
    }
    rows
}
