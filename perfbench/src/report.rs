//! One run: set-up, interleaved slices, the oracles, and the metrics.
//!
//! Per-layer metrics (`--trace 1`), each per backend `<b>` unless noted:
//!
//! * driver: `api.attempts_per_op`, `api.wait_ns_per_op` (op time outside
//!   attempts: spin backoff when sync, polls and parks when async);
//! * collections: `structs.self_ns_per_op` (attempt time outside backend
//!   calls: the traversal logic);
//! * backend: `stm.{begin,begin_ro,read,write,commit,alloc}_ns` per call,
//!   `stm.{reads,writes}_per_op`;
//! * reclamation: `reclaim.grace_flushes_per_kop` (a `StmStats` delta over
//!   the traced slices, per thousand ops), `reclaim.live_tvars_end`;
//! * the client: `client.p99_merged_us`, the p99 of all untraced ops of
//!   the run taken together (next to the end-to-end `p99_us`, a quartile
//!   of per-slice p99s);
//! * and, once per workload: `hybrid.mode_migrations` over the whole run,
//!   `trace.overhead`, the geometric mean over backends of traced over
//!   untraced throughput, and `trace.cost_ns_per_call`, the tracer's own
//!   time per backend call.
//!
//! Every time is net of the tracer's own cost ([`Overhead`]). Transaction
//! conflicts, aborts and failed calls are not reported: with one client
//! per workload there are none, and `api.attempts_per_op` shows it.

use crate::host;
use crate::metrics::{geomean, median, quantile, ratio, Histogram};
use crate::trace::{self, Kind, LayerAcc, Overhead};
use crate::workloads::{Budget, Instance, SliceOut, Workload, BACKENDS};
use async_executor::Executor;
use oftm_bench::SplitMix;
use oftm_obs::{Counter, StatsSnapshot};
use std::time::{Duration, Instant};

/// Set-ups per run: each builds fresh instances (timed: the median is
/// `setup_s`), so that one memory layout cannot set a whole run's
/// figures, and is followed by `ROUNDS / BUILDS` rounds.
pub const BUILDS: u32 = 20;
/// Rounds a run is cut into; each gives every backend one slice per mode.
pub const ROUNDS: u32 = 60;
/// Untimed warm-up slice per backend and mode after each set-up.
pub const WARMUP: Duration = Duration::from_millis(10);

/// A run's parameters, as given on the command line.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// A named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a run measured and whether its outputs were correct.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Oracle failures (per-op ones capped per slice).
    pub errors: Vec<String>,
    /// Human-readable detail: sample counts and per-backend spreads.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn build_all(w: Workload, seed: u64) -> Vec<Instance> {
    let mut seeds = SplitMix(seed);
    BACKENDS
        .iter()
        .map(|&b| Instance::build(w, b, seeds.next()))
        .collect()
}

/// Everything measured for one backend.
#[derive(Default)]
struct PerBackend {
    /// Per-slice throughput and p99 (ns), untraced.
    thr: Vec<f64>,
    p99: Vec<f64>,
    samples: u64,
    thin_tails: usize,
    /// Every untraced op's latency, over all slices.
    latencies: Histogram,
    /// Per-slice throughput, traced.
    thr_traced: Vec<f64>,
    layers: LayerAcc,
    /// `StmStats` deltas over the traced slices.
    obs: StatsSnapshot,
    /// Hybrid mode migrations over every round.
    migrations: u64,
    /// Live t-variables when the last round ended.
    live_end: usize,
}

impl PerBackend {
    /// `ops_per_s`: the upper quartile of the slices' throughputs, and
    /// below, `p99_us`: the lower quartile of their p99s. Interference
    /// from other tenants of a host only ever slows a slice, and on a
    /// 2-vCPU host it came in bursts of several seconds, lifting p99 by up
    /// to 2x in the slices it covered: a median would move with the share
    /// of the run the bursts covered, the quartile on the fast side stays
    /// with the code. A slowdown in fewer than a quarter of the slices
    /// escapes them; `client.p99_merged_us` (traced runs) does not.
    fn ops_per_s(&self) -> f64 {
        quantile(&self.thr, 0.75)
    }

    fn p99_ns(&self) -> f64 {
        quantile(&self.p99, 0.25)
    }
}

/// Runs one benchmark run: [`BUILDS`] times, build and warm up fresh
/// instances, give each backend its slices in `ROUNDS / BUILDS` rounds,
/// and check the final state.
pub fn run(args: Args) -> Outcome {
    let mut out = Outcome::default();
    let w = args.workload;
    host::pin_current_thread();
    let exec = Executor::new(1);
    exec.spawn(async { host::pin_current_thread() }).join();
    let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let absorb = |out: &mut Outcome, s: &SliceOut| {
        out.attempted += s.ops;
        out.failed += s.failed;
        out.errors.extend(s.errors.iter().cloned());
    };
    let slices = ROUNDS as u64 * BACKENDS.len() as u64 * modes.len() as u64;
    let slice = Duration::from_secs(args.seconds) / slices as u32;
    // Measured before any instance exists, on the client's CPU.
    let overhead = args.trace.then(Overhead::calibrate);
    let mut per: Vec<PerBackend> = BACKENDS.iter().map(|_| PerBackend::default()).collect();
    let mut setups = Vec::new();
    let mut seeds = SplitMix(args.seed);
    let mut insts: Vec<Instance> = Vec::new();
    let mut built: Vec<StatsSnapshot> = Vec::new();
    for round in 0..ROUNDS as usize {
        if round % (ROUNDS / BUILDS) as usize == 0 {
            drop(std::mem::take(&mut insts)); // free the last build before timing the next
            let t = Instant::now();
            insts = build_all(w, seeds.next());
            setups.push(t.elapsed().as_secs_f64());
            built = insts.iter().map(|i| i.stm.stats().snapshot()).collect();
            for inst in &mut insts {
                for &traced in modes {
                    let s = inst.run_slice(Budget::For(WARMUP), traced, &exec);
                    absorb(&mut out, &s);
                }
            }
        }
        for j in 0..BACKENDS.len() {
            let b = (round + j) % BACKENDS.len();
            let inst = &mut insts[b];
            let p = &mut per[b];
            for k in 0..modes.len() {
                // Alternate which mode goes first from round to round.
                let traced = modes[(k + round) % modes.len()];
                let before = inst.stm.stats().snapshot();
                let s = inst.run_slice(Budget::For(slice), traced, &exec);
                absorb(&mut out, &s);
                let thr = s.ops as f64 / s.elapsed.as_secs_f64();
                if traced {
                    p.thr_traced.push(thr);
                    p.layers.merge(&s.layers);
                    p.obs.merge(&inst.stm.stats().snapshot().since(&before));
                } else {
                    p.thr.push(thr);
                    let q = s
                        .latencies
                        .percentile(0.99)
                        .expect("a slice runs at least one op");
                    p.p99.push(q.value);
                    p.samples += q.samples;
                    p.latencies.merge(&s.latencies);
                    p.thin_tails += usize::from(q.beyond < 10);
                }
            }
        }
        if (round + 1) % (ROUNDS / BUILDS) as usize == 0 {
            for ((inst, p), base) in insts.iter().zip(&mut per).zip(&built) {
                p.migrations += inst
                    .stm
                    .stats()
                    .snapshot()
                    .since(base)
                    .get(Counter::ModeMigrations);
                p.live_end = inst.stm.live_tvars();
                if let Err(e) = inst.check_final() {
                    out.failed += 1;
                    out.errors.push(e);
                }
            }
        }
    }
    drop(exec);

    if let Some(overhead) = overhead {
        per_layer(&mut out, &per, &overhead);
    } else {
        for (b, p) in BACKENDS.iter().zip(&per) {
            out.metrics
                .push(metric(format!("ops_per_s.{b}"), p.ops_per_s(), "1/s"));
        }
        for (b, p) in BACKENDS.iter().zip(&per) {
            out.metrics
                .push(metric(format!("p99_us.{b}"), p.p99_ns() / 1e3, "us"));
        }
        out.metrics.push(metric("setup_s", median(&setups), "s"));
        out.metrics.push(metric(
            "peak_rss_mb",
            host::peak_rss_mb().unwrap_or(f64::NAN),
            "MB",
        ));
    }
    if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        out.errors
            .push(format!("{} is not a finite number", m.name));
    }
    for (b, p) in BACKENDS.iter().zip(&per) {
        out.notes.push(format!(
            "{w}/{b}: {} slices of {:.3} s, ops/s {:.0} (slices {:.0}..{:.0}, median {:.0}), \
             p99 {:.2} us (slices {:.2}..{:.2}, median {:.2}) over {} samples{}",
            p.thr.len(),
            slice.as_secs_f64(),
            p.ops_per_s(),
            min(&p.thr),
            max(&p.thr),
            median(&p.thr),
            p.p99_ns() / 1e3,
            min(&p.p99) / 1e3,
            max(&p.p99) / 1e3,
            median(&p.p99) / 1e3,
            p.samples,
            if p.thin_tails > 0 {
                format!(
                    " ({} slices with fewer than 10 samples beyond p99)",
                    p.thin_tails
                )
            } else {
                String::new()
            },
            w = w.name(),
        ));
    }
    out.notes.push(format!("setup_s per set-up: {setups:.4?}"));
    out
}

fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn per_layer(out: &mut Outcome, per: &[PerBackend], cost: &Overhead) {
    let m = &mut out.metrics;
    let ns = trace::ns_per_tick();
    for (b, p) in BACKENDS.iter().zip(per) {
        let a = &p.layers.without(cost);
        let ops = a.ops as f64;
        let kops = ops / 1e3;
        m.push(metric(
            format!("api.attempts_per_op.{b}"),
            ratio(a.attempts as f64, ops),
            "1/op",
        ));
        m.push(metric(
            format!("api.wait_ns_per_op.{b}"),
            ratio(a.wait_ticks as f64 * ns, ops),
            "ns",
        ));
        m.push(metric(
            format!("structs.self_ns_per_op.{b}"),
            ratio(a.self_ticks as f64 * ns, ops),
            "ns",
        ));
        for kind in Kind::ALL {
            let c = a.call(kind);
            m.push(metric(
                format!("stm.{}_ns.{b}", kind.name()),
                ratio(c.ticks as f64 * ns, c.n as f64),
                "ns",
            ));
        }
        m.push(metric(
            format!("stm.reads_per_op.{b}"),
            ratio(a.call(Kind::Read).n as f64, ops),
            "1/op",
        ));
        m.push(metric(
            format!("stm.writes_per_op.{b}"),
            ratio(a.call(Kind::Write).n as f64, ops),
            "1/op",
        ));
        let flushes = p.obs.get(Counter::GraceFlushes) as f64;
        m.push(metric(
            format!("reclaim.grace_flushes_per_kop.{b}"),
            ratio(flushes, kops),
            "1/kop",
        ));
    }
    for (b, p) in BACKENDS.iter().zip(per) {
        m.push(metric(
            format!("reclaim.live_tvars_end.{b}"),
            p.live_end as f64,
            "count",
        ));
    }
    // The end-to-end p99 is a quartile of per-slice p99s (see
    // `PerBackend`); this is the p99 of the untraced slices' ops taken
    // together, so a tail confined to some slices still shows.
    for (b, p) in BACKENDS.iter().zip(per) {
        let q = p.latencies.percentile(0.99).map_or(0.0, |q| q.value);
        m.push(metric(format!("client.p99_merged_us.{b}"), q / 1e3, "us"));
    }
    let hybrid = BACKENDS
        .iter()
        .position(|&b| b == "hybrid")
        .expect("hybrid is measured");
    m.push(metric(
        "hybrid.mode_migrations",
        per[hybrid].migrations as f64,
        "count",
    ));
    let overhead: Vec<f64> = per
        .iter()
        .map(|p| quantile(&p.thr_traced, 0.75) / p.ops_per_s())
        .collect();
    m.push(metric("trace.overhead", geomean(&overhead), "ratio"));
    m.push(metric(
        "trace.cost_ns_per_call",
        (cost.call + cost.call_outside) * ns,
        "ns",
    ));
}
