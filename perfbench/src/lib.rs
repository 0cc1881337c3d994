//! # oftm-perfbench — end-to-end and per-layer costs of the STM backends
//!
//! One command runs one of two seeded workloads against five backends (`dstm`,
//! `tl`, `tl2`, `coarse`, `hybrid`, all built by `oftm_bench::make_stm`)
//! and prints every metric by name with its unit:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload intset-lookup --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The backends are interleaved within a run: the run is cut into 60
//! rounds, and each round gives every backend one slice of the client's
//! time, in an order that rotates from round to round. Fresh instances
//! are built 20 times per run, every third round, so no single memory
//! layout sets a run's figures: on a 2^18-account `bank-async` table one
//! build's slices ran 15% faster than another's in the same run.
//!
//! A backend's `ops_per_s` is the upper quartile of its per-slice
//! throughputs, and its `p99_us` the lower quartile of its per-slice
//! p99s: fast-side quartiles, not the throughput and p99 of all the run's
//! ops taken together. Interference from the host's other tenants only
//! ever slows a slice and comes in bursts of seconds, so a median would
//! move with the share of the run the bursts happened to cover. The price
//! is that a slowdown confined to fewer than a quarter of the slices does
//! not move them; the traced run reports `client.p99_merged_us.<b>`, the
//! p99 of all untraced ops together, next to them. Every op's result
//! is checked by the workload's oracle, and each build's final state by
//! an end-of-build oracle; a failure makes the op count as failed, and
//! the run exits non-zero.
//!
//! `--trace 0` reports the end-to-end metrics, measured untraced:
//! `ops_per_s.<b>`, `p99_us.<b>` (from an op's first attempt to its
//! commit, retries and waits included; a failed op misses every limit),
//! `setup_s` (build and populate all five instances; the median of
//! several set-ups) and `peak_rss_mb`. `--trace 1` interleaves untraced
//! slices with slices run through [`trace::Traced`], the decorator that
//! times each call into the backend, and reports the per-layer metrics
//! (see [`report`]) net of the tracer's own cost, and `trace.overhead`,
//! traced over untraced throughput.
//!
//! ## Why the load is shaped this way
//!
//! Measured on a 2-vCPU host:
//!
//! * Two closed-loop threads sharing one STM are not steady there: over
//!   eight 3 s runs, TL2 read-mostly throughput ranged 0.70M–2.32M ops/s
//!   and TL2 50/50 insert/remove 0.40M–1.18M ops/s. Throughput per
//!   CPU-second swung the same way and steal time stayed at a few ticks,
//!   so the swing follows where the host places the two vCPUs, since the
//!   two threads write to shared cache lines — not lost CPU time.
//! * One client thread is steady within about ±10%, even beside a second
//!   independent process: TL2 intset lookups ran at 1.37M–1.58M ops/s,
//!   DSTM at 72k–86k.
//! * One client plus an open-loop writer at 5k commits/s is also steady
//!   in throughput (TL2 scans 0.84M–0.91M ops/s, DSTM 28k–34k). At 20k
//!   commits/s the runs split into two modes again: DSTM ran anywhere
//!   from 9.5k to 30k.
//!
//! So every workload has exactly one closed-loop client, and none has
//! conflicts (see below for the writer workload that was dropped).
//!
//! ## Workloads
//!
//! * **`intset-lookup`** — one sync client on a `TxIntSet` holding 64 of
//!   128 keys: 90% `contains` through `atomically_ro_budgeted`, 5%
//!   `insert`, 5% `remove`. The traversal is read-dominated and fits in
//!   cache, so backend read and validation cost is most of an op: this is
//!   where the single-thread DSTM-vs-TL2 gap lives (about 80k vs 1.4M
//!   ops/s). No conflicts: attempts per op must read 1.0.
//! * **`bank-async`** — 32 `oftm-asyncrt` clients on a one-worker
//!   executor, each yielding after every op, over 2^10 accounts; each
//!   account pick goes half the time to 16 hot accounts and half the time
//!   uniformly. 15/16 of ops are transfers through
//!   `atomically_async_budgeted`, 1/16 are 64-account declared-read-only
//!   audits. Every transfer commits writes, so the write, commit and
//!   table-lookup paths and the async driver do the work, and read
//!   validation does little. Attempts run inside one poll on one thread,
//!   so there are no conflicts.
//!
//!   Why 2^10 accounts: the table (about 250 KB for DSTM, less for the
//!   others) stays in a core's L2 cache. A table far larger than the
//!   caches (2^18 accounts, about 66 MB for DSTM) made the figures follow
//!   the memory traffic of the host's other tenants: over ten 50 s runs
//!   in a row throughput fell 20% and p99 rose 40% while the
//!   cache-resident `intset-lookup` moved under 9%, and ten-seed sets read
//!   an IQR/median of up to 0.36 on p99. A 2^14-account table (about
//!   4 MB, in the shared L3) was no steadier (p99 IQR/median 0.27).
//!
//! ## The dropped writer workload
//!
//! An `intset-scan-writer` workload — one client doing 90% whole-set
//! scans, 5% inserts and 5% removes, beside an open-loop writer thread
//! committing one insert or remove every 2 ms (every 200 µs at first) —
//! would have measured validation failures, retries, backoff, DSTM
//! arbitration and reclamation with a live reader. It was not steady
//! enough to gate on. Its throughput was (IQR/median under 0.05 over five
//! 30 s runs), but its p99 was not. At 5k writer commits/s about 0.6% of
//! TL/TL2/hybrid ops and about 1% of DSTM ops retried, so p99 jumped
//! between the plain and the retried population from run to run
//! (IQR/median 0.4–1.1). At 500/s, with retries down to 0.3% (DSTM) and
//! 0.04% (the others), the DSTM p99 still moved between 38 and 58 µs with
//! the host's state (IQR/median 0.36 over five runs; coarse and hybrid
//! 0.11–0.13). So conflicts, aborts and failed calls are not measured.

//! Deliberately not measured, because a 2-vCPU host cannot run them
//! steadily: storms between two closed-loop threads, the hybrid's
//! flapping at 4–8 threads, park/wake under contention, and the
//! Algorithm 2 backends (about 4–5k ops/s with a 2–2.7 ms p99 on the
//! 64-key set).

pub mod host;
pub mod metrics;
pub mod report;
pub mod trace;
pub mod workloads;
