//! Oracles for the declared read-only fast path (ISSUE 6):
//!
//! 1. **Wait-free bound** — on TL/TL2 a single-variable read-only
//!    transaction commits on its *first* attempt even while a writer
//!    commits to its footprint as fast as it can. The RO read is a
//!    bounded lock/value/lock sandwich against the begin-time version
//!    vector with a first-read snapshot refresh, so no writer schedule
//!    can force a retry — `attempts == 1` is a hard invariant, not a
//!    statistical one.
//! 2. **Snapshot consistency** — on *every* backend, an RO scan of a
//!    multi-variable conserved quantity (transfer accounts) never
//!    observes a torn total, no matter how the scan interleaves with
//!    committing transfers.

use oftm_baselines::{Tl2Stm, TlStm};
use oftm_bench::{make_stm, STM_NAMES};
use oftm_core::api::{transact, TxOpts, WordStm};
use oftm_histories::TVarId;
use std::sync::atomic::{AtomicBool, Ordering};

const BUDGET: u32 = 50_000;
const RW: TxOpts = TxOpts {
    ro: false,
    budget: BUDGET,
};
const RO: TxOpts = TxOpts {
    ro: true,
    budget: BUDGET,
};

/// Sets the flag when dropped — including on unwind, so a failed
/// assertion in the reader cannot strand the writer's spin loop and turn
/// a test failure into a hang.
struct StopOnDrop<'a>(&'a AtomicBool);
impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// RO transactions on TL/TL2 are wait-free: a continuously committing
/// writer on the exact footprint cannot force even one retry.
#[test]
fn wait_free_ro_single_attempt_under_writer_on_tl_tl2() {
    const READS: u64 = 4_000;
    let x = TVarId(0);
    let stms: [(&str, Box<dyn WordStm>); 2] = [
        // The one way a single-variable RO read can abort is exhausting
        // its lock patience on a writer that the OS preempted mid-commit.
        // That is scheduler noise, not a progress property of the
        // algorithm — raise the patience (~100 ms of spins) so the oracle
        // measures the retry bound, not the CI box's timeslice.
        ("tl", {
            let mut s = TlStm::new();
            s.lock_patience = 1 << 26;
            Box::new(s)
        }),
        ("tl2", {
            let mut s = Tl2Stm::new();
            s.lock_patience = 1 << 26;
            Box::new(s)
        }),
    ];
    for (name, stm) in stms {
        stm.register_tvar(x, 0);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                // Writer: commit to the reader's footprint back-to-back.
                while !stop.load(Ordering::Relaxed) {
                    transact(&*stm, 0, RW, |tx| {
                        let v = tx.read(x)?;
                        tx.write(x, v + 1)
                    })
                    .expect("writer livelocked");
                }
            });
            let _stop_guard = StopOnDrop(&stop);
            let mut last = 0u64;
            for i in 0..READS {
                let ro = TxOpts {
                    ro: true,
                    ..TxOpts::default()
                };
                let (v, attempts) = transact(&*stm, 1, ro, |tx| tx.read(x)).unwrap();
                assert_eq!(
                    attempts, 1,
                    "{name}: RO read #{i} took {attempts} attempts — the read-only \
                     path must be wait-free under write contention"
                );
                assert!(v >= last, "{name}: RO reads went backwards ({last} -> {v})");
                last = v;
            }
        });
    }
}

/// RO scans are opaque on every backend: a conserved multi-variable
/// invariant (transfer totals) is never observed torn, regardless of how
/// the scan interleaves with committing writers.
#[test]
fn ro_scan_never_observes_torn_invariant_all_stms() {
    const ACCOUNTS: u64 = 4;
    const INIT: u64 = 1_000;
    for name in STM_NAMES {
        // Algorithm 2 takes revocable ownership even for plain reads and
        // livelocks at high op counts; scale like the harness does.
        let (transfers, scans) = if name.starts_with("algo2") {
            (60u64, 60u64)
        } else {
            (600, 600)
        };
        let stm = make_stm(name, None);
        for a in 0..ACCOUNTS {
            stm.register_tvar(TVarId(a), INIT);
        }
        std::thread::scope(|s| {
            for w in 0..2u32 {
                let stm = &stm;
                s.spawn(move || {
                    let mut rng = oftm_bench::SplitMix(0xD00D ^ u64::from(w) << 21);
                    for _ in 0..transfers {
                        let from = TVarId(rng.next() % ACCOUNTS);
                        let to = TVarId(rng.next() % ACCOUNTS);
                        let amount = rng.next() % 7;
                        transact(&**stm, w, RW, |tx| {
                            let f = tx.read(from)?;
                            if from != to && f >= amount {
                                let t = tx.read(to)?;
                                tx.write(from, f - amount)?;
                                tx.write(to, t + amount)?;
                            }
                            Ok(())
                        })
                        .expect("transfer livelocked");
                    }
                });
            }
            let stm = &stm;
            s.spawn(move || {
                for i in 0..scans {
                    let (total, _) = transact(&**stm, 2, RO, |tx| {
                        let mut sum = 0u64;
                        for a in 0..ACCOUNTS {
                            sum += tx.read(TVarId(a))?;
                        }
                        Ok(sum)
                    })
                    .expect("RO scan livelocked");
                    assert_eq!(
                        total,
                        ACCOUNTS * INIT,
                        "{name}: RO scan #{i} observed a torn transfer"
                    );
                }
            });
        });
    }
}
