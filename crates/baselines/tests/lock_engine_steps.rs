//! Step-count pins for the two lock-based engines: a fixed single-threaded
//! script runs through a `Recorder` on `tl` and `tl2`, and each
//! transaction's recorded base-object steps are counted by kind.
//!
//! At one thread the counts are exact, so any change to the read path,
//! the commit path or the clock sampling shows up here as a changed
//! number. The two engines differ by the begin-time clock sample (one
//! Read per shard, TL2 only) and by nothing else on these scripts.

use oftm_baselines::{Tl2Stm, TlStm};
use oftm_core::api::WordStm;
use oftm_core::record::Recorder;
use oftm_histories::{Access, Event, TVarId, TxId};
use std::sync::Arc;

const X: TVarId = TVarId(0);
const Y: TVarId = TVarId(1);

fn engine(name: &str, rec: &Arc<Recorder>) -> Box<dyn WordStm> {
    let s: Box<dyn WordStm> = match name {
        "tl" => Box::new(TlStm::new().with_recorder(Arc::clone(rec))),
        "tl2" => Box::new(Tl2Stm::new().with_recorder(Arc::clone(rec))),
        other => unreachable!("unknown engine {other}"),
    };
    s.register_tvar(X, 0);
    s.register_tvar(Y, 0);
    s
}

/// `(reads, modifies)` recorded for transaction `id`.
fn steps(rec: &Recorder, id: TxId) -> (usize, usize) {
    let h = rec.snapshot();
    let mut n = (0, 0);
    for te in h.events() {
        if let Event::Step {
            tx: Some(t),
            access,
            ..
        } = te.event
        {
            if t == id {
                match access {
                    Access::Read => n.0 += 1,
                    Access::Modify => n.1 += 1,
                }
            }
        }
    }
    n
}

/// Per-transaction `(reads, modifies)` of the fixed script, in order:
/// plain write, read-modify-write, promoted read-only, declared-RO pair
/// read, forced commit-time validation abort.
fn script(name: &str) -> [(usize, usize); 5] {
    let rec = Arc::new(Recorder::new());
    let s = engine(name, &rec);

    let mut t = s.begin(0);
    let write_id = t.id();
    t.write(X, 1).unwrap();
    t.try_commit().expect("plain write commits");

    let mut t = s.begin(0);
    let rmw_id = t.id();
    let v = t.read(X).unwrap();
    t.write(X, v + 1).unwrap();
    t.try_commit().expect("read-modify-write commits");

    let mut t = s.begin(0);
    let promoted_id = t.id();
    assert_eq!(t.read(X).unwrap(), 2);
    assert_eq!(t.read(Y).unwrap(), 0);
    t.try_commit().expect("promoted read-only commits");

    let mut t = s.begin_ro(0);
    let ro_id = t.id();
    assert_eq!(t.read(X).unwrap(), 2);
    assert_eq!(t.read(Y).unwrap(), 0);
    t.try_commit().expect("declared read-only commits");

    let mut victim = s.begin(0);
    let victim_id = victim.id();
    assert_eq!(victim.read(X).unwrap(), 2);
    victim.write(Y, 1).unwrap();
    let mut writer = s.begin(1);
    writer.write(X, 7).unwrap();
    writer.try_commit().expect("unopposed writer commits");
    assert!(
        victim.try_commit().is_err(),
        "commit validation must catch the stale read"
    );

    [write_id, rmw_id, promoted_id, ro_id, victim_id].map(|id| steps(&rec, id))
}

#[test]
fn tl_step_counts_are_pinned() {
    assert_eq!(
        script("tl"),
        [
            // lock, clock tick, value store, unlock.
            (0, 4),
            // lock + value read, one validation read; commit as above.
            (3, 4),
            // two lock + value reads, two validation reads.
            (6, 0),
            // 8-shard sample, two lock + value reads.
            (12, 0),
            // lock + value read; lock Y, tick, validation read of X.
            (3, 2),
        ]
    );
}

#[test]
fn tl2_step_counts_are_pinned() {
    assert_eq!(
        script("tl2"),
        [
            // 8-shard sample; lock, clock tick, value store, unlock.
            (8, 4),
            // 8-shard sample, lock + value read, one validation read.
            (11, 4),
            // 8-shard sample, two lock + value reads, no revalidation.
            (12, 0),
            // 8-shard sample, two lock + value reads.
            (12, 0),
            // 8-shard sample, lock + value read; lock Y, tick, validation.
            (11, 2),
        ]
    );
}
