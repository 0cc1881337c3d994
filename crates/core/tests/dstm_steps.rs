//! Step-count pins for DSTM: fixed single-threaded scripts run through a
//! `Recorder` on the word-level adapter, and each transaction's recorded
//! base-object steps are counted by kind.
//!
//! At one thread the counts are exact. The global commit counter is a
//! recorded base object: one Read per sample (at begin, after every
//! access, at a read-only commit) and one Modify per writing commit. With
//! no update committing, a read-only transaction of m reads takes
//! `4m + 2` Reads — linear in m, because the counter check replaces the
//! full read-set revalidation after every read.

use oftm_core::api::WordStm;
use oftm_core::record::Recorder;
use oftm_core::{Dstm, DstmWord};
use oftm_histories::{check_strict_dap, Access, Event, TVarId, TxId};
use std::sync::Arc;

const X: TVarId = TVarId(0);
const Y: TVarId = TVarId(1);

/// A DSTM word adapter with t-variables `0..n` (all zero) and a recorder.
fn engine(n: u64) -> (DstmWord, Arc<Recorder>) {
    let rec = Arc::new(Recorder::new());
    let s = DstmWord::new(Dstm::default().with_recorder(Arc::clone(&rec)));
    for i in 0..n {
        s.register_tvar(TVarId(i), 0);
    }
    (s, rec)
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

/// Steps of a declared read-only transaction reading `m` distinct
/// t-variables.
fn ro_steps(m: u64) -> (usize, usize) {
    let (s, rec) = engine(m);
    let mut t = s.begin_ro(0);
    let id = t.id();
    for i in 0..m {
        assert_eq!(t.read(TVarId(i)).unwrap(), 0);
    }
    t.try_commit().expect("uncontended read-only commit");
    steps(&rec, id)
}

#[test]
fn read_only_steps_grow_linearly_in_reads() {
    // Per read: locator pointer, owner status, locator fields, counter
    // sample. Plus the begin and commit samples.
    let counts = [8, 16, 32].map(ro_steps);
    assert_eq!(counts, [(34, 0), (66, 0), (130, 0)]);
    // Doubling m doubles the per-read part: equal second differences.
    let (r8, r16, r32) = (counts[0].0, counts[1].0, counts[2].0);
    assert_eq!(r32 - r16, 2 * (r16 - r8));
}

#[test]
fn writing_commit_adds_one_counter_modify() {
    let (s, rec) = engine(2);

    // Blind write: begin sample; locator pointer, owner status, locator
    // fields, install CAS, counter sample; counter increment, status CAS.
    let mut t = s.begin(0);
    let blind = t.id();
    t.write(X, 1).unwrap();
    t.try_commit().expect("blind write commits");

    // Read-modify-write: begin sample; read as above plus a sample; the
    // write as above; counter increment (unchanged: no probe), status CAS.
    let mut t = s.begin(0);
    let rmw = t.id();
    let v = t.read(X).unwrap();
    t.write(X, v + 1).unwrap();
    t.try_commit().expect("read-modify-write commits");

    // A promoted read-only commit samples the counter instead.
    let mut t = s.begin(0);
    let promoted = t.id();
    assert_eq!(t.read(X).unwrap(), 2);
    assert_eq!(t.read(Y).unwrap(), 0);
    t.try_commit().expect("promoted read-only commits");

    assert_eq!(steps(&rec, blind), (5, 3));
    assert_eq!(steps(&rec, rmw), (9, 3));
    assert_eq!(steps(&rec, promoted), (10, 0));
}

#[test]
fn moved_counter_makes_the_next_access_probe_the_read_set() {
    let (s, rec) = engine(3);
    let mut reader = s.begin_ro(0);
    let id = reader.id();
    assert_eq!(reader.read(X).unwrap(), 0);
    let mut w = s.begin(1);
    w.write(TVarId(2), 1).unwrap();
    w.try_commit().unwrap();
    assert_eq!(reader.read(Y).unwrap(), 0);
    reader.try_commit().unwrap();
    // Two reads (4 each), begin and commit samples, and one revalidation
    // of both entries after the second read.
    assert_eq!(steps(&rec, id), (12, 0));
}

#[test]
fn disjoint_writers_meet_on_the_commit_counter() {
    // The DAP trade-off of the counter: every writing commit modifies it,
    // so t-variable-disjoint writers conflict on one base object. No
    // transaction links the two, so this breaks weak DAP as well.
    let (s, rec) = engine(2);
    for x in [X, Y] {
        let mut t = s.begin(0);
        t.write(x, 1).unwrap();
        t.try_commit().unwrap();
    }
    let violations = check_strict_dap(&rec.snapshot());
    assert_eq!(violations.len(), 1, "{violations:?}");
}
