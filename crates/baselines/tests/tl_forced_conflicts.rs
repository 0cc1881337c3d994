//! Forced conflicts on TL: each deterministically forced conflict must
//! tag its one documented abort cause exactly once and, where a peer is
//! to blame, land in the forensics tables naming that peer on the right
//! t-variable. TL's plain reads are not anchored to a begin-time
//! snapshot, so a value newer than the transaction's begin is readable;
//! staleness is caught only by commit-time validation. Sibling of
//! `tl2_abort_causes.rs` and `tl2_conflict_edges.rs`.

use oftm_baselines::TlStm;
use oftm_core::api::WordStm;
use oftm_histories::TVarId;
use oftm_obs::{tx_proc, AbortCause, Counter, StatsSnapshot};

const X: TVarId = TVarId(0);
const Y: TVarId = TVarId(1);

fn stm() -> TlStm {
    let s = TlStm::new();
    s.register_tvar(X, 0);
    s.register_tvar(Y, 0);
    s.stats().forensics().set_sample_period(1);
    s.stats().forensics().reset();
    s
}

fn assert_only_cause(delta: &StatsSnapshot, expected: AbortCause, n: u64) {
    for &cause in oftm_obs::ABORT_CAUSES {
        let want = if cause == expected { n } else { 0 };
        assert_eq!(
            delta.get(cause.counter()),
            want,
            "cause {} moved unexpectedly (wanted {expected:?} × {n})",
            cause.name()
        );
    }
    assert_eq!(delta.aborts(), n, "derived abort total");
}

/// A read invalidated before the reader's writing commit: the commit's
/// validation pass tags `read_validation` once, and the edge names the
/// committing writer's process on the READ variable.
#[test]
fn stale_read_at_writing_commit_tags_read_validation_on_the_read_variable() {
    let s = stm();
    let before = s.stats().snapshot();

    let mut t1 = s.begin(0);
    assert_eq!(t1.read(X).expect("clean first read"), 0);
    t1.write(Y, 1).expect("buffered write cannot fail");
    let mut t2 = s.begin(1);
    t2.write(X, 7).expect("buffered write cannot fail");
    t2.try_commit().expect("unopposed writer commits");
    assert!(
        t1.try_commit().is_err(),
        "commit validation must catch the invalidated read set"
    );

    let delta = s.stats().snapshot().since(&before);
    assert_only_cause(&delta, AbortCause::ReadValidation, 1);
    assert_eq!(delta.get(Counter::Commits), 1, "only t2 committed");

    let edges = s.stats().forensics().edges().top_k(8);
    assert_eq!(edges.len(), 1, "exactly one edge: {edges:?}");
    let e = &edges[0];
    assert_eq!(e.cause, AbortCause::ReadValidation);
    assert_eq!(e.var, X.0, "the READ variable, not the written one");
    assert_eq!(
        e.aggressor_proc, 1,
        "the committing writer is the aggressor"
    );
    assert_eq!(e.victim_proc, 0);
    assert_eq!(tx_proc(e.last_aggressor), 1);
}

/// A promoted (empty write-set) commit still validates its reads: a
/// stale read there tags `read_validation` once.
#[test]
fn stale_read_at_promoted_commit_tags_read_validation_exactly_once() {
    let s = stm();
    let before = s.stats().snapshot();

    let mut t1 = s.begin(0);
    assert_eq!(t1.read(X).expect("clean first read"), 0);
    let mut t2 = s.begin(1);
    t2.write(X, 9).expect("buffered write cannot fail");
    t2.try_commit().expect("unopposed writer commits");
    assert!(
        t1.try_commit().is_err(),
        "a promoted commit must revalidate TL's unanchored reads"
    );

    let delta = s.stats().snapshot().since(&before);
    assert_only_cause(&delta, AbortCause::ReadValidation, 1);
    assert_eq!(delta.get(Counter::Commits), 1, "only t2 committed");
    assert_eq!(delta.get(Counter::CommitsPromoted), 0);
}

/// A value committed after the reader began is readable: TL takes no
/// begin-time snapshot, so nothing aborts.
#[test]
fn too_new_value_is_read_without_abort() {
    let s = stm();
    let before = s.stats().snapshot();

    let mut t1 = s.begin(0);
    let mut t2 = s.begin(1);
    t2.write(X, 9).expect("buffered write cannot fail");
    t2.try_commit().expect("unopposed writer commits");
    assert_eq!(t1.read(X).expect("no snapshot anchoring"), 9);
    t1.try_commit()
        .expect("the read is still current at commit");

    let delta = s.stats().snapshot().since(&before);
    assert_eq!(delta.aborts(), 0);
    assert_eq!(delta.get(Counter::Commits), 1);
    assert_eq!(delta.get(Counter::CommitsPromoted), 1);
    assert!(s.stats().forensics().edges().top_k(8).is_empty());
}

/// A voluntary `tryA` on a live transaction is one `explicit_retry`.
#[test]
fn voluntary_abort_tags_explicit_retry_exactly_once() {
    let s = stm();
    let before = s.stats().snapshot();

    let mut tx = s.begin(0);
    assert_eq!(tx.read(X).expect("clean read"), 0);
    tx.try_abort();

    let delta = s.stats().snapshot().since(&before);
    assert_only_cause(&delta, AbortCause::ExplicitRetry, 1);
    assert_eq!(delta.all_commits(), 0);
}

/// Dropping a live transaction without finishing it is one
/// `explicit_retry`, not a conflict.
#[test]
fn dropped_live_transaction_tags_explicit_retry_exactly_once() {
    let s = stm();
    let before = s.stats().snapshot();

    let mut tx = s.begin(0);
    tx.write(X, 1).expect("buffered write cannot fail");
    drop(tx);

    let delta = s.stats().snapshot().since(&before);
    assert_only_cause(&delta, AbortCause::ExplicitRetry, 1);
    assert_eq!(delta.all_commits(), 0);
}
