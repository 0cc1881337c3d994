//! The **park watchdog**: a single lazily-spawned timer thread that wakes
//! parked transaction futures after a deadline.
//!
//! Why it must exist: wake-on-commit parking alone can deadlock an
//! obstruction-free TM. Two transactions that mutually abort (e.g. under
//! Algorithm 2, where even reads take revocable ownership) can both end
//! up parked, each waiting for the *other's* commit — which never comes,
//! because both aborted. Obstruction-freedom promises progress only to a
//! transaction that eventually runs alone; the watchdog manufactures that
//! eventuality by re-running parked transactions on a randomized,
//! per-process-desynchronized schedule
//! ([`oftm_core::contention::park_timeout`], derived from the same
//! backoff schedule the sync driver spins on). The timeout is
//! the safety net, not the normal wake path: under ordinary contention a
//! conflicting commit wakes the future orders of magnitude earlier.
//!
//! One thread serves the whole process: deadlines go into a min-heap, the
//! thread sleeps on a condvar until the earliest one, and firing a
//! deadline is a [`Waker::wake`] — by the waker contract a no-op when the
//! future already completed or was re-queued, so stale deadlines (the
//! commit wake won the race) cost nothing but the heap slot.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex, OnceLock};
use std::task::Waker;
use std::time::{Duration, Instant};

/// A pending deadline. Ordered by time via `Reverse` in the heap; the
/// sequence number breaks ties so `BinaryHeap`'s `Ord` requirement is
/// total without comparing wakers.
struct Entry {
    at: Instant,
    seq: u64,
    waker: Waker,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

struct Watchdog {
    queue: Mutex<(BinaryHeap<Reverse<Entry>>, u64)>,
    tick: Condvar,
}

impl Watchdog {
    fn run(&self) {
        loop {
            let mut due: Vec<Waker> = Vec::new();
            let mut q = self.queue.lock().unwrap();
            loop {
                let now = Instant::now();
                match q.0.peek() {
                    Some(Reverse(e)) if e.at <= now => {
                        due.push(q.0.pop().expect("peeked").0.waker);
                    }
                    Some(Reverse(e)) => {
                        let wait = e.at - now;
                        if !due.is_empty() {
                            break;
                        }
                        let (nq, _) = self.tick.wait_timeout(q, wait).unwrap();
                        q = nq;
                    }
                    None => {
                        if !due.is_empty() {
                            break;
                        }
                        q = self.tick.wait(q).unwrap();
                    }
                }
            }
            drop(q);
            // Wake outside the lock: a waker may re-arm the watchdog
            // re-entrantly.
            for w in due {
                w.wake();
            }
        }
    }
}

fn watchdog() -> &'static Watchdog {
    static DOG: OnceLock<&'static Watchdog> = OnceLock::new();
    DOG.get_or_init(|| {
        let dog: &'static Watchdog = Box::leak(Box::new(Watchdog {
            queue: Mutex::new((BinaryHeap::new(), 0)),
            tick: Condvar::new(),
        }));
        std::thread::Builder::new()
            .name("oftm-park-watchdog".into())
            .spawn(move || dog.run())
            .expect("spawn watchdog");
        dog
    })
}

/// Arms a one-shot wake of `waker` after `delay`. Cheap relative to a
/// park (one heap push + condvar notify); never blocks on timer firing.
pub fn wake_after(delay: Duration, waker: Waker) {
    let dog = watchdog();
    let mut q = dog.queue.lock().unwrap();
    let seq = q.1;
    q.1 += 1;
    q.0.push(Reverse(Entry {
        at: Instant::now() + delay,
        seq,
        waker,
    }));
    drop(q);
    dog.tick.notify_one();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::task::Wake;

    struct Counting(AtomicUsize);
    impl Wake for Counting {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn deadline_fires_once_and_roughly_on_time() {
        let c = Arc::new(Counting(AtomicUsize::new(0)));
        wake_after(Duration::from_millis(5), Waker::from(Arc::clone(&c)));
        let deadline = Instant::now() + Duration::from_secs(5);
        while c.0.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "watchdog never fired");
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(c.0.load(Ordering::SeqCst), 1, "one-shot deadline");
    }

    #[test]
    fn out_of_order_deadlines_all_fire() {
        let c = Arc::new(Counting(AtomicUsize::new(0)));
        for ms in [30u64, 1, 15, 3, 8] {
            wake_after(Duration::from_millis(ms), Waker::from(Arc::clone(&c)));
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while c.0.load(Ordering::SeqCst) < 5 {
            assert!(Instant::now() < deadline, "some deadline never fired");
            std::thread::yield_now();
        }
    }
}
