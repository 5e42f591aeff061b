//! Computing work units ahead of the thread that seals them.
//!
//! The thread that runs the lifecycle — the *sealer* — still takes unit
//! outputs, and seals them, one at a time in unit order. Meanwhile one
//! worker (the helper of a [`rayon::join`], when the process-wide
//! thread budget has a share idle) claims the units to compute, in
//! order, and buffers each output in its unit's slot. When the sealer
//! asks for a unit that is not ready, it computes the next unclaimed
//! unit itself instead of waiting, and waits only when nothing is left
//! to claim. At width 1 the join runs inline and the sealer computes
//! every unit in turn, as a serial run does.
//!
//! Claims follow unit order and every claimed unit is sealed unless the
//! run stops early, so nothing is computed that a serial run would not
//! compute. A unit's panic is caught where it happens and resumed on the
//! sealer when that unit's turn comes; an error is an output like any
//! other. Once the sealer is done — finished, failed or killed — nothing
//! more is claimed. There is no lookahead cap: buffered outputs are
//! bounded by the run's own artifacts.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// Unit outputs computed ahead of the sealer; see the module docs.
pub(crate) struct Ahead<'f, T> {
    compute: &'f (dyn Fn(usize) -> T + Sync),
    /// The units to compute, in unit order; slot `k` is `todo[k]`'s.
    todo: Vec<usize>,
    state: Mutex<State<T>>,
    changed: Condvar,
}

struct State<T> {
    /// The next unclaimed slot.
    next: usize,
    /// Finished outputs (or caught panics) by slot, until taken.
    done: Vec<Option<thread::Result<T>>>,
    /// The sealer is done: claim nothing more.
    closed: bool,
}

/// Runs `seal` on the calling thread while a worker computes the units
/// in `todo` (ascending) ahead of it, and returns what `seal` returns.
/// `compute(i)` computes unit `i`; `seal` takes the outputs through
/// [`Ahead::take`].
pub(crate) fn run<T, R>(
    todo: Vec<usize>,
    compute: &(dyn Fn(usize) -> T + Sync),
    seal: impl FnOnce(&Ahead<'_, T>) -> R + Send,
) -> R
where
    T: Send,
    R: Send,
{
    struct Close<'a, 'f, T>(&'a Ahead<'f, T>);
    impl<T> Drop for Close<'_, '_, T> {
        fn drop(&mut self) {
            self.0.lock().closed = true;
            self.0.changed.notify_all();
        }
    }
    debug_assert!(todo.windows(2).all(|w| w[0] < w[1]), "units in order");
    let ahead = Ahead {
        compute,
        state: Mutex::new(State {
            next: 0,
            done: todo.iter().map(|_| None).collect(),
            closed: false,
        }),
        todo,
        changed: Condvar::new(),
    };
    if ahead.todo.is_empty() {
        return seal(&ahead);
    }
    let (sealed, ()) = rayon::join(
        || {
            let _close = Close(&ahead);
            seal(&ahead)
        },
        || ahead.work(),
    );
    sealed
}

impl<T> Ahead<'_, T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn claim(&self, state: &mut State<T>) -> Option<usize> {
        let slot = state.next;
        (slot < self.todo.len() && !state.closed).then(|| {
            state.next += 1;
            slot
        })
    }

    /// The output of `unit`, one of the units to compute. Computes units
    /// ahead while it is not ready, and resumes its panic if its
    /// computation panicked.
    pub(crate) fn take(&self, unit: usize) -> T {
        let Ok(slot) = self.todo.binary_search(&unit) else {
            panic!("unit {unit} is not to be computed");
        };
        let mut state = self.lock();
        loop {
            if let Some(out) = state.done[slot].take() {
                return out.unwrap_or_else(|payload| panic::resume_unwind(payload));
            }
            // Claims go in slot order, so an unclaimed `slot` is claimed
            // here before any later one; a claimed one is always finished.
            if let Some(next) = self.claim(&mut state) {
                drop(state);
                self.finish(next);
                state = self.lock();
            } else {
                state = self
                    .changed
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// The worker: claims units in order until none is left or the
    /// sealer is done.
    fn work(&self) {
        loop {
            // The guard drops with this statement, before the unit runs.
            let Some(slot) = self.claim(&mut self.lock()) else {
                return;
            };
            self.finish(slot);
        }
    }

    /// Computes the unit of `slot` on this thread and buffers its output.
    fn finish(&self, slot: usize) {
        let out = panic::catch_unwind(AssertUnwindSafe(|| (self.compute)(self.todo[slot])));
        self.lock().done[slot] = Some(out);
        self.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn outputs_come_in_unit_order_and_only_units_to_compute_run() {
        let calls = AtomicUsize::new(0);
        let compute = |i: usize| {
            calls.fetch_add(1, Ordering::SeqCst);
            assert!(i % 3 != 1, "unit {i} is skipped and must not run");
            i * 10
        };
        let todo: Vec<usize> = (0..12).filter(|i| i % 3 != 1).collect();
        for threads in ["1", "2", "3"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            calls.store(0, Ordering::SeqCst);
            let out = run(todo.clone(), &compute, |ahead| {
                todo.iter().map(|&i| ahead.take(i)).collect::<Vec<_>>()
            });
            assert_eq!(out, [0, 20, 30, 50, 60, 80, 90, 110]);
            assert_eq!(calls.load(Ordering::SeqCst), 8, "at width {threads}");
        }
    }

    #[test]
    fn a_panicking_unit_fails_the_run_at_its_turn_instead_of_hanging() {
        let sealed = Mutex::new(Vec::new());
        let compute = |i: usize| {
            assert!(i != 2, "unit {i} panics");
            i
        };
        let failed = panic::catch_unwind(AssertUnwindSafe(|| {
            run((0..5).collect(), &compute, |ahead| {
                for i in 0..5 {
                    let out = ahead.take(i);
                    sealed.lock().unwrap().push(out);
                }
            })
        }));
        let payload = failed.expect_err("the unit's panic reaches the sealer");
        let msg = payload.downcast_ref::<String>().map(String::as_str);
        assert_eq!(msg, Some("unit 2 panics"));
        assert_eq!(
            *sealed.lock().unwrap(),
            [0, 1],
            "units before it are sealed"
        );
    }

    #[test]
    fn the_worker_stops_claiming_once_the_sealer_is_done() {
        let calls = AtomicUsize::new(0);
        let compute = |i: usize| {
            calls.fetch_add(1, Ordering::SeqCst);
            thread::sleep(std::time::Duration::from_millis(1));
            i
        };
        // The sealer stops after one unit, as `kill-after-unit=1` does.
        let first = run((0..200).collect(), &compute, |ahead| ahead.take(0));
        assert_eq!(first, 0);
        assert!(
            calls.load(Ordering::SeqCst) < 200,
            "the worker stopped early"
        );
    }
}
