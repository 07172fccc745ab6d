//! The workspace's one worker pool: a claim counter over an item list.
//!
//! It lives here for the same reason [`crate::Clock`] does: `obs` is the
//! one crate every layer that fans out (crawl units, per-bot analysis,
//! honeypot guilds, scheduler chains) already depends on. Workers claim
//! item indices from a shared atomic counter and deposit each result in
//! that item's slot, so the output is a pure function of the item list —
//! the worker count only changes wall-clock time.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Map `work` over `items` on up to `workers` threads, returning the
/// results in item order.
///
/// Each worker builds its own state with `init(worker)` before its first
/// claim (a scrape session, an HTTP client, or `()`) and reuses it for
/// every item it claims. The first error stops every worker from claiming
/// further items and is returned; items already finished stay finished.
/// With one worker, or at most one item, everything runs inline on the
/// caller's thread and no thread is spawned.
pub fn claim_map<I, S, T, E>(
    items: Vec<I>,
    workers: usize,
    init: impl Fn(usize) -> S + Sync,
    work: impl Fn(&mut S, usize, I) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E>
where
    I: Send,
    T: Send,
    E: Send,
{
    let count = items.len();
    if workers <= 1 || count <= 1 {
        let mut state = None;
        return items
            .into_iter()
            .enumerate()
            .map(|(idx, item)| work(state.get_or_insert_with(|| init(0)), idx, item))
            .collect();
    }

    let items: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let first_error: Mutex<Option<E>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for worker in 0..workers.min(count) {
            let (items, slots, next, stop, first_error) =
                (&items, &slots, &next, &stop, &first_error);
            let (init, work) = (&init, &work);
            scope.spawn(move || {
                let mut state = None;
                while !stop.load(Ordering::Relaxed) {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(idx).and_then(|slot| lock(slot).take()) else {
                        break;
                    };
                    match work(state.get_or_insert_with(|| init(worker)), idx, item) {
                        Ok(out) => *lock(&slots[idx]) = Some(out),
                        Err(e) => {
                            stop.store(true, Ordering::Relaxed);
                            lock(first_error).get_or_insert(e);
                        }
                    }
                }
            });
        }
    });
    if let Some(e) = first_error
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        return Err(e);
    }
    // A plain `map` lets the collect reuse the slots' allocation in place,
    // so the results never exist twice.
    Ok(slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("with no error every item was claimed and finished")
        })
        .collect())
}

/// A worker that panics has already taken the whole scope down with it,
/// so a poisoned slot still holds consistent data.
fn lock<T>(slot: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    fn squares(items: Vec<u64>, workers: usize) -> Vec<u64> {
        let Ok(out) = claim_map(
            items,
            workers,
            |_| (),
            |(), _, x| Ok::<_, Infallible>(x * x),
        );
        out
    }

    #[test]
    fn outputs_line_up_with_items_at_any_worker_count() {
        for len in [0, 1, 37] {
            let items: Vec<u64> = (0..len).collect();
            let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
            for workers in [0, 1, 2, 4, 16, 64] {
                assert_eq!(
                    squares(items.clone(), workers),
                    expected,
                    "workers={workers}"
                );
            }
        }
    }

    #[test]
    fn workers_reuse_their_state_across_claims() {
        let inits = AtomicUsize::new(0);
        let Ok(out) = claim_map(
            (0..50u64).collect(),
            3,
            |worker| {
                inits.fetch_add(1, Ordering::Relaxed);
                (worker, 0u64)
            },
            |(_, seen), idx, x| {
                *seen += 1;
                Ok::<_, Infallible>((idx as u64, x))
            },
        );
        assert_eq!(out, (0..50u64).map(|x| (x, x)).collect::<Vec<_>>());
        assert!(inits.into_inner() <= 3, "at most one state per worker");
    }

    #[test]
    fn one_worker_or_one_item_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        for (items, workers) in [(vec![1u8, 2, 3], 1), (vec![7u8], 8)] {
            let Ok(threads) = claim_map(
                items,
                workers,
                |_| (),
                |(), _, _| Ok::<_, Infallible>(std::thread::current().id()),
            );
            assert!(threads.iter().all(|t| *t == caller));
        }
    }

    #[test]
    fn the_first_error_stops_further_claims() {
        for workers in [1, 4] {
            let ran = AtomicUsize::new(0);
            let result = claim_map(
                (0..1_000u32).collect(),
                workers,
                |_| (),
                |(), _, x| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if x == 3 {
                        return Err(format!("item {x} failed"));
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    Ok(x)
                },
            );
            assert_eq!(result, Err("item 3 failed".to_string()));
            assert!(
                ran.into_inner() < 1_000,
                "workers={workers}: claims continued past the error"
            );
        }
    }
}
