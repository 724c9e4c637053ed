//! A small scoped worker pool for deterministic parallel builds.
//!
//! A framework build's per-meta-document jobs run through this module, on
//! as many workers as `effective_threads` resolves `build_threads` to.
//! Each job runs sequentially inside: nothing nests a second pool.
//!
//! `run_scheduled` always returns results in ascending job-id order, no
//! matter the schedule or thread count. As long as the jobs themselves are
//! pure functions of their id, a caller that merges results sequentially is
//! oblivious to scheduling: any thread count produces identical — for
//! serialized consumers, byte-identical — output.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Resolves a requested thread count against the host and the job count:
/// `0` means one thread per available core, and the result never exceeds
/// `jobs` (idle workers are pure overhead) nor drops below 1.
pub fn effective_threads(requested: usize, jobs: usize) -> usize {
    let threads = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    threads.min(jobs).max(1)
}

/// Runs the jobs named by `schedule` (a permutation of `0..n`) on `threads`
/// scoped workers and returns one result per job, in **ascending job-id
/// order** regardless of schedule or thread count.
///
/// Workers claim schedule slots off a shared atomic cursor, so an
/// expensive-jobs-first schedule keeps the pool busy to the end. With
/// `threads <= 1` the jobs run inline in schedule order — same results, no
/// thread spawns.
pub fn run_scheduled<T, F>(threads: usize, schedule: &[usize], job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut tagged: Vec<(usize, T)> = Vec::with_capacity(schedule.len());
    if threads <= 1 || schedule.len() <= 1 {
        for &id in schedule {
            tagged.push((id, job(id)));
        }
    } else {
        let cursor = AtomicUsize::new(0);
        // flixcheck: allow(unbounded-channel): build-time pipeline: filled by a fixed fan-out and drained before the builder returns, never on a serving path
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            for _ in 0..threads {
                let tx = tx.clone();
                let (cursor, job) = (&cursor, &job);
                s.spawn(move || loop {
                    // flixcheck: allow(atomic-ordering): the cursor only needs RMW uniqueness to claim slots; no data is published through it
                    let slot = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&id) = schedule.get(slot) else { break };
                    let out = job(id);
                    if tx.send((id, out)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
        });
        // The scope joined every worker, so the queue holds every job.
        while let Ok(item) = rx.try_recv() {
            tagged.push(item);
        }
        assert!(
            tagged.len() == schedule.len(),
            "worker pool produced {} of {} jobs",
            tagged.len(),
            schedule.len()
        );
    }
    tagged.sort_by_key(|&(id, _)| id);
    tagged.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        for threads in [1, 2, 8] {
            let schedule: Vec<usize> = (0..20).collect();
            let out = run_scheduled(threads, &schedule, |i| i * i);
            assert_eq!(out, (0..20).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn schedule_order_is_invisible() {
        let mut schedule: Vec<usize> = (0..16).collect();
        schedule.reverse();
        for threads in [1, 3] {
            let out = run_scheduled(threads, &schedule, |i| format!("job-{i}"));
            for (i, s) in out.iter().enumerate() {
                assert_eq!(s, &format!("job-{i}"));
            }
        }
    }

    #[test]
    fn empty_and_single_job() {
        let out: Vec<u32> = run_scheduled(4, &[], |_| unreachable!());
        assert!(out.is_empty());
        assert_eq!(run_scheduled(4, &[0], |i| i + 1), vec![1]);
    }

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(8, 0), 1);
        assert_eq!(effective_threads(2, 100), 2);
        // auto (0): at least one, at most `jobs`
        let auto = effective_threads(0, 2);
        assert!((1..=2).contains(&auto));
    }
}
