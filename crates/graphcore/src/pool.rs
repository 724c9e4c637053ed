//! A small scoped worker pool for deterministic parallel builds.
//!
//! Both the per-meta-document build stage in `flix` and the per-partition
//! stage of HOPI's staged cover pipeline pull their jobs through this
//! module, so one `build_threads` budget governs the whole build instead of
//! each layer spawning its own workers and oversubscribing the machine
//! (see `split_budget`).
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

/// Splits a resolved thread budget between an outer stage running
/// `outer_jobs` concurrent jobs and the nested parallelism each job may run
/// itself. Returns `(outer_workers, inner_shares)` where `inner_shares[w]`
/// is the inner thread budget of outer worker `w`.
///
/// A monolithic outer stage (`outer_jobs == 1`) hands the whole budget to
/// the single job's inner stages; many small outer jobs saturate the budget
/// at the outer level and get one inner thread each. In between, the
/// budget is distributed *exactly*: a flooring split used to strand part
/// of it (total=8 over 3 workers gave 3×2 = 6 threads), so the remainder
/// now goes one-each to the first workers. The shares always satisfy
/// `shares.len() == outer_workers`, `sum(shares) == max(total, 1)`, every
/// share is at least 1, and no two shares differ by more than 1 — the two
/// layers together use the whole budget and never oversubscribe it.
pub fn split_budget(total: usize, outer_jobs: usize) -> (usize, Vec<usize>) {
    let total = total.max(1);
    let outer = total.min(outer_jobs).max(1);
    let base = total / outer;
    let extra = total % outer;
    let shares = (0..outer).map(|w| base + usize::from(w < extra)).collect();
    (outer, shares)
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
    run_scheduled_budgeted(&vec![1; threads.max(1)], schedule, |id, _| job(id))
}

/// [`run_scheduled`] with one worker per entry of `shares`, each passing
/// its own inner thread budget (`shares[w]`) to the jobs it claims — the
/// consumption side of [`split_budget`]. Jobs must produce output
/// independent of the inner budget they are handed (wall clock may vary,
/// results may not), which keeps the ascending-job-id return order the
/// only scheduling contract, exactly as for [`run_scheduled`].
pub fn run_scheduled_budgeted<T, F>(shares: &[usize], schedule: &[usize], job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let mut tagged: Vec<(usize, T)> = Vec::with_capacity(schedule.len());
    if shares.len() <= 1 || schedule.len() <= 1 {
        // Inline: the single worker owns the whole budget.
        let inner = shares.iter().sum::<usize>().max(1);
        for &id in schedule {
            tagged.push((id, job(id, inner)));
        }
    } else {
        let cursor = AtomicUsize::new(0);
        // flixcheck: allow(unbounded-channel): build-time pipeline: filled by a fixed fan-out and drained before the builder returns, never on a serving path
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            for &share in shares {
                let tx = tx.clone();
                let (cursor, job) = (&cursor, &job);
                s.spawn(move || loop {
                    // flixcheck: allow(atomic-ordering): the cursor only needs RMW uniqueness to claim slots; no data is published through it
                    let slot = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&id) = schedule.get(slot) else { break };
                    let out = job(id, share.max(1));
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

    #[test]
    fn budget_split_is_exact_and_never_oversubscribes() {
        assert_eq!(
            split_budget(8, 1),
            (1, vec![8]),
            "monolithic keeps the budget"
        );
        assert_eq!(
            split_budget(8, 100),
            (8, vec![1; 8]),
            "wide stages get the budget"
        );
        // The flooring split used to strand 2 of 8 threads here (3×2 = 6);
        // the remainder now lands on the first workers.
        assert_eq!(split_budget(8, 3), (3, vec![3, 3, 2]));
        assert_eq!(split_budget(0, 5), (1, vec![1]));
        assert_eq!(split_budget(1, 1), (1, vec![1]));
        for total in 0..24 {
            for jobs in 1..24 {
                let (outer, shares) = split_budget(total, jobs);
                assert_eq!(shares.len(), outer, "{total}/{jobs}");
                assert!(
                    outer >= 1 && shares.iter().all(|&s| s >= 1),
                    "{total}/{jobs}"
                );
                // No oversubscription AND no stranded budget: the shares
                // sum to exactly the (clamped) total, which is tighter
                // than the old `outer × inner ≥ total − outer + 1` bound.
                assert_eq!(shares.iter().sum::<usize>(), total.max(1), "{total}/{jobs}");
                let (lo, hi) = (shares.iter().min(), shares.iter().max());
                assert!(
                    hi.unwrap() - lo.unwrap() <= 1,
                    "{total}/{jobs}: uneven shares {shares:?}"
                );
            }
        }
    }

    #[test]
    fn budgeted_workers_hand_their_share_to_jobs() {
        let (outer, shares) = split_budget(8, 3);
        assert_eq!(outer, 3);
        let seen = run_scheduled_budgeted(&shares, &[0, 1, 2, 3, 4, 5], |id, inner| (id, inner));
        for (i, &(id, inner)) in seen.iter().enumerate() {
            assert_eq!(id, i, "job-id return order");
            assert!(
                shares.contains(&inner),
                "job {id} ran with a budget ({inner}) no worker owns"
            );
        }
        // A single job gets the whole budget, whatever the worker count.
        let solo = run_scheduled_budgeted(&shares, &[0], |_, inner| inner);
        assert_eq!(solo, vec![8]);
    }
}
