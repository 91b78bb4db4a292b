//! The machine driver: the grid's one executor.
//!
//! Tasks implement [`SliceTask`]. Each of K worker threads claims the
//! next task index from a shared counter, spawns that task and steps it
//! on the same thread until it ends, then claims the next. A task that
//! finishes in one step (a warm-up, a grid point) is just a task whose
//! first step returns [`Step::Done`]; [`Step::Yield`] and
//! [`Step::Blocked`] mean "step again now". So at most K tasks exist at
//! once, and a 10,000-point grid never holds 10,000 machines in memory.
//!
//! Scheduling cannot affect results: each task runs on one worker, and
//! a correctly written [`SliceTask`] is deterministic in its own step
//! sequence, so driver output is byte-identical to serial execution.
//!
//! Cancellation is cooperative: a shared flag, plus an optional deadline
//! that a collector-side watchdog turns into the same flag.
//! Interrupting a step is left to the task: machines poll the flag every
//! few thousand simulated cycles, via [`WorkerCtx::cancel`]. A worker
//! checks the flag and the deadline before every claim and between
//! steps; once either is set, it drops the task it holds, which counts
//! as cancelled, and claims nothing more.

use std::panic;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

/// What a worker passes to each step it runs.
pub struct WorkerCtx {
    /// The running worker's id, in `0..workers` (journaled per point).
    pub worker: usize,
    /// The driver-wide cancel flag; hand it to the machine being run so
    /// cancellation can interrupt a task mid-step.
    pub cancel: Arc<AtomicBool>,
}

/// What one step of a task produced.
#[derive(Debug)]
pub enum Step<D> {
    /// Terminal: the task finished with a result.
    Done(D),
    /// The step's budget ran out mid-work; step the task again.
    Yield,
    /// The task cannot progress before simulated cycle `wake`. Simulated
    /// time has no host-time meaning, so the worker steps it again at
    /// once: `wake` is information for the task, not a wait.
    Blocked {
        /// Simulated cycle the task wants to resume at.
        wake: u64,
    },
    /// Terminal without a result: the task was cancelled or timed out
    /// mid-step and has already recorded whatever it wants to keep.
    Abort,
}

/// A resumable unit of work the driver runs.
pub trait SliceTask: Send {
    /// The finished-task result type.
    type Done: Send;

    /// Runs one step. The driver calls it on one worker, again and
    /// again, until it returns [`Step::Done`] or [`Step::Abort`].
    fn step(&mut self, ctx: &WorkerCtx) -> Step<Self::Done>;
}

/// The driver configuration.
#[derive(Clone, Debug)]
pub struct MachineDriver {
    /// Worker thread count (clamped to at least 1 and at most the task
    /// count).
    pub workers: usize,
    /// Stop claiming tasks and cancel in-flight ones once this instant
    /// passes.
    pub deadline: Option<Instant>,
    /// An externally shared cancel flag (e.g. a Ctrl-C handler); the
    /// driver creates its own when absent.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl MachineDriver {
    /// A driver with `workers` threads and no deadline.
    pub fn new(workers: usize) -> MachineDriver {
        MachineDriver {
            workers,
            deadline: None,
            cancel: None,
        }
    }

    /// Sets the deadline.
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> MachineDriver {
        self.deadline = deadline;
        self
    }

    /// Runs tasks `0..n`, spawning each via `spawn` when a worker claims
    /// it and streaming completions to `on_done` on the caller's thread
    /// (in completion order; use the returned vector for task order).
    pub fn run<T: SliceTask>(
        &self,
        n: usize,
        spawn: impl Fn(usize) -> T + Sync,
        mut on_done: impl FnMut(usize, &T::Done),
    ) -> DriverOutcome<T::Done> {
        let mut results: Vec<Option<T::Done>> = (0..n).map(|_| None).collect();
        let cancel = self
            .cancel
            .clone()
            .unwrap_or_else(|| Arc::new(AtomicBool::new(false)));
        let deadline_hit = AtomicBool::new(false);
        // Raises the cancel flag once the deadline has passed; true when
        // the run must stop (deadline or external cancel).
        let stopped = || {
            if self.deadline.is_some_and(|d| Instant::now() >= d)
                && !cancel.swap(true, Ordering::SeqCst)
            {
                deadline_hit.store(true, Ordering::SeqCst);
            }
            cancel.load(Ordering::SeqCst)
        };
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Option<T::Done>)>();
        thread::scope(|s| {
            let mut workers = Vec::new();
            for w in 0..self.workers.clamp(1, n.max(1)) {
                let tx = tx.clone();
                let (next, spawn, stopped) = (&next, &spawn, &stopped);
                let ctx = WorkerCtx {
                    worker: w,
                    cancel: Arc::clone(&cancel),
                };
                workers.push(s.spawn(move || {
                    'claim: while !stopped() {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= n {
                            break;
                        }
                        let mut task = spawn(i);
                        let done = loop {
                            match task.step(&ctx) {
                                Step::Done(d) => break Some(d),
                                Step::Abort => break None,
                                Step::Yield | Step::Blocked { .. } if stopped() => break 'claim,
                                Step::Yield | Step::Blocked { .. } => {}
                            }
                        };
                        if tx.send((i, done)).is_err() {
                            break;
                        }
                    }
                }));
            }
            drop(tx);
            // Collector doubling as the deadline watchdog: workers only
            // check the clock between steps, so the recv timeout
            // guarantees the cancel flag is armed the moment the budget
            // expires even if every worker is mid-step.
            let mut watchdog = self.deadline;
            loop {
                let received = match watchdog {
                    Some(d) => match rx.recv_timeout(d.saturating_duration_since(Instant::now())) {
                        Ok(msg) => Some(msg),
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            stopped();
                            watchdog = None; // armed; plain recv from here
                            continue;
                        }
                        Err(mpsc::RecvTimeoutError::Disconnected) => None,
                    },
                    None => rx.recv().ok(),
                };
                let Some((i, res)) = received else { break };
                if let Some(r) = res {
                    on_done(i, &r);
                    results[i] = Some(r);
                }
            }
            // `scope` waits for the worker closures, not for their threads
            // to exit: a thread still exiting holds its malloc arena, so the
            // next run's workers would take fresh ones. Joining also hands
            // a worker's panic to the caller with its own payload.
            for worker in workers {
                if let Err(payload) = worker.join() {
                    panic::resume_unwind(payload);
                }
            }
        });
        let completed = results.iter().filter(|r| r.is_some()).count();
        DriverOutcome {
            results,
            completed,
            cancelled: n - completed,
            deadline_hit: deadline_hit.load(Ordering::SeqCst),
        }
    }
}

/// What [`MachineDriver::run`] produced.
#[derive(Debug)]
pub struct DriverOutcome<D> {
    /// Per-task results, in task order; `None` = cancelled, aborted, or
    /// never claimed.
    pub results: Vec<Option<D>>,
    /// Tasks that finished.
    pub completed: usize,
    /// Tasks that did not.
    pub cancelled: usize,
    /// Whether the deadline fired.
    pub deadline_hit: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A task that yields `yields` times, then completes with its index.
    struct Chatty {
        index: usize,
        yields: usize,
    }

    impl SliceTask for Chatty {
        type Done = usize;
        fn step(&mut self, _ctx: &WorkerCtx) -> Step<usize> {
            if self.yields == 0 {
                Step::Done(self.index)
            } else {
                self.yields -= 1;
                Step::Yield
            }
        }
    }

    #[test]
    fn multiplexed_tasks_all_complete_in_order() {
        let driver = MachineDriver::new(3);
        let mut streamed = 0usize;
        let out = driver.run(
            50,
            |i| Chatty {
                index: i,
                yields: i % 7,
            },
            |_, _| streamed += 1,
        );
        assert_eq!(out.completed, 50);
        assert_eq!(out.cancelled, 0);
        assert_eq!(streamed, 50);
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(*r, Some(i));
        }
    }

    #[test]
    fn blocked_tasks_park_and_resume() {
        // Every task yields, then blocks on a far-future wake cycle, then
        // completes: the worker steps it again at once until it is done,
        // on the worker that spawned it.
        struct Sleeper {
            index: usize,
            steps: usize,
            worker: Option<usize>,
        }
        impl SliceTask for Sleeper {
            type Done = usize;
            fn step(&mut self, ctx: &WorkerCtx) -> Step<usize> {
                assert_eq!(*self.worker.get_or_insert(ctx.worker), ctx.worker);
                self.steps += 1;
                match self.steps {
                    1 => Step::Yield,
                    2 => Step::Blocked {
                        wake: 1_000_000 - self.index as u64,
                    },
                    _ => Step::Done(self.index),
                }
            }
        }
        let out = MachineDriver::new(2).run(
            20,
            |i| Sleeper {
                index: i,
                steps: 0,
                worker: None,
            },
            |_, _| {},
        );
        assert_eq!(out.completed, 20);
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(*r, Some(i));
        }
    }

    #[test]
    fn cancel_abandons_unfinished_tasks() {
        // Tasks that only ever yield, and raise the cancel flag they are
        // handed: each worker drops its task after that first step and
        // claims nothing more, so every task counts as cancelled.
        static SPAWNED: AtomicUsize = AtomicUsize::new(0);
        struct Stubborn;
        impl SliceTask for Stubborn {
            type Done = ();
            fn step(&mut self, ctx: &WorkerCtx) -> Step<()> {
                ctx.cancel.store(true, Ordering::SeqCst);
                Step::Yield
            }
        }
        let flag = Arc::new(AtomicBool::new(false));
        let mut driver = MachineDriver::new(2);
        driver.cancel = Some(Arc::clone(&flag));
        let spawn = |_| {
            SPAWNED.fetch_add(1, Ordering::SeqCst);
            Stubborn
        };
        let out = driver.run(8, spawn, |_, _| {});
        assert!(flag.load(Ordering::SeqCst), "tasks see the external flag");
        assert_eq!((out.completed, out.cancelled), (0, 8));
        assert!(!out.deadline_hit);
        assert!(
            SPAWNED.load(Ordering::SeqCst) <= 2,
            "a worker claimed a task after the cancel"
        );
    }

    #[test]
    fn deadline_arms_cancel_mid_slice() {
        struct Slow;
        impl SliceTask for Slow {
            type Done = ();
            fn step(&mut self, ctx: &WorkerCtx) -> Step<()> {
                for _ in 0..2_000 {
                    if ctx.cancel.load(Ordering::SeqCst) {
                        return Step::Abort;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Step::Done(())
            }
        }
        let t0 = Instant::now();
        let out = MachineDriver::new(1)
            .with_deadline(Some(Instant::now() + Duration::from_millis(50)))
            .run(1, |_| Slow, |_, _| {});
        assert!(out.deadline_hit);
        assert_eq!(out.completed, 0);
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "watchdog failed to cancel the in-flight step"
        );
    }

    #[test]
    fn a_task_panic_reaches_the_caller_with_its_message() {
        struct Faulty(usize);
        impl SliceTask for Faulty {
            type Done = usize;
            fn step(&mut self, _ctx: &WorkerCtx) -> Step<usize> {
                if self.0 == 3 {
                    panic!("task 3 failed");
                }
                Step::Done(self.0)
            }
        }
        let payload =
            panic::catch_unwind(|| MachineDriver::new(2).run(8, Faulty, |_, _| {})).unwrap_err();
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        assert_eq!(message, Some("task 3 failed"));
    }

    #[test]
    fn empty_task_list() {
        let out = MachineDriver::new(4).run(
            0,
            |_| Chatty {
                index: 0,
                yields: 0,
            },
            |_, _| {},
        );
        assert_eq!(out.completed, 0);
        assert!(out.results.is_empty());
    }
}
