//! The slice-multiplexing machine driver: the grid's one executor.
//!
//! Tasks implement [`SliceTask`] and run in *slices*, so M in-flight
//! tasks multiplex over K worker threads (`capacity = workers × mux`)
//! instead of each owning a thread for its whole lifetime (a machine
//! stalled on a far-future timer interrupt need not hold one). Runnable
//! tasks wait in a shared FIFO; tasks that report themselves blocked
//! until a future simulated cycle park in a min-heap keyed by wake
//! cycle, and are resumed earliest-deadline-first once no runnable work
//! remains. A task that finishes in one slice (a warm-up, say) is just a
//! task whose first step returns [`Step::Done`].
//!
//! Admission is lazy: task `i` is materialized by the caller's `spawn`
//! closure only when a worker actually has a slot for it, so a
//! 10,000-point grid never holds 10,000 machines in memory — at most
//! `capacity` of them. An admitted task is always stepped at least once.
//!
//! Scheduling cannot affect results: each task is stepped by at most one
//! worker at a time, and a correctly written [`SliceTask`] is
//! deterministic in its own slice sequence (the simulator's
//! `Machine::step_slice` contract guarantees the slice sequence itself
//! is invisible), so driver output is byte-identical to serial
//! execution no matter how slices interleave across workers.
//!
//! Cancellation is cooperative: a shared flag checked between slices by
//! every worker, an optional deadline armed by a collector-side
//! watchdog, and mid-slice interruption left to the task (machines poll
//! the same flag internally, via [`WorkerCtx::cancel`]). A worker checks
//! the flag and the deadline before every pick, so it admits no task
//! after seeing either. Tasks that were started but never finished are
//! handed back one [`SliceTask::abandon`] call at shutdown so partial
//! progress can be recorded.

use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// What a worker passes to each slice it runs.
pub struct WorkerCtx {
    /// The running worker's id, in `0..workers` (recorded per point so
    /// shard balance is measurable from the output alone).
    pub worker: usize,
    /// The driver-wide cancel flag; hand it to the machine being run so
    /// cancellation can interrupt a task mid-slice.
    pub cancel: Arc<AtomicBool>,
}

/// What one slice of a task produced.
#[derive(Debug)]
pub enum Step<D> {
    /// Terminal: the task finished with a result.
    Done(D),
    /// The slice budget ran out mid-work; the task is immediately
    /// runnable again.
    Yield,
    /// The task cannot progress before simulated cycle `wake`; park it.
    /// Simulated time has no host-time meaning, so a parked task is
    /// resumed (earliest wake first) as soon as a worker has nothing
    /// runnable — `wake` is a priority, not a wait.
    Blocked {
        /// Simulated cycle the task wants to resume at.
        wake: u64,
    },
    /// Terminal without a result: the task was cancelled or timed out
    /// mid-slice and has already recorded whatever it wants to keep.
    Abort,
}

/// A resumable unit of work the driver can multiplex.
pub trait SliceTask: Send {
    /// The finished-task result type.
    type Done: Send;

    /// Runs one slice. The driver guarantees calls are serialized per
    /// task (never concurrent), but consecutive slices of one task may
    /// run on different workers.
    fn step(&mut self, ctx: &WorkerCtx) -> Step<Self::Done>;

    /// Called once at driver shutdown for a task that was admitted but
    /// never reached a terminal step (deadline or cancellation while it
    /// sat in a queue). Record partial progress here; default: nothing.
    fn abandon(&mut self) {}
}

/// One parked task, ordered for a min-heap: earliest wake cycle first,
/// FIFO within a wake cycle.
struct Parked<T> {
    wake: u64,
    seq: u64,
    index: usize,
    task: T,
}

impl<T> PartialEq for Parked<T> {
    fn eq(&self, other: &Self) -> bool {
        self.wake == other.wake && self.seq == other.seq
    }
}
impl<T> Eq for Parked<T> {}
impl<T> PartialOrd for Parked<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Parked<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the minimum wake.
        other.wake.cmp(&self.wake).then(other.seq.cmp(&self.seq))
    }
}

/// Shared driver state behind one mutex.
struct Pool<T> {
    /// Next unadmitted task index (tasks are admitted in index order).
    next: usize,
    /// Tasks ready to run another slice, FIFO.
    runnable: VecDeque<(usize, T)>,
    /// Tasks parked until a future simulated cycle, min-heap by wake.
    parked: BinaryHeap<Parked<T>>,
    /// Tasks currently held by a worker (being spawned or stepped).
    stepping: usize,
    /// Monotonic counter for heap FIFO tie-breaks.
    seq: u64,
}

impl<T> Pool<T> {
    fn in_flight(&self) -> usize {
        self.runnable.len() + self.parked.len() + self.stepping
    }
}

/// What a worker decided to do after consulting the pool.
enum Picked<T> {
    /// Step this already-admitted task.
    Run(usize, T),
    /// Admit task `i`: spawn it (outside the lock) and step it.
    Admit(usize),
    /// Nothing to do right now, but work is still in flight elsewhere.
    Wait,
    /// Everything is finished.
    Exit,
}

/// The multiplexing driver configuration.
#[derive(Clone, Debug)]
pub struct MachineDriver {
    /// Worker thread count (clamped to at least 1 and at most the task
    /// count).
    pub workers: usize,
    /// In-flight tasks *per worker* (the `--mux` oversubscription
    /// factor, clamped to at least 1): up to `workers × mux` tasks are
    /// admitted at once.
    pub mux: usize,
    /// Stop dispatching and cancel in-flight tasks once this instant
    /// passes.
    pub deadline: Option<Instant>,
    /// An externally shared cancel flag (e.g. a Ctrl-C handler); the
    /// driver creates its own when absent.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl MachineDriver {
    /// A driver with `workers` threads, no oversubscription, no deadline.
    pub fn new(workers: usize) -> MachineDriver {
        MachineDriver {
            workers,
            mux: 1,
            deadline: None,
            cancel: None,
        }
    }

    /// Sets the oversubscription factor (in-flight tasks per worker).
    pub fn with_mux(mut self, mux: usize) -> MachineDriver {
        self.mux = mux;
        self
    }

    /// Sets the deadline.
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> MachineDriver {
        self.deadline = deadline;
        self
    }

    /// Runs tasks `0..n`, spawning each lazily via `spawn` when a slot
    /// frees up and streaming completions to `on_done` on the caller's
    /// thread (in completion order; use the returned vector for task
    /// order).
    pub fn run<T: SliceTask>(
        &self,
        n: usize,
        spawn: impl Fn(usize) -> T + Sync,
        mut on_done: impl FnMut(usize, &T::Done),
    ) -> DriverOutcome<T::Done> {
        let mut results: Vec<Option<T::Done>> = (0..n).map(|_| None).collect();
        if n == 0 {
            return DriverOutcome {
                results,
                completed: 0,
                cancelled: 0,
                deadline_hit: false,
            };
        }
        let workers = self.workers.clamp(1, n);
        let capacity = workers.saturating_mul(self.mux.max(1));
        let cancel = self
            .cancel
            .clone()
            .unwrap_or_else(|| Arc::new(AtomicBool::new(false)));
        let deadline_hit = AtomicBool::new(false);
        let pool = Mutex::new(Pool::<T> {
            next: 0,
            runnable: VecDeque::new(),
            parked: BinaryHeap::new(),
            stepping: 0,
            seq: 0,
        });
        let wakeup = Condvar::new();

        let (tx, rx) = mpsc::channel::<(usize, Option<T::Done>)>();
        thread::scope(|s| {
            for w in 0..workers {
                let tx = tx.clone();
                let pool = &pool;
                let wakeup = &wakeup;
                let cancel = Arc::clone(&cancel);
                let deadline = self.deadline;
                let deadline_hit = &deadline_hit;
                let spawn = &spawn;
                s.spawn(move || {
                    let ctx = WorkerCtx { worker: w, cancel };
                    loop {
                        if let Some(d) = deadline {
                            if Instant::now() >= d && !ctx.cancel.swap(true, Ordering::SeqCst) {
                                deadline_hit.store(true, Ordering::SeqCst);
                            }
                        }
                        if ctx.cancel.load(Ordering::SeqCst) {
                            wakeup.notify_all();
                            break;
                        }
                        let picked = {
                            let mut pool = pool.lock().unwrap();
                            if let Some((i, task)) = pool.runnable.pop_front() {
                                pool.stepping += 1;
                                Picked::Run(i, task)
                            } else if pool.next < n && pool.in_flight() < capacity {
                                let i = pool.next;
                                pool.next += 1;
                                pool.stepping += 1;
                                Picked::Admit(i)
                            } else if let Some(p) = pool.parked.pop() {
                                pool.stepping += 1;
                                Picked::Run(p.index, p.task)
                            } else if pool.next >= n && pool.stepping == 0 {
                                Picked::Exit
                            } else {
                                // Work is in flight on other workers; it
                                // may come back runnable. The timeout
                                // doubles as the cancel/deadline re-check
                                // cadence.
                                let _guard = wakeup
                                    .wait_timeout(pool, Duration::from_millis(10))
                                    .unwrap();
                                Picked::Wait
                            }
                        };
                        let (i, mut task) = match picked {
                            Picked::Run(i, task) => (i, task),
                            Picked::Admit(i) => (i, spawn(i)),
                            Picked::Wait => continue,
                            Picked::Exit => {
                                wakeup.notify_all();
                                break;
                            }
                        };
                        let step = task.step(&ctx);
                        let mut pool = pool.lock().unwrap();
                        pool.stepping -= 1;
                        match step {
                            Step::Done(d) => {
                                drop(pool);
                                if tx.send((i, Some(d))).is_err() {
                                    break;
                                }
                            }
                            Step::Abort => {
                                drop(pool);
                                if tx.send((i, None)).is_err() {
                                    break;
                                }
                            }
                            Step::Yield => {
                                pool.runnable.push_back((i, task));
                                drop(pool);
                            }
                            Step::Blocked { wake } => {
                                let seq = pool.seq;
                                pool.seq += 1;
                                pool.parked.push(Parked {
                                    wake,
                                    seq,
                                    index: i,
                                    task,
                                });
                                drop(pool);
                            }
                        }
                        wakeup.notify_all();
                    }
                });
            }
            drop(tx);
            // Collector doubling as the deadline watchdog: workers only
            // check the clock between slices, so the recv timeout
            // guarantees the cancel flag is armed the moment the budget
            // expires even if every worker is mid-slice.
            let mut watchdog = self.deadline;
            loop {
                let received = match watchdog {
                    Some(d) => match rx.recv_timeout(d.saturating_duration_since(Instant::now())) {
                        Ok(msg) => Some(msg),
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            if !cancel.swap(true, Ordering::SeqCst) {
                                deadline_hit.store(true, Ordering::SeqCst);
                            }
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
        });
        // Tasks stranded in the queues by a cancel/deadline shutdown get
        // one chance to record partial progress.
        let pool = pool.into_inner().unwrap();
        for (_, mut task) in pool.runnable {
            task.abandon();
        }
        for mut p in pool.parked.into_vec() {
            p.task.abandon();
        }
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
    /// never admitted.
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
    use std::sync::atomic::AtomicUsize;

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
        let driver = MachineDriver::new(3).with_mux(4);
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
    fn admission_never_exceeds_capacity() {
        // Peak concurrent admissions is bounded by workers × mux.
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        struct Counted(usize);
        impl SliceTask for Counted {
            type Done = ();
            fn step(&mut self, _ctx: &WorkerCtx) -> Step<()> {
                if self.0 == 0 {
                    LIVE.fetch_sub(1, Ordering::SeqCst);
                    Step::Done(())
                } else {
                    self.0 -= 1;
                    Step::Yield
                }
            }
        }
        LIVE.store(0, Ordering::SeqCst);
        PEAK.store(0, Ordering::SeqCst);
        let out = MachineDriver::new(2).with_mux(3).run(
            64,
            |i| {
                let live = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
                PEAK.fetch_max(live, Ordering::SeqCst);
                Counted(i % 5)
            },
            |_, _| {},
        );
        assert_eq!(out.completed, 64);
        assert!(
            PEAK.load(Ordering::SeqCst) <= 6,
            "capacity exceeded: {} admitted at once",
            PEAK.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn blocked_tasks_park_and_resume() {
        // Every task blocks once on a distinct wake cycle, then
        // completes. All must come back from the heap.
        struct Sleeper {
            index: usize,
            slept: bool,
        }
        impl SliceTask for Sleeper {
            type Done = usize;
            fn step(&mut self, _ctx: &WorkerCtx) -> Step<usize> {
                if self.slept {
                    Step::Done(self.index)
                } else {
                    self.slept = true;
                    Step::Blocked {
                        wake: 1_000_000 - self.index as u64,
                    }
                }
            }
        }
        let out = MachineDriver::new(2).with_mux(8).run(
            20,
            |i| Sleeper {
                index: i,
                slept: false,
            },
            |_, _| {},
        );
        assert_eq!(out.completed, 20);
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(*r, Some(i));
        }
    }

    #[test]
    fn parked_heap_resumes_earliest_wake_first() {
        // One worker, all tasks admitted then parked: resume order must
        // follow wake cycles, not admission order.
        let order = Mutex::new(Vec::new());
        struct Recorder<'a> {
            index: usize,
            wake: u64,
            slept: bool,
            order: &'a Mutex<Vec<usize>>,
        }
        impl SliceTask for Recorder<'_> {
            type Done = ();
            fn step(&mut self, _ctx: &WorkerCtx) -> Step<()> {
                if self.slept {
                    self.order.lock().unwrap().push(self.index);
                    Step::Done(())
                } else {
                    self.slept = true;
                    Step::Blocked { wake: self.wake }
                }
            }
        }
        let wakes = [50u64, 10, 40, 20, 30];
        let out = MachineDriver::new(1).with_mux(5).run(
            5,
            |i| Recorder {
                index: i,
                wake: wakes[i],
                slept: false,
                order: &order,
            },
            |_, _| {},
        );
        assert_eq!(out.completed, 5);
        // Earliest wake (10, task 1) resumes first, latest (50, task 0)
        // last.
        assert_eq!(*order.lock().unwrap(), vec![1, 3, 4, 2, 0]);
    }

    #[test]
    fn cancel_abandons_unfinished_tasks() {
        static ABANDONED: AtomicUsize = AtomicUsize::new(0);
        struct Stubborn {
            flag: Arc<AtomicBool>,
        }
        impl SliceTask for Stubborn {
            type Done = ();
            fn step(&mut self, _ctx: &WorkerCtx) -> Step<()> {
                self.flag.store(true, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(1));
                Step::Yield
            }
            fn abandon(&mut self) {
                ABANDONED.fetch_add(1, Ordering::SeqCst);
            }
        }
        ABANDONED.store(0, Ordering::SeqCst);
        let flag = Arc::new(AtomicBool::new(false));
        let mut driver = MachineDriver::new(2).with_mux(2);
        driver.cancel = Some(Arc::clone(&flag));
        let out = driver.run(
            8,
            |_| Stubborn {
                flag: Arc::clone(&flag),
            },
            |_, _| {},
        );
        assert_eq!(out.completed, 0);
        assert_eq!(out.cancelled, 8);
        assert!(
            ABANDONED.load(Ordering::SeqCst) > 0,
            "no queued task was offered an abandon call"
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
            "watchdog failed to cancel the in-flight slice"
        );
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
