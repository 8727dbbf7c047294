//! Bounded admission queue with explicit load shedding.
//!
//! Connections enqueue work; a fixed set of worker threads drains it.
//! The server keeps one queue per lane (build and run), each with its
//! own workers and cap. The queue depth is capped:
//! [`Queue::try_enqueue`] never blocks and never grows the backlog past
//! the cap — a full queue sheds the request so the client gets an
//! immediate `busy` (with a retry hint) instead of an unbounded latency
//! tail. [`Queue::close`] flips the queue into drain
//! mode: no new work is admitted, but everything already accepted is
//! still handed to workers — the "zero accepted requests lost" half of
//! the drain contract.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why [`Queue::try_enqueue`] refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refused {
    /// The queue is at capacity — shed, client should retry later.
    Full,
    /// The queue is closed (server draining) — do not retry here.
    Closed,
}

struct State<T> {
    jobs: VecDeque<T>,
    closed: bool,
}

/// A mutex+condvar MPMC queue with a hard depth cap.
pub struct Queue<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
    cap: usize,
}

impl<T> Queue<T> {
    /// A queue admitting at most `cap` (≥ 1) waiting jobs.
    pub fn new(cap: usize) -> Self {
        Queue {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Admits `job` unless the queue is full or closed. Never blocks.
    pub fn try_enqueue(&self, job: T) -> Result<usize, Refused> {
        let mut st = self.state.lock().expect("admission lock");
        if st.closed {
            return Err(Refused::Closed);
        }
        if st.jobs.len() >= self.cap {
            return Err(Refused::Full);
        }
        st.jobs.push_back(job);
        let depth = st.jobs.len();
        self.cv.notify_one();
        Ok(depth)
    }

    /// Takes the next job, blocking while the queue is open and empty.
    /// Returns `None` only once the queue is closed **and** drained —
    /// the worker-pool exit condition.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().expect("admission lock");
        loop {
            if let Some(job) = st.jobs.pop_front() {
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = self.cv.wait(st).expect("admission wait");
        }
    }

    /// Stops admitting; wakes every waiting worker so the pool can run
    /// the backlog down and exit.
    pub fn close(&self) {
        self.state.lock().expect("admission lock").closed = true;
        self.cv.notify_all();
    }

    /// Current backlog depth.
    pub fn depth(&self) -> usize {
        self.state.lock().expect("admission lock").jobs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_capacity() {
        let q = Queue::new(4);
        for i in 0..3 {
            q.try_enqueue(i).unwrap();
        }
        assert_eq!(q.depth(), 3);
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn full_queue_sheds() {
        let q = Queue::new(2);
        q.try_enqueue(1).unwrap();
        q.try_enqueue(2).unwrap();
        assert_eq!(q.try_enqueue(3), Err(Refused::Full));
        q.pop();
        q.try_enqueue(3).unwrap();
    }

    #[test]
    fn closed_queue_refuses_but_drains() {
        let q = Queue::new(4);
        q.try_enqueue(1).unwrap();
        q.try_enqueue(2).unwrap();
        q.close();
        assert_eq!(q.try_enqueue(3), Err(Refused::Closed));
        assert_eq!(q.pop(), Some(1), "accepted jobs survive close");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None, "then the pool exits");
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let q = Arc::new(Queue::<u32>::new(1));
        let worker = {
            let q = q.clone();
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        q.close();
        assert_eq!(worker.join().unwrap(), None);
    }

    #[test]
    fn many_producers_one_consumer() {
        let q = Arc::new(Queue::new(64));
        std::thread::scope(|s| {
            for t in 0..4 {
                let q = q.clone();
                s.spawn(move || {
                    for i in 0..16 {
                        while q.try_enqueue(t * 16 + i).is_err() {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let mut got = Vec::new();
            for _ in 0..64 {
                got.push(q.pop().unwrap());
            }
            got.sort_unstable();
            assert_eq!(got, (0..64).collect::<Vec<_>>());
        });
    }
}
