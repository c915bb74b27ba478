//! Workspace shim for `crossbeam`: an unbounded blocking MPMC channel
//! (`channel::unbounded`) built on a mutex + condvar. Receivers are
//! cloneable, which `std::sync::mpsc` does not offer. Nothing calls it
//! any more; it stays only because the benchmark package's `Cargo.lock`
//! lists it, and goes with the next change to that package.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Sending half; cloneable.
    pub struct Sender<T>(Arc<Shared<T>>);

    /// Receiving half; cloneable (MPMC).
    pub struct Receiver<T>(Arc<Shared<T>>);

    /// Error returned when sending into a channel with no receivers.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned when receiving from an empty, sender-less channel.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with the queue still empty.
        Timeout,
        /// Every sender is gone and the queue is empty.
        Disconnected,
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (Sender(shared.clone()), Receiver(shared))
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.senders.fetch_add(1, Ordering::Relaxed);
            Sender(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.0.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender gone: wake every blocked receiver.
                self.0.ready.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Enqueues `value`; fails only when every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.0.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(value));
            }
            self.0
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push_back(value);
            self.0.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.receivers.fetch_add(1, Ordering::Relaxed);
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.0.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a value arrives or every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                q = self.0.ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Blocks until a value arrives, every sender is gone, or
        /// `timeout` elapses.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            let deadline = std::time::Instant::now() + timeout;
            let mut q = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _res) = self
                    .0
                    .ready
                    .wait_timeout(q, left)
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
        }

        /// Non-blocking receive; `None` when the queue is currently empty.
        pub fn try_recv(&self) -> Option<T> {
            self.0
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel;

    #[test]
    fn mpmc_fan_out() {
        let (tx, rx) = channel::unbounded::<u32>();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = 0u32;
                    while rx.recv().is_ok() {
                        got += 1;
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let total: u32 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn recv_errors_after_last_sender_drops() {
        let (tx, rx) = channel::unbounded::<u8>();
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert!(rx.recv().is_err());
    }

    #[test]
    fn send_errors_with_no_receivers() {
        let (tx, rx) = channel::unbounded::<u8>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = channel::unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_millis(5)),
            Err(channel::RecvTimeoutError::Timeout)
        );
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(std::time::Duration::from_millis(5)), Ok(9));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_millis(5)),
            Err(channel::RecvTimeoutError::Disconnected)
        );
    }
}
