//! In-process event bus: a bounded channel feeding a [`StretchServe`] on a
//! dedicated consumer thread, with a live queue-depth gauge.
//!
//! The bus exists so producers (request handlers, the replayed reference
//! stream of `repro_serve`) never block on a solve: they enqueue and move
//! on; the consumer thread validates, journals and schedules in submission
//! order.  Rejections are not reported back through the bus — they land in
//! the service's dead-letter queue, where the operator inspects them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::event::Submission;
use crate::journal::JournalError;
use crate::service::StretchServe;

/// Messages carried by the bus.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BusMessage {
    /// A job submission.
    Submit(Submission),
    /// Drain the service and stop the consumer.
    Finish,
}

/// The bus was closed (consumer gone) or full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BusSendError {
    /// The consumer thread has exited; the message was not delivered.
    Closed,
    /// The bounded queue is full (only from [`BusHandle::try_submit`]).
    Full,
}

impl std::fmt::Display for BusSendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BusSendError::Closed => write!(f, "event bus closed"),
            BusSendError::Full => write!(f, "event bus full"),
        }
    }
}

impl std::error::Error for BusSendError {}

/// Producer handle onto the bus.  Cloneable; dropping every handle drains
/// the service just like an explicit [`BusHandle::finish`].
#[derive(Clone, Debug)]
pub struct BusHandle {
    tx: SyncSender<BusMessage>,
    depth: Arc<AtomicUsize>,
}

impl BusHandle {
    /// Enqueues a submission, blocking while the queue is full.
    pub fn submit(&self, submission: Submission) -> Result<(), BusSendError> {
        self.send(BusMessage::Submit(submission))
    }

    /// Enqueues a submission without blocking.
    pub fn try_submit(&self, submission: Submission) -> Result<(), BusSendError> {
        self.depth.fetch_add(1, Ordering::SeqCst);
        self.tx
            .try_send(BusMessage::Submit(submission))
            .map_err(|e| {
                self.depth.fetch_sub(1, Ordering::SeqCst);
                match e {
                    TrySendError::Full(_) => BusSendError::Full,
                    TrySendError::Disconnected(_) => BusSendError::Closed,
                }
            })
    }

    /// Asks the consumer to drain and stop.
    pub fn finish(&self) -> Result<(), BusSendError> {
        self.send(BusMessage::Finish)
    }

    /// Submissions enqueued but not yet consumed.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    fn send(&self, message: BusMessage) -> Result<(), BusSendError> {
        self.depth.fetch_add(1, Ordering::SeqCst);
        self.tx.send(message).map_err(|_| {
            self.depth.fetch_sub(1, Ordering::SeqCst);
            BusSendError::Closed
        })
    }
}

/// Spawns the consumer thread over `service` with a bounded queue of
/// `capacity` messages.  The join handle returns the drained service (for
/// inspection of completions, metrics and the DLQ) or the journal error
/// that stopped it.
pub fn spawn_service(
    service: StretchServe,
    capacity: usize,
) -> (BusHandle, JoinHandle<Result<StretchServe, JournalError>>) {
    let (tx, rx) = sync_channel(capacity.max(1));
    let depth = Arc::new(AtomicUsize::new(0));
    let handle = BusHandle {
        tx,
        depth: Arc::clone(&depth),
    };
    let consumer = std::thread::spawn(move || consume(service, rx, depth));
    (handle, consumer)
}

fn consume(
    mut service: StretchServe,
    rx: Receiver<BusMessage>,
    depth: Arc<AtomicUsize>,
) -> Result<StretchServe, JournalError> {
    while let Ok(message) = rx.recv() {
        depth.fetch_sub(1, Ordering::SeqCst);
        match message {
            BusMessage::Submit(submission) => {
                // Rejections land in the DLQ; only journal I/O failures
                // abort the consumer.
                service.submit(submission)?;
            }
            BusMessage::Finish => break,
        }
    }
    // Explicit finish, or every producer hung up: drain either way.
    service.finish()?;
    Ok(service)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use stretch_platform::fixtures::small_platform;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("stretch-serve-bus-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn bus_feeds_service_and_returns_it_drained() {
        let path = tmp("feed");
        let service =
            StretchServe::create(&path, small_platform(), ServeConfig::default()).unwrap();
        let (handle, consumer) = spawn_service(service, 16);
        handle.submit(Submission::new(0.0, 120.0, 0)).unwrap();
        handle.submit(Submission::new(1.0, 60.0, 1)).unwrap();
        handle.submit(Submission::new(f64::NAN, 9.0, 0)).unwrap();
        handle.finish().unwrap();
        let service = consumer.join().unwrap().unwrap();
        assert!(service.is_finished());
        assert_eq!(service.metrics().accepted, 2);
        assert_eq!(service.metrics().dead_lettered, 1);
        assert_eq!(service.completions().len(), 2);
        assert!(service.completions().iter().all(|c| c.is_finite()));
        assert_eq!(handle.depth(), 0);
        assert_eq!(handle.finish(), Err(BusSendError::Closed));
        std::fs::remove_dir_all(&path).unwrap();
    }

    #[test]
    fn dropping_every_handle_drains_the_service() {
        let path = tmp("hangup");
        let service =
            StretchServe::create(&path, small_platform(), ServeConfig::default()).unwrap();
        let (handle, consumer) = spawn_service(service, 4);
        handle.submit(Submission::new(0.0, 30.0, 0)).unwrap();
        drop(handle);
        let service = consumer.join().unwrap().unwrap();
        assert!(service.is_finished());
        assert_eq!(service.metrics().accepted, 1);
        std::fs::remove_dir_all(&path).unwrap();
    }
}
