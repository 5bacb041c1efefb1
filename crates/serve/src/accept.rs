//! The blocking accept loop that a stop can wake, shared by the daemon's
//! listener and the chaos proxy.
//!
//! The listener stays blocking, so a connection is accepted the moment it
//! arrives rather than at the next tick of a poll. Stopping sets a flag and
//! then opens one throwaway loopback connection to the listener: the
//! blocked `accept` returns it, the loop sees the flag, and it ends without
//! handing that connection (or any other accepted after the stop) on.

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Budget for the waking connection's connect to a local listener.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);
/// Pause after a failed `accept`, so a persistent error (out of file
/// descriptors) does not spin a core.
const ERROR_BACKOFF: Duration = Duration::from_millis(25);

/// The stop flag of one accept loop; clones share it.
#[derive(Clone)]
pub(crate) struct AcceptStop {
    stopped: Arc<AtomicBool>,
    /// The listener's address with an unspecified IP (`0.0.0.0`, `::`)
    /// mapped to loopback: where the waking connection goes.
    wake: SocketAddr,
    /// Prefix of the loop's error log lines.
    name: &'static str,
}

impl AcceptStop {
    /// A stop for the accept loop over `listener`.
    pub(crate) fn new(listener: &TcpListener, name: &'static str) -> io::Result<AcceptStop> {
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Ok(AcceptStop { stopped: Arc::new(AtomicBool::new(false)), wake, name })
    }

    /// Sets the flag; the first call also wakes the blocked `accept`. A
    /// wake that cannot connect means the listener is already closed, so
    /// nothing is left to wake.
    pub(crate) fn stop(&self) {
        if !self.stopped.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.wake, WAKE_TIMEOUT);
        }
    }

    /// Whether [`stop`](AcceptStop::stop) has been called.
    pub(crate) fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    /// Blocks in `accept` and yields each connection, until the stop: the
    /// flag is checked after every `accept` returns, so the waking
    /// connection ends the iteration and is dropped unseen.
    pub(crate) fn incoming<'a>(
        &'a self,
        listener: &'a TcpListener,
    ) -> impl Iterator<Item = TcpStream> + 'a {
        std::iter::from_fn(move || loop {
            let accepted = listener.accept();
            if self.is_stopped() {
                return None;
            }
            match accepted {
                Ok((stream, _peer)) => return Some(stream),
                Err(e) => {
                    eprintln!("[{}: accept error: {e}]", self.name);
                    std::thread::sleep(ERROR_BACKOFF);
                }
            }
        })
    }
}
