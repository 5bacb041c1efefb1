//! Deterministic network-fault injection: a seeded in-process TCP proxy
//! between a client and `chgraphd`.
//!
//! This is `chg_bench::faultutil`'s philosophy — reproducible corruption as
//! a pure function of a seed and an index — lifted from byte streams to
//! sockets. Each accepted connection draws a [`FaultPlan`] from
//! [`plan_for`]`(policy, conn_index)`: a pure function, so the same seed
//! and connection order replay the *identical* fault schedule, and a chaos
//! test failure reproduces from its seed alone. The proxy records every
//! plan it executes in an event log ([`ChaosProxy::events`]) that the
//! determinism test compares across runs.
//!
//! # Fault vocabulary
//!
//! | Plan | Wire effect | What it exercises |
//! |------|-------------|-------------------|
//! | `Refuse` | accept, then immediate close | connect retry |
//! | `Delay` | fixed latency before any byte flows | timeout headroom |
//! | `Drip` | 1–few bytes per write with sleeps (slow-loris) | frame deadline |
//! | `Reset` | both directions torn down mid-stream | mid-frame EOF paths |
//! | `Truncate` | one direction FINs after N bytes | torn frame decode |
//! | `Duplicate` | first N bytes sent twice | magic/checksum rejection |
//! | `Split` | every buffer forwarded in two halves | frame reassembly |
//!
//! The proxy is intentionally *not* a general netem: it injects exactly the
//! failure modes the serving layer claims to survive, nothing stochastic at
//! run time.

use crate::accept::AcceptStop;
use crate::client::splitmix64;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often a blocked pump re-checks the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);
/// `Drip` slow-feeds only this many leading bytes, then forwards normally —
/// enough to hold a frame open past a test-sized deadline without making
/// multi-kilobyte replies take seconds.
const DRIP_WINDOW: usize = 256;
/// Forwarding buffer size.
const BUF: usize = 4096;

/// The seeded chaos configuration: `error_rate` is the probability
/// (per connection, decided deterministically from `seed` + connection
/// index) that the connection gets a fault plan other than `Clean`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosPolicy {
    /// Seed for the fault schedule; same seed → same schedule.
    pub seed: u64,
    /// Fraction of connections that receive a fault, in `[0, 1]`.
    pub error_rate: f64,
}

impl ChaosPolicy {
    /// A policy injecting faults on ~`error_rate` of connections.
    pub fn new(seed: u64, error_rate: f64) -> Self {
        ChaosPolicy { seed, error_rate: error_rate.clamp(0.0, 1.0) }
    }
}

/// Which direction of the proxied connection a fault applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Client → daemon (request bytes).
    ToServer,
    /// Daemon → client (reply bytes).
    ToClient,
}

/// One connection's fault plan, decided before any byte is forwarded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPlan {
    /// Forward faithfully.
    Clean,
    /// Accept, then close immediately — the client sees a dead connection.
    Refuse,
    /// Sleep before any byte flows, then forward faithfully.
    Delay {
        /// Added latency in milliseconds.
        ms: u64,
    },
    /// Slow-loris: forward the first `DRIP_WINDOW` bytes in `chunk`-sized
    /// pieces with `delay_ms` sleeps between them.
    Drip {
        /// Which direction is dripped.
        dir: Direction,
        /// Bytes per write while dripping.
        chunk: usize,
        /// Sleep between dripped writes, milliseconds.
        delay_ms: u64,
    },
    /// Tear down both directions after `after` bytes have flowed in `dir`.
    Reset {
        /// Direction whose byte count triggers the reset.
        dir: Direction,
        /// Bytes forwarded in `dir` before the teardown.
        after: usize,
    },
    /// FIN one direction after `after` bytes — the peer sees a torn frame.
    Truncate {
        /// Direction that gets truncated.
        dir: Direction,
        /// Bytes forwarded before the FIN.
        after: usize,
    },
    /// Send the first `window` bytes twice — downstream sees corrupt
    /// framing (bad magic or checksum mismatch).
    Duplicate {
        /// Direction that gets duplicated bytes.
        dir: Direction,
        /// Length of the duplicated prefix.
        window: usize,
    },
    /// Forward every buffer in two halves with a small pause between —
    /// exercises frame reassembly across short reads.
    Split {
        /// Direction whose writes are split.
        dir: Direction,
    },
}

/// One executed fault decision, in accept order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Zero-based index of the proxied connection.
    pub conn_index: u64,
    /// The plan that connection was given.
    pub plan: FaultPlan,
}

/// The fault plan for connection `conn_index` under `policy` — a pure
/// function, so schedules replay exactly and tests can predict them.
pub fn plan_for(policy: &ChaosPolicy, conn_index: u64) -> FaultPlan {
    // Key a fresh splitmix stream on (seed, conn_index); the multiplier
    // decorrelates neighboring indices.
    let mut s = policy.seed ^ conn_index.wrapping_mul(0xa076_1d64_78bd_642f);
    let roll = (splitmix64(&mut s) >> 11) as f64 / (1u64 << 53) as f64;
    if roll >= policy.error_rate {
        return FaultPlan::Clean;
    }
    let dir = if splitmix64(&mut s) & 1 == 0 { Direction::ToServer } else { Direction::ToClient };
    match splitmix64(&mut s) % 7 {
        0 => FaultPlan::Refuse,
        1 => FaultPlan::Delay { ms: 5 + splitmix64(&mut s) % 46 },
        2 => FaultPlan::Drip {
            dir,
            chunk: 1 + (splitmix64(&mut s) % 7) as usize,
            delay_ms: 1 + splitmix64(&mut s) % 4,
        },
        3 => FaultPlan::Reset { dir, after: 1 + (splitmix64(&mut s) % 64) as usize },
        4 => FaultPlan::Truncate { dir, after: 1 + (splitmix64(&mut s) % 64) as usize },
        5 => FaultPlan::Duplicate { dir, window: 1 + (splitmix64(&mut s) % 32) as usize },
        _ => FaultPlan::Split { dir },
    }
}

/// The running proxy: listens on an ephemeral local port, forwards every
/// connection to `upstream` through its fault plan, and logs what it did.
/// Dropping (or [`stop`](ChaosProxy::stop)) shuts the listener and joins
/// every pump thread.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: AcceptStop,
    events: Arc<Mutex<Vec<FaultEvent>>>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts the proxy in front of `upstream`.
    pub fn spawn(upstream: SocketAddr, policy: ChaosPolicy) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = AcceptStop::new(&listener, "chaos proxy")?;
        let events = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let stop = stop.clone();
            let events = events.clone();
            std::thread::spawn(move || accept_loop(listener, upstream, policy, &stop, &events))
        };
        Ok(ChaosProxy { addr, stop, events, accept_thread: Some(accept_thread) })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The fault decisions executed so far, in accept order — the
    /// determinism test's ground truth.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Stops accepting, tears down in-flight pumps, joins the accept loop.
    pub fn stop(&mut self) {
        self.stop.stop();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    policy: ChaosPolicy,
    stop: &AcceptStop,
    events: &Arc<Mutex<Vec<FaultEvent>>>,
) {
    let mut conn_threads = Vec::new();
    for (conn_index, client) in (0u64..).zip(stop.incoming(&listener)) {
        let plan = plan_for(&policy, conn_index);
        events.lock().unwrap_or_else(PoisonError::into_inner).push(FaultEvent { conn_index, plan });
        let stop = stop.clone();
        conn_threads.push(std::thread::spawn(move || proxy_one(client, upstream, plan, &stop)));
    }
    for t in conn_threads {
        let _ = t.join();
    }
}

/// Forwards one client connection through its fault plan.
fn proxy_one(client: TcpStream, upstream: SocketAddr, plan: FaultPlan, stop: &AcceptStop) {
    if let FaultPlan::Refuse = plan {
        drop(client); // immediate close: the client's next read sees EOF
        return;
    }
    if let FaultPlan::Delay { ms } = plan {
        std::thread::sleep(Duration::from_millis(ms));
    }
    let Ok(server) = TcpStream::connect(upstream) else {
        return; // upstream gone (e.g. daemon killed): client sees EOF
    };
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);
    let (Ok(client_r), Ok(server_r)) = (client.try_clone(), server.try_clone()) else {
        return;
    };
    let fault_for = |dir: Direction| -> FaultPlan {
        match plan {
            FaultPlan::Drip { dir: d, .. }
            | FaultPlan::Reset { dir: d, .. }
            | FaultPlan::Truncate { dir: d, .. }
            | FaultPlan::Duplicate { dir: d, .. }
            | FaultPlan::Split { dir: d } => {
                if d == dir {
                    plan
                } else {
                    FaultPlan::Clean
                }
            }
            _ => FaultPlan::Clean,
        }
    };
    let to_server = {
        let stop = stop.clone();
        let fault = fault_for(Direction::ToServer);
        std::thread::spawn(move || pump(client_r, server, fault, &stop))
    };
    pump(server_r, client, fault_for(Direction::ToClient), stop);
    let _ = to_server.join();
}

/// Copies bytes `from` → `to`, applying `fault` to the forwarded stream.
fn pump(from: TcpStream, mut to: TcpStream, fault: FaultPlan, stop: &AcceptStop) {
    let mut from = from;
    if from.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let mut buf = [0u8; BUF];
    let mut forwarded = 0usize;
    loop {
        if stop.is_stopped() {
            let _ = from.shutdown(Shutdown::Both);
            let _ = to.shutdown(Shutdown::Both);
            return;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => {
                // Upstream of this direction finished; pass the FIN on.
                let _ = to.shutdown(Shutdown::Write);
                return;
            }
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => {
                let _ = to.shutdown(Shutdown::Both);
                return;
            }
        };
        let chunk = &buf[..n];
        let write_failed = match fault {
            FaultPlan::Drip { chunk: piece, delay_ms, .. } => {
                let mut failed = false;
                for part in drip_pieces(chunk, forwarded, piece) {
                    if to.write_all(part).is_err() {
                        failed = true;
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(delay_ms));
                }
                failed
            }
            FaultPlan::Reset { after, .. } if forwarded + n >= after => {
                let keep = after.saturating_sub(forwarded);
                let _ = to.write_all(&chunk[..keep]);
                // Abrupt teardown of both directions, mid-frame.
                let _ = to.shutdown(Shutdown::Both);
                let _ = from.shutdown(Shutdown::Both);
                return;
            }
            FaultPlan::Truncate { after, .. } if forwarded + n >= after => {
                let keep = after.saturating_sub(forwarded);
                let _ = to.write_all(&chunk[..keep]);
                // FIN this direction only; the reverse path stays up so a
                // protocol-error reply can still reach the client.
                let _ = to.shutdown(Shutdown::Write);
                let _ = from.shutdown(Shutdown::Read);
                return;
            }
            FaultPlan::Duplicate { window, .. } if forwarded < window => {
                let dup = (window - forwarded).min(n);
                to.write_all(&chunk[..dup]).is_err() || to.write_all(chunk).is_err()
            }
            FaultPlan::Split { .. } if n > 1 => {
                let mid = n / 2;
                let first = to.write_all(&chunk[..mid]).is_err();
                std::thread::sleep(Duration::from_millis(1));
                first || to.write_all(&chunk[mid..]).is_err()
            }
            _ => to.write_all(chunk).is_err(),
        };
        if write_failed {
            let _ = from.shutdown(Shutdown::Both);
            let _ = to.shutdown(Shutdown::Both);
            return;
        }
        forwarded += n;
    }
}

/// Splits `chunk` for dripping: `piece`-sized slices while inside the
/// global [`DRIP_WINDOW`], then the whole remainder in one slice.
fn drip_pieces(chunk: &[u8], already: usize, piece: usize) -> Vec<&[u8]> {
    let piece = piece.max(1);
    let drip_len = DRIP_WINDOW.saturating_sub(already).min(chunk.len());
    let mut parts: Vec<&[u8]> = chunk[..drip_len].chunks(piece).collect();
    if drip_len < chunk.len() {
        parts.push(&chunk[drip_len..]);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_pure_functions_of_seed_and_index() {
        let policy = ChaosPolicy::new(7, 0.5);
        for i in 0..200 {
            assert_eq!(plan_for(&policy, i), plan_for(&policy, i));
        }
        let replay: Vec<_> = (0..200).map(|i| plan_for(&policy, i)).collect();
        let again: Vec<_> = (0..200).map(|i| plan_for(&policy, i)).collect();
        assert_eq!(replay, again);
    }

    #[test]
    fn error_rate_bounds_hold() {
        let never = ChaosPolicy::new(3, 0.0);
        assert!((0..100).all(|i| plan_for(&never, i) == FaultPlan::Clean));
        let always = ChaosPolicy::new(3, 1.0);
        assert!((0..100).all(|i| plan_for(&always, i) != FaultPlan::Clean));
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a: Vec<_> = (0..100).map(|i| plan_for(&ChaosPolicy::new(1, 1.0), i)).collect();
        let b: Vec<_> = (0..100).map(|i| plan_for(&ChaosPolicy::new(2, 1.0), i)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn full_error_rate_covers_every_fault_kind() {
        let policy = ChaosPolicy::new(11, 1.0);
        let mut seen = [false; 7];
        for i in 0..500 {
            let k = match plan_for(&policy, i) {
                FaultPlan::Clean => unreachable!("error_rate 1.0 never yields Clean"),
                FaultPlan::Refuse => 0,
                FaultPlan::Delay { .. } => 1,
                FaultPlan::Drip { .. } => 2,
                FaultPlan::Reset { .. } => 3,
                FaultPlan::Truncate { .. } => 4,
                FaultPlan::Duplicate { .. } => 5,
                FaultPlan::Split { .. } => 6,
            };
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s), "500 draws must hit all 7 kinds: {seen:?}");
    }

    #[test]
    fn drip_pieces_respects_window_and_piece_size() {
        let data = [0u8; 300];
        // All inside the window: piece-sized chunks only.
        let parts = drip_pieces(&data[..100], 0, 7);
        assert!(parts.iter().take(parts.len() - 1).all(|p| p.len() == 7));
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), 100);
        // Straddling the window edge: the tail is one big slice.
        let parts = drip_pieces(&data, 200, 3);
        let dripped: usize = parts.iter().take_while(|p| p.len() <= 3).map(|p| p.len()).sum();
        assert_eq!(dripped, DRIP_WINDOW - 200);
        assert_eq!(parts.last().unwrap().len(), 300 - (DRIP_WINDOW - 200));
        // Past the window: everything in one slice.
        let parts = drip_pieces(&data, DRIP_WINDOW, 3);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), 300);
    }
}
