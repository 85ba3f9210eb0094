//! `NetRemote`: a TCP client that *is* a [`RemoteQuerySystem`].
//!
//! Because `NetRemote` implements the same trait as the in-process
//! simulators, a networked mount drops into the semantic-mount machinery
//! unchanged — `HacFs::smount` neither knows nor cares that the backend
//! lives across a socket. Transport failures are folded into the
//! [`RemoteError`] taxonomy the scope evaluator already handles: scope
//! refreshes that hit a dead server keep previously imported results,
//! exactly as the paper's §3 prescribes for unreachable remotes.
//!
//! Reliability shape:
//!
//! * a bounded **connection pool** (idle sockets are reused; at most
//!   `max_connections` exist at once; excess callers wait on a condvar);
//! * a **per-request deadline** (socket read/write timeouts);
//! * **capped exponential retry with jitter** via the shared
//!   [`RetryPolicy`] — the same backoff shape the reindex daemon uses.
//!
//! Retries apply only to *retriable* failures (connection refused/reset,
//! timeouts). Semantic errors from the far side — not found, unsupported
//! query, unknown namespace, version mismatch — fail fast.
//!
//! Every socket pings at [`PROTOCOL_VERSION`] before it joins the pool;
//! a server speaking another version refuses the handshake and the
//! request fails naming both versions. Requests carry the caller's trace
//! context whenever one is active.
//!
//! ## Pipelined mode
//!
//! With `pipeline_depth > 1` the client multiplexes: concurrent callers
//! *share* sockets instead of checking them out exclusively, each
//! connection carrying up to `pipeline_depth` requests in flight. The
//! wire's request ids route every response to its caller, so the server
//! completing requests out of order is fine — one caller's slow search
//! does not block another's fast fetch on the same socket. One waiter at
//! a time plays reader (pulling frames and filling the others' slots); a
//! caller that hits its deadline simply abandons its id — the late
//! response is discarded as a stray and the socket stays healthy.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use hac_core::remote::{NamespaceId, RemoteDoc, RemoteError, RemoteQuerySystem, RetryPolicy};
use hac_index::ContentExpr;

use crate::wire::{
    self, Request, RequestBody, Response, ResponseBody, WireError, PROTOCOL_VERSION,
};

/// Tuning for a [`NetRemote`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Ceiling on live sockets to the server (pooled + in flight).
    pub max_connections: usize,
    /// How long a caller waits for a pooled socket before giving up.
    pub pool_wait: Duration,
    /// TCP connect deadline.
    pub connect_timeout: Duration,
    /// Requests one connection may carry concurrently. `1` (the default)
    /// keeps the classic exclusive-checkout pool; above 1, callers share
    /// (multiplex) connections and responses are matched by id.
    pub pipeline_depth: usize,
    /// Retry/backoff/request-deadline knobs (shared with the daemon).
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            max_connections: 4,
            pool_wait: Duration::from_secs(5),
            connect_timeout: Duration::from_secs(2),
            pipeline_depth: 1,
            retry: RetryPolicy::default(),
        }
    }
}

/// Per-op metric handles (see [`ClientMetrics`]).
struct OpMetrics {
    requests: hac_obs::Counter,
    duration: hac_obs::Histogram,
    errors: hac_obs::Counter,
    retries: hac_obs::Counter,
    server_time: hac_obs::Histogram,
    wire_overhead: hac_obs::Histogram,
}

impl OpMetrics {
    fn new(ns: &str, op: &str) -> OpMetrics {
        let labels = [("ns", ns), ("op", op)];
        OpMetrics {
            requests: hac_obs::counter("hac_net_requests_total", &labels),
            duration: hac_obs::histogram("hac_net_request_duration_us", &labels),
            errors: hac_obs::counter("hac_net_errors_total", &labels),
            retries: hac_obs::counter("hac_net_retries_total", &labels),
            server_time: hac_obs::histogram("hac_net_server_time_us", &labels),
            wire_overhead: hac_obs::histogram("hac_net_wire_overhead_us", &labels),
        }
    }
}

/// Metric handles resolved once per client. A registry lookup allocates
/// a `MetricId` and takes the process-wide registry lock — repeating
/// that on every request (from every caller thread) serializes the hot
/// path on one mutex.
struct ClientMetrics {
    bytes_written: hac_obs::Counter,
    bytes_read: hac_obs::Counter,
    pool_size: hac_obs::Gauge,
    strays: hac_obs::Counter,
    search: OpMetrics,
    fetch: OpMetrics,
    ping: OpMetrics,
    capabilities: OpMetrics,
}

impl ClientMetrics {
    fn new(ns: &str) -> ClientMetrics {
        ClientMetrics {
            bytes_written: hac_obs::counter("hac_net_client_bytes_written_total", &[]),
            bytes_read: hac_obs::counter("hac_net_client_bytes_read_total", &[("ns", ns)]),
            pool_size: hac_obs::gauge("hac_net_pool_size", &[("ns", ns)]),
            strays: hac_obs::counter("hac_net_stray_responses_total", &[("ns", ns)]),
            search: OpMetrics::new(ns, "search"),
            fetch: OpMetrics::new(ns, "fetch"),
            ping: OpMetrics::new(ns, "ping"),
            capabilities: OpMetrics::new(ns, "capabilities"),
        }
    }

    fn op(&self, op: &str) -> &OpMetrics {
        match op {
            "search" => &self.search,
            "fetch" => &self.fetch,
            "ping" => &self.ping,
            _ => &self.capabilities,
        }
    }
}

/// A pooled, handshaken socket.
struct PooledConn {
    stream: TcpStream,
    /// Streaming receive state. A whole response usually arrives as one
    /// segment, so assembling frames from bulk reads costs one syscall
    /// where header-then-payload `read_exact`s cost two — and the buffer
    /// persists across the pool, so steady state reads allocate nothing.
    rx: wire::FrameDecoder,
}

struct PoolState {
    idle: Vec<PooledConn>,
    /// Sockets currently checked out or idle (never exceeds `max_connections`).
    total: usize,
    waiters: usize,
}

/// Mutex+condvar socket pool. `checkout` hands back either an idle socket
/// or permission to dial a new one; `put_back`/`discard` return capacity.
struct Pool {
    state: Mutex<PoolState>,
    available: Condvar,
    cap: usize,
    size: hac_obs::Gauge,
    waiting: hac_obs::Gauge,
}

enum Checkout {
    Reuse(PooledConn),
    Dial,
}

impl Pool {
    fn new(cap: usize, ns: &str) -> Self {
        Pool {
            state: Mutex::new(PoolState {
                idle: Vec::new(),
                total: 0,
                waiters: 0,
            }),
            available: Condvar::new(),
            cap: cap.max(1),
            size: hac_obs::gauge("hac_net_pool_size", &[("ns", ns)]),
            waiting: hac_obs::gauge("hac_net_pool_waiters", &[("ns", ns)]),
        }
    }

    fn checkout(&self, wait: Duration) -> Result<Checkout, RemoteError> {
        let deadline = Instant::now() + wait;
        let mut state = self.state.lock().expect("pool poisoned");
        loop {
            if let Some(conn) = state.idle.pop() {
                return Ok(Checkout::Reuse(conn));
            }
            if state.total < self.cap {
                state.total += 1;
                self.size.set(state.total as i64);
                return Ok(Checkout::Dial);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RemoteError::Timeout);
            }
            state.waiters += 1;
            self.waiting.set(state.waiters as i64);
            let (s, _) = self
                .available
                .wait_timeout(state, deadline - now)
                .expect("pool poisoned");
            state = s;
            state.waiters -= 1;
            self.waiting.set(state.waiters as i64);
        }
    }

    fn put_back(&self, conn: PooledConn) {
        let mut state = self.state.lock().expect("pool poisoned");
        state.idle.push(conn);
        self.available.notify_one();
    }

    /// Drops a broken socket and releases its capacity slot.
    fn discard(&self) {
        let mut state = self.state.lock().expect("pool poisoned");
        state.total = state.total.saturating_sub(1);
        self.size.set(state.total as i64);
        self.available.notify_one();
    }

    fn drain(&self) -> VecDeque<PooledConn> {
        let mut state = self.state.lock().expect("pool poisoned");
        let conns: VecDeque<PooledConn> = state.idle.drain(..).collect();
        state.total = state.total.saturating_sub(conns.len());
        self.size.set(state.total as i64);
        conns
    }
}

/// A connection shared by concurrent callers in pipelined mode. Writers
/// serialize on `write_lock` (frames never interleave mid-frame); readers
/// elect one of the waiting callers to pull frames and fill the others'
/// slots, matched by request id.
struct MuxConn {
    stream: TcpStream,
    write_lock: Mutex<()>,
    state: Mutex<MuxState>,
    wakeup: Condvar,
    /// Streaming receive state, touched only by the elected reader (the
    /// `reader_active` flag already serializes them). Bulk reads let one
    /// syscall deliver many pipelined responses when the server batches
    /// its flushes.
    rx: Mutex<wire::FrameDecoder>,
}

struct MuxState {
    /// Request id → slot; `None` until the reader fills it. A caller that
    /// hits its deadline removes its id, turning the late response into a
    /// discarded stray rather than a poisoned socket.
    pending: BTreeMap<u64, Option<Received>>,
    /// Whether some caller currently owns the read side.
    reader_active: bool,
    broken: bool,
}

impl MuxConn {
    fn from_dialed(conn: PooledConn) -> Self {
        MuxConn {
            stream: conn.stream,
            write_lock: Mutex::new(()),
            state: Mutex::new(MuxState {
                pending: BTreeMap::new(),
                reader_active: false,
                broken: false,
            }),
            wakeup: Condvar::new(),
            rx: Mutex::new(conn.rx),
        }
    }

    /// Marks the connection unusable and wakes every waiter so they can
    /// fail over; the socket is removed from the pool at the next checkout.
    fn mark_broken(&self) {
        let mut state = self.state.lock().expect("mux poisoned");
        state.broken = true;
        let _ = self.stream.shutdown(Shutdown::Both);
        self.wakeup.notify_all();
    }

    fn load(&self) -> (usize, bool) {
        let state = self.state.lock().expect("mux poisoned");
        (state.pending.len(), state.broken)
    }
}

/// Multiplexed connection set (`pipeline_depth > 1`).
struct MuxPool {
    conns: Vec<Arc<MuxConn>>,
    /// Dials in progress — counted so concurrent callers never exceed
    /// `max_connections` even while a dial is off-lock.
    dialing: usize,
}

/// A remote query system reached over TCP.
pub struct NetRemote {
    ns: NamespaceId,
    addr: String,
    config: ClientConfig,
    pool: Pool,
    mux: Mutex<MuxPool>,
    next_id: AtomicU64,
    jitter: Mutex<u64>,
    metrics: ClientMetrics,
}

impl NetRemote {
    /// Creates a client for namespace `ns` served at `addr`
    /// (`"host:port"`). No connection is made until the first request.
    pub fn connect(ns: &str, addr: &str, config: ClientConfig) -> Self {
        let jitter = config.retry.seed_jitter() ^ (ns.len() as u64) << 32 | addr.len() as u64;
        NetRemote {
            ns: NamespaceId(ns.to_string()),
            addr: addr.to_string(),
            pool: Pool::new(config.max_connections, ns),
            mux: Mutex::new(MuxPool {
                conns: Vec::new(),
                dialing: 0,
            }),
            config,
            next_id: AtomicU64::new(1),
            jitter: Mutex::new(jitter | 1),
            metrics: ClientMetrics::new(ns),
        }
    }

    /// Parses a `tcp://host:port/namespace` URL into `(addr, ns)`.
    ///
    /// # Errors
    ///
    /// [`RemoteError::UnsupportedQuery`] when the URL does not match the
    /// scheme (we reuse the closest existing taxonomy entry rather than
    /// widening the enum for a parse failure).
    pub fn parse_url(url: &str) -> Result<(String, String), RemoteError> {
        let rest = url
            .strip_prefix("tcp://")
            .ok_or_else(|| RemoteError::UnsupportedQuery(format!("not a tcp:// url: {url}")))?;
        let (addr, ns) = rest
            .split_once('/')
            .ok_or_else(|| RemoteError::UnsupportedQuery(format!("missing /namespace: {url}")))?;
        if addr.is_empty() || ns.is_empty() {
            return Err(RemoteError::UnsupportedQuery(format!(
                "empty host or namespace: {url}"
            )));
        }
        Ok((addr.to_string(), ns.to_string()))
    }

    /// Builds a client straight from a `tcp://host:port/namespace` URL.
    ///
    /// # Errors
    ///
    /// See [`parse_url`](NetRemote::parse_url).
    pub fn from_url(url: &str, config: ClientConfig) -> Result<Self, RemoteError> {
        let (addr, ns) = Self::parse_url(url)?;
        Ok(Self::connect(&ns, &addr, config))
    }

    /// The server address this client dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Asks the server which namespaces it exports.
    ///
    /// # Errors
    ///
    /// Transport failures map onto [`RemoteError`] like any request.
    pub fn capabilities(&self) -> Result<Vec<String>, RemoteError> {
        match self.request("capabilities", RequestBody::Capabilities)? {
            ResponseBody::Capabilities { namespaces, .. } => Ok(namespaces),
            other => Err(unexpected(other)),
        }
    }

    /// Round-trips a ping; returns the server's protocol version.
    ///
    /// # Errors
    ///
    /// Transport failures map onto [`RemoteError`] like any request; a
    /// server speaking another version is `Unavailable`.
    pub fn ping(&self) -> Result<u16, RemoteError> {
        let version = PROTOCOL_VERSION;
        match self.request("ping", RequestBody::Ping { version })? {
            ResponseBody::Pong { version } => Ok(version),
            other => Err(unexpected(other)),
        }
    }

    /// Closes every pooled socket. Classic-pool requests in flight are
    /// unaffected; multiplexed callers are woken and fail over.
    pub fn disconnect(&self) {
        for conn in self.pool.drain() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        let conns: Vec<Arc<MuxConn>> = {
            let mut mux = self.mux.lock().expect("mux pool poisoned");
            let drained = mux.conns.drain(..).collect();
            self.metrics.pool_size.set(mux.dialing as i64);
            drained
        };
        for conn in conns {
            conn.mark_broken();
        }
    }

    /// Pings `conn` at [`PROTOCOL_VERSION`]. A refusal or a pong for any
    /// other version is an `InvalidData` error naming both versions,
    /// which the retry loop treats as fatal.
    fn handshake(&self, conn: &TcpStream, rx: &mut wire::FrameDecoder) -> io::Result<()> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let ping = RequestBody::Ping {
            version: PROTOCOL_VERSION,
        };
        let resp = exchange(
            conn,
            rx,
            &Request::new(id, ping),
            &self.metrics.bytes_written,
            None,
        )?;
        let server = match resp.body {
            ResponseBody::Pong { version } if version == PROTOCOL_VERSION => return Ok(()),
            ResponseBody::Pong { version }
            | ResponseBody::Err(WireError::VersionMismatch {
                server: version, ..
            }) => version,
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "handshake: unexpected response to ping",
                ))
            }
        };
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("protocol version mismatch (server v{server}, client v{PROTOCOL_VERSION})"),
        ))
    }

    fn dial(&self) -> io::Result<PooledConn> {
        use std::net::ToSocketAddrs;
        let mut last = io::Error::new(io::ErrorKind::NotFound, "no address resolved");
        for addr in self.addr.as_str().to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, self.config.connect_timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(self.config.retry.request_timeout))?;
                    stream.set_write_timeout(Some(self.config.retry.request_timeout))?;
                    stream.set_nodelay(true)?;
                    let mut rx = wire::FrameDecoder::new(wire::DEFAULT_MAX_FRAME_LEN);
                    // Version handshake before the socket joins the pool.
                    self.handshake(&stream, &mut rx)?;
                    return Ok(PooledConn { stream, rx });
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// One attempt: checkout/dial, send, receive, return socket to pool.
    ///
    /// The attempt runs under a `net_client_request` span, and when the
    /// caller is traced that span's context rides inside the request so the
    /// server's spans nest under it. A traced response reports how long
    /// the server spent, letting us split the round trip into server time
    /// (`hac_net_server_time_us`) and everything else — serialization,
    /// kernel, and network (`hac_net_wire_overhead_us`).
    fn attempt(
        &self,
        op: &'static str,
        body: &RequestBody,
        sink: Option<&mut Vec<RemoteDoc>>,
    ) -> Result<ResponseBody, AttemptError> {
        if self.config.pipeline_depth > 1 {
            // Pipelined responses may be decoded by whichever caller holds
            // the reader role, so buffer reuse does not apply there.
            return self.attempt_mux(op, body);
        }
        let mut conn = match self.pool.checkout(self.config.pool_wait)? {
            Checkout::Reuse(conn) => conn,
            Checkout::Dial => match self.dial() {
                Ok(conn) => conn,
                Err(e) => {
                    self.pool.discard();
                    return Err(AttemptError::Io(e));
                }
            },
        };
        let mut span = hac_obs::span!("net_client_request", ns = self.ns.0, op = op);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let req = Request {
            id,
            body: body.clone(),
            trace: span.context().map(Into::into),
        };
        let start = Instant::now();
        match exchange(
            &conn.stream,
            &mut conn.rx,
            &req,
            &self.metrics.bytes_written,
            sink,
        ) {
            Ok(resp) => {
                if resp.id != id {
                    // Desynchronised stream (e.g. a previous timeout left a
                    // stale response buffered) — poison the socket.
                    self.pool.discard();
                    let _ = conn.stream.shutdown(Shutdown::Both);
                    return Err(AttemptError::Io(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "response id mismatch",
                    )));
                }
                self.metrics.bytes_read.add(resp.wire_len as u64);
                if let Some(server_us) = resp.server_elapsed_us {
                    let total_us = start.elapsed().as_micros() as u64;
                    let m = self.metrics.op(op);
                    m.server_time.record(server_us);
                    m.wire_overhead.record(total_us.saturating_sub(server_us));
                    span.field("server_us", server_us);
                }
                self.pool.put_back(conn);
                match resp.body {
                    ResponseBody::Err(e) => Err(AttemptError::Wire(e)),
                    ok => Ok(ok),
                }
            }
            Err(e) => {
                self.pool.discard();
                let _ = conn.stream.shutdown(Shutdown::Both);
                Err(AttemptError::Io(e))
            }
        }
    }

    /// Picks the least-loaded multiplexed connection with spare pipeline
    /// capacity, dialing a new one while under `max_connections`; otherwise
    /// polls until capacity frees up or `pool_wait` elapses.
    fn mux_checkout(&self) -> Result<Arc<MuxConn>, AttemptError> {
        let deadline = Instant::now() + self.config.pool_wait;
        loop {
            let must_dial = {
                let mut mux = self.mux.lock().expect("mux pool poisoned");
                mux.conns.retain(|c| !c.load().1);
                self.metrics
                    .pool_size
                    .set((mux.conns.len() + mux.dialing) as i64);
                let mut best: Option<(usize, Arc<MuxConn>)> = None;
                for conn in &mux.conns {
                    let (in_flight, broken) = conn.load();
                    if broken || in_flight >= self.config.pipeline_depth {
                        continue;
                    }
                    if best.as_ref().is_none_or(|(b, _)| in_flight < *b) {
                        best = Some((in_flight, Arc::clone(conn)));
                    }
                }
                if let Some((_, conn)) = best {
                    return Ok(conn);
                }
                if mux.conns.len() + mux.dialing < self.config.max_connections.max(1) {
                    mux.dialing += 1;
                    true
                } else {
                    false
                }
            };
            if must_dial {
                // Dial off-lock; `dialing` holds our capacity slot meanwhile.
                let dialed = self.dial();
                let mut mux = self.mux.lock().expect("mux pool poisoned");
                mux.dialing -= 1;
                match dialed {
                    Ok(pooled) => {
                        let conn = Arc::new(MuxConn::from_dialed(pooled));
                        mux.conns.push(Arc::clone(&conn));
                        self.metrics
                            .pool_size
                            .set((mux.conns.len() + mux.dialing) as i64);
                        return Ok(conn);
                    }
                    Err(e) => return Err(AttemptError::Io(e)),
                }
            }
            if Instant::now() >= deadline {
                return Err(AttemptError::Wire(WireError::Remote(RemoteError::Timeout)));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// One pipelined attempt: register an id slot, write the frame (writes
    /// serialize per connection), then wait for the response matched to our
    /// id — playing shared reader whenever no other caller holds that role.
    fn attempt_mux(
        &self,
        op: &'static str,
        body: &RequestBody,
    ) -> Result<ResponseBody, AttemptError> {
        let conn = self.mux_checkout()?;
        let mut span = hac_obs::span!("net_client_request", ns = self.ns.0, op = op);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let req = Request {
            id,
            body: body.clone(),
            trace: span.context().map(Into::into),
        };
        let start = Instant::now();
        conn.state
            .lock()
            .expect("mux poisoned")
            .pending
            .insert(id, None);
        let write_result = {
            let _writer = conn.write_lock.lock().expect("mux write lock poisoned");
            let bytes = wire::encode_request(&req);
            wire::write_frame(&mut &conn.stream, &bytes).map(|()| bytes.len() as u64 + 8)
        };
        match write_result {
            Ok(written) => {
                self.metrics.bytes_written.add(written);
            }
            Err(e) => {
                conn.state.lock().expect("mux poisoned").pending.remove(&id);
                conn.mark_broken();
                return Err(AttemptError::Io(e));
            }
        }
        match self.mux_await(&conn, id) {
            Ok(resp) => {
                self.metrics.bytes_read.add(resp.wire_len as u64);
                if let Some(server_us) = resp.server_elapsed_us {
                    let total_us = start.elapsed().as_micros() as u64;
                    let m = self.metrics.op(op);
                    m.server_time.record(server_us);
                    m.wire_overhead.record(total_us.saturating_sub(server_us));
                    span.field("server_us", server_us);
                }
                match resp.body {
                    ResponseBody::Err(e) => Err(AttemptError::Wire(e)),
                    ok => Ok(ok),
                }
            }
            Err(e) => Err(AttemptError::Io(e)),
        }
    }

    /// Waits until the slot for `id` is filled. At most one caller reads
    /// the socket at a time; everyone else parks on the condvar. Frames for
    /// other callers are routed into their slots; frames for abandoned ids
    /// are counted and discarded.
    fn mux_await(&self, conn: &MuxConn, id: u64) -> io::Result<Received> {
        let deadline = Instant::now() + self.config.retry.request_timeout;
        let mut state = conn.state.lock().expect("mux poisoned");
        loop {
            if let Some(slot) = state.pending.get_mut(&id) {
                if let Some(resp) = slot.take() {
                    state.pending.remove(&id);
                    return Ok(resp);
                }
            }
            if state.broken {
                state.pending.remove(&id);
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "multiplexed connection broken",
                ));
            }
            let now = Instant::now();
            if now >= deadline {
                // Abandon: our id disappears from the table, so the late
                // response (if any) is discarded as a stray and the socket
                // itself stays healthy for the other callers.
                state.pending.remove(&id);
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "pipelined request deadline elapsed",
                ));
            }
            if state.reader_active {
                let (next, _) = conn
                    .wakeup
                    .wait_timeout(state, (deadline - now).min(Duration::from_millis(10)))
                    .expect("mux poisoned");
                state = next;
                continue;
            }
            state.reader_active = true;
            drop(state);
            // Drain every already-buffered frame, then read at most once:
            // with the server batching flushes, one syscall often carries a
            // whole burst of pipelined responses.
            let read = {
                let mut rx = conn.rx.lock().expect("mux rx poisoned");
                let mut batch = Vec::new();
                loop {
                    match rx.next_frame() {
                        Ok(Some(payload)) => match decode_received(payload, None) {
                            Ok(resp) => {
                                batch.push(resp);
                                continue;
                            }
                            Err(e) => break Err(e),
                        },
                        Ok(None) => {}
                        Err(e) => break Err(e),
                    }
                    if !batch.is_empty() {
                        break Ok(batch);
                    }
                    match rx.read_from(&mut &conn.stream) {
                        Ok(0) => {
                            break Err(io::Error::new(
                                io::ErrorKind::UnexpectedEof,
                                "connection closed mid-frame",
                            ))
                        }
                        Ok(_) => {}
                        Err(e) => break Err(e),
                    }
                }
            };
            state = conn.state.lock().expect("mux poisoned");
            state.reader_active = false;
            match read {
                Ok(batch) => {
                    for resp in batch {
                        match state.pending.get_mut(&resp.id) {
                            Some(slot) => *slot = Some(resp),
                            None => self.metrics.strays.inc(),
                        }
                    }
                    conn.wakeup.notify_all();
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                    ) =>
                {
                    // Socket read timeout: nothing arrived on the wire.
                    // Not fatal to the connection — loop; our own deadline
                    // decides whether *this* caller gives up.
                    conn.wakeup.notify_all();
                }
                Err(e) => {
                    // Hard transport error or a garbled frame: the stream
                    // is unusable for everyone sharing it.
                    state.broken = true;
                    drop(state);
                    conn.mark_broken();
                    return Err(e);
                }
            }
        }
    }

    /// Full request with retry. `op` labels the metrics.
    fn request(&self, op: &'static str, body: RequestBody) -> Result<ResponseBody, RemoteError> {
        self.request_with_sink(op, body, None)
    }

    /// Like [`NetRemote::request`], but a `Docs` response decoded on a
    /// classic-pool connection recycles `sink`'s existing allocations
    /// instead of materializing fresh strings.
    fn request_with_sink(
        &self,
        op: &'static str,
        body: RequestBody,
        mut sink: Option<&mut Vec<RemoteDoc>>,
    ) -> Result<ResponseBody, RemoteError> {
        let m = self.metrics.op(op);
        let start = Instant::now();
        let policy = &self.config.retry;
        let mut failures = 0u64;
        let result = loop {
            match self.attempt(op, &body, sink.as_deref_mut()) {
                Ok(ok) => break Ok(ok),
                Err(e) => {
                    let (remote, retriable) = e.classify();
                    failures += 1;
                    if !retriable || failures >= u64::from(policy.max_attempts.max(1)) {
                        break Err(remote);
                    }
                    m.retries.inc();
                    let delay = {
                        let mut jitter = self.jitter.lock().expect("jitter poisoned");
                        policy.delay(failures, &mut jitter)
                    };
                    std::thread::sleep(delay);
                }
            }
        };
        m.requests.inc();
        m.duration.record(start.elapsed().as_micros() as u64);
        if result.is_err() {
            m.errors.inc();
        }
        result
    }
}

impl Drop for NetRemote {
    fn drop(&mut self) {
        self.disconnect();
    }
}

impl RemoteQuerySystem for NetRemote {
    fn namespace(&self) -> NamespaceId {
        self.ns.clone()
    }

    fn search(&self, query: &ContentExpr) -> Result<Vec<RemoteDoc>, RemoteError> {
        match self.request(
            "search",
            RequestBody::Search {
                ns: self.ns.0.clone(),
                query: query.clone(),
            },
        )? {
            ResponseBody::Docs(docs) => Ok(docs),
            other => Err(unexpected(other)),
        }
    }

    /// Zero-allocation steady state: on a classic-pool connection the
    /// decoder refills `out`'s existing strings in place, so repeatedly
    /// polling a namespace with the same buffer stops paying the per-doc
    /// materialization cost a fresh [`Vec`] forces.
    fn search_into(
        &self,
        query: &ContentExpr,
        out: &mut Vec<RemoteDoc>,
    ) -> Result<(), RemoteError> {
        let result = self.request_with_sink(
            "search",
            RequestBody::Search {
                ns: self.ns.0.clone(),
                query: query.clone(),
            },
            Some(out),
        );
        match result {
            Ok(ResponseBody::Docs(docs)) => {
                *out = docs;
                Ok(())
            }
            Ok(other) => {
                out.clear();
                Err(unexpected(other))
            }
            Err(e) => {
                out.clear();
                Err(e)
            }
        }
    }

    fn fetch(&self, id: &str) -> Result<Vec<u8>, RemoteError> {
        match self.request(
            "fetch",
            RequestBody::Fetch {
                ns: self.ns.0.clone(),
                doc: id.to_string(),
            },
        )? {
            ResponseBody::Blob(bytes) => Ok(bytes),
            other => Err(unexpected(other)),
        }
    }

    fn manifest_bytes(&self) -> Result<Vec<u8>, RemoteError> {
        match self.request(
            "manifest",
            RequestBody::Manifest {
                ns: self.ns.0.clone(),
            },
        )? {
            ResponseBody::Blob(bytes) => Ok(bytes),
            other => Err(unexpected(other)),
        }
    }

    fn object_bytes(&self, hash: &str) -> Result<Vec<u8>, RemoteError> {
        match self.request(
            "object",
            RequestBody::Object {
                ns: self.ns.0.clone(),
                hash: hash.to_string(),
            },
        )? {
            ResponseBody::Blob(bytes) => Ok(bytes),
            other => Err(unexpected(other)),
        }
    }

    fn shard_map_bytes(&self) -> Result<Vec<u8>, RemoteError> {
        match self.request(
            "shard_map",
            RequestBody::ShardMap {
                ns: self.ns.0.clone(),
            },
        )? {
            ResponseBody::Blob(bytes) => Ok(bytes),
            other => Err(unexpected(other)),
        }
    }

    fn trace_spans_bytes(&self, trace_id: u64) -> Result<Vec<u8>, RemoteError> {
        match self.request(
            "trace_spans",
            RequestBody::TraceSpans {
                ns: self.ns.0.clone(),
                trace_id,
            },
        )? {
            ResponseBody::Blob(bytes) => Ok(bytes),
            other => Err(unexpected(other)),
        }
    }

    fn metrics_bytes(&self) -> Result<Vec<u8>, RemoteError> {
        match self.request(
            "metrics",
            RequestBody::Metrics {
                ns: self.ns.0.clone(),
            },
        )? {
            ResponseBody::Blob(bytes) => Ok(bytes),
            other => Err(unexpected(other)),
        }
    }
}

/// A decoded response plus how many wire bytes it occupied.
struct Received {
    id: u64,
    body: ResponseBody,
    wire_len: usize,
    server_elapsed_us: Option<u64>,
}

/// One strict request/response round trip. The response is assembled
/// through `rx` from bulk reads — typically a single syscall for a whole
/// frame, against two for the header-then-payload `read_exact` pair.
fn exchange(
    mut conn: &TcpStream,
    rx: &mut wire::FrameDecoder,
    req: &Request,
    bytes_written: &hac_obs::Counter,
    sink: Option<&mut Vec<RemoteDoc>>,
) -> io::Result<Received> {
    let bytes = wire::encode_request(req);
    wire::write_frame(&mut conn, &bytes)?;
    bytes_written.add(bytes.len() as u64 + 8);
    loop {
        if let Some(payload) = rx.next_frame()? {
            return decode_received(payload, sink);
        }
        if rx.read_from(&mut conn)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-frame",
            ));
        }
    }
}

/// Decodes one response payload. With a `sink`, a `Docs` body recycles
/// the sink's allocations; the refilled vec still travels inside the
/// returned body (by move), so callers get it back through the normal
/// path.
fn decode_received(payload: &[u8], sink: Option<&mut Vec<RemoteDoc>>) -> io::Result<Received> {
    let resp: Response = match sink {
        Some(pool) => wire::decode_response_compact_reusing(payload, pool)?,
        None => wire::decode_response_compact(payload)?,
    };
    Ok(Received {
        id: resp.id,
        body: resp.body,
        wire_len: payload.len() + 8,
        server_elapsed_us: resp.server_elapsed_us,
    })
}

fn unexpected(body: ResponseBody) -> RemoteError {
    RemoteError::Unavailable(format!("unexpected response kind: {body:?}"))
}

/// One attempt's failure, before the retry loop classifies it.
enum AttemptError {
    /// Transport-level: socket errors, timeouts, garbled frames.
    Io(io::Error),
    /// The server answered with a protocol-level error.
    Wire(WireError),
}

impl From<RemoteError> for AttemptError {
    fn from(e: RemoteError) -> Self {
        // Pool-checkout timeout arrives as a RemoteError already.
        AttemptError::Wire(WireError::Remote(e))
    }
}

impl AttemptError {
    /// Maps onto the `RemoteError` taxonomy and decides retriability.
    fn classify(&self) -> (RemoteError, bool) {
        match self {
            AttemptError::Io(e) => match e.kind() {
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => (RemoteError::Timeout, true),
                io::ErrorKind::ConnectionRefused
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::BrokenPipe
                | io::ErrorKind::UnexpectedEof => (RemoteError::Unavailable(e.to_string()), true),
                _ => (RemoteError::Unavailable(e.to_string()), false),
            },
            AttemptError::Wire(w) => (w.clone().into_remote_error(), w.is_retriable()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_parsing_accepts_tcp_and_rejects_the_rest() {
        let (addr, ns) = NetRemote::parse_url("tcp://127.0.0.1:9470/library").unwrap();
        assert_eq!(addr, "127.0.0.1:9470");
        assert_eq!(ns, "library");
        assert!(NetRemote::parse_url("http://x/y").is_err());
        assert!(NetRemote::parse_url("tcp://hostonly").is_err());
        assert!(NetRemote::parse_url("tcp:///ns").is_err());
        assert!(NetRemote::parse_url("tcp://host:1/").is_err());
    }

    #[test]
    fn refused_connection_maps_to_unavailable_after_retries() {
        // Bind-then-drop gives us a port that refuses connections.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let mut config = ClientConfig::default();
        config.retry.max_attempts = 2;
        config.retry.base_delay = Duration::from_millis(1);
        let client = NetRemote::connect("nowhere", &format!("127.0.0.1:{port}"), config);
        let err = client.search(&ContentExpr::All).unwrap_err();
        assert!(matches!(err, RemoteError::Unavailable(_)), "got {err:?}");
    }

    #[test]
    fn classify_separates_retriable_from_fatal() {
        let timeout = AttemptError::Io(io::Error::new(io::ErrorKind::TimedOut, "t"));
        assert!(matches!(timeout.classify(), (RemoteError::Timeout, true)));
        let refused = AttemptError::Io(io::Error::new(io::ErrorKind::ConnectionRefused, "r"));
        assert!(matches!(
            refused.classify(),
            (RemoteError::Unavailable(_), true)
        ));
        let notfound = AttemptError::Wire(WireError::Remote(RemoteError::NotFound("x".into())));
        assert!(matches!(
            notfound.classify(),
            (RemoteError::NotFound(_), false)
        ));
        let unknown = AttemptError::Wire(WireError::UnknownNamespace("x".into()));
        assert!(matches!(
            unknown.classify(),
            (RemoteError::Unavailable(_), false)
        ));
        let bad = AttemptError::Io(io::Error::new(io::ErrorKind::InvalidData, "d"));
        assert!(matches!(
            bad.classify(),
            (RemoteError::Unavailable(_), false)
        ));
    }
}
