//! The `trustmap serve` frontend: concurrent serving over MVCC epochs and
//! group commit.
//!
//! This module turns a recovered durable session into a many-clients
//! service with the classic one-writer/many-readers split:
//!
//! * **Reads** never touch the writer. Each connection holds an
//!   [`EpochReader`] over the hub's [`EpochSlot`]; a query resolves
//!   against the immutable epoch snapshot current at arrival (one atomic
//!   load in the steady state, no locks), so reads never block on writes
//!   and never observe a torn mid-batch state.
//! * **Writes** route to the single writer through the group-commit
//!   [`WriteHub`]: concurrent writes coalesce into one WAL unit and one
//!   fsync per window, and every acknowledgement carries the durable LSN
//!   and the epoch that first reflects it.
//! * **Read-your-writes** is a token, not a session property: a client
//!   pins a read to its last write's LSN (`CERT alice @17`) and the
//!   server serves it from the first epoch at or past that LSN
//!   ([`EpochReader::wait_for_lsn`]).
//!
//! The protocol is line-oriented text — one request per line, one reply
//! line per request (names therefore cannot contain whitespace):
//!
//! ```text
//! CERT <user> [EXACT] [@<lsn>]    → OK <value|-> epoch=<e> lsn=<l>
//! POSS <user> [EXACT] [@<lsn>]    → OK <v1,v2,...|-> epoch=<e> lsn=<l>
//! EXPLAIN <query>                 → OK plan: epoch-read (<what it reads>) epoch=<e> lsn=<l>
//! BELIEVE <user> <value>          → OK lsn=<l> epoch=<e> group=<n>
//! TRUST <child> <parent> <prio>   → OK lsn=<l> epoch=<e> group=<n>
//! REVOKE <user>                   → OK lsn=<l> epoch=<e> group=<n>
//! REJECT <user> <value>           → OK lsn=<l> epoch=<e> group=<n>
//! EPOCH                           → OK epoch=<e> lsn=<l> users=<n>
//! STATS                           → OK fsyncs=… units=… records=… groups=… acked=… failed=… epochs=… rows_copied=…
//! PING                            → OK pong
//! QUIT                            → OK bye (connection closes)
//! SHIP <wm> [<seg> <off> <max> [<term>]]
//!                                 → OK chunk …\n<raw bytes> | OK caughtup … | OK behind …
//!                                   (caughtup waits up to read_timeout for the next commit)
//! SNAPSHOT                        → OK snapshot lsn=<l> len=<n>\n<raw bytes>
//! ```
//!
//! The read verbs are not ad-hoc string matches: `CERT`/`POSS`/`EXPLAIN`
//! lines parse through the unified `trustq` grammar
//! ([`trustmap_relstore::trustq`]) into the same
//! [`trustmap_core::Query`] AST the in-process `Session::query` API and
//! the CLI consume — one query language, three surfaces. A user target
//! may also be an interned handle (`CERT #3`). Every serving read takes
//! one route, leader and replica alike: it reads the published epoch (its
//! exact table for `EXACT`). `EXPLAIN <query>` names that route, the
//! epoch and LSN the read would see, and the sign's algorithm, instead
//! of the answer; it errs wherever the read itself would.
//!
//! `SHIP`/`SNAPSHOT` are the log-shipping verbs replication followers
//! speak (see [`trustmap_store::replica`]): the reply is a parseable
//! header line followed by exactly `len=` raw bytes — the only place the
//! protocol goes binary, and the bytes are CRC'd end-to-end. A follower
//! process drives them through [`TcpTransport`]. The request's trailing
//! `<term>` is the highest leadership term the follower has observed —
//! a leader seeing a higher term than its own learns it has been
//! deposed and fences its write path — and every `chunk`/`caughtup`/
//! `behind` reply carries the leader's own `term=` so followers refuse
//! stale-term leaders (missing fields parse as term 0 for
//! pre-failover peers).
//!
//! Failures reply `ERR <message>` and keep the connection open — except
//! a request line longer than 64 KiB, which is answered `ERR line too
//! long` and closes it (the server never buffers more of one line than
//! that; the ship client caps the reply headers it reads the same way).
//! The
//! request logic lives in [`Frontend::handle`], a pure function of
//! (frontend, per-connection reader, line) — the protocol is fully
//! testable without sockets; [`Server`] adds the thread-pool TCP layer
//! on top.
//!
//! A **replica frontend** ([`Frontend::replica`]) serves the same read
//! verbs from a follower's epoch slot — `CERT/POSS @<lsn>` pin to the
//! shipped watermark exactly as on the leader — and answers every write
//! verb with `ERR read-only replica`, so clients discover the topology
//! instead of silently forking history.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use trustmap_core::epoch::{EpochReader, EpochSlot, EpochView};
use trustmap_core::{QueryTarget, ReadKind, Session, Value};
use trustmap_relstore::trustq;
use trustmap_store::{
    GroupCommitWindow, ShipChunk, ShipRequest, ShipResponse, ShipTransport, SnapshotBlob, Store,
    WriteAck, WriteHub, WriteOp,
};

/// Tuning for [`Frontend`] / [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Group-commit window for the write path.
    pub window: GroupCommitWindow,
    /// How long a pinned read (`@<lsn>`) may wait for its epoch before
    /// replying `ERR`.
    pub pin_timeout: Duration,
    /// Worker threads for the TCP layer (each serves one connection at a
    /// time; readers scale with threads, writes serialize in the hub).
    pub threads: usize,
    /// Maintain the exact certain-belief table on the writer session and
    /// publish it with every epoch, so `CERT <user> EXACT` reads resolve
    /// here (and on replicas shipping from this leader).
    pub exact: bool,
    /// Socket read timeout per connection — the tick at which a worker
    /// re-checks the server's stop flag (so [`Server::stop`] drains
    /// instead of waiting for clients to hang up) and advances the idle
    /// clock. A partial request line survives ticks. It also bounds a
    /// parked `SHIP`: a caught-up follower's reply waits at most this
    /// long for the next commit, so the drain delay stays one tick.
    pub read_timeout: Duration,
    /// Socket write timeout per connection: a peer that stops draining
    /// its replies errors the connection instead of pinning the worker.
    pub write_timeout: Duration,
    /// Connections that make no request progress for this long are
    /// reaped, so a hung (or byte-dribbling) client cannot hold a worker
    /// thread forever.
    pub idle_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            window: GroupCommitWindow::default(),
            pin_timeout: Duration::from_secs(5),
            threads: 4,
            exact: false,
            read_timeout: Duration::from_millis(250),
            write_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(120),
        }
    }
}

/// One reply from [`Frontend::handle`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Send this line and keep the connection open.
    Line(String),
    /// Send the header line, then exactly the raw payload bytes
    /// (log-shipping chunks and snapshot blobs; the header's `len=` field
    /// tells the peer how many bytes follow).
    Chunk {
        /// The parseable header line.
        line: String,
        /// The raw payload that follows it on the wire.
        bytes: Vec<u8>,
    },
    /// Send `OK bye` and close the connection.
    Bye,
}

/// Renders a possible-value list as the protocol's comma-joined form
/// (`-` for an empty set).
fn render_values(view: &EpochView, values: &[Value]) -> String {
    let names: Vec<&str> = values
        .iter()
        .filter_map(|&v| view.names().value_name(v))
        .collect();
    if names.is_empty() {
        "-".to_string()
    } else {
        names.join(",")
    }
}

/// The serving brain: epoch-snapshot reads + group-commit writes, no
/// transport attached. Share it via `Arc` across however many
/// connection handlers the transport runs.
#[derive(Debug)]
pub struct Frontend {
    /// `None` on a replica: reads serve from the follower's epoch slot,
    /// writes are refused.
    hub: Option<WriteHub>,
    slot: Arc<EpochSlot>,
    store: Option<Store>,
    pin_timeout: Duration,
    /// How long a caught-up `SHIP` parks for the next commit
    /// ([`ServeConfig::read_timeout`]).
    ship_wait: Duration,
}

impl Frontend {
    /// Starts the single writer over `session` with `config`'s window.
    /// Pass the session's [`Store`] handle to expose durability counters
    /// via `STATS` (reads `fsyncs=0 units=0 records=0` otherwise) and to
    /// serve the `SHIP`/`SNAPSHOT` replication verbs.
    pub fn new(session: Session, store: Option<Store>, config: &ServeConfig) -> Self {
        let mut session = session;
        if config.exact {
            // Best effort: if the recovered state already overflows the
            // enumeration caps the slot parks as Failed and exact reads
            // reply ERR, while plain CERT/POSS keep serving.
            let _ = session.enable_exact();
        }
        let hub = WriteHub::new(session, config.window);
        let slot = hub.epochs();
        Frontend {
            hub: Some(hub),
            slot,
            store,
            pin_timeout: config.pin_timeout,
            ship_wait: config.read_timeout,
        }
    }

    /// A read-only frontend over a replication follower's epoch slot:
    /// `CERT/POSS/EPOCH` (including `@<lsn>` pins against the shipped
    /// watermark) work exactly as on the leader; every write verb answers
    /// `ERR read-only replica`.
    pub fn replica(slot: Arc<EpochSlot>, config: &ServeConfig) -> Self {
        Frontend {
            hub: None,
            slot,
            store: None,
            pin_timeout: config.pin_timeout,
            ship_wait: config.read_timeout,
        }
    }

    /// A fresh per-connection epoch reader.
    pub fn reader(&self) -> EpochReader {
        self.slot.reader()
    }

    /// The epoch slot (for out-of-band readers, e.g. benchmarks).
    pub fn epochs(&self) -> Arc<EpochSlot> {
        Arc::clone(&self.slot)
    }

    /// Routes one write through the group-commit hub (blocking until the
    /// group's fsync). Errors on a replica frontend.
    pub fn write(&self, op: WriteOp) -> trustmap_core::Result<WriteAck> {
        match &self.hub {
            Some(hub) => hub.submit(op),
            None => Err(trustmap_core::Error::Io(
                "read-only replica (writes go to the leader)".into(),
            )),
        }
    }

    /// Stops the writer (flushing pending groups) and returns the
    /// session, e.g. to snapshot before exit. `None` on a replica.
    pub fn shutdown(&self) -> Option<Session> {
        self.hub.as_ref().and_then(|hub| hub.shutdown())
    }

    /// Handles one request line against this connection's `reader`.
    pub fn handle(&self, reader: &mut EpochReader, line: &str) -> Reply {
        let mut tokens: Vec<&str> = line.split_whitespace().collect();
        // The read verbs speak the unified query language; everything
        // else stays on the simple verb grammar below.
        if let Some("CERT" | "POSS" | "EXPLAIN") =
            tokens.first().map(|v| v.to_ascii_uppercase()).as_deref()
        {
            return self.query_line(reader, line);
        }
        // Write verbs tolerate (and ignore) a trailing `@<lsn>` token so
        // old clients that pinned every request keep working.
        if let Some(last) = tokens.last() {
            if last.starts_with('@') && last[1..].parse::<u64>().is_ok() {
                tokens.pop();
            }
        }
        let verb = match tokens.first() {
            Some(v) => v.to_ascii_uppercase(),
            None => return Reply::Line("ERR empty request".into()),
        };
        let reply = match (verb.as_str(), &tokens[1..]) {
            ("BELIEVE", [user, value]) => self.write_op(WriteOp::Believe {
                user: (*user).into(),
                value: (*value).into(),
            }),
            ("TRUST", [child, parent, priority]) => match priority.parse() {
                Ok(priority) => self.write_op(WriteOp::Trust {
                    child: (*child).into(),
                    parent: (*parent).into(),
                    priority,
                }),
                Err(_) => Err(format!("bad priority `{priority}`")),
            },
            ("REVOKE", [user]) => self.write_op(WriteOp::Revoke {
                user: (*user).into(),
            }),
            ("REJECT", [user, value]) => self.write_op(WriteOp::Reject {
                user: (*user).into(),
                value: (*value).into(),
            }),
            ("EPOCH", []) => {
                let view = reader.current();
                Ok(format!(
                    "OK epoch={} lsn={} users={}",
                    view.epoch(),
                    view.lsn(),
                    view.user_count()
                ))
            }
            ("STATS", []) => {
                let counters = self
                    .store
                    .as_ref()
                    .map(|s| s.counters())
                    .unwrap_or_default();
                let stats = self.hub.as_ref().map(|h| h.stats()).unwrap_or_default();
                Ok(format!(
                    "OK fsyncs={} units={} records={} groups={} acked={} failed={} \
                     epochs={} rows_copied={}",
                    counters.fsync_count,
                    counters.units_committed,
                    counters.records_appended,
                    stats.groups,
                    stats.ops_acked,
                    stats.ops_failed,
                    stats.session.epochs_rendered,
                    stats.session.publish_rows_copied
                ))
            }
            ("PING", []) => Ok("OK pong".into()),
            ("QUIT", []) => return Reply::Bye,
            ("SHIP", rest) => return self.ship(rest),
            ("SNAPSHOT", []) => return self.ship_snapshot(),
            _ => Err(format!("bad request `{}`", line.trim())),
        };
        Reply::Line(reply.unwrap_or_else(|e| format!("ERR {e}")))
    }

    /// Handles one line of the unified query language (`CERT`, `POSS`,
    /// `EXPLAIN` — see [`trustmap_relstore::trustq`]). Parsing is shared
    /// with `Session::query` and the CLI; the read itself comes straight
    /// from the published epoch snapshot.
    fn query_line(&self, reader: &mut EpochReader, line: &str) -> Reply {
        let query = match trustq::parse_query(line) {
            Ok(q) => q,
            Err(e) => return Reply::Line(format!("ERR {e}")),
        };
        let reply = self.read_at(reader, query.pin, |view| {
            let user = match &query.target {
                QueryTarget::Named(name) => view
                    .names()
                    .find_user(name)
                    .ok_or_else(|| format!("unknown user `{name}`"))?,
                QueryTarget::Handle(u) if u.index() < view.user_count() => *u,
                QueryTarget::Handle(u) => return Err(format!("unknown user `#{}`", u.index())),
                QueryTarget::All => {
                    return Err("`*` spans every user — use `trustmap query` in the CLI \
                         (the protocol replies one line per request)"
                        .into())
                }
            };
            let no_exact =
                || "no exact table in this epoch (start the leader with --exact)".to_string();
            let text = match (query.explain, query.kind, query.exact) {
                (true, _, false) => format!(
                    "plan: epoch-read (published Algorithm {} rows)",
                    if view.is_skeptic() { 2 } else { 1 }
                ),
                (true, _, true) => {
                    view.exact().ok_or_else(no_exact)?;
                    "plan: epoch-read (published exact table)".into()
                }
                (false, ReadKind::Cert, false) => view
                    .cert(user)
                    .and_then(|v| view.names().value_name(v))
                    .unwrap_or("-")
                    .to_string(),
                (false, ReadKind::Cert, true) => view
                    .cert_exact(user)
                    .ok_or_else(no_exact)?
                    .and_then(|v| view.names().value_name(v))
                    .unwrap_or("-")
                    .to_string(),
                (false, ReadKind::Poss, false) => render_values(view, &view.poss(user)),
                (false, ReadKind::Poss, true) => {
                    let exact = view.exact().ok_or_else(no_exact)?;
                    render_values(view, exact.poss(user))
                }
            };
            Ok(format!(
                "OK {text} epoch={} lsn={}",
                view.epoch(),
                view.lsn()
            ))
        });
        Reply::Line(reply.unwrap_or_else(|e| format!("ERR {e}")))
    }

    /// Serves one `SHIP <watermark> [<seg_first> <offset> <max_bytes>
    /// [<term>]]` request (the short form lets the leader resolve the
    /// segment from the watermark — what a fresh follower sends; a
    /// missing term parses as 0, so pre-failover followers keep
    /// working). The follower's term is how a deposed leader learns it
    /// has been deposed — see [`Store::ship`]. A `caughtup` answer is
    /// held back until the next commit or [`ServeConfig::read_timeout`],
    /// whichever comes first.
    fn ship(&self, args: &[&str]) -> Reply {
        let Some(store) = &self.store else {
            return Reply::Line("ERR shipping needs a store (replicas do not re-ship)".into());
        };
        let nums: Result<Vec<u64>, _> = args.iter().map(|a| a.parse::<u64>()).collect();
        let req = match nums.as_deref() {
            Ok([watermark]) => ShipRequest {
                watermark: *watermark,
                seg_first: 0,
                offset: 0,
                max_bytes: 0,
                term: 0,
            },
            Ok(&[watermark, seg_first, offset, max_bytes]) => ShipRequest {
                watermark,
                seg_first,
                offset,
                max_bytes: max_bytes.min(u32::MAX as u64) as u32,
                term: 0,
            },
            Ok(&[watermark, seg_first, offset, max_bytes, term]) => ShipRequest {
                watermark,
                seg_first,
                offset,
                max_bytes: max_bytes.min(u32::MAX as u64) as u32,
                term,
            },
            _ => return Reply::Line("ERR usage: SHIP <wm> [<seg> <off> <max> [<term>]]".into()),
        };
        // The park is bounded by the read tick so that a drain still
        // takes at most one tick.
        let mut shipped = store.ship(&req);
        if let Ok(ShipResponse::CaughtUp { lsn, .. }) = shipped {
            if store.wait_for_commit(lsn, self.ship_wait) > lsn {
                shipped = store.ship(&req);
            }
        }
        match shipped {
            Ok(ShipResponse::Chunk(c)) => {
                let seal = c
                    .seal
                    .map(|s| {
                        format!(
                            " seal={}:{}:{:08x}:{}",
                            s.last_lsn, s.data_len, s.data_crc, s.term
                        )
                    })
                    .unwrap_or_default();
                Reply::Chunk {
                    line: format!(
                        "OK chunk seg={} off={} len={} crc={:08x} leader={} term={}{seal}",
                        c.seg_first,
                        c.offset,
                        c.bytes.len(),
                        c.crc,
                        c.leader_lsn,
                        c.term
                    ),
                    bytes: c.bytes,
                }
            }
            Ok(ShipResponse::CaughtUp { lsn, term }) => {
                Reply::Line(format!("OK caughtup lsn={lsn} term={term}"))
            }
            Ok(ShipResponse::Behind {
                first_available,
                snapshot_lsn,
                term,
            }) => Reply::Line(format!(
                "OK behind first={first_available} snapshot={snapshot_lsn} term={term}"
            )),
            Err(e) => Reply::Line(format!("ERR {e}")),
        }
    }

    /// Serves the image the store's history rests on as a raw blob
    /// (`SNAPSHOT`), for follower bootstrap.
    fn ship_snapshot(&self) -> Reply {
        let Some(store) = &self.store else {
            return Reply::Line("ERR shipping needs a store (replicas do not re-ship)".into());
        };
        match store.snapshot_blob() {
            Ok(blob) => Reply::Chunk {
                line: format!("OK snapshot lsn={} len={}", blob.lsn, blob.bytes.len()),
                bytes: blob.bytes,
            },
            Err(e) => Reply::Line(format!("ERR {e}")),
        }
    }

    fn read_at(
        &self,
        reader: &mut EpochReader,
        pin: Option<u64>,
        query: impl FnOnce(&EpochView) -> Result<String, String>,
    ) -> Result<String, String> {
        let view = match pin {
            Some(lsn) => reader
                .wait_for_lsn(lsn, self.pin_timeout)
                .ok_or_else(|| format!("timed out waiting for lsn {lsn}"))?,
            None => reader.current(),
        };
        query(view)
    }

    fn write_op(&self, op: WriteOp) -> Result<String, String> {
        let Some(hub) = &self.hub else {
            return Err("read-only replica (writes go to the leader)".into());
        };
        match hub.submit(op) {
            Ok(ack) => Ok(format!(
                "OK lsn={} epoch={} group={}",
                ack.lsn, ack.epoch, ack.group_size
            )),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// The TCP layer: a fixed pool of worker threads sharing one listener,
/// each serving one connection at a time through [`Frontend::handle`].
#[derive(Debug)]
pub struct Server {
    frontend: Arc<Frontend>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// `config.threads` accept workers over `frontend`.
    ///
    /// A worker that fails to spawn (thread exhaustion) unwinds the
    /// workers already started and surfaces the error instead of
    /// panicking the caller; a connection whose handler panics costs
    /// only that connection — the worker catches the unwind and returns
    /// to its accept loop.
    pub fn start(
        frontend: Arc<Frontend>,
        addr: &str,
        config: &ServeConfig,
    ) -> std::io::Result<Server> {
        let listener = Arc::new(TcpListener::bind(addr)?);
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::with_capacity(config.threads.max(1));
        for i in 0..config.threads.max(1) {
            let listener = Arc::clone(&listener);
            let frontend = Arc::clone(&frontend);
            let worker_stop = Arc::clone(&stop);
            let config = *config;
            let spawned = std::thread::Builder::new()
                .name(format!("trustmap-serve-{i}"))
                .spawn(move || loop {
                    let (stream, _) = match listener.accept() {
                        Ok(conn) => conn,
                        Err(_) => return,
                    };
                    if worker_stop.load(Ordering::Acquire) {
                        return;
                    }
                    // One poisoned request must not take down the pool:
                    // a panic inside the handler drops that connection
                    // and the worker returns to accepting.
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let _ = serve_connection(&frontend, stream, &config, &worker_stop);
                    }));
                });
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Unwind the part of the pool that did start, then
                    // report — a half-spawned server must not linger.
                    stop.store(true, Ordering::Release);
                    for _ in 0..workers.len() {
                        let _ = TcpStream::connect(addr);
                    }
                    for worker in workers {
                        let _ = worker.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(Server {
            frontend,
            addr,
            stop,
            workers,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The frontend behind this server.
    pub fn frontend(&self) -> &Arc<Frontend> {
        &self.frontend
    }

    /// Blocks until every worker exits (i.e. forever, absent
    /// [`Server::stop`] from another thread).
    pub fn join(self) {
        for worker in self.workers {
            let _ = worker.join();
        }
    }

    /// Stops the server with a drain: no new connections are served,
    /// requests already in flight finish their reply, and workers exit
    /// at their next read tick ([`ServeConfig::read_timeout`]) even when
    /// clients keep their connections open.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Release);
        for _ in 0..self.workers.len() {
            // Wake each blocked accept with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
        }
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// The longest line either end buffers: a request line on the server, a
/// reply header line in the ship client.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// `read_line` that stops appending once `line` (which may hold a partial
/// line from an earlier timed-out call) is one byte over
/// [`MAX_LINE_BYTES`]; [`overlong`] then tells that case apart.
fn read_line_capped<R: BufRead>(input: &mut R, line: &mut String) -> std::io::Result<usize> {
    let room = (MAX_LINE_BYTES + 1).saturating_sub(line.len());
    input.by_ref().take(room as u64).read_line(line)
}

/// Whether [`read_line_capped`] gave up on `line` before its newline.
fn overlong(line: &str) -> bool {
    line.len() > MAX_LINE_BYTES && !line.ends_with('\n')
}

/// One connection: read request lines, write one reply line each.
///
/// Reads tick at [`ServeConfig::read_timeout`] so the worker notices a
/// server shutdown mid-connection (drain) and reaps clients that make
/// no progress for [`ServeConfig::idle_timeout`] — including
/// byte-dribbling ones. A partial request line survives ticks: the
/// buffer accumulates across timeouts until the newline arrives, or
/// until it passes [`MAX_LINE_BYTES`] — then the client is told `ERR line
/// too long` and the connection closes.
fn serve_connection(
    frontend: &Frontend,
    stream: TcpStream,
    config: &ServeConfig,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let tick = config.read_timeout.max(Duration::from_millis(10));
    stream.set_read_timeout(Some(tick))?;
    stream.set_write_timeout(Some(config.write_timeout.max(Duration::from_millis(10))))?;
    let mut reader = frontend.reader();
    let mut input = BufReader::new(stream.try_clone()?);
    let mut output = BufWriter::new(stream);
    let mut line = String::new();
    let mut idle = Duration::ZERO;
    let mut partial_len = 0;
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(()); // drain: the last reply was flushed whole
        }
        match read_line_capped(&mut input, &mut line) {
            Ok(0) => return Ok(()), // client hung up
            Ok(_) if overlong(&line) => {
                writeln!(output, "ERR line too long")?;
                output.flush()?;
                // Closing over unread input resets the connection, which
                // can take the reply with it: stop sending, then swallow
                // what the client already pushed — until it notices, goes
                // quiet for a tick, or has used up its allowance.
                output.get_ref().shutdown(std::net::Shutdown::Write)?;
                let mut allowance = 64 * MAX_LINE_BYTES;
                let mut sink = [0u8; 8192];
                while allowance > 0 {
                    match input.read(&mut sink) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => allowance = allowance.saturating_sub(n),
                    }
                }
                return Ok(());
            }
            Ok(_) => {
                idle = Duration::ZERO;
                partial_len = 0;
                let reply = frontend.handle(&mut reader, &line);
                line.clear();
                match reply {
                    Reply::Line(reply) => {
                        writeln!(output, "{reply}")?;
                        output.flush()?;
                    }
                    Reply::Chunk { line, bytes } => {
                        writeln!(output, "{line}")?;
                        output.write_all(&bytes)?;
                        output.flush()?;
                    }
                    Reply::Bye => {
                        writeln!(output, "OK bye")?;
                        output.flush()?;
                        return Ok(());
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Tick without a complete line. Partial bytes stay in
                // `line`; only a tick with zero new bytes counts as idle.
                if line.len() == partial_len {
                    idle += tick;
                    if idle >= config.idle_timeout {
                        return Ok(()); // reap: no progress for too long
                    }
                } else {
                    partial_len = line.len();
                    idle = Duration::ZERO;
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// [`ShipTransport`] over the line protocol: what a follower process uses
/// to pull the log from a remote leader (`trustmap follow <dir> <addr>`).
///
/// The connection is established lazily and dropped on any error, so
/// every [`ShipTransport::ship`] call after a failure transparently
/// reconnects — [`trustmap_store::Follower::run`] supplies the backoff.
///
/// Connecting, and every read and write, is bounded by the server's
/// default write timeout (10 s, far above the leader's parked `SHIP`):
/// a leader that goes silent without closing the connection (power
/// loss, partition, a stopped process) fails the call instead of
/// holding the follower forever.
#[derive(Debug)]
pub struct TcpTransport {
    addr: String,
    conn: Option<BufReader<TcpStream>>,
    timeout: Duration,
}

impl TcpTransport {
    /// A transport to the leader at `addr` (e.g. `127.0.0.1:7171`). Does
    /// not connect yet.
    pub fn new(addr: impl Into<String>) -> Self {
        TcpTransport {
            addr: addr.into(),
            conn: None,
            timeout: ServeConfig::default().write_timeout,
        }
    }

    /// Connects to the first address `addr` resolves to that answers
    /// within the timeout, with that timeout on reads and writes.
    fn connect(&self) -> std::io::Result<TcpStream> {
        let mut last = None;
        for addr in self.addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, self.timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(self.timeout))?;
                    stream.set_write_timeout(Some(self.timeout))?;
                    return Ok(stream);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("`{}` resolves to no address", self.addr),
            )
        }))
    }

    fn io(e: std::io::Error) -> trustmap_core::Error {
        trustmap_core::Error::Io(format!("ship transport: {e}"))
    }

    /// Sends one request line and reads the reply header line, (re-)
    /// connecting as needed. On any error the connection is dropped so
    /// the next call starts fresh.
    fn round_trip(&mut self, request: &str) -> trustmap_core::Result<String> {
        if self.conn.is_none() {
            self.conn = Some(BufReader::new(self.connect().map_err(Self::io)?));
        }
        let conn = self.conn.as_mut().expect("connected above");
        let outcome = (|| {
            let stream = conn.get_mut();
            stream.write_all(request.as_bytes())?;
            stream.write_all(b"\n")?;
            let mut line = String::new();
            if read_line_capped(conn, &mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "leader closed the connection",
                ));
            }
            if overlong(&line) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "reply header line too long",
                ));
            }
            Ok(line.trim_end().to_string())
        })();
        match outcome {
            Ok(line) => Ok(line),
            Err(e) => {
                self.conn = None;
                Err(Self::io(e))
            }
        }
    }

    /// Reads the `len` payload bytes following a chunk or snapshot
    /// header. `len` is the leader's claim, not a fact: the buffer grows
    /// only as bytes actually arrive, and a stream that ends short fails
    /// the round trip.
    fn read_payload(&mut self, len: u64) -> trustmap_core::Result<Vec<u8>> {
        let conn = self.conn.as_mut().ok_or_else(|| {
            trustmap_core::Error::Io("ship transport: connection lost mid-reply".into())
        })?;
        let mut bytes = Vec::new();
        let outcome = std::io::Read::take(conn, len)
            .read_to_end(&mut bytes)
            .and_then(|got| {
                if got as u64 == len {
                    Ok(())
                } else {
                    Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        format!("payload ended after {got} of {len} bytes"),
                    ))
                }
            });
        match outcome {
            Ok(()) => Ok(bytes),
            Err(e) => {
                self.conn = None;
                Err(Self::io(e))
            }
        }
    }
}

/// Pulls `key=` fields out of a reply header line.
fn header_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|t| t.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
}

fn parse_u64(line: &str, key: &str) -> trustmap_core::Result<u64> {
    header_field(line, key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| trustmap_core::Error::Io(format!("ship reply missing `{key}=`: {line}")))
}

fn parse_crc(line: &str, key: &str) -> trustmap_core::Result<u32> {
    header_field(line, key)
        .and_then(|v| u32::from_str_radix(v, 16).ok())
        .ok_or_else(|| trustmap_core::Error::Io(format!("ship reply missing `{key}=`: {line}")))
}

/// The reply's `term=` field; absent means a pre-failover leader, i.e.
/// term 0 (never an error — old leaders must stay followable).
fn parse_term(line: &str) -> u64 {
    header_field(line, "term")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

impl ShipTransport for TcpTransport {
    fn ship(&mut self, req: &ShipRequest) -> trustmap_core::Result<ShipResponse> {
        let line = self.round_trip(&format!(
            "SHIP {} {} {} {} {}",
            req.watermark, req.seg_first, req.offset, req.max_bytes, req.term
        ))?;
        if line.starts_with("OK caughtup") {
            return Ok(ShipResponse::CaughtUp {
                lsn: parse_u64(&line, "lsn")?,
                term: parse_term(&line),
            });
        }
        if line.starts_with("OK behind") {
            return Ok(ShipResponse::Behind {
                first_available: parse_u64(&line, "first")?,
                snapshot_lsn: parse_u64(&line, "snapshot")?,
                term: parse_term(&line),
            });
        }
        if line.starts_with("OK chunk") {
            let len = parse_u64(&line, "len")?;
            let seal = match header_field(&line, "seal") {
                Some(spec) => {
                    let bad = || trustmap_core::Error::Io(format!("malformed seal field: {line}"));
                    // 3 colon fields = a pre-failover leader (term 0),
                    // 4 = term-stamped.
                    let parts: Vec<&str> = spec.split(':').collect();
                    let (last, dlen, crc, term) = match parts.as_slice() {
                        [last, dlen, crc] => (*last, *dlen, *crc, "0"),
                        [last, dlen, crc, term] => (*last, *dlen, *crc, *term),
                        _ => return Err(bad()),
                    };
                    Some(trustmap_store::SegmentSeal {
                        last_lsn: last.parse().map_err(|_| bad())?,
                        data_len: dlen.parse().map_err(|_| bad())?,
                        data_crc: u32::from_str_radix(crc, 16).map_err(|_| bad())?,
                        term: term.parse().map_err(|_| bad())?,
                    })
                }
                None => None,
            };
            let chunk = ShipChunk {
                seg_first: parse_u64(&line, "seg")?,
                offset: parse_u64(&line, "off")?,
                crc: parse_crc(&line, "crc")?,
                leader_lsn: parse_u64(&line, "leader")?,
                term: parse_term(&line),
                bytes: self.read_payload(len)?,
                seal,
            };
            return Ok(ShipResponse::Chunk(chunk));
        }
        Err(trustmap_core::Error::Io(format!("leader replied: {line}")))
    }

    fn fetch_snapshot(&mut self) -> trustmap_core::Result<SnapshotBlob> {
        let line = self.round_trip("SNAPSHOT")?;
        if !line.starts_with("OK snapshot") {
            return Err(trustmap_core::Error::Io(format!("leader replied: {line}")));
        }
        let lsn = parse_u64(&line, "lsn")?;
        let len = parse_u64(&line, "len")?;
        Ok(SnapshotBlob {
            lsn,
            bytes: self.read_payload(len)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("trustmap-serve-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// One request whose reply must be a plain line.
    fn line(f: &Frontend, r: &mut EpochReader, s: &str) -> String {
        match f.handle(r, s) {
            Reply::Line(l) => l,
            other => panic!("unexpected reply {other:?}"),
        }
    }

    fn frontend(dir: &PathBuf) -> Frontend {
        let recovered = Store::open(dir).expect("fresh store");
        let store = recovered.store.clone();
        Frontend::new(
            recovered.session,
            Some(store),
            &ServeConfig {
                window: GroupCommitWindow::per_edit(),
                ..Default::default()
            },
        )
    }

    #[test]
    fn protocol_round_trips_without_sockets() {
        let dir = fresh_dir("protocol");
        let f = frontend(&dir);
        let mut r = f.reader();
        let line = |f: &Frontend, r: &mut EpochReader, s: &str| match f.handle(r, s) {
            Reply::Line(l) => l,
            Reply::Chunk { line, .. } => line,
            Reply::Bye => "BYE".into(),
        };

        assert_eq!(line(&f, &mut r, "PING"), "OK pong");
        assert!(line(&f, &mut r, "CERT nobody").starts_with("ERR unknown user"));

        let ack = line(&f, &mut r, "BELIEVE alice fish");
        assert!(ack.starts_with("OK lsn="), "{ack}");
        assert!(line(&f, &mut r, "TRUST bob alice 100").starts_with("OK lsn="));
        assert!(line(&f, &mut r, "believe carol knot").starts_with("OK lsn="));
        assert!(line(&f, &mut r, "TRUST bob carol 50").starts_with("OK lsn="));

        // Reads resolve through the published epoch: bob follows alice.
        assert!(line(&f, &mut r, "CERT bob").starts_with("OK fish "));
        assert!(line(&f, &mut r, "POSS bob").starts_with("OK fish "));

        // Validation failures keep the connection usable.
        assert!(line(&f, &mut r, "TRUST dave dave 5").starts_with("ERR "));
        assert!(line(&f, &mut r, "NOSUCH thing").starts_with("ERR bad request"));
        assert!(line(&f, &mut r, "TRUST a b zillion").starts_with("ERR bad priority"));
        assert!(line(&f, &mut r, "CERT alice @nope").starts_with("ERR bad lsn"));

        let epoch = line(&f, &mut r, "EPOCH");
        assert!(epoch.contains("users=4"), "{epoch}");
        let stats = line(&f, &mut r, "STATS");
        // 4 successful writes + the self-trust group (which still durably
        // interned `dave` before validation rejected the mapping).
        assert!(stats.contains("fsyncs=5"), "{stats}");
        assert!(stats.contains("acked=4 failed=1"), "{stats}");
        // One view per group besides the hub's initial publication; four
        // users in one chunk, so no rewrite ever copied more than that.
        assert!(stats.contains(" epochs=6 rows_copied="), "{stats}");
        let copied: u64 = stats.rsplit('=').next().unwrap().parse().unwrap();
        assert!(copied <= 5 * 4, "{stats}");
        assert_eq!(f.handle(&mut r, "QUIT"), Reply::Bye);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exact_reads_need_the_exact_table() {
        // Without `exact: true` the epoch carries no exact table and the
        // read fails loudly instead of silently downgrading.
        let dir = fresh_dir("exact-off");
        let f = frontend(&dir);
        let mut r = f.reader();
        assert!(line(&f, &mut r, "BELIEVE alice fish").starts_with("OK lsn="));
        assert!(line(&f, &mut r, "CERT alice EXACT").starts_with("ERR no exact table"));
        let _ = std::fs::remove_dir_all(&dir);

        // With it, exact reads resolve through the published table (and
        // the mode token is case-insensitive like the verb).
        let dir = fresh_dir("exact-on");
        let recovered = Store::open(&dir).expect("fresh store");
        let store = recovered.store.clone();
        let f = Frontend::new(
            recovered.session,
            Some(store),
            &ServeConfig {
                window: GroupCommitWindow::per_edit(),
                exact: true,
                ..Default::default()
            },
        );
        let mut r = f.reader();
        assert!(line(&f, &mut r, "BELIEVE alice fish").starts_with("OK lsn="));
        assert!(line(&f, &mut r, "TRUST bob alice 10").starts_with("OK lsn="));
        assert!(line(&f, &mut r, "CERT bob EXACT").starts_with("OK fish "));
        assert!(line(&f, &mut r, "cert bob exact").starts_with("OK fish "));
        // Unknown users still answer the same way as plain CERT.
        assert!(line(&f, &mut r, "CERT ghost EXACT").starts_with("ERR unknown user"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The read verbs are the unified query language: `#handle` targets,
    /// `POSS … EXACT`, and `EXPLAIN` all resolve through the same parser
    /// the `Session` API uses.
    #[test]
    fn read_verbs_speak_the_unified_query_language() {
        let dir = fresh_dir("trustq");
        let recovered = Store::open(&dir).expect("fresh store");
        let store = recovered.store.clone();
        let f = Frontend::new(
            recovered.session,
            Some(store),
            &ServeConfig {
                window: GroupCommitWindow::per_edit(),
                exact: true,
                ..Default::default()
            },
        );
        let mut r = f.reader();
        assert!(line(&f, &mut r, "BELIEVE alice fish").starts_with("OK lsn="));
        assert!(line(&f, &mut r, "TRUST bob alice 10").starts_with("OK lsn="));

        // `#handle` targets: alice interned first, so she is `#0`.
        assert!(line(&f, &mut r, "CERT #0").starts_with("OK fish "));
        assert!(line(&f, &mut r, "CERT #99").starts_with("ERR unknown user `#99`"));

        // POSS composes with EXACT through the published exact table.
        assert!(line(&f, &mut r, "POSS bob EXACT").starts_with("OK fish "));

        // EXPLAIN names the route the read takes — the published epoch,
        // or the exact table it carries — and the epoch and LSN it sees.
        let at = seen_at(&line(&f, &mut r, "CERT bob"));
        assert_eq!(
            line(&f, &mut r, "EXPLAIN CERT bob"),
            format!("OK plan: epoch-read (published Algorithm 1 rows) {at}")
        );
        assert_eq!(
            line(&f, &mut r, "EXPLAIN POSS bob EXACT"),
            format!("OK plan: epoch-read (published exact table) {at}")
        );
        // `FORCE` is not a modifier: the parser's trailing-word error,
        // word for word what `trustq` and `trustmap query` print.
        assert_eq!(
            line(&f, &mut r, "CERT bob FORCE whole-solve"),
            format!(
                "ERR {}",
                trustq::parse_query("CERT bob FORCE whole-solve").unwrap_err()
            )
        );
        // `*` spans every user — pointed at the CLI, not silently
        // truncated; EXPLAIN errs wherever the read does.
        assert!(line(&f, &mut r, "POSS *").starts_with("ERR `*`"));
        assert_eq!(
            line(&f, &mut r, "EXPLAIN POSS *"),
            line(&f, &mut r, "POSS *")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The `epoch=<e> lsn=<l>` a read reply says it was served at.
    fn seen_at(reply: &str) -> String {
        reply[reply.find("epoch=").expect("a read reply")..].to_owned()
    }

    /// `EXPLAIN` describes the server as it is, from the first request:
    /// a recovered leader reads its published epoch, and the route names
    /// the algorithm of the network's current sign.
    #[test]
    fn explain_follows_the_published_epoch() {
        let dir = fresh_dir("explain-epoch");
        {
            let mut recovered = Store::open(&dir).expect("fresh store");
            let alice = recovered.session.user("Alice");
            let fish = recovered.session.value("fish");
            recovered.session.believe(alice, fish).expect("edit");
            recovered
                .store
                .snapshot_now(&recovered.session)
                .expect("snapshot");
        }
        let f = frontend(&dir);
        let mut r = f.reader();
        let explain = |r: &mut EpochReader, algorithm: u8| {
            assert_eq!(
                line(&f, r, "EXPLAIN CERT Alice"),
                format!(
                    "OK plan: epoch-read (published Algorithm {algorithm} rows) {}",
                    seen_at(&line(&f, r, "CERT Alice"))
                )
            );
        };
        explain(&mut r, 1);
        // Crossing the sign boundary and back flips the algorithm.
        assert!(line(&f, &mut r, "REJECT Bob fish").starts_with("OK lsn="));
        explain(&mut r, 2);
        assert!(line(&f, &mut r, "REVOKE Bob").starts_with("OK lsn="));
        explain(&mut r, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A replica explains exactly as its leader does at the same LSN:
    /// both read the epoch in front of the reader, before anything has
    /// shipped and across the sign boundary.
    #[test]
    fn replica_explains_as_its_leader_does() {
        use trustmap_store::{Follower, LocalTransport, Step};
        let queries = [
            "EXPLAIN CERT alice",
            "EXPLAIN POSS alice",
            "EXPLAIN CERT alice EXACT",
        ];
        let (ldir, fdir) = (fresh_dir("explain-leader"), fresh_dir("explain-replica"));
        let config = ServeConfig {
            window: GroupCommitWindow::per_edit(),
            ..Default::default()
        };
        let recovered = Store::open(&ldir).expect("fresh store");
        let mut transport = LocalTransport::new(recovered.store.clone());
        let leader = Frontend::new(recovered.session, Some(recovered.store), &config);
        let mut follower = Follower::open(&fdir).expect("open follower");
        let replica = Frontend::replica(follower.epoch_slot(), &config);
        let (mut lr, mut rr) = (leader.reader(), replica.reader());

        // A slot nobody has published to holds the empty genesis view:
        // EXPLAIN errs exactly as the read it describes.
        let bare = Frontend::replica(Arc::new(EpochSlot::new()), &config);
        let mut br = bare.reader();
        assert_eq!(
            line(&bare, &mut br, queries[0]),
            line(&bare, &mut br, "CERT alice")
        );

        for write in ["BELIEVE alice fish", "REJECT bob fish", "REVOKE bob"] {
            assert!(line(&leader, &mut lr, write).starts_with("OK lsn="));
            while !matches!(
                follower.step(&mut transport).expect("step"),
                Step::CaughtUp { .. }
            ) {}
            assert_eq!(follower.watermark(), lr.current().lsn());
            assert_eq!(rr.current().lsn(), lr.current().lsn());
            for q in queries {
                assert_eq!(line(&replica, &mut rr, q), line(&leader, &mut lr, q), "{q}");
            }
        }
        let _ = std::fs::remove_dir_all(&ldir);
        let _ = std::fs::remove_dir_all(&fdir);
    }

    #[test]
    fn pinned_reads_are_read_your_writes() {
        let dir = fresh_dir("pin");
        let f = frontend(&dir);
        let mut r = f.reader();
        let ack = f.write(WriteOp::Believe {
            user: "alice".into(),
            value: "vase".into(),
        });
        let ack = ack.expect("durable");
        // A reader that pins to the ack's LSN always sees the write, even
        // though it never read before.
        let reply = match f.handle(&mut r, &format!("CERT alice @{}", ack.lsn)) {
            Reply::Line(l) => l,
            other => panic!("unexpected reply {other:?}"),
        };
        assert!(reply.starts_with("OK vase "), "{reply}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tcp_server_serves_concurrent_clients() {
        let dir = fresh_dir("tcp");
        let recovered = Store::open(&dir).expect("fresh store");
        let store = recovered.store.clone();
        let config = ServeConfig {
            threads: 3,
            ..Default::default()
        };
        let f = Arc::new(Frontend::new(recovered.session, Some(store), &config));
        let server = Server::start(Arc::clone(&f), "127.0.0.1:0", &config).expect("bind");
        let addr = server.addr();

        let clients: Vec<_> = (0..3)
            .map(|i| {
                std::thread::spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    let mut input = BufReader::new(stream.try_clone().expect("clone"));
                    let mut output = stream;
                    let mut ask = |req: &str| {
                        writeln!(output, "{req}").expect("send");
                        let mut reply = String::new();
                        input.read_line(&mut reply).expect("reply");
                        reply.trim_end().to_string()
                    };
                    let ack = ask(&format!("BELIEVE user{i} v{i}"));
                    assert!(ack.starts_with("OK lsn="), "{ack}");
                    let lsn: u64 = ack
                        .split_whitespace()
                        .find_map(|t| t.strip_prefix("lsn="))
                        .expect("lsn field")
                        .parse()
                        .expect("numeric lsn");
                    // Read-your-writes through the LSN token.
                    let read = ask(&format!("CERT user{i} @{lsn}"));
                    assert!(read.starts_with(&format!("OK v{i} ")), "{read}");
                    assert_eq!(ask("QUIT"), "OK bye");
                })
            })
            .collect();
        for client in clients {
            client.join().expect("client");
        }
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A newline-free client costs the worker 64 KiB, not its whole
    /// stream: it is told so and dropped, the server keeps serving, and a
    /// long-but-legal line still reaches the parser.
    #[test]
    fn overlong_request_lines_are_refused_not_buffered() {
        let dir = fresh_dir("long-line");
        let recovered = Store::open(&dir).expect("fresh store");
        let config = ServeConfig::default();
        let f = Arc::new(Frontend::new(recovered.session, None, &config));
        let server = Server::start(Arc::clone(&f), "127.0.0.1:0", &config).expect("bind");
        let connect = || {
            let stream = TcpStream::connect(server.addr()).expect("connect");
            (BufReader::new(stream.try_clone().expect("clone")), stream)
        };
        let read_line = |input: &mut BufReader<TcpStream>| {
            let mut reply = String::new();
            input.read_line(&mut reply).expect("reply");
            reply
        };

        let (mut input, mut output) = connect();
        let flood = vec![b'x'; 1 << 20];
        // The server may hang up before the last byte is out.
        let _ = output.write_all(&flood);
        assert_eq!(read_line(&mut input), "ERR line too long\n");
        assert_eq!(read_line(&mut input), "", "and the connection is closed");

        let (mut input, mut output) = connect();
        writeln!(output, "PING").expect("send");
        assert_eq!(read_line(&mut input), "OK pong\n");
        writeln!(output, "NOSUCH {}", "y".repeat(60 * 1024)).expect("send");
        assert!(read_line(&mut input).starts_with("ERR bad request `NOSUCH yyy"));
        writeln!(output, "PING").expect("send");
        assert_eq!(read_line(&mut input), "OK pong\n", "still connected");

        drop((input, output));
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The ship client trusts its leader no further: a reply header that
    /// never ends fails the round trip instead of growing a buffer.
    #[test]
    fn ship_client_refuses_an_endless_reply_header() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let leader = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut input = BufReader::new(stream.try_clone().expect("clone"));
            let mut request = String::new();
            input.read_line(&mut request).expect("request");
            let mut output = stream;
            // The client hangs up once it has seen enough.
            let _ = output.write_all(&vec![b'x'; 4 * MAX_LINE_BYTES]);
            request
        });
        let mut transport = TcpTransport::new(addr.to_string());
        let err = transport
            .ship(&ShipRequest {
                watermark: 0,
                seg_first: 0,
                offset: 0,
                max_bytes: 0,
                term: 0,
            })
            .expect_err("no header line");
        assert!(
            matches!(&err, trustmap_core::Error::Io(m) if m.contains("too long")),
            "{err:?}"
        );
        assert!(leader.join().expect("leader").starts_with("SHIP 0 "));
    }

    /// A ship header cannot size an allocation: a leader claiming a
    /// 16 EiB payload and hanging up after 10 bytes fails the round trip,
    /// and honest payloads (longer than any one read) still arrive intact.
    #[test]
    fn ship_client_reads_payloads_as_they_arrive() {
        let chunk: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let blob: Vec<u8> = (0..150_000u32).map(|i| (i % 241) as u8).collect();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (chunk_sent, blob_sent) = (chunk.clone(), blob.clone());
        let leader = std::thread::spawn(move || {
            let mut request = String::new();
            {
                let (stream, _) = listener.accept().expect("accept");
                let mut input = BufReader::new(stream.try_clone().expect("clone"));
                input.read_line(&mut request).expect("request");
                let mut output = stream;
                output
                    .write_all(
                        b"OK chunk seg=1 off=0 len=18446744073709551615 crc=00000000 leader=1 term=0\n0123456789",
                    )
                    .expect("reply");
                // Dropping the stream is the EOF.
            }
            let (stream, _) = listener.accept().expect("reconnect");
            let mut input = BufReader::new(stream.try_clone().expect("clone"));
            let mut output = stream;
            input.read_line(&mut request).expect("request");
            let header = format!(
                "OK chunk seg=1 off=0 len={} crc=00000000 leader=1 term=0\n",
                chunk_sent.len()
            );
            output.write_all(header.as_bytes()).expect("header");
            output.write_all(&chunk_sent).expect("chunk");
            input.read_line(&mut request).expect("request");
            let header = format!("OK snapshot lsn=7 len={}\n", blob_sent.len());
            output.write_all(header.as_bytes()).expect("header");
            output.write_all(&blob_sent).expect("blob");
            request
        });
        let req = ShipRequest {
            watermark: 0,
            seg_first: 0,
            offset: 0,
            max_bytes: 0,
            term: 0,
        };
        let mut transport = TcpTransport::new(addr.to_string());
        let err = transport.ship(&req).expect_err("ten bytes are not 16 EiB");
        assert!(
            matches!(&err, trustmap_core::Error::Io(m) if m.contains("after 10 of")),
            "{err:?}"
        );
        match transport.ship(&req).expect("honest chunk") {
            ShipResponse::Chunk(c) => assert_eq!(c.bytes, chunk),
            other => panic!("expected a chunk, got {other:?}"),
        }
        let snap = transport.fetch_snapshot().expect("honest snapshot");
        assert_eq!((snap.lsn, snap.bytes), (7, blob));
        let requests = leader.join().expect("leader");
        assert_eq!(requests.matches("SHIP 0 ").count(), 2);
        assert!(requests.ends_with("SNAPSHOT\n"));
    }

    const FROM_GENESIS: ShipRequest = ShipRequest {
        watermark: 0,
        seg_first: 0,
        offset: 0,
        max_bytes: 0,
        term: 0,
    };

    /// Polls `done` until it holds, failing the test after five seconds.
    fn eventually(what: &str, done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A leader that accepts and then never answers (its host lost power
    /// without a FIN) fails the ship call within the transport's timeout,
    /// and the next call dials a fresh connection. The test bounds itself
    /// so that a transport without timeouts fails it instead of hanging.
    #[test]
    fn ship_client_times_out_a_silent_leader_and_redials() {
        assert_eq!(
            TcpTransport::new("leader:7171").timeout,
            ServeConfig::default().write_timeout
        );
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // Holds both connections open without a byte of reply.
        let leader = std::thread::spawn(move || {
            (0..2)
                .map(|_| listener.accept().expect("accept").0)
                .collect::<Vec<_>>()
        });
        let (tx, rx) = std::sync::mpsc::channel();
        let follower = std::thread::spawn(move || {
            let mut transport = TcpTransport::new(addr.to_string());
            transport.timeout = Duration::from_millis(200);
            let outcomes: Vec<_> = (0..2)
                .map(|_| transport.ship(&FROM_GENESIS).map(|_| ()))
                .map(|r| r.map_err(|e| e.to_string()))
                .collect();
            let _ = tx.send(outcomes);
        });
        let outcomes = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a silent leader must not hold the follower");
        follower.join().expect("follower thread");
        assert!(outcomes.iter().all(Result::is_err), "{outcomes:?}");
        let held = leader.join().expect("leader");
        assert_eq!(held.len(), 2, "the second call redialed");
    }

    /// The long poll, pinned by mechanism: a follower whose floor between
    /// caught-up polls is a minute still sees a write within seconds,
    /// because its caught-up `SHIP` was parked on the leader and the
    /// commit, not the bound, ended the park.
    #[test]
    fn a_parked_follower_is_woken_by_the_next_commit() {
        use std::sync::atomic::AtomicBool;
        use trustmap_store::{FollowConfig, Follower};

        let (ldir, fdir) = (fresh_dir("park-leader"), fresh_dir("park-follower"));
        let recovered = Store::open(&ldir).expect("fresh store");
        let store = recovered.store.clone();
        let config = ServeConfig {
            window: GroupCommitWindow::per_edit(),
            read_timeout: Duration::from_secs(5),
            threads: 2,
            ..Default::default()
        };
        let f = Arc::new(Frontend::new(
            recovered.session,
            Some(store.clone()),
            &config,
        ));
        let server = Server::start(Arc::clone(&f), "127.0.0.1:0", &config).expect("bind");
        let write = |i: usize| {
            f.write(WriteOp::Believe {
                user: format!("user{i}"),
                value: "v".into(),
            })
            .expect("durable write")
            .lsn
        };
        let first = write(0);

        let mut follower = Follower::open(&fdir).expect("open follower");
        let slot = follower.epoch_slot();
        let stop = Arc::new(AtomicBool::new(false));
        let runner = {
            let (stop, addr) = (Arc::clone(&stop), server.addr().to_string());
            std::thread::spawn(move || {
                let cfg = FollowConfig {
                    poll: Duration::from_secs(60),
                    ..FollowConfig::default()
                };
                follower.run(&mut TcpTransport::new(addr), &cfg, &stop);
                follower
            })
        };
        assert!(slot.wait_for_lsn(first, Duration::from_secs(5)).is_some());
        eventually("the caught-up follower parks", || {
            store.counters().ships_parked >= 1
        });
        // The follower is blocked in its park, so this count is exact; a
        // count read after the write below could already include the
        // follower's next park.
        let parked = store.counters().ships_parked;
        assert_eq!(store.counters().ships_woken, 0);

        let acked = write(1);
        assert!(
            slot.wait_for_lsn(acked, Duration::from_secs(5)).is_some(),
            "a write after caught-up must reach the follower long before its poll"
        );
        assert_eq!(store.counters().ships_woken, 1, "the commit ended the park");

        // Stop the follower: one more commit wakes its parked request.
        eventually("the follower parks again", || {
            store.counters().ships_parked > parked
        });
        stop.store(true, std::sync::atomic::Ordering::Release);
        write(2);
        let follower = runner.join().expect("follower thread");
        assert_eq!(follower.counters().reconnects, 0);
        server.stop();
        let _ = std::fs::remove_dir_all(&ldir);
        let _ = std::fs::remove_dir_all(&fdir);
    }

    /// A parked `SHIP` holds its worker for at most one read tick, so
    /// `Server::stop` still drains within the delay it always allowed;
    /// the parked follower gets its `caughtup`.
    #[test]
    fn stop_drains_a_parked_ship_within_a_tick() {
        let dir = fresh_dir("park-drain");
        let recovered = Store::open(&dir).expect("fresh store");
        let store = recovered.store.clone();
        let config = ServeConfig::default();
        let f = Arc::new(Frontend::new(
            recovered.session,
            Some(store.clone()),
            &config,
        ));
        let server = Server::start(Arc::clone(&f), "127.0.0.1:0", &config).expect("bind");
        let addr = server.addr().to_string();
        let shipper = std::thread::spawn(move || {
            let reply = TcpTransport::new(addr).ship(&FROM_GENESIS);
            matches!(reply, Ok(ShipResponse::CaughtUp { lsn: 0, .. }))
        });
        eventually("the request parks", || store.counters().ships_parked == 1);
        let started = std::time::Instant::now();
        server.stop();
        let took = started.elapsed();
        assert!(took < 2 * config.read_timeout, "stop took {took:?}");
        assert!(
            shipper.join().expect("shipper"),
            "the parked request is answered"
        );
        assert_eq!(store.counters().ships_woken, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Full replication vertical: leader behind a TCP server, follower
    /// pulling over [`TcpTransport`], replica frontend serving pinned
    /// reads from the follower's epoch slot and refusing writes.
    #[test]
    fn tcp_log_shipping_end_to_end() {
        use trustmap_store::{Follower, Step};

        let ldir = fresh_dir("ship-leader");
        let fdir = fresh_dir("ship-follower");
        let recovered = Store::open(&ldir).expect("fresh store");
        let store = recovered.store.clone();
        let config = ServeConfig {
            window: GroupCommitWindow::per_edit(),
            ..Default::default()
        };
        let f = Arc::new(Frontend::new(recovered.session, Some(store), &config));
        let server = Server::start(Arc::clone(&f), "127.0.0.1:0", &config).expect("bind");
        let addr = server.addr();

        let last = {
            let mut last = 0;
            for i in 0..10 {
                let ack = f
                    .write(WriteOp::Believe {
                        user: format!("user{i}"),
                        value: format!("v{}", i % 3),
                    })
                    .expect("durable write");
                last = ack.lsn;
            }
            last
        };

        let mut transport = TcpTransport::new(addr.to_string());
        let mut follower = Follower::open(&fdir).expect("open follower");
        loop {
            match follower.step(&mut transport).expect("step") {
                Step::CaughtUp { leader_lsn } => {
                    assert_eq!(leader_lsn, last);
                    break;
                }
                Step::Rejected { reason } => panic!("clean TCP transport rejected: {reason}"),
                _ => {}
            }
        }
        assert_eq!(follower.watermark(), last);

        // Replica-side reads: pinned to the shipped watermark, identical
        // answers; writes refused with a pointer to the leader.
        let replica = Frontend::replica(follower.epoch_slot(), &config);
        let mut r = replica.reader();
        let read = match replica.handle(&mut r, &format!("CERT user3 @{last}")) {
            Reply::Line(l) => l,
            other => panic!("unexpected reply {other:?}"),
        };
        assert!(read.starts_with("OK v0 "), "{read}");
        let write = match replica.handle(&mut r, "BELIEVE mallory x") {
            Reply::Line(l) => l,
            other => panic!("unexpected reply {other:?}"),
        };
        assert_eq!(write, "ERR read-only replica (writes go to the leader)");
        let ship = match replica.handle(&mut r, "SHIP 0") {
            Reply::Line(l) => l,
            other => panic!("unexpected reply {other:?}"),
        };
        assert!(ship.starts_with("ERR shipping needs a store"), "{ship}");

        // Drain: the follower's connection is still open, yet stop()
        // returns — workers notice the flag at their next read tick
        // instead of waiting for the client to hang up.
        drop(follower);
        server.stop();
        drop(transport);
        let _ = std::fs::remove_dir_all(&ldir);
        let _ = std::fs::remove_dir_all(&fdir);
    }

    /// A `trustmap follow` follower outlives a full leader process
    /// restart: the leader's store is closed and reopened (recovery), a
    /// fresh server is bound, and the *same* follower instance rides out
    /// the dead connection and resumes shipping from its durable
    /// watermark — no snapshot bootstrap, no re-ship from LSN 1.
    #[test]
    fn follower_outlives_full_leader_restart() {
        use trustmap_store::{Follower, Step};

        let ldir = fresh_dir("restart-leader");
        let fdir = fresh_dir("restart-follower");
        let config = ServeConfig {
            window: GroupCommitWindow::per_edit(),
            ..Default::default()
        };

        let catch_up = |follower: &mut Follower, transport: &mut TcpTransport, want: u64| {
            let mut errors = 0;
            loop {
                match follower.step(transport) {
                    Ok(Step::CaughtUp { leader_lsn }) => {
                        assert_eq!(leader_lsn, want);
                        return;
                    }
                    Ok(Step::Rejected { reason }) => panic!("clean transport rejected: {reason}"),
                    Ok(_) => {}
                    // A dead connection from before the restart: the
                    // transport redials on the next call.
                    Err(_) => {
                        errors += 1;
                        assert!(errors < 10, "transport never recovered");
                    }
                }
            }
        };

        // Era 1: leader up, follower converges over TCP.
        let recovered = Store::open(&ldir).expect("fresh store");
        let store = recovered.store.clone();
        let f = Arc::new(Frontend::new(recovered.session, Some(store), &config));
        let server = Server::start(Arc::clone(&f), "127.0.0.1:0", &config).expect("bind");
        let mut last = 0;
        for i in 0..8 {
            last = f
                .write(WriteOp::Believe {
                    user: format!("user{i}"),
                    value: format!("v{}", i % 3),
                })
                .expect("durable write")
                .lsn;
        }
        let mut transport = TcpTransport::new(server.addr().to_string());
        let mut follower = Follower::open(&fdir).expect("open follower");
        catch_up(&mut follower, &mut transport, last);
        assert_eq!(follower.watermark(), last);

        // Full leader process restart: server down, frontend (and with
        // it the store) dropped, store reopened through recovery, server
        // rebound. New writes land in the reopened log.
        server.stop();
        drop(f);
        let recovered = Store::open(&ldir).expect("reopen leader store");
        let store = recovered.store.clone();
        let f = Arc::new(Frontend::new(recovered.session, Some(store), &config));
        let server = Server::start(Arc::clone(&f), "127.0.0.1:0", &config).expect("rebind");
        let mut last2 = 0;
        for i in 0..6 {
            last2 = f
                .write(WriteOp::Believe {
                    user: format!("late{i}"),
                    value: format!("v{}", i % 3),
                })
                .expect("durable write")
                .lsn;
        }
        assert!(last2 > last, "the reopened log must continue, not restart");

        // The surviving follower instance is re-pointed at the rebound
        // server (a restarted process may come up anywhere) and resumes
        // from the durable watermark, shipping only the post-restart
        // tail.
        let units_before = follower.counters().units_applied;
        let mut transport = TcpTransport::new(server.addr().to_string());
        catch_up(&mut follower, &mut transport, last2);
        assert_eq!(follower.watermark(), last2);
        let counters = follower.counters();
        assert_eq!(counters.bootstraps, 0, "resume must not need a bootstrap");
        assert_eq!(
            counters.units_applied - units_before,
            6,
            "resume must ship exactly the post-restart tail"
        );

        // And the watermark itself is durable: a freshly reopened
        // follower starts where this one ended.
        drop(follower);
        let follower = Follower::open(&fdir).expect("reopen follower");
        assert_eq!(follower.watermark(), last2);

        drop(follower);
        server.stop();
        drop(transport);
        let _ = std::fs::remove_dir_all(&ldir);
        let _ = std::fs::remove_dir_all(&fdir);
    }
}
