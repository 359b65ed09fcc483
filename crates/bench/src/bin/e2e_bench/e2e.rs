//! The end-to-end runs: real `trustmap` child processes driven over the
//! line protocol (or, for `batch_resolve`, over the CLI), tracing off.

use crate::oracle::{self, Tally};
use crate::procs::{run_cli, Scratch, Server};
use crate::stats::{percentile, summarize, Summary};
use crate::streams::{self, client_ops, render, Lines, CLIENTS};
use crate::wire::{field_u64, Conn, ServerStats};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};
use trustmap::format::render_network;
use trustmap::signed::ExplicitBelief;
use trustmap::store::Store;
use trustmap::workloads::{power_law, ServeMix, ServeOp, Workload};
use trustmap::{Session, TrustNetwork, User};

/// How much work one run does. Full sizes are fixed op counts (not
/// durations), so counters, WAL tails and sample counts are the same on
/// both sides of a comparison; `--seconds` scales the op counts linearly
/// from [`crate::spec::RUN_SECONDS`], `--quick` divides everything by
/// about fifty.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Users of the served network: `power_law(users, 2, 4, 0.2, seed)`.
    pub users: usize,
    pub reads_per_client: usize,
    pub writes_per_client: usize,
    pub mixed_per_client: usize,
    /// Untimed reads per connection before the clock starts. A fresh pair
    /// of connections runs at half speed for its first ~0.7 s on the
    /// sandbox (12 µs a read instead of 6 µs); a hundred thousand reads
    /// outlast that, two thousand end well inside it.
    pub warmup: usize,
    /// Users of the batch network: `power_law(n, 3, 4, 0.05, seed)`.
    pub batch_users: usize,
    /// Timed CLI invocations of `resolve` and of `skeptic`, taking turns
    /// so each command's samples span the whole run.
    pub cli_runs: usize,
    /// Set-ups per run (the median is reported): the one the run uses,
    /// then a spare one after each restart (each CLI round) until this
    /// many are made.
    pub setups: usize,
    /// Kill-and-restart cycles of the leader per run, each followed by a
    /// share of the oracle sweep (batch: timed `trustmap recover` runs).
    pub restarts: usize,
    /// Users compared between leader and follower, and checked in the
    /// batch CLI output.
    pub sample: usize,
    /// Write-then-read-the-follower cycles on the idle cluster.
    pub visibility_probes: usize,
}

impl Sizes {
    pub fn new(seconds: u64, quick: bool) -> Sizes {
        let scale = |full: usize| {
            let scaled = full as u64 * seconds.max(1) / crate::spec::RUN_SECONDS;
            (if quick { scaled / 50 } else { scaled }).max(64) as usize
        };
        Sizes {
            users: if quick { 10_000 } else { 100_000 },
            reads_per_client: scale(1_600_000),
            writes_per_client: scale(3_000),
            mixed_per_client: scale(25_000),
            warmup: if quick { 200 } else { 100_000 },
            batch_users: if quick { 10_000 } else { 200_000 },
            cli_runs: if quick { 1 } else { 8 },
            setups: if quick { 1 } else { 5 },
            restarts: if quick { 1 } else { 4 },
            sample: 1_000,
            visibility_probes: if quick { 5 } else { 30 },
        }
    }
}

/// What a run needs from its caller.
#[derive(Debug)]
pub struct Env<'a> {
    pub exe: &'a Path,
    pub scratch: &'a Scratch,
    pub seed: u64,
    pub sizes: Sizes,
}

/// One finished end-to-end run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Every timing behind them, with its sample count and the highest
    /// percentile the sample supports (unbounded diagnostics).
    pub timings: Vec<(&'static str, Summary)>,
    /// Counters read over the wire (`STATS` deltas, LSNs, byte counts).
    pub counters: Vec<(&'static str, f64)>,
    /// The leader's store directory after the run (stopped, not removed
    /// until the scratch guard drops) for the traced run's `Store::open`.
    pub store_dir: Option<PathBuf>,
}

impl Outcome {
    pub fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("run did not report `{name}`"))
    }

    /// The median of one of the timings.
    pub fn timing_p50(&self, name: &str) -> f64 {
        self.timings
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s.p50)
            .unwrap_or_else(|| panic!("run did not time `{name}`"))
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

pub fn run(workload: &str, env: &Env) -> Result<Outcome, String> {
    match workload {
        "wire_reads" => wire(env, Kind::Reads),
        "wire_writes" => wire(env, Kind::Writes),
        "wire_mixed" => wire(env, Kind::Mixed),
        "batch_resolve" => batch(env),
        other => Err(format!("unknown workload `{other}`")),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Reads,
    Writes,
    Mixed,
}

/// The served network of the wire workloads.
pub fn served_network(users: usize, seed: u64) -> Workload {
    power_law(users, 2, 4, 0.2, seed)
}

/// Communities in the batch network.
const COMMUNITIES: usize = 200;

/// The network of the batch workload: [`COMMUNITIES`] disjoint
/// `power_law(users / COMMUNITIES, 3, 4, 0.05, _)` communities in one
/// file. One power-law graph of the full size resolves in anything from
/// 0 to 14 rounds of Algorithm 1 depending on the seed (a 5× spread in
/// `resolve` time, 4× in `resolve_skeptic`); the sum over two hundred
/// small ones is the same work on every seed to within a few percent.
pub fn batch_network(users: usize, seed: u64) -> TrustNetwork {
    let mut net = TrustNetwork::new();
    for community in 0..COMMUNITIES {
        let part = power_law(
            users / COMMUNITIES,
            3,
            4,
            0.05,
            seed.wrapping_mul(COMMUNITIES as u64) + community as u64,
        )
        .net;
        for v in part.domain().values() {
            net.value(part.domain().name(v));
        }
        let base = net.add_users(part.user_count()).0;
        let global = |u: User| User(base + u.0);
        for m in part.mappings() {
            net.trust(global(m.child), global(m.parent), m.priority)
                .expect("distinct users of one community");
        }
        for u in part.users() {
            if let ExplicitBelief::Pos(v) = part.belief(u) {
                net.believe(global(u), *v).expect("known user");
            }
        }
    }
    net
}

/// Mirrors `net` into a durable session as one construction batch.
pub fn construct(session: &mut Session, net: &TrustNetwork) -> Result<(), String> {
    let e = |e: trustmap::Error| e.to_string();
    session.begin_batch().map_err(e)?;
    for u in net.users() {
        session.user(net.user_name(u));
    }
    for v in net.domain().values() {
        session.value(net.domain().name(v));
    }
    for m in net.mappings() {
        session.trust(m.child, m.parent, m.priority).map_err(e)?;
    }
    for u in net.users() {
        if let ExplicitBelief::Pos(v) = net.belief(u) {
            session.believe(u, *v).map_err(e)?;
        }
    }
    session.commit().map_err(e)?;
    Ok(())
}

/// Builds the store directory a leader starts from: the network as one
/// committed unit plus a snapshot at that LSN.
pub fn build_store(dir: &Path, net: &TrustNetwork) -> Result<(), String> {
    let mut recovered = Store::open(dir).map_err(|e| e.to_string())?;
    construct(&mut recovered.session, net)?;
    recovered
        .store
        .snapshot_now(&recovered.session)
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// A leader (and, for `wire_writes`, a follower) that has answered its
/// first request. Field order is drop order: the follower goes first.
struct Cluster {
    follower: Option<Server>,
    leader: Server,
    dir: PathBuf,
    /// Follower spawn → first pinned read at the leader's LSN.
    bootstrap: Option<Duration>,
}

fn expect_ok(reply: &str) -> Result<&str, String> {
    if reply.starts_with("OK") {
        Ok(reply)
    } else {
        Err(format!("server replied `{reply}`"))
    }
}

/// One complete set-up: generate the network, build its store, spawn the
/// processes, wait for the first reply. `tag` names the store
/// directories, so a spare set-up never touches the cluster in use.
fn set_up(env: &Env, kind: Kind, tag: &str) -> Result<(Workload, Cluster), String> {
    let w = served_network(env.sizes.users, env.seed);
    let dir = env.scratch.fresh(&format!("{tag}-leader"));
    build_store(&dir, &w.net)?;
    let leader = Server::serve(env.exe, &dir)?;
    let mut conn = Conn::connect(&leader.addr)?;
    expect_ok(conn.ask("PING\n")?)?;
    let mut cluster = Cluster {
        follower: None,
        leader,
        dir,
        bootstrap: None,
    };
    if kind == Kind::Writes {
        let lsn = field_u64(conn.ask("EPOCH\n")?, "lsn")?;
        let spawned = Instant::now();
        let follower = Server::follow(
            env.exe,
            &env.scratch.fresh(&format!("{tag}-follower")),
            &cluster.leader.addr,
        )?;
        let mut replica = Conn::connect(&follower.addr)?;
        expect_ok(replica.ask(&format!("CERT #0 @{lsn}\n"))?)?;
        cluster.bootstrap = Some(spawned.elapsed());
        cluster.follower = Some(follower);
    }
    Ok((w, cluster))
}

/// The freshest acknowledged write, handed from client 0 to the prober.
#[derive(Debug, Default)]
struct ProbeSlot {
    latest: Mutex<Option<(u64, Instant)>>,
    ready: Condvar,
    done: AtomicBool,
}

impl ProbeSlot {
    fn offer(&self, lsn: u64, acked: Instant) {
        *self.latest.lock().expect("probe slot") = Some((lsn, acked));
        self.ready.notify_one();
    }

    /// Blocks for the next acknowledged write; `None` once the writers
    /// are done and nothing is pending.
    fn take(&self) -> Option<(u64, Instant)> {
        let mut latest = self.latest.lock().expect("probe slot");
        loop {
            if let Some(ack) = latest.take() {
                return Some(ack);
            }
            if self.done.load(Ordering::Acquire) {
                return None;
            }
            latest = self
                .ready
                .wait_timeout(latest, Duration::from_millis(20))
                .expect("probe slot")
                .0;
        }
    }

    fn finish(&self) {
        self.done.store(true, Ordering::Release);
        self.ready.notify_all();
    }
}

/// A contiguous stretch of one client's timed phase. Throughput and the
/// tail are computed per slice and reported as medians over slices, so a
/// burst of interference from the sandbox's other tenants moves a few
/// slices, not the metric.
#[derive(Debug, Clone)]
struct Slice {
    ops: usize,
    wall: Duration,
    /// This slice's part of the client's primary-class latencies.
    primary: std::ops::Range<usize>,
}

/// Slices per client: as many as leave each about a thousand primary
/// samples (a hundred beyond its p90, ten beyond its p99), at most forty.
fn slices_for(ops: &[ServeOp], class: fn(&ServeOp) -> usize) -> usize {
    let primary = ops.iter().filter(|op| class(op) == 0).count();
    (primary / 1_000).clamp(1, 40)
}

/// What one closed-loop client measured.
#[derive(Debug, Default)]
struct ClientRun {
    /// Latencies in µs, in send order: `[primary, side]` by op class.
    lat: [Vec<f64>; 2],
    slices: Vec<Slice>,
    /// Per op: was the reply `OK`?
    acked: Vec<bool>,
    failed: u64,
    last_lsn: u64,
}

/// Connects, warms the connection up, waits at the barrier, then sends
/// `lines` one at a time, each after the previous reply.
fn client(
    addr: &str,
    warm: &Lines,
    lines: &Lines,
    ops: &[ServeOp],
    class: fn(&ServeOp) -> usize,
    barrier: &Barrier,
    probe: Option<&ProbeSlot>,
) -> Result<ClientRun, String> {
    let ready = Conn::connect(addr).and_then(|mut conn| {
        for line in warm.iter() {
            expect_ok(conn.ask(line)?)?;
        }
        Ok(conn)
    });
    // Reach the barrier even on failure, or the other threads hang.
    barrier.wait();
    let mut conn = ready?;
    let mut run = ClientRun {
        acked: Vec::with_capacity(ops.len()),
        ..Default::default()
    };
    let slice_ops = ops.len().div_ceil(slices_for(ops, class)).max(1);
    let (mut slice_started, mut slice_first) = (Instant::now(), 0);
    for (i, op) in ops.iter().enumerate() {
        if i > 0 && i % slice_ops == 0 {
            let now = Instant::now();
            run.slices.push(Slice {
                ops: slice_ops,
                wall: now - slice_started,
                primary: slice_first..run.lat[0].len(),
            });
            (slice_started, slice_first) = (now, run.lat[0].len());
        }
        let (took, reply) = conn.ask_timed(lines.get(i))?;
        let ok = reply.starts_with("OK");
        run.lat[class(op)].push(took.as_secs_f64() * 1e6);
        run.acked.push(ok);
        if !ok {
            run.failed += 1;
            eprintln!("client: `{}` → `{reply}`", lines.get(i).trim_end());
        } else if matches!(op, ServeOp::Write(_)) {
            run.last_lsn = field_u64(reply, "lsn")?;
            if let Some(slot) = probe {
                slot.offer(run.last_lsn, Instant::now());
            }
        }
    }
    run.slices.push(Slice {
        ops: ops.len() - run.slices.len() * slice_ops,
        wall: slice_started.elapsed(),
        primary: slice_first..run.lat[0].len(),
    });
    Ok(run)
}

/// Times leader ack → visible on the follower: takes the freshest ack,
/// reads `CERT #0 @<lsn>` on the replica, records now − ack time.
fn prober(addr: &str, slot: &ProbeSlot, barrier: &Barrier) -> Result<(Vec<f64>, u64), String> {
    let ready = Conn::connect(addr);
    barrier.wait();
    let mut conn = ready?;
    let (mut visible_us, mut failed) = (Vec::new(), 0u64);
    while let Some((lsn, acked)) = slot.take() {
        let reply = conn.ask(&format!("CERT #0 @{lsn}\n"))?;
        if reply.starts_with("OK") {
            visible_us.push(acked.elapsed().as_secs_f64() * 1e6);
        } else {
            failed += 1;
            eprintln!("prober: `CERT #0 @{lsn}` → `{reply}`");
        }
    }
    Ok((visible_us, failed))
}

/// Ack → visible on an otherwise idle cluster: one write on the leader,
/// then `CERT #0 @<lsn>` on the follower, strictly one after the other.
/// Each write lands just after the follower went back to sleep, so the
/// samples sit one poll period apart and their median is steady; under
/// load (the prober above) the follower alternates between draining a
/// backlog and sleeping, and the median flips between the two modes.
fn idle_visibility(
    leader: &mut Conn,
    replica: &mut Conn,
    w: &Workload,
    probes: usize,
    model: &mut TrustNetwork,
) -> Result<(Vec<f64>, u64, u64), String> {
    let (mut visible_us, mut failed, mut last_lsn) = (Vec::new(), 0u64, 0u64);
    let values = w.net.domain().len();
    for i in 0..probes {
        // The newest user: nobody trusts it yet, so the write re-solves a
        // one-node region and what is timed is shipping, not solving.
        let user = User(w.net.user_count() as u32 - 1);
        let value = trustmap::Value((i % values) as u32);
        let ack = leader
            .ask(&format!(
                "BELIEVE {} {}\n",
                w.net.user_name(user),
                w.net.domain().name(value)
            ))?
            .to_string();
        let acked = Instant::now();
        if !ack.starts_with("OK") {
            failed += 1;
            eprintln!("probe write → `{ack}`");
            continue;
        }
        model.believe(user, value).map_err(|e| e.to_string())?;
        last_lsn = field_u64(&ack, "lsn")?;
        let reply = replica.ask(&format!("CERT #0 @{last_lsn}\n"))?;
        if reply.starts_with("OK") {
            visible_us.push(acked.elapsed().as_secs_f64() * 1e6);
        } else {
            failed += 1;
            eprintln!("probe read @{last_lsn} → `{reply}`");
        }
    }
    Ok((visible_us, failed, last_lsn))
}

/// Bytes of the files in `dir` named `<prefix>…<suffix>` (WAL segments,
/// snapshots).
pub fn dir_bytes(dir: &Path, prefix: &str, suffix: &str) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with(prefix) && name.ends_with(suffix)
        })
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn wire(env: &Env, kind: Kind) -> Result<Outcome, String> {
    let sizes = &env.sizes;

    // The set-up this run uses; the spare ones that steady `setup_s`
    // come after the timed phase, between the restarts.
    let started = Instant::now();
    let (w, cluster) = set_up(env, kind, "main")?;
    let mut setup_s = vec![secs(started.elapsed())];
    let Cluster {
        follower,
        leader,
        dir,
        bootstrap,
    } = cluster;

    // Streams are rendered to protocol lines before the clock starts.
    let (mix, per_client, class): (ServeMix, usize, fn(&ServeOp) -> usize) = match kind {
        Kind::Reads => (streams::reads_only(), sizes.reads_per_client, |op| {
            usize::from(matches!(op, ServeOp::Poss(_)))
        }),
        Kind::Writes => (streams::writes_only(), sizes.writes_per_client, |_| 0),
        Kind::Mixed => (ServeMix::default(), sizes.mixed_per_client, |op| {
            usize::from(matches!(op, ServeOp::Write(_)))
        }),
    };
    let ops: Vec<Vec<ServeOp>> = (0..CLIENTS)
        .map(|c| client_ops(&w, c, per_client, mix, env.seed))
        .collect();
    let lines: Vec<Lines> = ops.iter().map(|ops| render(&w, ops)).collect();
    let warm: Vec<Lines> = (0..CLIENTS)
        .map(|c| {
            let seed = env.seed ^ 0x5741_524D; // "WARM": not the timed stream
            render(
                &w,
                &client_ops(&w, c, sizes.warmup, streams::reads_only(), seed),
            )
        })
        .collect();

    let mut control = Conn::connect(&leader.addr)?;
    let wal_before = dir_bytes(&dir, "wal-", ".seg");
    let stats_before = ServerStats::fetch(&mut control)?;

    // The timed phase: CLIENTS closed-loop clients (plus the prober on
    // the follower), released together.
    let slot = ProbeSlot::default();
    let probing = follower.is_some();
    let barrier = Barrier::new(CLIENTS + 1 + usize::from(probing));
    let (runs, probed, wall) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, warm, lines, ops) = (&leader.addr, &warm[c], &lines[c], &ops[c]);
                let (barrier, slot) = (&barrier, &slot);
                let probe = (probing && c == 0).then_some(slot);
                scope.spawn(move || client(addr, warm, lines, ops, class, barrier, probe))
            })
            .collect();
        let prober_thread = follower.as_ref().map(|f| {
            let (barrier, slot) = (&barrier, &slot);
            scope.spawn(move || prober(&f.addr, slot, barrier))
        });
        barrier.wait();
        let started = Instant::now();
        let runs: Vec<_> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect();
        let wall = started.elapsed();
        slot.finish();
        let probed = prober_thread.map(|p| p.join().expect("prober thread"));
        (runs, probed, wall)
    });
    let runs: Vec<ClientRun> = runs.into_iter().collect::<Result<_, _>>()?;
    let probed = probed.transpose()?;

    let stats = ServerStats::fetch(&mut control)?.since(&stats_before);
    let wal_added = dir_bytes(&dir, "wal-", ".seg").saturating_sub(wal_before);
    let peak_rss_mb = leader
        .peak_rss_mb()
        .ok_or("cannot read the leader's VmHWM from /proc")?;

    let mut tally = Tally::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut lat: [Vec<f64>; 2] = Default::default();
    let mut last_lsn = 0u64;
    let mut model = w.net.clone();
    for (run, ops) in runs.iter().zip(&ops) {
        attempted += run.acked.len() as u64;
        failed += run.failed;
        last_lsn = last_lsn.max(run.last_lsn);
        oracle::apply_acked(&mut model, ops, &run.acked);
    }
    let (timed_ops, ok_replies) = (attempted, attempted - failed);
    // Per slice: this client's rate (× CLIENTS for the server's) and the
    // slice's own tail (sorting a slice in place is fine: from here on
    // only order statistics of the pooled samples are taken).
    let mut slice_rates = Vec::new();
    let mut slice_tails = Vec::new();
    let mut slice_p99s = Vec::new();
    for mut run in runs {
        for slice in &run.slices {
            slice_rates.push(CLIENTS as f64 * slice.ops as f64 / secs(slice.wall));
            let samples = &mut run.lat[0][slice.primary.clone()];
            if !samples.is_empty() {
                slice_tails.push(summarize(samples).tail);
                slice_p99s.push(percentile(samples, 99.0));
            }
        }
        let [primary, side] = run.lat;
        lat[0].extend(primary);
        lat[1].extend(side);
    }
    let slice_rate = summarize(&mut slice_rates);
    let slice_tail = summarize(&mut slice_tails);
    let slice_p99 = summarize(&mut slice_p99s);
    let mut loaded_visibility = None;
    if let Some((mut visible, probe_failed)) = probed {
        attempted += visible.len() as u64 + probe_failed;
        failed += probe_failed;
        if !visible.is_empty() {
            loaded_visibility = Some(summarize(&mut visible));
        }
    }
    if let Some(f) = &follower {
        let mut replica = Conn::connect(&f.addr)?;
        let (visible, probe_failed, lsn) = idle_visibility(
            &mut control,
            &mut replica,
            &w,
            sizes.visibility_probes,
            &mut model,
        )?;
        attempted += 2 * sizes.visibility_probes as u64;
        failed += probe_failed;
        last_lsn = last_lsn.max(lsn);
        lat[1] = visible;
    }

    // The leader must hold every acknowledged write, and the follower
    // must agree with it at that LSN.
    let epoch_lsn = field_u64(control.ask("EPOCH\n")?, "lsn")?;
    tally.expect(epoch_lsn >= last_lsn, || {
        format!("leader EPOCH lsn {epoch_lsn} is behind the last ack {last_lsn}")
    });
    if let Some(f) = &follower {
        let mut replica = Conn::connect(&f.addr)?;
        let sample = oracle::sample_users(&w.net, sizes.sample);
        tally.add(oracle::same_at_lsn(
            &mut control,
            &mut replica,
            &w.net,
            &sample,
            epoch_lsn,
        )?);
    }
    drop(control);
    drop(follower);

    // Crash and restart the leader on the same WAL tail each time. Every
    // restarted leader answers its share of the oracle sweep (every user,
    // over the wire, against the model resolved from scratch), and a
    // spare set-up follows each: the host's speed wanders, and samples
    // spread over the rest of the run see more of that than samples taken
    // back to back.
    let everyone: Vec<User> = model.users().collect();
    let resolved =
        trustmap::resolve_network(&model).map_err(|e| format!("model does not resolve: {e}"))?;
    let share = everyone.len().div_ceil(sizes.restarts).max(1);
    let mut shares = everyone.chunks(share);
    let mut restart_s = Vec::new();
    let mut leader = leader;
    for _ in 0..sizes.restarts {
        let killed = Instant::now();
        leader.kill();
        leader = Server::serve(env.exe, &dir)?;
        let mut conn = Conn::connect(&leader.addr)?;
        let lsn = field_u64(conn.ask("EPOCH\n")?, "lsn")?;
        restart_s.push(secs(killed.elapsed()));
        tally.expect(lsn >= last_lsn, || {
            format!("restarted EPOCH lsn {lsn} is behind the last ack {last_lsn}")
        });
        drop(conn);
        if let Some(users) = shares.next() {
            tally.add(oracle::sweep(&leader.addr, &model, &resolved, users)?);
        }
        if setup_s.len() < sizes.setups {
            let started = Instant::now();
            let spare = set_up(env, kind, "spare")?;
            setup_s.push(secs(started.elapsed()));
            drop(spare);
        }
    }
    drop(leader);

    attempted += tally.checked;
    failed += tally.mismatched;

    let op = summarize(&mut lat[0]);
    let side = summarize(&mut lat[1]);
    let restart = summarize(&mut restart_s);
    let setup = summarize(&mut setup_s);
    let writes = stats.acked.max(1) as f64;
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            ("setup_s", setup.p50),
            ("ops_per_s", slice_rate.p50),
            ("op_p50_us", op.p50),
            ("op_tail_us", slice_tail.p50),
            ("side_p50_us", side.p50),
            ("peak_rss_mb", peak_rss_mb),
        ],
        timings: [
            ("setup_s", setup),
            ("op_us", op),
            ("side_us", side),
            ("restart_s", restart),
            ("slice_ops_per_s", slice_rate),
            ("slice_tail_us", slice_tail),
            ("slice_p99_us", slice_p99),
        ]
        .into_iter()
        .chain(loaded_visibility.map(|s| ("visible_under_load_us", s)))
        .collect(),
        counters: vec![
            ("timed_ops", timed_ops as f64),
            ("timed_wall_s", secs(wall)),
            ("whole_phase_ops_per_s", ok_replies as f64 / secs(wall)),
            ("oracle_checks", tally.checked as f64),
            ("last_acked_lsn", last_lsn as f64),
            ("stats.fsyncs", stats.fsyncs as f64),
            ("stats.units", stats.units as f64),
            ("stats.records", stats.records as f64),
            ("stats.groups", stats.groups as f64),
            ("stats.acked", stats.acked as f64),
            ("stats.failed", stats.failed as f64),
            ("wal_bytes_per_write", wal_added as f64 / writes),
            ("replica_bootstrap_s", bootstrap.map_or(0.0, secs)),
        ],
        store_dir: Some(dir),
    })
}

/// Data rows of a CLI table written to `path` (everything after the
/// header line), split into whitespace-separated columns.
fn cli_rows(path: &Path) -> Result<Vec<Vec<String>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text
        .lines()
        .skip(1)
        .map(|l| l.split_whitespace().map(str::to_string).collect())
        .collect())
}

/// The quoted names inside a `{:?}`-printed list such as `["v0", "v1"]`.
fn quoted(columns: &[String]) -> Vec<String> {
    let mut names: Vec<String> = columns
        .join(" ")
        .split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect();
    names.sort_unstable();
    names
}

fn batch(env: &Env) -> Result<Outcome, String> {
    let sizes = &env.sizes;
    let file = env.scratch.path("network.tn");
    let file_arg = file.to_str().ok_or("non-UTF-8 scratch path")?;
    let spare_file = env.scratch.path("spare.tn");

    // Set-up here is generate + render + write the input file: once for
    // the run, then spare ones (into a file nobody reads) between the
    // rounds below.
    let set_up = |to: &Path| -> Result<(f64, TrustNetwork), String> {
        let started = Instant::now();
        let net = batch_network(sizes.batch_users, env.seed);
        std::fs::write(to, render_network(&net)).map_err(|e| e.to_string())?;
        Ok((secs(started.elapsed()), net))
    };
    let (first_setup, net) = set_up(&file)?;
    let mut setup_s = vec![first_setup];

    let mut tally = Tally::default();
    let res = trustmap::resolve_network(&net).map_err(|e| e.to_string())?;
    let sample = oracle::sample_users(&net, sizes.sample);
    let name = |v: trustmap::Value| net.domain().name(v).to_string();
    let poss_names = |u: User| {
        let mut names: Vec<String> = res.poss(u).iter().map(|&v| name(v)).collect();
        names.sort_unstable();
        names
    };
    let row_count = |tally: &mut Tally, command: &str, rows: &[Vec<String>]| {
        tally.expect(rows.len() == net.user_count(), || {
            format!(
                "{command} printed {} rows for {} users",
                rows.len(),
                net.user_count()
            )
        });
    };

    // The CLI's durable path needs a store directory: import once, then
    // `trustmap recover` is the batch face of a restart.
    let out = env.scratch.path("cli.out");
    let store = env.scratch.fresh("batch-store");
    let store_arg = store.to_str().ok_or("non-UTF-8 scratch path")?;
    run_cli(env.exe, &["snapshot", store_arg, file_arg], &out)?;

    // The three commands take turns, so each one's samples span the whole
    // run (the host's speed wanders over seconds); the first round's
    // outputs are checked.
    let mut peak_rss_mb = 0.0f64;
    let mut timed = |args: &[&str]| -> Result<f64, String> {
        let run = run_cli(env.exe, args, &out)?;
        peak_rss_mb = peak_rss_mb.max(run.peak_rss_mb);
        Ok(secs(run.wall))
    };
    let (mut resolve_us, mut skeptic_us, mut restart_s) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..sizes.cli_runs {
        // `trustmap resolve`: row count, and a sample of rows by name.
        resolve_us.push(timed(&["resolve", file_arg])? * 1e6);
        if round == 0 {
            let rows = cli_rows(&out)?;
            row_count(&mut tally, "resolve", &rows);
            for &u in &sample {
                let want_cert = match (res.cert(u), res.poss(u).is_empty()) {
                    (Some(v), _) => name(v),
                    (None, true) => "-".to_string(),
                    (None, false) => "(conflict)".to_string(),
                };
                let want_poss = poss_names(u);
                let row = rows.get(u.index()).map(Vec::as_slice).unwrap_or(&[]);
                let holds = row.len() >= 3
                    && row[0] == net.user_name(u)
                    && row[1] == want_cert
                    && quoted(&row[2..]) == want_poss;
                tally.expect(holds, || {
                    format!("resolve row {row:?}, model {want_cert} {want_poss:?}")
                });
            }
        }

        // `trustmap skeptic`: without constraints the skeptic paradigm's
        // possible positives are the basic possible sets (paper §3).
        skeptic_us.push(timed(&["skeptic", file_arg])? * 1e6);
        if round == 0 {
            let rows = cli_rows(&out)?;
            row_count(&mut tally, "skeptic", &rows);
            for &u in &sample {
                let want_poss = poss_names(u);
                let row = rows.get(u.index()).map(Vec::as_slice).unwrap_or(&[]);
                let holds = row.first().map(String::as_str) == Some(net.user_name(u))
                    && row
                        .iter()
                        .position(|c| c.starts_with('['))
                        .is_some_and(|at| quoted(&row[at..]) == want_poss);
                tally.expect(holds, || {
                    format!("skeptic row {row:?}, model {want_poss:?}")
                });
            }
        }

        if round < sizes.restarts {
            restart_s.push(timed(&["recover", store_arg])?);
            if round == 0 {
                let recovered = std::fs::read_to_string(&out).map_err(|e| e.to_string())?;
                let users_line = format!("{} user(s)", net.user_count());
                tally.expect(recovered.contains(&users_line), || {
                    format!("recover did not report `{users_line}`")
                });
            }
        }

        if setup_s.len() < sizes.setups {
            setup_s.push(set_up(&spare_file)?.0);
        }
    }

    let cli_invocations = (2 * sizes.cli_runs + sizes.restarts + 1) as u64;
    let op = summarize(&mut resolve_us);
    let side = summarize(&mut skeptic_us);
    // One `resolve` and one `skeptic` at their medians: invocations per
    // second, steadier than the sum of all the timed runs.
    let busy_s = (op.p50 + side.p50) / 1e6;
    let restart = summarize(&mut restart_s);
    let setup = summarize(&mut setup_s);
    Ok(Outcome {
        attempted: cli_invocations + tally.checked,
        failed: tally.mismatched,
        metrics: vec![
            ("setup_s", setup.p50),
            ("ops_per_s", 2.0 / busy_s),
            ("op_p50_us", op.p50),
            ("op_tail_us", op.tail),
            ("side_p50_us", side.p50),
            ("peak_rss_mb", peak_rss_mb),
        ],
        timings: vec![
            ("setup_s", setup),
            ("op_us", op),
            ("side_us", side),
            ("restart_s", restart),
        ],
        counters: vec![
            ("timed_ops", (2 * sizes.cli_runs + sizes.restarts) as f64),
            ("oracle_checks", tally.checked as f64),
        ],
        store_dir: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_scale_with_seconds_and_quick() {
        let full = Sizes::new(crate::spec::RUN_SECONDS, false);
        let half = Sizes::new(crate::spec::RUN_SECONDS / 2, false);
        let quick = Sizes::new(crate::spec::RUN_SECONDS, true);
        assert_eq!(half.reads_per_client * 2, full.reads_per_client);
        assert_eq!(
            half.users, full.users,
            "--seconds never changes the network"
        );
        assert!(quick.reads_per_client * 40 < full.reads_per_client);
        assert!(quick.users < full.users);
    }

    #[test]
    fn cli_value_lists_parse() {
        let row: Vec<String> = ["[\"v1\",", "\"v0\"]"].map(String::from).to_vec();
        assert_eq!(quoted(&row), ["v0", "v1"]);
        assert!(quoted(&["[]".to_string()]).is_empty());
    }
}
