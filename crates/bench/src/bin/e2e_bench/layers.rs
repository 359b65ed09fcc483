//! The traced run: short untraced end-to-end passes of all four
//! workloads (to anchor the residual rows), then each workload's own
//! request stream replayed in-process with a span around every call into
//! a layer's public functions. Nothing here is instrumented inside the
//! program; every clock read is in this file.
//!
//! Every traced run measures every layer, whichever workload it was asked
//! for: a layer's cost is a property of the layer, measured on the stream
//! that exercises it. The workload named on the command line selects
//! which pass the `e2e.*` anchors are reported from.

use crate::e2e::{self, batch_network, construct, served_network, Env, Outcome};
use crate::spec::{PER_LAYER, WORKLOADS};
use crate::streams::{self, client_ops, render, Lines, CLIENTS};
use crate::trace::{by_layer, median_us_per_call, path_table, timed, Off, Recorder, Span, Tracer};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use trustmap::format::{parse_network, render_network};
use trustmap::relstore::parse_query;
use trustmap::serve::{Frontend, Reply, ServeConfig};
use trustmap::store::{Follower, LocalTransport, Step, Store};
use trustmap::workloads::{ServeMix, ServeOp, Workload};
use trustmap::{binarize, Durability, Edit, Session, SignedEdit, TrustNetwork};

/// Calls per clock read where one call takes well under a microsecond.
const BATCH: usize = 1_024;

/// One workload's line of a traced run.
#[derive(Debug)]
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    /// Every per-layer metric.
    pub metrics: Vec<(&'static str, f64)>,
}

/// Everything one traced run measured.
#[derive(Debug)]
pub struct Measured {
    passes: Vec<(&'static str, Outcome)>,
    layers: Layers,
    /// The path tables and the span totals, ready to print.
    pub tables: String,
    pub spans: Vec<Span>,
}

impl Measured {
    /// The per-layer metrics with `workload`'s pass as the `e2e.*`
    /// anchors. `attempted` and `failed` cover all four passes: the layer
    /// table rests on every one of them being correct.
    pub fn for_workload(&self, workload: &str) -> Traced {
        let pass = pass_of(&self.passes, workload);
        let mut layers = self.layers.clone();
        layers.set("e2e.op_p50_us", pass.metric("op_p50_us"));
        layers.set("e2e.side_p50_us", pass.metric("side_p50_us"));
        layers.set("e2e.ops_per_s", pass.metric("ops_per_s"));
        layers.set("e2e.restart_s", pass.timing_p50("restart_s"));
        Traced {
            attempted: self.passes.iter().map(|(_, p)| p.attempted).sum(),
            failed: self.passes.iter().map(|(_, p)| p.failed).sum(),
            metrics: layers.finish(),
        }
    }
}

fn pass_of<'a>(passes: &'a [(&'static str, Outcome)], workload: &str) -> &'a Outcome {
    &passes
        .iter()
        .find(|(name, _)| *name == workload)
        .unwrap_or_else(|| panic!("no pass for `{workload}`"))
        .1
}

/// Per-layer values by name; unset layers read 0.
#[derive(Debug, Default, Clone)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|s| s.name == name),
            "`{name}` is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn finish(self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|s| (s.name, self.get(s.name)))
            .collect()
    }
}

/// Wall time of the replays with recording on and off, summed into
/// `trace.overhead_ratio`.
#[derive(Debug, Default)]
struct Overhead {
    on: Duration,
    off: Duration,
}

pub fn measure(env: &Env) -> Result<Measured, String> {
    // The end-to-end passes only anchor the residual rows, so they run at
    // a fraction of the full size with a single set-up and restart.
    let mut sizes = env.sizes;
    sizes.reads_per_client /= 8;
    sizes.writes_per_client /= 4;
    // A shorter mixed pass lets the read median flip between its fast and
    // its beside-a-write mode.
    sizes.mixed_per_client /= 2;
    sizes.visibility_probes = sizes.visibility_probes.div_ceil(3);
    sizes.cli_runs = 1;
    sizes.setups = 1;
    sizes.restarts = 1;
    let short = Env { sizes, ..*env };
    let mut passes = Vec::new();
    for workload in WORKLOADS {
        passes.push((workload, e2e::run(workload, &short)?));
    }

    let mut layers = Layers::default();
    let mut overhead = Overhead::default();
    // One clock for every replay, so the spans of trace.json line up.
    let mut recorder = Recorder::with_capacity(1 << 16);

    let started = Instant::now();
    let served = served_network(short.sizes.users, short.seed);
    let batch_net = batch_network(short.sizes.batch_users, short.seed);
    layers.set("workloads.gen_s", started.elapsed().as_secs_f64());

    let anchors = |workload: &str| pass_of(&passes, workload);
    reads(
        &short,
        &served,
        anchors("wire_reads"),
        &mut layers,
        &mut recorder,
        &mut overhead,
    )?;
    writes(
        &short,
        &served,
        anchors("wire_writes"),
        &mut layers,
        &mut recorder,
        &mut overhead,
    )?;
    mixed(
        &short,
        &served,
        anchors("wire_mixed"),
        &mut layers,
        &mut recorder,
        &mut overhead,
    )?;
    batch(
        &batch_net,
        anchors("batch_resolve"),
        &mut layers,
        &mut recorder,
        &mut overhead,
    )?;

    layers.set(
        "trace.overhead_ratio",
        overhead.on.as_secs_f64() / overhead.off.as_secs_f64(),
    );
    let spans = recorder.spans;
    layers.set("trace.spans", spans.len() as f64);
    let tables = format!(
        "{}{}{}{}{}",
        read_table(&layers),
        write_table(&layers),
        mixed_table(&layers),
        batch_table(&layers),
        self_time_table(&spans)
    );
    Ok(Measured {
        passes,
        layers,
        tables,
        spans,
    })
}

/// Total and self time per span name.
fn self_time_table(spans: &[Span]) -> String {
    let mut out = String::from("## span totals (self = span minus its children)\n");
    for (name, t) in by_layer(spans) {
        out.push_str(&format!(
            "  {name:<28} spans={:<7} calls={:<9} total={:>11.3} ms  self={:>11.3} ms  self/call={:>10.3} us\n",
            t.spans,
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.self_us_per_call(),
        ));
    }
    out
}

fn err(e: trustmap::Error) -> String {
    e.to_string()
}

/// A durable store holding `net` and a frontend over it, as `trustmap
/// serve` builds them; also times the snapshot the set-up writes.
fn frontend_over(
    dir: &Path,
    net: &TrustNetwork,
    layers: &mut Layers,
) -> Result<(Frontend, Store), String> {
    let mut recovered = Store::open(dir).map_err(err)?;
    construct(&mut recovered.session, net)?;
    let started = Instant::now();
    recovered
        .store
        .snapshot_now(&recovered.session)
        .map_err(err)?;
    layers.set("snapshot.write_s", started.elapsed().as_secs_f64());
    let snapshot_bytes = e2e::dir_bytes(dir, "snapshot-", ".bin");
    layers.set("snapshot.bytes", snapshot_bytes as f64);
    let store = recovered.store.clone();
    let frontend = Frontend::new(
        recovered.session,
        Some(store.clone()),
        &ServeConfig::default(),
    );
    Ok((frontend, store))
}

fn failed_reply(reply: &Reply) -> bool {
    !matches!(reply, Reply::Line(line) if line.starts_with("OK"))
}

/// The read path, decomposed: per batch of [`BATCH`] requests a root
/// span with one child per layer the server's `handle` goes through
/// (parse, epoch read), then the real `Frontend::handle` over the same
/// lines. Returns how many replies were not `OK`.
fn replay_reads<T: Tracer>(
    tracer: &mut T,
    frontend: &Frontend,
    w: &Workload,
    ops: &[ServeOp],
    lines: &Lines,
) -> u64 {
    let mut reader = frontend.reader();
    let mut failed = 0u64;
    for (batch, chunk) in ops.chunks(BATCH).enumerate() {
        let first = batch * BATCH;
        let (request, calls) = (batch as u32, chunk.len() as u32);
        let root = tracer.open("read.decomposed", request, calls);
        timed(tracer, "trustq.parse", Some(root), request, calls, || {
            for i in 0..chunk.len() {
                black_box(parse_query(lines.get(first + i)).is_ok());
            }
        });
        timed(tracer, "epoch.read", Some(root), request, calls, || {
            for op in chunk {
                let (ServeOp::Cert(u) | ServeOp::Poss(u)) = op else {
                    continue;
                };
                let view = reader.current();
                let Some(user) = view.names().find_user(w.net.user_name(*u)) else {
                    continue;
                };
                match op {
                    ServeOp::Cert(_) => {
                        black_box(view.cert(user));
                    }
                    _ => {
                        black_box(view.poss(user));
                    }
                }
            }
        });
        tracer.close(root);
        timed(tracer, "serve.handle_read", None, request, calls, || {
            for i in 0..chunk.len() {
                let reply = frontend.handle(&mut reader, lines.get(first + i));
                failed += u64::from(failed_reply(black_box(&reply)));
            }
        });
    }
    failed
}

fn reads(
    env: &Env,
    w: &Workload,
    pass: &Outcome,
    layers: &mut Layers,
    recorder: &mut Recorder,
    overhead: &mut Overhead,
) -> Result<(), String> {
    let ops = client_ops(
        w,
        0,
        env.sizes.reads_per_client,
        streams::reads_only(),
        env.seed,
    );
    let lines = render(w, &ops);
    let (frontend, _store) = frontend_over(&env.scratch.fresh("layers"), &w.net, layers)?;
    // An untimed prefix warms the caches for both passes; then recording
    // off, then on.
    let prefix = ops.len().min(8 * BATCH);
    let mut failed = replay_reads(&mut Off, &frontend, w, &ops[..prefix], &lines);
    let started = Instant::now();
    failed += replay_reads(&mut Off, &frontend, w, &ops, &lines);
    overhead.off += started.elapsed();
    let mut traced = recorder.fork(4 * ops.len().div_ceil(BATCH));
    let started = Instant::now();
    failed += replay_reads(&mut traced, &frontend, w, &ops, &lines);
    overhead.on += started.elapsed();
    if failed > 0 {
        return Err(format!("{failed} in-process reads were not answered OK"));
    }

    let spans = &traced.spans;
    let handle = median_us_per_call(spans, "serve.handle_read");
    let parse = median_us_per_call(spans, "trustq.parse");
    let read = median_us_per_call(spans, "epoch.read");
    layers.set("serve.handle_read_us", handle);
    layers.set("trustq.parse_us", parse);
    layers.set("epoch.read_us", read);
    layers.set("serve.render_us", handle - parse - read);
    layers.set("serve.wire_overhead_us", pass.metric("op_p50_us") - handle);
    recorder.absorb(traced);
    Ok(())
}

fn read_table(layers: &Layers) -> String {
    let handle = layers.get("serve.handle_read_us");
    path_table(
        "read path on wire_reads (per request; parse + epoch.read + render = serve.handle_read)",
        "us",
        &[
            ("trustq.parse_us", layers.get("trustq.parse_us")),
            ("epoch.read_us", layers.get("epoch.read_us")),
            ("serve.render_us", layers.get("serve.render_us")),
        ],
        (
            "serve.wire_overhead_us",
            layers.get("serve.wire_overhead_us"),
        ),
        (
            "wire_reads op_p50_us",
            handle + layers.get("serve.wire_overhead_us"),
        ),
    )
}

/// The write edits of a stream, in order.
fn edits_of(ops: &[ServeOp]) -> Vec<Edit> {
    ops.iter()
        .filter_map(|op| match op {
            ServeOp::Write(edit) => Some(*edit),
            _ => None,
        })
        .collect()
}

/// The write path, decomposed the way the group-commit hub walks it for
/// a group of one: per edit a root span with one child per layer —
/// name-addressed apply inside a batch, WAL append + fsync on a bare
/// store, the engine's commit on a volatile session, the epoch publish.
fn replay_writes<T: Tracer>(
    tracer: &mut T,
    session: &mut Session,
    wal: &mut Store,
    w: &Workload,
    edits: &[Edit],
) -> Result<(), String> {
    for (i, edit) in edits.iter().enumerate() {
        let request = i as u32;
        let root = tracer.open("write.decomposed", request, 1);
        timed(tracer, "session.apply", Some(root), request, 1, || {
            session.begin_batch()?;
            match *edit {
                Edit::Believe(u, v) => {
                    let user = session.user(w.net.user_name(u));
                    let value = session.value(w.net.domain().name(v));
                    session.believe(user, value)
                }
                Edit::Revoke(u) => {
                    let user = session.user(w.net.user_name(u));
                    session.revoke(user)
                }
                Edit::Trust {
                    child,
                    parent,
                    priority,
                } => {
                    let child = session.user(w.net.user_name(child));
                    let parent = session.user(w.net.user_name(parent));
                    session.trust(child, parent, priority)
                }
            }
        })
        .map_err(err)?;
        timed(tracer, "store.wal_commit", Some(root), request, 1, || {
            wal.record_edit(&SignedEdit::from(*edit));
            wal.commit()
        })
        .map_err(err)?;
        timed(tracer, "session.commit", Some(root), request, 1, || {
            session.commit()
        })
        .map_err(err)?;
        timed(tracer, "epoch.publish", Some(root), request, 1, || {
            session.epoch()
        })
        .map_err(err)?;
        tracer.close(root);
    }
    Ok(())
}

/// A volatile session over `net` with its engine built and first epoch
/// published, plus a bare store handle to price the WAL alone.
fn volatile_pair(env: &Env, net: &TrustNetwork, tag: &str) -> Result<(Session, Store), String> {
    let mut session = Session::new(net.clone());
    session.epoch().map_err(err)?;
    let recovered = Store::open(env.scratch.fresh(tag)).map_err(err)?;
    Ok((session, recovered.store))
}

/// `CLIENTS` submitter threads replaying their streams through the real
/// `Frontend::handle` (group window, WAL, engine, publish and all). Runs
/// of consecutive reads share one span named `names.0`; every write gets
/// its own, named `names.1`. Returns the readers' (fast, slow) loads.
fn replay_frontend<T: Tracer + Send>(
    tracers: &mut [T],
    frontend: &Frontend,
    ops: &[Vec<ServeOp>],
    lines: &[Lines],
    names: (&'static str, &'static str),
) -> Result<(u64, u64), String> {
    let results: Vec<Result<(u64, u64), String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = tracers
            .iter_mut()
            .zip(ops.iter().zip(lines))
            .map(|(tracer, (ops, lines))| {
                scope.spawn(move || {
                    let mut reader = frontend.reader();
                    let mut failed = 0u64;
                    let mut i = 0;
                    while i < ops.len() {
                        let write = matches!(ops[i], ServeOp::Write(_));
                        let run = if write {
                            1
                        } else {
                            ops[i..]
                                .iter()
                                .take(BATCH)
                                .take_while(|op| !matches!(op, ServeOp::Write(_)))
                                .count()
                        };
                        let name = if write { names.1 } else { names.0 };
                        timed(tracer, name, None, i as u32, run as u32, || {
                            for line in (i..i + run).map(|j| lines.get(j)) {
                                let reply = frontend.handle(&mut reader, line);
                                failed += u64::from(failed_reply(black_box(&reply)));
                            }
                        });
                        i += run;
                    }
                    if failed > 0 {
                        return Err(format!("{failed} in-process requests were not answered OK"));
                    }
                    Ok(reader.load_stats())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("submitter thread"))
            .collect()
    });
    let (mut fast, mut slow) = (0, 0);
    for result in results {
        let (f, s) = result?;
        fast += f;
        slow += s;
    }
    Ok((fast, slow))
}

/// Steps `follower` over the in-process transport until it holds
/// everything `store` committed, one span per applied chunk (`calls` =
/// units replayed in it).
fn catch_up<T: Tracer>(
    tracer: &mut T,
    follower: &mut Follower,
    store: &Store,
) -> Result<(), String> {
    let mut transport = LocalTransport::new(store.clone());
    for request in 0u32.. {
        let start = tracer.now();
        let step = follower.step(&mut transport).map_err(err)?;
        let end = tracer.now();
        match step {
            Step::Applied { units, .. } if units > 0 => {
                tracer.span("replica.step", start, end, None, request, units as u32);
            }
            Step::Applied { .. } | Step::Bootstrapped { .. } => {}
            Step::CaughtUp { .. } => break,
            Step::Rejected { reason } => {
                return Err(format!("follower rejected a chunk: {reason}"))
            }
        }
    }
    Ok(())
}

fn per_client<T>(f: impl Fn(usize) -> T) -> Vec<T> {
    (0..CLIENTS).map(f).collect()
}

fn writes(
    env: &Env,
    w: &Workload,
    pass: &Outcome,
    layers: &mut Layers,
    recorder: &mut Recorder,
    overhead: &mut Overhead,
) -> Result<(), String> {
    let ops = per_client(|c| {
        client_ops(
            w,
            c,
            env.sizes.writes_per_client,
            streams::writes_only(),
            env.seed,
        )
    });
    let lines: Vec<Lines> = ops.iter().map(|ops| render(w, ops)).collect();

    // Layer by layer, recording off and then on, each on a fresh pair.
    let edits = edits_of(&ops[0]);
    let (mut session, mut wal) = volatile_pair(env, &w.net, "bare-off")?;
    let started = Instant::now();
    replay_writes(&mut Off, &mut session, &mut wal, w, &edits)?;
    overhead.off += started.elapsed();
    let (mut session, mut wal) = volatile_pair(env, &w.net, "bare-on")?;
    let mut traced = recorder.fork(5 * edits.len() + 2 * ops[0].len() + 64);
    let before = session.stats();
    let started = Instant::now();
    replay_writes(&mut traced, &mut session, &mut wal, w, &edits)?;
    overhead.on += started.elapsed();
    let after = session.stats();
    layers.set(
        "session.dirty_nodes_per_edit",
        (after.dirty_nodes - before.dirty_nodes) as f64 / edits.len().max(1) as f64,
    );
    drop((session, wal));

    // The same publish at a tenth of the users: O(users) shows as 10×.
    let small = served_network(env.sizes.users / 10, env.seed);
    let small_edits = edits_of(&client_ops(
        &small,
        0,
        (edits.len() / 4).max(64),
        streams::writes_only(),
        env.seed,
    ));
    let (mut session, mut wal) = volatile_pair(env, &small.net, "bare-small")?;
    let mut small_recorder = recorder.fork(5 * small_edits.len());
    replay_writes(
        &mut small_recorder,
        &mut session,
        &mut wal,
        &small,
        &small_edits,
    )?;
    layers.set(
        "epoch.publish_us_10k",
        median_us_per_call(&small_recorder.spans, "epoch.publish"),
    );
    drop((session, wal));

    // The whole in-process write path with two submitters, then a
    // follower pulling what they wrote.
    let (frontend, store) = frontend_over(&env.scratch.fresh("layers"), &w.net, layers)?;
    // The follower holds the starting state before the writes begin, as
    // `trustmap follow` does, so only the writes' units are timed.
    let mut follower = Follower::open(env.scratch.fresh("layers-follower")).map_err(err)?;
    catch_up(&mut Off, &mut follower, &store)?;
    let mut submitters = per_client(|_| recorder.fork(ops[0].len()));
    replay_frontend(
        &mut submitters,
        &frontend,
        &ops,
        &lines,
        ("serve.handle_read", "serve.handle_write"),
    )?;
    drop(frontend);
    for submitter in submitters {
        traced.absorb(submitter);
    }
    catch_up(&mut traced, &mut follower, &store)?;
    drop((follower, store));

    // What a restart pays inside `Store::open`, on the directory the
    // end-to-end pass left behind; and that pass's `STATS` deltas.
    if let Some(dir) = &pass.store_dir {
        let started = Instant::now();
        let recovered = Store::open(dir).map_err(err)?;
        layers.set("store.open_s", started.elapsed().as_secs_f64());
        layers.set(
            "store.replayed_units",
            recovered.stats.replayed_units as f64,
        );
    }
    let acked = pass.counter("stats.acked").max(1.0);
    layers.set(
        "store.fsyncs_per_write",
        pass.counter("stats.fsyncs") / acked,
    );
    layers.set(
        "store.records_per_unit",
        pass.counter("stats.records") / pass.counter("stats.units").max(1.0),
    );
    layers.set(
        "store.wal_bytes_per_write",
        pass.counter("wal_bytes_per_write"),
    );
    layers.set(
        "group.ops_per_group",
        acked / pass.counter("stats.groups").max(1.0),
    );

    let spans = &traced.spans;
    for (metric, span) in [
        ("session.apply_us", "session.apply"),
        ("store.wal_commit_us", "store.wal_commit"),
        ("session.commit_us", "session.commit"),
        ("epoch.publish_us", "epoch.publish"),
        ("serve.handle_write_us", "serve.handle_write"),
    ] {
        layers.set(metric, median_us_per_call(spans, span));
    }
    // Chunks are few and uneven, so per unit this is a mean, not a median.
    let steps = by_layer(spans)
        .get("replica.step")
        .copied()
        .unwrap_or_default();
    layers.set(
        "replica.step_us",
        steps.total_ns as f64 / 1e3 / steps.calls.max(1) as f64,
    );
    let pieces = layers.get("session.apply_us")
        + layers.get("store.wal_commit_us")
        + layers.get("session.commit_us")
        + layers.get("epoch.publish_us");
    let handle = layers.get("serve.handle_write_us");
    layers.set("group.wait_us", handle - pieces);
    layers.set(
        "serve.wire_overhead_write_us",
        pass.metric("op_p50_us") - handle,
    );
    layers.set(
        "replica.poll_wait_ms",
        (pass.metric("side_p50_us") - layers.get("replica.step_us")) / 1e3,
    );
    layers.set("replica.bootstrap_s", pass.counter("replica_bootstrap_s"));
    recorder.absorb(traced);
    recorder.absorb(small_recorder);
    Ok(())
}

fn write_table(layers: &Layers) -> String {
    let handle = layers.get("serve.handle_write_us");
    let wire = layers.get("serve.wire_overhead_write_us");
    path_table(
        "write path on wire_writes (per request; rows up to group.wait sum to serve.handle_write)",
        "us",
        &[
            ("session.apply_us", layers.get("session.apply_us")),
            ("store.wal_commit_us", layers.get("store.wal_commit_us")),
            ("session.commit_us", layers.get("session.commit_us")),
            ("epoch.publish_us", layers.get("epoch.publish_us")),
            ("group.wait_us (residual)", layers.get("group.wait_us")),
        ],
        ("serve.wire_overhead_write_us", wire),
        ("wire_writes op_p50_us", handle + wire),
    )
}

fn mixed(
    env: &Env,
    w: &Workload,
    pass: &Outcome,
    layers: &mut Layers,
    recorder: &mut Recorder,
    overhead: &mut Overhead,
) -> Result<(), String> {
    // Half the pass's stream: the replay runs twice.
    let steps = env.sizes.mixed_per_client / 2;
    let ops = per_client(|c| client_ops(w, c, steps, ServeMix::default(), env.seed));
    let lines: Vec<Lines> = ops.iter().map(|ops| render(w, ops)).collect();
    let names = ("serve.handle_read.mixed", "serve.handle_write.mixed");

    let (frontend, _store) = frontend_over(&env.scratch.fresh("layers-off"), &w.net, layers)?;
    let started = Instant::now();
    replay_frontend(&mut per_client(|_| Off), &frontend, &ops, &lines, names)?;
    overhead.off += started.elapsed();
    drop(frontend);

    let (frontend, _store) = frontend_over(&env.scratch.fresh("layers"), &w.net, layers)?;
    let mut submitters = per_client(|_| recorder.fork(steps));
    let started = Instant::now();
    let (fast, slow) = replay_frontend(&mut submitters, &frontend, &ops, &lines, names)?;
    overhead.on += started.elapsed();
    drop(frontend);
    layers.set(
        "epoch.slow_load_ratio",
        slow as f64 / (fast + slow).max(1) as f64,
    );

    let mut traced = recorder.fork(0);
    for submitter in submitters {
        traced.absorb(submitter);
    }
    let read = median_us_per_call(&traced.spans, names.0);
    let write = median_us_per_call(&traced.spans, names.1);
    layers.set("serve.handle_read_mixed_us", read);
    layers.set("serve.handle_write_mixed_us", write);
    layers.set(
        "serve.wire_overhead_mixed_us",
        pass.metric("op_p50_us") - read,
    );
    recorder.absorb(traced);
    Ok(())
}

fn mixed_table(layers: &Layers) -> String {
    let handle = layers.get("serve.handle_read_mixed_us");
    let wire = layers.get("serve.wire_overhead_mixed_us");
    path_table(
        "read path on wire_mixed (per request, beside writes)",
        "us",
        &[("serve.handle_read_mixed_us", handle)],
        ("serve.wire_overhead_mixed_us", wire),
        ("wire_mixed op_p50_us", handle + wire),
    )
}

/// What `trustmap resolve` and `trustmap skeptic` do between reading the
/// file and printing the table, one span per layer.
fn replay_batch<T: Tracer>(tracer: &mut T, text: &str) -> Result<(usize, usize), String> {
    let root = tracer.open("cli.resolve", 0, 1);
    let net = timed(tracer, "format.parse", Some(root), 0, 1, || {
        parse_network(text)
    })
    .map_err(|e| e.to_string())?;
    let btn = timed(tracer, "binary.binarize", Some(root), 0, 1, || {
        binarize(&net)
    });
    timed(tracer, "resolution.resolve", Some(root), 0, 1, || {
        trustmap::resolve(&btn).map(|r| black_box(r.rounds()))
    })
    .map_err(err)?;
    tracer.close(root);

    let root = tracer.open("cli.skeptic", 1, 1);
    timed(tracer, "skeptic.resolve", Some(root), 1, 1, || {
        trustmap::skeptic::resolve_skeptic(&btn).map(|_| ())
    })
    .map_err(err)?;
    tracer.close(root);

    // Not on the CLI path today: the one-pass resolver at one thread.
    timed(tracer, "parallel.resolve_1t", None, 2, 1, || {
        trustmap_core::parallel::resolve_parallel(&btn, 1).map(|r| black_box(r.rounds()))
    })
    .map_err(err)?;
    Ok((btn.node_count(), btn.edge_count()))
}

fn batch(
    net: &TrustNetwork,
    pass: &Outcome,
    layers: &mut Layers,
    recorder: &mut Recorder,
    overhead: &mut Overhead,
) -> Result<(), String> {
    let text = render_network(net);
    layers.set("format.bytes", text.len() as f64);

    // Recording on first: the first pass also pays the allocator's first
    // touch of a few hundred MB, so the ratio is an upper bound.
    let mut traced = recorder.fork(16);
    let started = Instant::now();
    let (nodes, edges) = replay_batch(&mut traced, &text)?;
    overhead.on += started.elapsed();
    let started = Instant::now();
    replay_batch(&mut Off, &text)?;
    overhead.off += started.elapsed();
    layers.set("binary.nodes", nodes as f64);
    layers.set("binary.edges", edges as f64);

    for (metric, span) in [
        ("format.parse_s", "format.parse"),
        ("binary.binarize_s", "binary.binarize"),
        ("resolution.resolve_s", "resolution.resolve"),
        ("skeptic.resolve_s", "skeptic.resolve"),
        ("parallel.resolve_1t_s", "parallel.resolve_1t"),
    ] {
        layers.set(metric, median_us_per_call(&traced.spans, span) / 1e6);
    }
    let pieces = layers.get("format.parse_s")
        + layers.get("binary.binarize_s")
        + layers.get("resolution.resolve_s");
    layers.set("cli.residual_s", pass.metric("op_p50_us") / 1e6 - pieces);
    recorder.absorb(traced);
    Ok(())
}

fn batch_table(layers: &Layers) -> String {
    let pieces = layers.get("format.parse_s")
        + layers.get("binary.binarize_s")
        + layers.get("resolution.resolve_s");
    path_table(
        "batch path on batch_resolve (`trustmap resolve`, per invocation)",
        "s",
        &[
            ("format.parse_s", layers.get("format.parse_s")),
            ("binary.binarize_s", layers.get("binary.binarize_s")),
            ("resolution.resolve_s", layers.get("resolution.resolve_s")),
        ],
        ("cli.residual_s", layers.get("cli.residual_s")),
        (
            "batch_resolve op_p50_us (s)",
            pieces + layers.get("cli.residual_s"),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_layers_read_zero_and_every_declared_layer_is_emitted() {
        let mut layers = Layers::default();
        layers.set("trustq.parse_us", 0.1);
        let all = layers.finish();
        assert_eq!(all.len(), PER_LAYER.len());
        assert!(all.contains(&("trustq.parse_us", 0.1)));
        assert!(all.contains(&("skeptic.resolve_s", 0.0)));
    }

    #[test]
    #[should_panic(expected = "not a declared per-layer metric")]
    fn undeclared_layers_are_refused() {
        Layers::default().set("made.up_us", 1.0);
    }

    #[test]
    fn decomposed_replays_nest_their_layer_spans() {
        let w = served_network(200, 1);
        let ops = client_ops(&w, 0, 64, streams::writes_only(), 1);
        let edits = edits_of(&ops);
        let mut session = Session::new(w.net.clone());
        let scratch = crate::procs::Scratch::new().unwrap();
        let mut wal = Store::open(scratch.fresh("wal")).unwrap().store;
        let mut recorder = Recorder::with_capacity(8 * edits.len());
        replay_writes(&mut recorder, &mut session, &mut wal, &w, &edits).unwrap();
        assert_eq!(recorder.spans.len(), 5 * edits.len());
        let layers = by_layer(&recorder.spans);
        assert_eq!(layers["write.decomposed"].spans, edits.len() as u64);
        assert_eq!(layers["epoch.publish"].calls, edits.len() as u64);
        // Children lie inside their root, so a root's self time is small
        // next to its total.
        let root = layers["write.decomposed"];
        assert!(root.self_ns < root.total_ns);
        assert!(recorder.spans.iter().all(|s| match s.parent {
            Some(p) => recorder.spans[p as usize].name == "write.decomposed",
            None => s.name == "write.decomposed",
        }));
    }
}
