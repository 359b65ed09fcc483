//! The `trustmap` command-line tool: resolve trust-network files, inspect
//! conflicts, trace lineage, and export logic programs.
//!
//! ```text
//! trustmap resolve  <file>            # per-user certain/possible beliefs
//!                                     # (Algorithm 1, one-pass solver)
//! trustmap skeptic  <file>            # Algorithm 2 with constraints
//!                                     # (one-pass solver)
//! trustmap cert     <file> [--exact]  # certain beliefs; --exact solves the
//!                                     # per-region enumeration instead of
//!                                     # Algorithm 2's approximation
//! trustmap paradigm <file> <A|E|S>    # acyclic evaluation under a paradigm
//! trustmap agree    <file>            # pairs of users who always agree
//! trustmap lineage  <file> <user> <value>
//! trustmap lp       <file>            # print the logic-program translation
//! trustmap stats    <file>            # network and binarization statistics
//! trustmap query    <file> <query…>   # run one unified-language query,
//!                                     # e.g. `CERT alice`, `POSS * EXACT`
//! trustmap explain  <file> <query…>   # name the route the query takes
//!                                     # (don't run it)
//!
//! trustmap log      <dir>             # dump a store's write-ahead log
//! trustmap segments <dir>             # list the store's log segments
//! trustmap snapshot <dir> [file]      # write a snapshot (optionally after
//!                                     # importing <file> as the network)
//! trustmap recover  <dir>             # recover the store, print how it went
//! trustmap serve    <dir> [addr] [threads] [window] [--exact]
//!                                     # serve the store over the line
//!                                     # protocol (default 127.0.0.1:4270,
//!                                     # 4 threads, 16-edit commit window);
//!                                     # --exact answers `CERT <u> EXACT`
//! trustmap follow   <dir> <leader-addr> [serve-addr] [--exact]
//!                                     # replicate a remote leader into
//!                                     # <dir>; optionally serve replica
//!                                     # reads on <serve-addr>
//! trustmap promote  <dir>             # promote a follower store to be
//!                                     # the leader of the next term
//!                                     # (seals the live segment, bumps
//!                                     # term.tm, reopens writable)
//! ```
//!
//! Files use the format of [`trustmap::format`] (see `examples/indus.tn`);
//! `<dir>` is a durable store directory as managed by
//! [`trustmap::store::Store`] (WAL + snapshots).

#![forbid(unsafe_code)]

use std::io::{self, BufWriter, Write};
use std::process::ExitCode;
use trustmap::format::parse_network;
use trustmap::plan::QueryRow;
use trustmap::prelude::*;
use trustmap::relstore::parse_query;
use trustmap::store::{record::Payload, scan_store_wal, Store};
use trustmap::{Query, QueryTarget, TrustNetwork};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: trustmap <resolve|skeptic|cert|paradigm|agree|lineage|lp|stats|query|explain> <file> [args]\n\
                 \x20      trustmap <log|segments|snapshot|recover|serve|follow|promote> <store-dir> [args]"
            );
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> std::result::Result<(), String> {
    let command = args.first().ok_or("missing command")?;

    // Store commands take a directory, not a network file.
    match command.as_str() {
        "log" => return cmd_log(args.get(1).ok_or("log needs a store directory")?),
        "snapshot" => {
            return cmd_snapshot(
                args.get(1).ok_or("snapshot needs a store directory")?,
                args.get(2).map(String::as_str),
            )
        }
        "recover" => return cmd_recover(args.get(1).ok_or("recover needs a store directory")?),
        "segments" => return cmd_segments(args.get(1).ok_or("segments needs a store directory")?),
        "serve" => {
            return cmd_serve(
                args.get(1).ok_or("serve needs a store directory")?,
                &args[2..],
            )
        }
        "follow" => {
            return cmd_follow(
                args.get(1).ok_or("follow needs a store directory")?,
                &args[2..],
            )
        }
        "promote" => return cmd_promote(args.get(1).ok_or("promote needs a store directory")?),
        _ => {}
    }

    let path = args.get(1).ok_or("missing network file")?;
    // The file's text is dead weight once parsed (the network owns its
    // names): free it before the command allocates its own tables.
    let net = {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_network(&text).map_err(|e| format!("{path}: {e}"))?
    };

    match command.as_str() {
        "resolve" => cmd_resolve(&net),
        "skeptic" => cmd_skeptic(&net),
        "cert" => cmd_cert(&net, args.iter().any(|a| a == "--exact")),
        "paradigm" => cmd_paradigm(&net, args.get(2).map(String::as_str)),
        "agree" => cmd_agree(&net),
        "lineage" => cmd_lineage(
            &net,
            args.get(2).ok_or("lineage needs a user")?,
            args.get(3).ok_or("lineage needs a value")?,
        ),
        "lp" => cmd_lp(&net),
        "stats" => cmd_stats(&net),
        "query" => cmd_query(&net, &args[2..], false),
        "explain" => cmd_query(&net, &args[2..], true),
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Prints one table through a buffered, locked stdout: a row is a
/// `memcpy`, not a lock and a `write(2)` (std's stdout flushes per line
/// even into a file). A reader that went away (`trustmap resolve big.tn |
/// head`) ends the command quietly; any other write error is reported.
fn print_table(
    table: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> std::result::Result<(), String> {
    let mut out = BufWriter::with_capacity(1 << 16, io::stdout().lock());
    match table(&mut out).and_then(|()| out.flush()) {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        result => result.map_err(|e| format!("stdout: {e}")),
    }
}

/// The `{:?}` rendering of a list of value names.
fn names<'a>(net: &'a TrustNetwork, values: &[trustmap::Value]) -> Vec<&'a str> {
    values.iter().map(|&v| net.domain().name(v)).collect()
}

/// `trustmap query <file> <query…>` and `trustmap explain <file>
/// <query…>`: the CLI face of the unified query language. The words
/// after the file join into one query line, parse through the same
/// `trustq` grammar the serve protocol uses, and run through
/// [`Session::query`]. A file has no live engine, so a non-exact read
/// solves the whole network once; the trailer names the route.
fn cmd_query(
    net: &TrustNetwork,
    rest: &[String],
    explain: bool,
) -> std::result::Result<(), String> {
    let text = rest.join(" ");
    if text.trim().is_empty() {
        return Err("query needs a query string, e.g. `CERT alice` or `POSS *`".into());
    }
    let mut query = parse_query(&text).map_err(|e| e.to_string())?;
    query.explain = query.explain || explain;
    if query.pin.is_some() {
        return Err("`@<lsn>` pins only apply to the serve protocol (a file has no log)".into());
    }
    let mut session = Session::new(net.clone());
    if query.exact {
        session.enable_exact().map_err(|e| e.to_string())?;
    }
    if query.explain {
        return print_table(|out| writeln!(out, "{}", session.explain(&query)));
    }
    let result = session.query(&query).map_err(|e| e.to_string())?;
    print_table(|out| {
        writeln!(out, "{:<16} {:<14} possible", "user", "certain")?;
        write_rows(out, net, &result.rows)?;
        writeln!(out, "plan: {}", result.route)
    })
}

/// One line per query row: user, certain value (or `-`), possible values.
fn write_rows(out: &mut dyn Write, net: &TrustNetwork, rows: &[QueryRow]) -> io::Result<()> {
    for row in rows {
        let cert = row.cert.map_or("-", |v| net.domain().name(v));
        let poss = names(net, &row.poss);
        writeln!(
            out,
            "{:<16} {:<14} {:?}",
            net.user_name(row.user),
            cert,
            poss
        )?;
    }
    Ok(())
}

fn cmd_log(dir: &str) -> std::result::Result<(), String> {
    let scan = scan_store_wal(dir).map_err(|e| e.to_string())?;
    print_table(|out| {
        for unit in &scan.units {
            for record in &unit.ops {
                writeln!(
                    out,
                    "{:>8}  {:<8} {}",
                    record.lsn,
                    record.payload.tag(),
                    describe(&record.payload)
                )?;
            }
            writeln!(
                out,
                "{:>8}  commit   {} record(s), ends at byte {}",
                unit.lsn,
                unit.ops.len(),
                unit.end_offset
            )?;
        }
        writeln!(
            out,
            "last committed lsn {}, {} byte(s) of log",
            scan.last_lsn, scan.end_offset
        )?;
        if scan.uncommitted > 0 {
            writeln!(
                out,
                "warning: {} unsealed record(s) past the last commit",
                scan.uncommitted
            )?;
        }
        if let Some(reason) = scan.stop {
            writeln!(
                out,
                "warning: scan stopped early ({reason}); {} byte(s) unreadable",
                scan.tail_bytes()
            )?;
        }
        Ok(())
    })
}

fn describe(payload: &Payload) -> String {
    match payload {
        Payload::NewUser(name) => format!("intern user `{name}`"),
        Payload::NewValue(name) => format!("intern value `{name}`"),
        Payload::Edit(edit) => format!("{edit:?}"),
        Payload::Rewrite(text) => format!("full network image ({} bytes)", text.len()),
        Payload::Commit { records } => format!("{records} record(s)"),
    }
}

/// Lists the segmented log without opening (or locking) the store:
/// every `wal-*.seg` file with its LSN span, size, leadership term,
/// seal state, and — against the image recovery would load — whether
/// the next retention pass may reclaim it. Cross-term seams (where a
/// failover sealed one era and the next began) are flagged inline.
fn cmd_segments(dir: &str) -> std::result::Result<(), String> {
    use trustmap::store::{segment, snapshot};
    let path = std::path::Path::new(dir);
    let files = segment::list_files(path).map_err(|e| format!("{dir}: {e}"))?;
    let store_term = segment::read_term(path).map_err(|e| format!("{dir}: {e}"))?;
    if files.is_empty() {
        return print_table(|out| {
            writeln!(out, "no log segments in {dir} (store term {store_term})")
        });
    }
    let watermark = snapshot::load_latest(path).0.map_or(0, |s| s.lsn);
    let manifest = match segment::read_manifest(path) {
        segment::ManifestState::Missing => "missing (will be rebuilt from footers)".to_owned(),
        segment::ManifestState::Corrupt(why) => format!("corrupt ({why}); footers win"),
        segment::ManifestState::Sealed(list) => format!("{} sealed segment(s)", list.len()),
    };
    let mut segments = Vec::with_capacity(files.len());
    for (first, file) in &files {
        let name = segment::file_name(*first);
        let (len, meta) = segment::read_meta(file).map_err(|e| format!("{name}: {e}"))?;
        segments.push((name, *first, len, meta));
    }
    print_table(|out| {
        writeln!(
            out,
            "{:<24} {:>12} {:>12} {:>10} {:>6}  state",
            "segment", "first", "last", "bytes", "term"
        )?;
        let (mut total, mut retirable, mut seams) = (0u64, 0u64, 0u64);
        let mut prev_term: Option<u64> = None;
        for (name, first, len, meta) in &segments {
            total += len;
            match meta {
                Some(m) => {
                    let state = if m.last_lsn <= watermark {
                        retirable += len;
                        "sealed, retirable"
                    } else {
                        "sealed"
                    };
                    let seam = match prev_term {
                        Some(p) if p != m.term => {
                            seams += 1;
                            " ← term seam"
                        }
                        _ => "",
                    };
                    prev_term = Some(m.term);
                    writeln!(
                        out,
                        "{:<24} {:>12} {:>12} {:>10} {:>6}  {state} (crc {:08x}){seam}",
                        name, m.first_lsn, m.last_lsn, len, m.term, m.data_crc
                    )?;
                }
                None => {
                    // The live segment has no footer yet; its eventual seal
                    // carries the store's current term.
                    let seam = match prev_term {
                        Some(p) if p != store_term => {
                            seams += 1;
                            " ← term seam"
                        }
                        _ => "",
                    };
                    writeln!(
                        out,
                        "{:<24} {:>12} {:>12} {:>10} {:>6}  live{seam}",
                        name, first, "-", len, store_term
                    )?;
                }
            }
        }
        writeln!(out, "manifest:           {manifest}")?;
        writeln!(out, "store term:         {store_term}")?;
        if seams > 0 {
            writeln!(
                out,
                "term seams:         {seams} (leadership changed mid-chain)"
            )?;
        }
        writeln!(
            out,
            "snapshot watermark: {}",
            if watermark > 0 {
                format!("lsn {watermark}")
            } else {
                "none".into()
            }
        )?;
        writeln!(
            out,
            "on disk:            {total} byte(s), {retirable} retirable at the next snapshot"
        )
    })
}

/// Promotes the follower store in `dir` to lead the next term: seals
/// the live segment under the old term, writes a tip snapshot, durably
/// bumps `term.tm`, and reopens the directory as a writable store —
/// verifying the reopen replayed nothing (promotion is O(1) in
/// history). Run this on the chosen survivor after a leader dies, then
/// point the remaining followers (and writing clients) at it.
fn cmd_promote(dir: &str) -> std::result::Result<(), String> {
    use trustmap::store::Follower;
    let follower = Follower::open(dir).map_err(|e| e.to_string())?;
    let (old_term, watermark) = (follower.term(), follower.watermark());
    let promoted = follower.promote().map_err(|e| e.to_string())?;
    let term = promoted.store.term();
    print_table(|out| {
        writeln!(out, "promoted {dir}: term {old_term} → {term}")?;
        writeln!(out, "watermark lsn:      {watermark}")?;
        writeln!(
            out,
            "replayed on reopen: {} unit(s) (tip snapshot keeps promotion O(1))",
            promoted.stats.replayed_units
        )?;
        writeln!(
            out,
            "the store now accepts writes under term {term}; re-point followers here"
        )
    })
}

fn cmd_snapshot(dir: &str, import: Option<&str>) -> std::result::Result<(), String> {
    let mut recovered = Store::open(dir).map_err(|e| e.to_string())?;
    if let Some(path) = import {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let imported = parse_network(&text).map_err(|e| format!("{path}: {e}"))?;
        recovered
            .session
            .apply(move |net| {
                *net = imported;
                Ok(())
            })
            .map_err(|e| e.to_string())?;
        print_table(|out| {
            writeln!(
                out,
                "imported {path} as the store's network (one rewrite unit)"
            )
        })?;
    }
    let lsn = recovered
        .store
        .snapshot_now(&recovered.session)
        .map_err(|e| e.to_string())?;
    let network = recovered.session.network();
    print_table(|out| {
        writeln!(
            out,
            "snapshot at lsn {lsn} written to {dir} ({} users, {} mappings)",
            network.user_count(),
            network.mapping_count()
        )
    })
}

fn cmd_recover(dir: &str) -> std::result::Result<(), String> {
    let mut recovered = Store::open(dir).map_err(|e| e.to_string())?;
    let stats = &recovered.stats;
    print_table(|out| {
        writeln!(out, "recovered to lsn:   {}", stats.last_lsn)?;
        writeln!(
            out,
            "snapshot used:      {}",
            if stats.snapshot_lsn > 0 {
                format!("lsn {}", stats.snapshot_lsn)
            } else {
                "none (genesis replay)".into()
            }
        )?;
        writeln!(
            out,
            "tail replayed:      {} unit(s), {} edit(s)",
            stats.replayed_units, stats.replayed_edits
        )?;
        writeln!(out, "torn tail dropped:  {} byte(s)", stats.dropped_bytes)?;
        for warning in &stats.warnings {
            writeln!(out, "warning:            {warning}")?;
        }
        Ok(())
    })?;
    let users: Vec<trustmap::User> = recovered.session.network().users().collect();
    let (mut certain, mut bottom, mut open) = (0usize, 0usize, 0usize);
    for &u in &users {
        let cert = recovered
            .session
            .skeptic_cert(u)
            .map_err(|e| e.to_string())?;
        if cert.pos.is_some() {
            certain += 1;
        } else if cert.is_bottom() {
            bottom += 1;
        } else {
            open += 1;
        }
    }
    print_table(|out| {
        writeln!(
            out,
            "state:              {} user(s): {certain} certain, {open} open, {bottom} inconsistent",
            users.len()
        )
    })
}

fn cmd_serve(dir: &str, rest: &[String]) -> std::result::Result<(), String> {
    use trustmap::serve::{Frontend, ServeConfig, Server};
    use trustmap::store::GroupCommitWindow;

    let mut config = ServeConfig::default();
    let mut positional: Vec<&String> = Vec::new();
    for arg in rest {
        if arg == "--exact" {
            config.exact = true;
        } else {
            positional.push(arg);
        }
    }
    let addr = positional
        .first()
        .map(|s| s.as_str())
        .unwrap_or("127.0.0.1:4270");
    if let Some(threads) = positional.get(1) {
        config.threads = threads
            .parse()
            .map_err(|_| format!("bad thread count `{threads}`"))?;
    }
    if let Some(window) = positional.get(2) {
        config.window = GroupCommitWindow::of(
            window
                .parse()
                .map_err(|_| format!("bad window size `{window}`"))?,
        );
    }

    let recovered = Store::open(dir).map_err(|e| e.to_string())?;
    print_table(|out| {
        writeln!(
            out,
            "recovered {dir}: {} user(s), lsn {}",
            recovered.session.network().user_count(),
            recovered.stats.last_lsn
        )
    })?;
    let store = recovered.store.clone();
    let frontend = std::sync::Arc::new(Frontend::new(recovered.session, Some(store), &config));
    let server = Server::start(frontend, addr, &config).map_err(|e| format!("{addr}: {e}"))?;
    print_table(|out| {
        writeln!(
            out,
            "serving on {} ({} thread(s), {}-edit commit window{}); ^C to stop",
            server.addr(),
            config.threads,
            config.window.max_edits,
            if config.exact {
                ", exact cert enabled"
            } else {
                ""
            }
        )
    })?;
    server.join();
    Ok(())
}

/// Replicates a remote leader into `dir` over the line protocol's `SHIP`
/// verb, optionally serving read-only replica queries (`CERT/POSS/EPOCH`,
/// including `@<lsn>` pins) while it follows.
fn cmd_follow(dir: &str, rest: &[String]) -> std::result::Result<(), String> {
    use trustmap::serve::{Frontend, ServeConfig, Server, TcpTransport};
    use trustmap::store::{FollowConfig, Follower};

    let mut exact = false;
    let mut positional: Vec<&String> = Vec::new();
    for arg in rest {
        if arg == "--exact" {
            exact = true;
        } else {
            positional.push(arg);
        }
    }
    let leader = positional
        .first()
        .ok_or("follow needs the leader's address")?;
    let mut follower = Follower::open(dir).map_err(|e| e.to_string())?;
    if exact {
        follower.enable_exact().map_err(|e| e.to_string())?;
        print_table(|out| {
            writeln!(
                out,
                "exact cert enabled (replica answers `CERT <user> EXACT`)"
            )
        })?;
    }
    print_table(|out| {
        writeln!(
            out,
            "follower {dir}: {} user(s), resuming at watermark lsn {}",
            follower.network().user_count(),
            follower.watermark()
        )
    })?;
    let config = ServeConfig::default();
    let _server = match positional.get(1) {
        Some(addr) => {
            let frontend = std::sync::Arc::new(Frontend::replica(follower.epoch_slot(), &config));
            let server =
                Server::start(frontend, addr, &config).map_err(|e| format!("{addr}: {e}"))?;
            print_table(|out| writeln!(out, "replica reads on {} (read-only)", server.addr()))?;
            Some(server)
        }
        None => None,
    };
    print_table(|out| writeln!(out, "pulling from {leader}; ^C to stop"))?;
    let stop = std::sync::atomic::AtomicBool::new(false);
    let mut transport = TcpTransport::new(leader.as_str());
    follower.run(&mut transport, &FollowConfig::default(), &stop);
    Ok(())
}

fn cmd_resolve(net: &TrustNetwork) -> std::result::Result<(), String> {
    let r = trustmap::parallel::resolve_network_parallel(net, 1).map_err(|e| e.to_string())?;
    print_table(|out| {
        writeln!(out, "{:<16} {:<14} possible", "user", "certain")?;
        for u in net.users() {
            let cert = match r.cert(u) {
                Some(v) => net.domain().name(v),
                None if r.poss(u).is_empty() => "-",
                None => "(conflict)",
            };
            let poss = names(net, r.poss(u));
            writeln!(out, "{:<16} {:<14} {:?}", net.user_name(u), cert, poss)?;
        }
        Ok(())
    })
}

fn cmd_skeptic(net: &TrustNetwork) -> std::result::Result<(), String> {
    let btn = binarize(net);
    let sk = resolve_skeptic_parallel(&btn, 1).map_err(|e| e.to_string())?;
    print_table(|out| {
        writeln!(
            out,
            "{:<16} {:<24} possible positives",
            "user", "certain beliefs"
        )?;
        for u in net.users() {
            let node = btn.node_of(u);
            let cert = sk.cert(node);
            let pos: Vec<&str> = sk
                .rep_poss(node)
                .pos
                .iter()
                .map(|&v| net.domain().name(v))
                .collect();
            writeln!(
                out,
                "{:<16} {:<24} {:?}",
                net.user_name(u),
                cert.display(net.domain()).to_string(),
                pos
            )?;
        }
        Ok(())
    })
}

/// Certain beliefs per user: `CERT *` through [`Session::query`]. The
/// default path is one whole solve with Algorithm 2 semantics (sound but
/// possibly over-approximating the possible set on cyclic constraint
/// networks); `--exact` reads the per-region exact evaluator instead, so
/// the printed possible sets are tight (see `docs/FIDELITY.md`, F1).
fn cmd_cert(net: &TrustNetwork, exact: bool) -> std::result::Result<(), String> {
    let mut session = Session::new(net.clone());
    let mut query = Query::cert(QueryTarget::All);
    if exact {
        session.enable_exact().map_err(|e| e.to_string())?;
        query = query.exact();
    }
    let result = session.query(&query).map_err(|e| e.to_string())?;
    let (cert_head, poss_head) = if exact {
        ("exact certain", "exact possible")
    } else {
        ("certain", "possible positives")
    };
    print_table(|out| {
        writeln!(out, "{:<16} {:<14} {poss_head}", "user", cert_head)?;
        write_rows(out, net, &result.rows)
    })
}

fn cmd_paradigm(net: &TrustNetwork, which: Option<&str>) -> std::result::Result<(), String> {
    let paradigm = match which {
        Some("A") | Some("agnostic") => Paradigm::Agnostic,
        Some("E") | Some("eclectic") => Paradigm::Eclectic,
        Some("S") | Some("skeptic") => Paradigm::Skeptic,
        other => return Err(format!("expected A, E, or S, got {other:?}")),
    };
    let btn = binarize(net);
    let sol = evaluate_acyclic(&btn, paradigm).map_err(|e| e.to_string())?;
    print_table(|out| {
        writeln!(out, "unique stable solution under {paradigm}:")?;
        for u in net.users() {
            let set = &sol[btn.node_of(u) as usize];
            writeln!(
                out,
                "{:<16} {}",
                net.user_name(u),
                set.display(net.domain())
            )?;
        }
        Ok(())
    })
}

fn cmd_agree(net: &TrustNetwork) -> std::result::Result<(), String> {
    let btn = binarize(net);
    let pairs = analyze_pairs(&btn).map_err(|e| e.to_string())?;
    let agreeing = pairs.agreeing_user_pairs(&btn);
    print_table(|out| {
        if agreeing.is_empty() {
            return writeln!(out, "no user pair agrees in every stable solution");
        }
        writeln!(out, "pairs agreeing in every stable solution:")?;
        for &(x, y) in &agreeing {
            writeln!(
                out,
                "  {} ↔ {}",
                net.user_name(trustmap::User(x)),
                net.user_name(trustmap::User(y))
            )?;
        }
        Ok(())
    })
}

fn cmd_lineage(net: &TrustNetwork, user: &str, value: &str) -> std::result::Result<(), String> {
    let u = net
        .find_user(user)
        .ok_or_else(|| format!("unknown user `{user}`"))?;
    let v = net
        .domain()
        .get(value)
        .ok_or_else(|| format!("unknown value `{value}`"))?;
    let btn = binarize(net);
    let res = resolve_with(
        &btn,
        trustmap::Options {
            lineage: true,
            ..Default::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let lineage = res.lineage().expect("requested");
    match lineage.trace(btn.node_of(u), v) {
        Some(chain) => {
            let names: Vec<String> = chain.iter().map(|&n| btn.name(n).to_string()).collect();
            print_table(|out| writeln!(out, "{}", names.join(" ← ")))
        }
        None => Err(format!("`{value}` has no lineage at `{user}`")),
    }
}

fn cmd_lp(net: &TrustNetwork) -> std::result::Result<(), String> {
    let lp = network_to_lp(net);
    print_table(|out| write!(out, "{}", lp.program))
}

fn cmd_stats(net: &TrustNetwork) -> std::result::Result<(), String> {
    let btn = binarize(net);
    // Algorithm 1 as printed: the one-pass solver has no Step-2 rounds to
    // report.
    let r = resolve(&btn).map_err(|e| e.to_string())?;
    let (mut certain, mut conflicted, mut empty) = (0, 0, 0);
    for u in net.users() {
        match r.poss(btn.node_of(u)).len() {
            0 => empty += 1,
            1 => certain += 1,
            _ => conflicted += 1,
        }
    }
    print_table(|out| {
        writeln!(out, "users:              {}", net.user_count())?;
        writeln!(out, "mappings:           {}", net.mapping_count())?;
        writeln!(out, "values:             {}", net.domain().len())?;
        writeln!(out, "binarized nodes:    {}", btn.node_count())?;
        writeln!(out, "binarized edges:    {}", btn.edge_count())?;
        writeln!(out, "step-2 rounds:      {}", r.rounds())?;
        writeln!(out, "certain users:      {certain}")?;
        writeln!(out, "conflicted users:   {conflicted}")?;
        writeln!(out, "undefined users:    {empty}")
    })
}
