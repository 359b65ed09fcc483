//! Pins the `trustmap` binary's whole-network commands to the reference
//! solvers: `resolve` and `skeptic` run the one-pass condensation solver,
//! and every row they print must be the row rendered from
//! `resolve_network` (Algorithm 1 as printed) and `resolve_skeptic` (the
//! sequential Algorithm 2) — on the shipped example and on generated
//! power-law networks of both signs — with the references' own error text
//! where they refuse. `trustmap query` speaks the wire's `trustq` grammar,
//! errors included.

use std::path::PathBuf;
use std::process::Command;
use trustmap::format::{parse_network, render_network};
use trustmap::relstore::parse_query;
use trustmap::skeptic::resolve_skeptic;
use trustmap::workloads::{power_law, power_law_signed};
use trustmap::{binarize, resolve_network, NegSet, TrustNetwork};

/// Runs `trustmap <args>`; `Ok(stdout)` on success, `Err(first stderr
/// line)` on failure.
fn trustmap(args: &[&str]) -> Result<String, String> {
    let out = Command::new(env!("CARGO_BIN_EXE_trustmap"))
        .args(args)
        .output()
        .expect("spawn trustmap");
    if out.status.success() {
        Ok(String::from_utf8(out.stdout).expect("utf-8 stdout"))
    } else {
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        Err(stderr.lines().next().unwrap_or_default().to_owned())
    }
}

/// Writes `net` in the text format and returns the path (id-exact round
/// trip, so the binary resolves the same network).
fn write_net(name: &str, net: &TrustNetwork) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "trustmap-cli-oracle-{}-{name}.tn",
        std::process::id()
    ));
    std::fs::write(&path, render_network(net)).expect("write network file");
    path
}

/// What `trustmap resolve` must print, from Algorithm 1 as printed.
fn reference_resolve(net: &TrustNetwork) -> Result<String, String> {
    let r = resolve_network(net).map_err(|e| format!("error: {e}"))?;
    let mut out = format!("{:<16} {:<14} possible\n", "user", "certain");
    for u in net.users() {
        let cert = match (r.cert(u), r.poss(u).is_empty()) {
            (Some(v), _) => net.domain().name(v).to_owned(),
            (None, true) => "-".to_owned(),
            (None, false) => "(conflict)".to_owned(),
        };
        let poss: Vec<&str> = r.poss(u).iter().map(|&v| net.domain().name(v)).collect();
        out += &format!("{:<16} {:<14} {:?}\n", net.user_name(u), cert, poss);
    }
    Ok(out)
}

/// What `trustmap skeptic` must print, from the sequential Algorithm 2.
fn reference_skeptic(net: &TrustNetwork) -> Result<String, String> {
    let btn = binarize(net);
    let sk = resolve_skeptic(&btn).map_err(|e| format!("error: {e}"))?;
    let mut out = format!(
        "{:<16} {:<24} possible positives\n",
        "user", "certain beliefs"
    );
    for u in net.users() {
        let node = btn.node_of(u);
        let pos: Vec<&str> = sk
            .rep_poss(node)
            .pos
            .iter()
            .map(|&v| net.domain().name(v))
            .collect();
        out += &format!(
            "{:<16} {:<24} {:?}\n",
            net.user_name(u),
            sk.cert(node).display(net.domain()).to_string(),
            pos
        );
    }
    Ok(out)
}

#[test]
fn resolve_and_skeptic_print_the_reference_rows() {
    let indus = parse_network(
        &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/indus.tn"))
            .expect("shipped example"),
    )
    .expect("example parses");
    let nets = [
        ("indus", indus),
        ("power-law", power_law(1_500, 3, 4, 0.1, 42).net),
        (
            "power-law-signed",
            power_law_signed(1_500, 3, 4, 0.1, 0.3, 42).net,
        ),
    ];
    for (name, net) in &nets {
        let path = write_net(name, net);
        let file = path.to_str().expect("utf-8 temp path");
        // `resolve` refuses the signed network: same error, same text.
        assert_eq!(
            trustmap(&["resolve", file]),
            reference_resolve(net),
            "{name}"
        );
        assert_eq!(
            trustmap(&["skeptic", file]),
            reference_skeptic(net),
            "{name}"
        );
        let _ = std::fs::remove_file(path);
    }
}

/// `trustmap resolve big.tn | head -1`: the reader takes one row and goes
/// away. Every table printer must end quietly on the closed pipe — no
/// panic (exit 101), no signal, no `error:` line, no usage banner.
#[test]
fn table_printers_end_quietly_when_the_reader_goes_away() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    // ~1 MB of rows: far more than a pipe and the CLI's buffer hold, so
    // the printer is still writing when the pipe closes.
    let net = power_law(25_000, 3, 4, 0.1, 7).net;
    let path = write_net("closed-pipe", &net);
    let file = path.to_str().expect("utf-8 temp path");
    let commands: [&[&str]; 4] = [
        &["resolve", file],
        &["skeptic", file],
        &["cert", file],
        &["query", file, "POSS", "*"],
    ];
    for args in commands {
        let mut child = Command::new(env!("CARGO_BIN_EXE_trustmap"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn trustmap");
        let mut rows = BufReader::with_capacity(64, child.stdout.take().expect("piped stdout"));
        let mut header = String::new();
        rows.read_line(&mut header).expect("one row");
        assert!(header.starts_with("user "), "{args:?}: {header:?}");
        drop(rows); // closes the read end
        let mut stderr = String::new();
        child
            .stderr
            .take()
            .expect("piped stderr")
            .read_to_string(&mut stderr)
            .expect("utf-8 stderr");
        let status = child.wait().expect("trustmap exits");
        assert_eq!(stderr, "", "{args:?}");
        assert_eq!(status.code(), Some(0), "{args:?}: {status:?}");
    }
    // Only the closed pipe is quiet: a full disk is still an error.
    if let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") {
        let out = Command::new(env!("CARGO_BIN_EXE_trustmap"))
            .args(["resolve", file])
            .stdout(full)
            .output()
            .expect("spawn trustmap");
        assert!(!out.status.success());
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert!(stderr.starts_with("error: stdout: "), "{stderr}");
    }
    let _ = std::fs::remove_file(path);
}

/// `trustmap <verb> | head -1` for the verbs that are not tables: the
/// store verbs on a store imported from `examples/indus.tn`, and the file
/// verbs on the example itself. Each runs twice — with the reader gone
/// before the first write, and with the reader leaving after one line —
/// and must exit 0 without a panic either way.
#[test]
fn every_verb_ends_quietly_when_the_reader_goes_away() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    let indus = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/indus.tn");
    let dir =
        std::env::temp_dir().join(format!("trustmap-cli-oracle-{}-store", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.to_str().expect("utf-8 temp path");
    trustmap(&["snapshot", store, indus]).expect("import the example");
    let commands: [&[&str]; 6] = [
        &["recover", store],
        &["log", store],
        &["segments", store],
        &["lp", indus],
        &["stats", indus],
        &["agree", indus],
    ];
    for args in commands {
        for read_first_line in [false, true] {
            let (reader, writer) = std::io::pipe().expect("pipe");
            let mut child = Command::new(env!("CARGO_BIN_EXE_trustmap"))
                .args(args)
                .stdout(writer)
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn trustmap");
            if read_first_line {
                let mut line = String::new();
                BufReader::with_capacity(64, reader)
                    .read_line(&mut line)
                    .expect("one line");
                assert!(!line.is_empty(), "{args:?} printed nothing");
            } else {
                drop(reader);
            }
            let mut stderr = String::new();
            child
                .stderr
                .take()
                .expect("piped stderr")
                .read_to_string(&mut stderr)
                .expect("utf-8 stderr");
            let status = child.wait().expect("trustmap exits");
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
            assert_eq!(status.code(), Some(0), "{args:?}: {stderr}");
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn skeptic_rejects_ties_with_the_reference_error() {
    let mut net = TrustNetwork::new();
    let (a, b, c) = (net.user("a"), net.user("b"), net.user("c"));
    let v = net.value("v");
    net.trust(a, b, 5).unwrap();
    net.trust(a, c, 5).unwrap();
    net.believe(b, v).unwrap();
    net.reject(c, NegSet::of([v])).unwrap();
    let expected = reference_skeptic(&net);
    assert!(
        expected.as_ref().is_err_and(|e| e.contains("tie")),
        "{expected:?}"
    );
    let path = write_net("tied", &net);
    assert_eq!(trustmap(&["skeptic", path.to_str().unwrap()]), expected);
    let _ = std::fs::remove_file(path);
}

#[test]
fn query_refuses_retired_strategy_names_like_the_parser() {
    let indus = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/indus.tn");
    for retired in [
        "compact-region-solve",
        "skeptic-resolve",
        "bulk-few-objects",
        "sharded-whole-solve",
        "incremental-patch",
        "whole-solve",
    ] {
        let text = format!("CERT Alice FORCE {retired}");
        let parse_error = parse_query(&text).unwrap_err().to_string();
        assert_eq!(
            parse_error,
            "unexpected FORCE (expected EXACT or @<lsn>) (at word 2)"
        );
        let words: Vec<&str> = text.split(' ').collect();
        assert_eq!(
            trustmap(&[&["query", indus], &words[..]].concat()),
            Err(format!("error: {parse_error}"))
        );
    }
}

/// `force` is a user name like any other, on the CLI and on the wire.
#[test]
fn a_user_named_force_is_queryable() {
    use trustmap::serve::{Frontend, Reply, ServeConfig};
    use trustmap::store::Store;

    let mut net = TrustNetwork::new();
    let force = net.user("Force");
    let fish = net.value("fish");
    net.believe(force, fish).unwrap();
    let path = write_net("force", &net);
    let rows = trustmap(&["query", path.to_str().unwrap(), "CERT Force"]).expect("runs");
    assert!(
        rows.lines()
            .any(|row| row.split_whitespace().eq(["Force", "fish", "[\"fish\"]"])),
        "{rows}"
    );
    let _ = std::fs::remove_file(path);

    let dir =
        std::env::temp_dir().join(format!("trustmap-cli-oracle-{}-force", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut recovered = Store::open(&dir).expect("fresh store");
    recovered
        .session
        .apply(move |n| {
            *n = net;
            Ok(())
        })
        .expect("import");
    let frontend = Frontend::new(
        recovered.session,
        Some(recovered.store),
        &ServeConfig::default(),
    );
    let mut reader = frontend.reader();
    for query in ["CERT Force", "cert Force", "POSS Force"] {
        let reply = frontend.handle(&mut reader, query);
        assert!(
            matches!(&reply, Reply::Line(line) if line.starts_with("OK fish ")),
            "{query}: {reply:?}"
        );
    }
    frontend.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
