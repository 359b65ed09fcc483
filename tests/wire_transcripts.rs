//! Golden wire transcripts: the protocol's reply bytes as a committed
//! contract.
//!
//! Each `tests/wire/*.txt` file is a conversation with one in-process
//! [`Frontend`] over `examples/indus.tn` imported into a fresh store
//! directory. A `> ` line is a request, the `< ` line after it the exact
//! reply; `#` lines and blank lines are commentary. A change to any reply
//! byte fails here, so it has to be made by editing the transcript.

use std::path::Path;
use std::time::Duration;
use trustmap::format::parse_network;
use trustmap::serve::{Frontend, Reply, ServeConfig};
use trustmap::store::{GroupCommitWindow, Store};

/// Imports `examples/indus.tn` into a fresh store at `dir` and starts a
/// frontend over it: one edit per commit, exact reads on, and a pin that
/// gives up after 50 ms so a transcript can show the timeout.
fn indus_frontend(dir: &Path) -> Frontend {
    let _ = std::fs::remove_dir_all(dir);
    let mut recovered = Store::open(dir).expect("fresh store");
    let text = include_str!("../examples/indus.tn");
    let indus = parse_network(text).expect("indus parses");
    recovered
        .session
        .apply(move |net| {
            *net = indus;
            Ok(())
        })
        .expect("import");
    Frontend::new(
        recovered.session,
        Some(recovered.store),
        &ServeConfig {
            window: GroupCommitWindow::per_edit(),
            exact: true,
            pin_timeout: Duration::from_millis(50),
            ..Default::default()
        },
    )
}

/// Replays one transcript, failing at the first reply that differs.
fn replay(name: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/wire")
        .join(name);
    let transcript = std::fs::read_to_string(&path).expect("transcript");
    let dir = std::env::temp_dir().join(format!("trustmap-wire-{}-{name}", std::process::id()));
    let frontend = indus_frontend(&dir);
    let mut reader = frontend.reader();
    let mut lines = transcript
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
    let mut exchanges = 0;
    while let Some((n, request)) = lines.next() {
        let request = request
            .strip_prefix("> ")
            .unwrap_or_else(|| panic!("{name}:{}: expected a `> ` request", n + 1));
        let expected = match lines.next() {
            Some((_, reply)) if reply.starts_with("< ") => &reply[2..],
            _ => panic!("{name}:{}: `{request}` has no `< ` reply", n + 1),
        };
        let got = match frontend.handle(&mut reader, request) {
            Reply::Line(line) => line,
            other => panic!("{name}:{}: `{request}` answered {other:?}", n + 1),
        };
        assert_eq!(got, expected, "{name}:{}: `{request}`", n + 1);
        exchanges += 1;
    }
    assert!(exchanges > 0, "{name} is empty");
    frontend.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn read_verbs_match_the_transcript() {
    replay("reads.txt");
}
