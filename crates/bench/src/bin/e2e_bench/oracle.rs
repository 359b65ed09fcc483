//! The correctness oracle: an in-process model of what the server was
//! told, resolved from scratch and compared with what the server says.

use crate::streams::CLIENTS;
use crate::wire::Conn;
use trustmap::resolution::UserResolution;
use trustmap::workloads::{apply_edit, ServeOp};
use trustmap::{TrustNetwork, User};

/// Checks made and checks failed; both feed the run's `attempted` /
/// `failed` counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub checked: u64,
    pub mismatched: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.checked += other.checked;
        self.mismatched += other.mismatched;
    }

    /// Records one named invariant, reporting a violation on stderr.
    pub fn expect(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !holds {
            self.mismatched += 1;
            eprintln!("oracle: {}", what());
        }
    }
}

/// Applies to `model` every write of `ops` whose reply was `OK`, in the
/// client's own order. Clients write disjoint users, so applying one
/// client after the other reaches the state the server reached whatever
/// the interleaving was.
pub fn apply_acked(model: &mut TrustNetwork, ops: &[ServeOp], acked: &[bool]) {
    for (op, &ok) in ops.iter().zip(acked) {
        if let (ServeOp::Write(edit), true) = (op, ok) {
            apply_edit(model, *edit);
        }
    }
}

/// The value text of a read reply (`OK <text> epoch=… lsn=…`).
fn reply_text(reply: &str) -> Option<&str> {
    let mut words = reply.split_whitespace();
    (words.next() == Some("OK")).then(|| words.next()).flatten()
}

fn expected_cert(net: &TrustNetwork, res: &UserResolution, u: User) -> String {
    res.cert(u)
        .map(|v| net.domain().name(v).to_string())
        .unwrap_or_else(|| "-".into())
}

/// Possible values as a sorted name list (the wire joins them with `,`
/// in the server's order; sets are what the semantics define).
fn expected_poss(net: &TrustNetwork, res: &UserResolution, u: User) -> Vec<String> {
    let mut names: Vec<String> = res
        .poss(u)
        .iter()
        .map(|&v| net.domain().name(v).to_string())
        .collect();
    names.sort_unstable();
    names
}

fn check_user(
    conn: &mut Conn,
    net: &TrustNetwork,
    res: &UserResolution,
    u: User,
    tally: &mut Tally,
) -> Result<(), String> {
    let name = net.user_name(u);
    let want = expected_cert(net, res, u);
    let reply = conn.ask(&format!("CERT {name}\n"))?;
    let got = reply_text(reply);
    tally.expect(got == Some(want.as_str()), || {
        format!("CERT {name}: server `{reply}`, model `{want}`")
    });

    let want = expected_poss(net, res, u);
    let reply = conn.ask(&format!("POSS {name}\n"))?;
    let mut got: Vec<&str> = match reply_text(reply) {
        Some("-") => Vec::new(),
        Some(text) => text.split(',').collect(),
        None => vec!["<not OK>"],
    };
    got.sort_unstable();
    tally.expect(got == want, || {
        format!("POSS {name}: server `{reply}`, model {want:?}")
    });
    Ok(())
}

/// Compares `CERT` and `POSS` of every user in `users` over the wire at
/// `addr` with `res`, the caller's `resolve_network(model)`, by name, on
/// [`CLIENTS`] connections.
pub fn sweep(
    addr: &str,
    model: &TrustNetwork,
    res: &UserResolution,
    users: &[User],
) -> Result<Tally, String> {
    let chunk = users.len().div_ceil(CLIENTS).max(1);
    let parts: Vec<Result<Tally, String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = users
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut conn = Conn::connect(addr)?;
                    let mut tally = Tally::default();
                    for &u in part {
                        check_user(&mut conn, model, res, u, &mut tally)?;
                    }
                    Ok(tally)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("oracle worker"))
            .collect()
    });
    let mut total = Tally::default();
    for part in parts {
        total.add(part?);
    }
    Ok(total)
}

/// Checks that two servers give the same `CERT`/`POSS` text for `users`
/// when both reads are pinned to `lsn` (follower ≡ leader at that LSN).
pub fn same_at_lsn(
    a: &mut Conn,
    b: &mut Conn,
    net: &TrustNetwork,
    users: &[User],
    lsn: u64,
) -> Result<Tally, String> {
    let mut tally = Tally::default();
    for &u in users {
        for verb in ["CERT", "POSS"] {
            let request = format!("{verb} {} @{lsn}\n", net.user_name(u));
            let left = reply_text(a.ask(&request)?).map(str::to_string);
            let right = reply_text(b.ask(&request)?).map(str::to_string);
            tally.expect(left.is_some() && left == right, || {
                format!(
                    "{}: leader {left:?}, follower {right:?}",
                    request.trim_end()
                )
            });
        }
    }
    Ok(tally)
}

/// An evenly spaced sample of `n` users (all of them if fewer exist).
pub fn sample_users(net: &TrustNetwork, n: usize) -> Vec<User> {
    let count = net.user_count();
    let step = (count / n.max(1)).max(1);
    (0..count)
        .step_by(step)
        .take(n)
        .map(|i| User(i as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustmap::resolve_network;

    #[test]
    fn reply_text_reads_ok_lines_only() {
        assert_eq!(reply_text("OK v1 epoch=3 lsn=9"), Some("v1"));
        assert_eq!(reply_text("OK - epoch=3 lsn=9"), Some("-"));
        assert_eq!(reply_text("ERR unknown user `x`"), None);
    }

    #[test]
    fn only_acked_writes_reach_the_model() {
        use trustmap::{Edit, Value};
        let mut model = TrustNetwork::new();
        let v = model.value("v0");
        model.add_users(2);
        let ops = [
            ServeOp::Write(Edit::Believe(User(0), v)),
            ServeOp::Cert(User(0)),
            ServeOp::Write(Edit::Believe(User(1), Value(0))),
        ];
        apply_acked(&mut model, &ops, &[true, true, false]);
        let res = resolve_network(&model).unwrap();
        assert_eq!(res.cert(User(0)), Some(v));
        assert_eq!(res.cert(User(1)), None);
        assert_eq!(sample_users(&model, 1_000).len(), 2);
    }
}
