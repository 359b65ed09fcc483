//! Request streams: generated from the seed, partitioned by client, and
//! rendered to protocol lines before any clock starts.

use trustmap::workloads::{serve_stream, ServeMix, ServeOp, Workload};
use trustmap::{Edit, User};

/// Closed-loop client threads (and connections per server). The sandbox
/// has two cores, and the server serves one connection per worker.
pub const CLIENTS: usize = 2;

/// Request lines in one buffer, each ending in `\n`, so a request is one
/// `write_all` of a slice and four million lines cost no allocation each.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Lines {
    buf: String,
    ends: Vec<u32>,
}

impl Lines {
    pub fn push(&mut self, line: &str) {
        self.buf.push_str(line);
        self.buf.push('\n');
        self.ends
            .push(u32::try_from(self.buf.len()).expect("request buffer under 4 GiB"));
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Line `i`, newline included.
    pub fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.buf[start..self.ends[i] as usize]
    }

    pub fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// Which user a write drawn for `user` lands on.
///
/// First into the newer half of the community: the generator attaches
/// preferentially, so the oldest users are hubs whose every edit
/// re-solves a region of thousands, and whether the Zipf-hot written key
/// is a hub is a lottery of the seed — it moved write throughput by a
/// third and restart time tenfold between seeds. Writers at the
/// periphery (regions of a few nodes) keep the skew and make every seed
/// the same difficulty. Then into `client`'s partition: users pair up as
/// (2k, 2k+1) and client `i` owns the one with `index % CLIENTS == i`.
fn written_as(user: User, client: usize, users: usize) -> User {
    let late = (users / 2 + user.index() / 2) as u32;
    if late as usize % CLIENTS == client {
        User(late)
    } else {
        User(late ^ 1)
    }
}

/// Client `client`'s stream of `steps` requests over `w`: the seeded
/// Zipf stream of `serve_stream`, with every *written* user remapped by
/// [`written_as`]. No two clients ever write the same user, so the final
/// network does not depend on how the server interleaved them and an
/// in-process model can check it. Reads keep their drawn users.
pub fn client_ops(
    w: &Workload,
    client: usize,
    steps: usize,
    mix: ServeMix,
    seed: u64,
) -> Vec<ServeOp> {
    assert!(client < CLIENTS);
    let users = w.net.user_count();
    assert!(
        users.is_multiple_of(2 * CLIENTS),
        "partitioning pairs up the users of the newer half"
    );
    let stream_seed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(client as u64 + 1);
    let mut ops = serve_stream(w, steps, mix, stream_seed);
    for op in &mut ops {
        if let ServeOp::Write(edit) = op {
            *edit = match *edit {
                Edit::Believe(u, v) => Edit::Believe(written_as(u, client, users), v),
                Edit::Revoke(u) => Edit::Revoke(written_as(u, client, users)),
                Edit::Trust {
                    child,
                    parent,
                    priority,
                } => {
                    let child = written_as(child, client, users);
                    // The remap may land the child on its own parent; the
                    // pair partner is then a valid, different parent.
                    let parent = if parent == child {
                        User(parent.0 ^ 1)
                    } else {
                        parent
                    };
                    Edit::Trust {
                        child,
                        parent,
                        priority,
                    }
                }
            };
        }
    }
    ops
}

/// Renders ops as the line protocol speaks them (names, not handles).
pub fn render(w: &Workload, ops: &[ServeOp]) -> Lines {
    let name = |u: User| w.net.user_name(u);
    let mut lines = Lines::default();
    for op in ops {
        let line = match *op {
            ServeOp::Cert(u) => format!("CERT {}", name(u)),
            ServeOp::Poss(u) => format!("POSS {}", name(u)),
            ServeOp::Write(Edit::Believe(u, v)) => {
                format!("BELIEVE {} {}", name(u), w.net.domain().name(v))
            }
            ServeOp::Write(Edit::Revoke(u)) => format!("REVOKE {}", name(u)),
            ServeOp::Write(Edit::Trust {
                child,
                parent,
                priority,
            }) => format!("TRUST {} {} {priority}", name(child), name(parent)),
        };
        lines.push(&line);
    }
    lines
}

/// A read-only mix (the warm-up and the `wire_reads` stream).
pub fn reads_only() -> ServeMix {
    ServeMix {
        read_fraction: 1.0,
        ..Default::default()
    }
}

/// A write-only mix (`EditMix::default()` proportions).
pub fn writes_only() -> ServeMix {
    ServeMix {
        read_fraction: 0.0,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustmap::workloads::power_law;

    /// The user whose state a write changes (a trust mapping belongs to
    /// the child that declares it).
    fn written_user(edit: &Edit) -> User {
        match edit {
            Edit::Believe(u, _) | Edit::Revoke(u) => *u,
            Edit::Trust { child, .. } => *child,
        }
    }

    #[test]
    fn client_streams_are_deterministic_and_disjoint_in_written_users() {
        let w = power_law(400, 2, 4, 0.2, 3);
        let mut written: Vec<Vec<User>> = Vec::new();
        for client in 0..CLIENTS {
            let ops = client_ops(&w, client, 3_000, ServeMix::default(), 7);
            let again = client_ops(&w, client, 3_000, ServeMix::default(), 7);
            assert_eq!(ops, again, "same seed, same ops");
            assert_eq!(
                render(&w, &ops),
                render(&w, &again),
                "same seed, byte-identical request lines"
            );
            assert_ne!(ops, client_ops(&w, client, 3_000, ServeMix::default(), 8));
            let users: Vec<User> = ops
                .iter()
                .filter_map(|op| match op {
                    ServeOp::Write(e) => Some(written_user(e)),
                    _ => None,
                })
                .collect();
            assert!(!users.is_empty());
            assert!(users.iter().all(|u| u.index() % CLIENTS == client));
            assert!(users.iter().all(|u| u.index() >= 200), "newer half only");
            for op in &ops {
                if let ServeOp::Write(Edit::Trust { child, parent, .. }) = op {
                    assert_ne!(child, parent, "no self-trust after the remap");
                }
            }
            written.push(users);
        }
        assert!(written[0].iter().all(|u| !written[1].contains(u)));
        assert_ne!(
            client_ops(&w, 0, 100, ServeMix::default(), 7),
            client_ops(&w, 1, 100, ServeMix::default(), 7),
            "clients draw different streams"
        );
    }

    #[test]
    fn lines_index_back_to_what_was_pushed() {
        let mut lines = Lines::default();
        lines.push("CERT u1");
        lines.push("BELIEVE u2 v0");
        assert_eq!(lines.len(), 2);
        assert_eq!(lines.get(0), "CERT u1\n");
        assert_eq!(lines.get(1), "BELIEVE u2 v0\n");
        assert_eq!(lines.iter().count(), 2);
    }
}
