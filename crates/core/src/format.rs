//! A line-oriented text format for trust networks, used by the `trustmap`
//! CLI and handy for fixtures:
//!
//! ```text
//! # Figure 2 of the paper
//! trust   Alice  Bob      100
//! trust   Alice  Charlie  50
//! trust   Bob    Alice    80
//! believe Bob     fish
//! believe Charlie knot
//! reject  Dana    cow,horse      # constraint: negative beliefs
//! ```
//!
//! Lines end at `\n` and nowhere else: a `\r`, alone or before the `\n`,
//! is whitespace like any other, so CRLF files parse and a bare `\r` does
//! not advance the line number an error reports. A `#` ends a line's
//! content wherever it stands, mid-token included. What is left splits
//! into tokens at exactly the characters [`char::is_whitespace`] accepts —
//! tab, vertical tab, form feed, space, and the Unicode spaces (U+0085,
//! U+00A0, U+2003, …) — so a non-breaking space inside a name splits it.
//! A reject list splits at `,` and drops empty members. The parser reads
//! ASCII bytes directly and decodes only non-ASCII characters;
//! `tests/format_oracle.rs` pins all of this, error text and line numbers
//! included, against the `lines()` / `split_whitespace()` parser it
//! replaced.
//!
//! Users and values are created on first mention. `parse_network` and
//! [`render_network`] round-trip *id-exactly*: the renderer declares every
//! user and value in interning order before any edge or belief, so the
//! re-parsed network assigns identical [`crate::User`] / [`crate::Value`]
//! ids — the property the `trustmap-store` snapshot text flavor relies on
//! (WAL records reference users and values by id).

use crate::error::Error;
use crate::network::{Mapping, TrustNetwork};
use crate::signed::{ExplicitBelief, NegSet};
use std::fmt::{self, Write as _};

/// A format error with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for FormatError {}

/// What a character of a line is to the tokenizer.
#[derive(Clone, Copy, PartialEq)]
enum Class {
    /// Separates tokens: exactly the characters of [`char::is_whitespace`].
    Space,
    /// `#`: the line ends here.
    Comment,
    /// Anything else: part of a token.
    Token,
}

/// The end of the run of `class` characters of `s` that starts at byte
/// `from`. ASCII bytes are classified directly; only a non-ASCII
/// character is decoded and asked [`char::is_whitespace`].
fn run_end(s: &str, from: usize, class: Class) -> usize {
    let bytes = s.as_bytes();
    let mut i = from;
    while i < bytes.len() {
        let (found, len) = match bytes[i] {
            b'\t'..=b'\r' | b' ' => (Class::Space, 1),
            b'#' => (Class::Comment, 1),
            0..=0x7f => (Class::Token, 1),
            // `i` advances by whole characters, so it is on a boundary.
            _ => {
                let c = s[i..].chars().next().expect("i < len");
                let found = if c.is_whitespace() {
                    Class::Space
                } else {
                    Class::Token
                };
                (found, c.len_utf8())
            }
        };
        if found != class {
            break;
        }
        i += len;
    }
    i
}

/// The tokens of one line up to its comment, with the token boundaries
/// of `str::split_whitespace` over the text before the first `#`.
struct Tokens<'a> {
    rest: &'a str,
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let start = run_end(self.rest, 0, Class::Space);
        let end = run_end(self.rest, start, Class::Token);
        if start == end {
            // End of the line, or of its content at a `#`.
            self.rest = "";
            return None;
        }
        let token = &self.rest[start..end];
        self.rest = &self.rest[end..];
        Some(token)
    }
}

/// Parses the text format into a network.
///
/// One pass over the bytes: names are interned straight from slices of
/// `text`, and nothing is allocated per line. Mappings are checked on
/// their line and declared at the end in one
/// [`TrustNetwork::with_mappings`], so a load builds no edge index.
pub fn parse_network(text: &str) -> Result<TrustNetwork, FormatError> {
    let mut net = TrustNetwork::new();
    let mut mappings = Vec::new();
    for (i, raw) in text.split('\n').enumerate() {
        let line = i + 1;
        let mut parts = Tokens { rest: raw };
        let Some(verb) = parts.next() else {
            continue;
        };
        let err = |message: String| FormatError { line, message };
        let mut need = |what: &str| parts.next().ok_or_else(|| err(what.into()));
        match verb {
            "trust" => {
                let what = "trust needs: child parent priority";
                let (child, parent, prio) = (need(what)?, need(what)?, need(what)?);
                let priority: i64 = prio
                    .parse()
                    .map_err(|_| err(format!("bad priority `{prio}`")))?;
                let c = net.user(child);
                let p = net.user(parent);
                if c == p {
                    return Err(err(Error::SelfTrust(c).to_string()));
                }
                mappings.push(Mapping {
                    parent: p,
                    child: c,
                    priority,
                });
            }
            "believe" => {
                let what = "believe needs: user value";
                let (user, value) = (need(what)?, need(what)?);
                let u = net.user(user);
                let v = net.value(value);
                net.believe(u, v).map_err(|e| err(e.to_string()))?;
            }
            "reject" => {
                let what = "reject needs: user v1,v2,…";
                let (user, values) = (need(what)?, need(what)?);
                let u = net.user(user);
                let vs: Vec<_> = values
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|name| net.value(name))
                    .collect();
                if vs.is_empty() {
                    return Err(err("reject needs at least one value".into()));
                }
                net.reject(u, NegSet::of(vs))
                    .map_err(|e| err(e.to_string()))?;
            }
            "value" => {
                net.value(need("value needs a name")?);
            }
            "user" => {
                net.user(need("user needs a name")?);
            }
            other => {
                return Err(err(format!(
                    "unknown directive `{other}` (expected trust/believe/reject/value/user)"
                )));
            }
        }
        if let Some(extra) = parts.next() {
            return Err(err(format!("unexpected trailing token `{extra}`")));
        }
    }
    Ok(net
        .with_mappings(mappings)
        .expect("every mapping was checked on its line"))
}

/// Renders a network back into the text format.
///
/// Users and values are declared first, in interning order, so parsing the
/// output reproduces the exact id assignment of `net` (not just an
/// isomorphic network).
///
/// The text format is **not total**: names containing whitespace, `#`, or
/// `,` do not survive tokenization, and co-finite constraint sets render
/// as the finite list of currently-interned rejected values (losing the
/// "and every future value" semantics). Durable storage therefore uses
/// the binary network codec of `trustmap-store` and only writes this
/// rendering as a debug artifact when it is faithful.
pub fn render_network(net: &TrustNetwork) -> String {
    // One buffer, sized for short names (`user u123456` is 12 bytes,
    // `trust u123456 u234567 50` is 24); `write!` into a `String` cannot
    // fail.
    let mut out = String::with_capacity(
        16 * (net.user_count() + net.domain().len()) + 24 * net.mapping_count(),
    );
    let users = |u| net.user_name(u);
    let values = |v| net.domain().name(v);
    for u in net.users() {
        let _ = writeln!(out, "user {}", users(u));
    }
    for v in net.domain().values() {
        let _ = writeln!(out, "value {}", values(v));
    }
    for m in net.mappings() {
        let (child, parent) = (users(m.child), users(m.parent));
        let _ = writeln!(out, "trust {child} {parent} {}", m.priority);
    }
    for u in net.users() {
        match net.belief(u) {
            ExplicitBelief::None => {}
            ExplicitBelief::Pos(v) => {
                let _ = writeln!(out, "believe {} {}", users(u), values(*v));
            }
            ExplicitBelief::Negs(neg) => {
                let mut rejected = net.domain().values().filter(|&v| neg.contains(v));
                if let Some(first) = rejected.next() {
                    let _ = write!(out, "reject {} {}", users(u), values(first));
                    for v in rejected {
                        let _ = write!(out, ",{}", values(v));
                    }
                    out.push('\n');
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolution::resolve_network;

    const FIXTURE: &str = "
        # Figure 2
        trust   Alice  Bob      100
        trust   Alice  Charlie  50
        trust   Bob    Alice    80
        believe Bob     fish
        believe Charlie knot
    ";

    #[test]
    fn parses_figure_2() {
        let net = parse_network(FIXTURE).unwrap();
        assert_eq!(net.user_count(), 3);
        assert_eq!(net.mapping_count(), 3);
        let alice = net.find_user("Alice").unwrap();
        let r = resolve_network(&net).unwrap();
        assert_eq!(r.cert(alice).map(|v| net.domain().name(v)), Some("fish"));
    }

    #[test]
    fn round_trips() {
        let net = parse_network(FIXTURE).unwrap();
        let text = render_network(&net);
        let net2 = parse_network(&text).unwrap();
        assert_eq!(net.user_count(), net2.user_count());
        assert_eq!(net.mapping_count(), net2.mapping_count());
        let r1 = resolve_network(&net).unwrap();
        let r2 = resolve_network(&net2).unwrap();
        for u in net.users() {
            let u2 = net2.find_user(net.user_name(u)).unwrap();
            let names = |vals: &[crate::value::Value], net: &TrustNetwork| {
                vals.iter()
                    .map(|&v| net.domain().name(v).to_owned())
                    .collect::<Vec<_>>()
            };
            assert_eq!(names(r1.poss(u), &net), names(r2.poss(u2), &net2));
        }
    }

    #[test]
    fn rejects_report_line_numbers() {
        let err = parse_network("trust a b 1\nbogus x").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("bogus"));
        let err = parse_network("trust a b notanumber").unwrap_err();
        assert!(err.message.contains("priority"));
        let err = parse_network("trust a a 1").unwrap_err();
        assert!(err.message.contains("cannot trust themselves"));
        // A self-trust is refused on its own line, not at the end of the file.
        let err = parse_network("trust a b 1\ntrust a b 2\n\ntrust b b 1\nbogus").unwrap_err();
        assert_eq!(err.line, 4);
        assert_eq!(err.message, "user u1 cannot trust themselves");
    }

    #[test]
    fn redeclared_edges_keep_their_place_and_last_priority() {
        let net = parse_network("trust a b 1\ntrust a c 2\nuser d\ntrust a b 3").unwrap();
        assert!(!net.index_built());
        assert_eq!(
            render_network(&net),
            "user a\nuser b\nuser c\nuser d\ntrust a b 3\ntrust a c 2\n"
        );
    }

    #[test]
    fn constraints_round_trip() {
        let text = "reject bob cow,horse\nbelieve alice cow\ntrust carol bob 5";
        let net = parse_network(text).unwrap();
        let rendered = render_network(&net);
        assert!(rendered.contains("reject bob cow,horse"));
        let net2 = parse_network(&rendered).unwrap();
        assert!(net2.has_negative_beliefs());
    }

    #[test]
    fn round_trips_are_id_exact() {
        // Interleave creations so interning order differs from first
        // mention in edges/beliefs; the rendered form must still assign
        // identical ids on re-parse (the snapshot text flavor depends on
        // this — WAL records address users and values by id).
        let mut net = TrustNetwork::new();
        let spare = net.value("spare"); // never referenced by a belief
        let b = net.user("b");
        let a = net.user("a");
        let v = net.value("v");
        net.trust(a, b, 3).unwrap();
        net.believe(b, v).unwrap();
        let net2 = parse_network(&render_network(&net)).unwrap();
        assert_eq!(net2.find_user("a"), Some(a));
        assert_eq!(net2.find_user("b"), Some(b));
        assert_eq!(net2.domain().get("spare"), Some(spare));
        assert_eq!(net2.domain().get("v"), Some(v));
        assert_eq!(render_network(&net), render_network(&net2));
    }

    #[test]
    fn renders_the_shipped_example_byte_for_byte() {
        let net = parse_network(include_str!("../../../examples/indus.tn")).unwrap();
        assert_eq!(
            render_network(&net),
            "user Alice\nuser Bob\nuser Charlie\nvalue fish\nvalue knot\n\
             trust Alice Bob 100\ntrust Alice Charlie 50\ntrust Bob Alice 80\n\
             believe Bob fish\nbelieve Charlie knot\n"
        );
        // Constraints render as one comma-joined line, values in id order;
        // an empty constraint renders as nothing.
        let mut net = parse_network("value a\nvalue b\nvalue c\nreject x c,a\nuser y").unwrap();
        let y = net.find_user("y").unwrap();
        net.reject(y, NegSet::empty()).unwrap();
        assert_eq!(
            render_network(&net),
            "user x\nuser y\nvalue a\nvalue b\nvalue c\nreject x a,c\n"
        );
    }

    #[test]
    fn comments_and_blank_lines() {
        let net = parse_network("# only comments\n\n   \n# more").unwrap();
        assert_eq!(net.user_count(), 0);
    }
}
