//! The old parser is the new one's oracle.
//!
//! `format::parse_network` tokenizes bytes: it splits lines at `\n`, ends
//! a line's content at the first `#`, and classifies ASCII whitespace
//! directly, decoding only non-ASCII characters. The implementation it
//! replaced — `lines()`, `split('#')`, `trim()`, `split_whitespace()` — is
//! kept here as the reference, and generated line soup must give the same
//! network (same ids, same beliefs, same rendering) or the same
//! `FormatError { line, message }` through both.

use proptest::prelude::*;
use trustmap::format::{parse_network, render_network, FormatError};
use trustmap::{NegSet, TrustNetwork};

/// `parse_network` as it was before it went byte-level.
fn reference_parse(text: &str) -> Result<TrustNetwork, FormatError> {
    let mut net = TrustNetwork::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut parts = content.split_whitespace();
        let verb = parts.next().expect("nonempty line");
        let err = |message: String| FormatError { line, message };
        match verb {
            "trust" => {
                let (child, parent, prio) = (
                    parts
                        .next()
                        .ok_or_else(|| err("trust needs: child parent priority".into()))?,
                    parts
                        .next()
                        .ok_or_else(|| err("trust needs: child parent priority".into()))?,
                    parts
                        .next()
                        .ok_or_else(|| err("trust needs: child parent priority".into()))?,
                );
                let priority: i64 = prio
                    .parse()
                    .map_err(|_| err(format!("bad priority `{prio}`")))?;
                let c = net.user(child);
                let p = net.user(parent);
                net.trust(c, p, priority).map_err(|e| err(e.to_string()))?;
            }
            "believe" => {
                let (user, value) = (
                    parts
                        .next()
                        .ok_or_else(|| err("believe needs: user value".into()))?,
                    parts
                        .next()
                        .ok_or_else(|| err("believe needs: user value".into()))?,
                );
                let u = net.user(user);
                let v = net.value(value);
                net.believe(u, v).map_err(|e| err(e.to_string()))?;
            }
            "reject" => {
                let (user, values) = (
                    parts
                        .next()
                        .ok_or_else(|| err("reject needs: user v1,v2,…".into()))?,
                    parts
                        .next()
                        .ok_or_else(|| err("reject needs: user v1,v2,…".into()))?,
                );
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
                let name = parts
                    .next()
                    .ok_or_else(|| err("value needs a name".into()))?;
                net.value(name);
            }
            "user" => {
                let name = parts
                    .next()
                    .ok_or_else(|| err("user needs a name".into()))?;
                net.user(name);
            }
            other => {
                return Err(err(format!(
                    "unknown directive `{other}` (expected trust/believe/reject/value/user)"
                )));
            }
        }
        if let Some(extra) = parts.next() {
            return Err(FormatError {
                line,
                message: format!("unexpected trailing token `{extra}`"),
            });
        }
    }
    Ok(net)
}

/// Whether two loaded networks are the same: ids, names, beliefs,
/// mappings in order, the priority of every ordered user pair and the
/// rendering.
fn same(new: &TrustNetwork, old: &TrustNetwork) -> bool {
    new.user_count() == old.user_count()
        && new.domain().len() == old.domain().len()
        && new.mappings() == old.mappings()
        && new
            .users()
            .all(|u| new.user_name(u) == old.user_name(u) && new.belief(u) == old.belief(u))
        && new.users().all(|c| {
            new.users()
                .all(|p| new.priority_of(c, p) == old.priority_of(c, p))
        })
        && new
            .domain()
            .values()
            .all(|v| new.domain().name(v) == old.domain().name(v))
        && render_network(new) == render_network(old)
}

/// Both parsers on `text`: equal errors, or equal networks — also after
/// one `trust` re-declaration on each, the first upsert a load's lazily
/// built edge index serves.
fn agree(text: &str) -> Result<(), String> {
    match (parse_network(text), reference_parse(text)) {
        (Err(new), Err(old)) if new == old => Ok(()),
        (Ok(mut new), Ok(mut old)) => {
            let mut same_before = same(&new, &old);
            if let Some(&m) = new.mappings().get(new.mapping_count() / 2) {
                let priority = m.priority.wrapping_add(1);
                new.trust(m.child, m.parent, priority)
                    .expect("a loaded edge");
                old.trust(m.child, m.parent, priority)
                    .expect("a loaded edge");
                same_before &= new.mapping_count() == old.mapping_count();
            }
            if same_before && same(&new, &old) {
                Ok(())
            } else {
                Err(format!(
                    "networks differ:\n{}\n-- reference --\n{}",
                    render_network(&new),
                    render_network(&old)
                ))
            }
        }
        (new, old) => Err(format!(
            "new {:?}\nreference {:?}",
            new.map(|n| render_network(&n)),
            old.map(|n| render_network(&n))
        )),
    }
}

/// What can stand between two tokens; the empty string glues them.
const SEPARATORS: [&str; 11] = [
    " ", "  ", "\t", "\x0b", "\x0c", "\r", "\u{a0}", "\u{2003}", "\u{85}", " \t ", "",
];

/// Directives, names, numbers at and past both ends of `i64`, reject
/// lists with empty members, comments, and whitespace that only
/// `char::is_whitespace` knows — inside tokens as well as between them.
const TOKENS: [&str; 36] = [
    "trust",
    "believe",
    "reject",
    "value",
    "user",
    "bogus",
    "Trust",
    "a",
    "b",
    "c",
    "alice",
    "v1",
    "cow,horse",
    "cow",
    ",,",
    ",",
    "x,,y,",
    "5",
    "-7",
    "+3",
    "9223372036854775807",
    "-9223372036854775808",
    "9223372036854775808",
    "-9223372036854775809",
    "1e3",
    "a#b",
    "#",
    "# a note",
    "na\u{a0}me",
    "em\u{2003}space",
    "next\u{85}line",
    "zero\u{200b}width",
    "é",
    "日本",
    "\u{1f980}",
    "\u{feff}",
];

/// How a line ends; the empty ending glues it to the next one.
const ENDINGS: [&str; 5] = ["\n", "\n", "\r\n", "\r", ""];

/// The ordered pairs of distinct names over a 3-name pool.
const POOL: [(&str, &str); 6] = [
    ("a", "b"),
    ("a", "c"),
    ("b", "a"),
    ("b", "c"),
    ("c", "a"),
    ("c", "b"),
];

/// One line: 5 in 13 a directive with the right number of arguments (so
/// files get past their first line), 3 in 13 a well-formed `trust` over
/// the 3-name pool (so files re-declare edges), else free soup.
fn line() -> impl Strategy<Value = String> {
    let picks = proptest::collection::vec((0..SEPARATORS.len(), 0..TOKENS.len()), 0..7);
    (0..13usize, picks, 0..SEPARATORS.len(), 0..ENDINGS.len()).prop_map(
        |(shape, picks, lead, ending)| {
            let mut text = SEPARATORS[lead].to_owned();
            let arity = [3, 2, 2, 1, 1];
            if (5..8).contains(&shape) {
                let (sep, token) = picks.first().copied().unwrap_or((0, 0));
                let (child, parent) = POOL[token % POOL.len()];
                // A priority in range: `5`, `-7`, `+3` or either end of `i64`.
                let priority = TOKENS[17 + (token + shape) % 5];
                let sep = SEPARATORS[sep % 10];
                text += &["trust", child, parent, priority].join(sep);
            } else if shape < arity.len() {
                text += TOKENS[shape];
                for i in 0..arity[shape] {
                    let (sep, token) = picks.get(i).copied().unwrap_or((0, 7 + i));
                    // A real separator (not the gluing one) and an argument
                    // that is no directive; a trust line's last is a number.
                    text += SEPARATORS[sep % 10];
                    text += if shape == 0 && i == 2 {
                        TOKENS[17 + token % 8]
                    } else {
                        TOKENS[7 + token % 29]
                    };
                }
                for &(sep, token) in picks.iter().skip(5) {
                    text += SEPARATORS[sep];
                    text += TOKENS[token];
                }
            } else {
                for &(sep, token) in &picks {
                    text += TOKENS[token];
                    text += SEPARATORS[sep];
                }
            }
            text + ENDINGS[ending]
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn byte_parser_matches_the_reference(lines in proptest::collection::vec(line(), 0..10)) {
        let text = lines.concat();
        if let Err(why) = agree(&text) {
            return Err(TestCaseError::fail(format!("{text:?}: {why}")));
        }
    }
}

/// The cases the issue names, spelled out (the property also finds them).
#[test]
fn named_corner_cases_agree() {
    for text in [
        "",
        "\n",
        "\r",
        "\r\n",
        "#",
        "# only a comment",
        "trust a b 1",
        "trust a b 1\r\ntrust b c 2\r\n",
        "trust a b 1\rtrust b c 2",
        "user a\r",
        "user a\x0buser",
        "user\x0ca\x0c",
        "user\u{a0}a",
        "user a\u{a0}b",
        "user a\u{2003}",
        "user\u{85}a\u{85}",
        "value é\nvalue 日本\nbelieve é 日本",
        "user a#b",
        "user #a",
        "#user a\nuser b",
        "trust a b 1 # why not",
        "trust a b 1# glued",
        "trust a b # 1",
        "reject a ,,",
        "reject a ,",
        "reject a",
        "reject a x,,y,",
        "reject",
        "trust a b",
        "trust a",
        "trust",
        "believe a",
        "value",
        "user",
        "user a b",
        "trust a b 1 2",
        "trust a a 1",
        "trust a b 9223372036854775807\ntrust b a -9223372036854775808",
        "trust a b 9223372036854775808",
        "trust a b -9223372036854775809",
        "trust a b +3",
        "trust a b 1e3",
        "bogus x",
        "Trust a b 1",
        "trusta b 1",
        "user a\n\n\nbogus",
        "user a\r\r\nbogus",
        "user a\n\u{85}\nbogus",
        "user a\n",
        "user a\n\n",
        "user \u{feff}a",
        "\u{feff}user a",
        "trust a b 1\ntrust a b 2\ntrust a b 3",
        "trust a b 5\ntrust b a 1\nbelieve a v\ntrust a b -7\ntrust a c 2\ntrust a b 5",
        "trust a b 1\nuser d\ntrust c a 4\ntrust a b 9223372036854775807\ntrust c a -1\n\
         trust a b -9223372036854775808\n# again\ntrust a b 0 # last wins\ntrust c a 4",
        "trust a b 1\ntrust a c 1\ntrust a b 2\ntrust b c 3\ntrust a c 4\ntrust a b 5\n\
         trust b c 6\ntrust c b 7\ntrust a b 8",
        "trust a b 1\ntrust a b 2\ntrust b b 3",
        "trust a b 1\ntrust a b 2\ntrust a b x",
    ] {
        agree(text).unwrap_or_else(|why| panic!("{text:?}: {why}"));
    }
}
