//! `trustq` — the lexer/parser of the unified trust-query language.
//!
//! One textual surface desugars into the shared
//! [`trustmap_core::plan::Query`] AST, consumed identically by the serve
//! protocol's read verbs, the `trustmap` CLI, and (through
//! `Session::query`) the in-process API:
//!
//! ```text
//! query    := [EXPLAIN] (CERT | POSS) target modifier*
//! target   := '*' | '#'<digits> | <name>
//! modifier := EXACT | '@'<lsn>
//! ```
//!
//! Keywords are case-insensitive; user names are case-preserved and may
//! be any whitespace-free word that is not a keyword. Each modifier may
//! appear at most once, in any order. `Query`'s `Display` impl renders
//! the canonical form back, so `parse(q.to_string()) == q`.
//!
//! ```
//! use trustmap_relstore::trustq::parse_query;
//! use trustmap_core::QueryTarget;
//!
//! let q = parse_query("explain poss * exact").unwrap();
//! assert!(q.explain && q.exact);
//! assert_eq!(q.target, QueryTarget::All);
//! ```

use std::fmt;
use trustmap_core::{Query, QueryTarget, ReadKind, User};

/// A lexical token of the query language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// `EXPLAIN` (case-insensitive).
    Explain,
    /// `CERT`.
    Cert,
    /// `POSS`.
    Poss,
    /// `EXACT`.
    Exact,
    /// `*` — every user.
    Star,
    /// `#<digits>` — a user by interned handle.
    Handle(u32),
    /// `@<digits>` — an LSN pin.
    At(u64),
    /// Any other whitespace-free word (a user name).
    Word(String),
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Explain => f.write_str("EXPLAIN"),
            Token::Cert => f.write_str("CERT"),
            Token::Poss => f.write_str("POSS"),
            Token::Exact => f.write_str("EXACT"),
            Token::Star => f.write_str("*"),
            Token::Handle(h) => write!(f, "#{h}"),
            Token::At(lsn) => write!(f, "@{lsn}"),
            Token::Word(w) => f.write_str(w),
        }
    }
}

/// A parse failure: what went wrong and the word position (0-based) it
/// went wrong at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// 0-based index of the offending word (the token count for
    /// unexpected end of input).
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at word {})", self.message, self.position)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(message: impl Into<String>, position: usize) -> Result<T, ParseError> {
    Err(ParseError {
        message: message.into(),
        position,
    })
}

/// Tokenizes `input`. Words are whitespace-separated; keywords are
/// recognized case-insensitively, `*` / `#n` / `@n` structurally.
pub fn tokenize(input: &str) -> Result<Vec<Token>, ParseError> {
    let mut out = Vec::new();
    for (position, word) in input.split_whitespace().enumerate() {
        let token = match word.to_ascii_uppercase().as_str() {
            "EXPLAIN" => Token::Explain,
            "CERT" => Token::Cert,
            "POSS" => Token::Poss,
            "EXACT" => Token::Exact,
            "*" => Token::Star,
            _ if word.starts_with('#') => match word[1..].parse() {
                Ok(h) => Token::Handle(h),
                Err(_) => return err(format!("bad user handle {word:?}"), position),
            },
            _ if word.starts_with('@') => match word[1..].parse() {
                Ok(lsn) => Token::At(lsn),
                Err(_) => return err(format!("bad lsn {word:?}"), position),
            },
            _ => Token::Word(word.to_owned()),
        };
        out.push(token);
    }
    Ok(out)
}

/// Parses one query line into the shared [`Query`] AST.
pub fn parse_query(input: &str) -> Result<Query, ParseError> {
    let tokens = tokenize(input)?;
    let mut pos = 0;
    let next = |pos: &mut usize| -> Option<&Token> {
        let t = tokens.get(*pos);
        if t.is_some() {
            *pos += 1;
        }
        t
    };

    let mut explain = false;
    let kind = loop {
        match next(&mut pos) {
            Some(Token::Explain) if !explain => explain = true,
            Some(Token::Explain) => return err("duplicate EXPLAIN", pos - 1),
            Some(Token::Cert) => break ReadKind::Cert,
            Some(Token::Poss) => break ReadKind::Poss,
            Some(t) => return err(format!("expected CERT or POSS, found {t}"), pos - 1),
            None => return err("expected CERT or POSS", pos),
        }
    };

    let target = match next(&mut pos) {
        Some(Token::Star) => QueryTarget::All,
        Some(Token::Handle(h)) => QueryTarget::Handle(User(*h)),
        Some(Token::Word(name)) => QueryTarget::Named(name.clone()),
        Some(t) => return err(format!("expected a query target, found {t}"), pos - 1),
        None => return err("expected a query target (name, #handle, or *)", pos),
    };

    let mut query = match kind {
        ReadKind::Cert => Query::cert(target),
        ReadKind::Poss => Query::poss(target),
    };
    query.explain = explain;

    while let Some(token) = next(&mut pos) {
        match token {
            Token::Exact if !query.exact => query.exact = true,
            Token::Exact => return err("duplicate EXACT", pos - 1),
            Token::At(lsn) if query.pin.is_none() => query.pin = Some(*lsn),
            Token::At(_) => return err("duplicate @<lsn> pin", pos - 1),
            t => {
                return err(
                    format!("unexpected {t} (expected EXACT or @<lsn>)"),
                    pos - 1,
                )
            }
        }
    }
    Ok(query)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let q = parse_query("CERT alice").unwrap();
        assert_eq!(q.kind, ReadKind::Cert);
        assert_eq!(q.target, QueryTarget::Named("alice".into()));
        assert!(!q.exact && q.pin.is_none() && !q.explain);

        let q = parse_query("CERT alice EXACT @17").unwrap();
        assert!(q.exact);
        assert_eq!(q.pin, Some(17));

        // Modifier order is free.
        let q = parse_query("POSS bob @3 EXACT").unwrap();
        assert_eq!(q.kind, ReadKind::Poss);
        assert!(q.exact);
        assert_eq!(q.pin, Some(3));
    }

    #[test]
    fn parses_targets() {
        assert_eq!(parse_query("POSS *").unwrap().target, QueryTarget::All);
        assert_eq!(
            parse_query("CERT #7").unwrap().target,
            QueryTarget::Handle(User(7))
        );
        assert!(parse_query("explain cert *").unwrap().explain);
    }

    #[test]
    fn keywords_are_case_insensitive_names_are_not() {
        let q = parse_query("cert Alice").unwrap();
        assert_eq!(q.target, QueryTarget::Named("Alice".into()));
        // `force` is a name like any other.
        for name in ["force", "Force", "FORCE"] {
            let q = parse_query(&format!("CERT {name}")).unwrap();
            assert_eq!(q.target, QueryTarget::Named(name.into()));
        }
    }

    #[test]
    fn display_round_trips() {
        for text in [
            "CERT alice",
            "POSS *",
            "CERT #7 EXACT",
            "EXPLAIN POSS * EXACT",
            "CERT alice EXACT @42",
        ] {
            let q = parse_query(text).unwrap();
            assert_eq!(q.to_string(), text);
            assert_eq!(parse_query(&q.to_string()).unwrap(), q);
        }
    }

    #[test]
    fn a_trailing_word_names_the_modifiers() {
        for (text, word) in [
            ("CERT alice bob", "bob"),
            ("CERT alice FORCE whole-solve", "FORCE"),
        ] {
            assert_eq!(
                parse_query(text).unwrap_err().to_string(),
                format!("unexpected {word} (expected EXACT or @<lsn>) (at word 2)")
            );
        }
    }

    #[test]
    fn rejects_malformed_queries() {
        for bad in [
            "",
            "CERT",
            "FROB alice",
            "CERT alice EXACT EXACT",
            "CERT alice @nope",
            "CERT #x",
            "CERT alice FORCE warp-drive",
            "CERT alice bob",
            "EXPLAIN EXPLAIN CERT alice",
            "POSS * @1 @2",
        ] {
            assert!(parse_query(bad).is_err(), "{bad:?} should not parse");
        }
    }
}
