//! The oracles' kill table: applies each mutant of `tests/mutants.txt` to
//! a copy of the tree, runs the tests that must catch it in release, and
//! prints a killed/survived table.
//!
//! ```text
//! cargo run --release -p trustmap-bench --bin mutants -- \
//!     [--tree DIR] [--table FILE] [--target-dir DIR] [ID ...]
//! ```
//!
//! Defaults: the current directory, `<tree>/tests/mutants.txt` and
//! `<tree>/target/mutants`. The copy lives in `<target-dir>/tree` and is
//! kept between runs, so a mutant costs an incremental rebuild of the
//! crates it touches. Naming ids runs only those mutants. Every named test
//! must first pass on the unmutated copy, or "killed" would mean nothing.
//!
//! Table format (`#` starts a comment line):
//!
//! ```text
//! [id] what the mutant breaks
//! file <path relative to the tree>
//! find <snippet that occurs exactly once in that file>
//! into <its replacement>
//! kill <test binary> <test name>           (a root integration test)
//! kill lib:<package> <module::test_name>   (a package's unit test)
//! ```
//!
//! A mutant may carry several edits and several `kill` lines; each `kill`
//! test must fail. A mutant that does not build is `unviable`. Exit status:
//! 0 when every mutant is killed, 1 otherwise, 2 on a bad table or a
//! failing baseline.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// `(file, find, into)`.
type Edit = (String, String, String);
/// `(target, test name)`.
type Kill = (String, String);

struct Mutant {
    id: String,
    what: String,
    edits: Vec<Edit>,
    kills: Vec<Kill>,
}

fn parse_table(text: &str) -> Result<Vec<Mutant>, String> {
    let mut mutants: Vec<Mutant> = Vec::new();
    let (mut file, mut find) = (None::<String>, None::<String>);
    for (i, line) in text.lines().enumerate() {
        let err = |msg: &str| format!("line {}: {msg}", i + 1);
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let (id, what) = rest.split_once(']').ok_or_else(|| err("unclosed ["))?;
            mutants.push(Mutant {
                id: id.to_owned(),
                what: what.trim().to_owned(),
                edits: Vec::new(),
                kills: Vec::new(),
            });
            continue;
        }
        let m = mutants.last_mut().ok_or_else(|| err("entry before [id]"))?;
        let (key, value) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "file" => file = Some(value.trim().to_owned()),
            "find" => find = Some(value.to_owned()),
            "into" => {
                let file = file.clone().ok_or_else(|| err("into without file"))?;
                let find = find.take().ok_or_else(|| err("into without find"))?;
                m.edits.push((file, find, value.to_owned()));
            }
            "kill" => {
                let (target, name) = value
                    .trim()
                    .split_once(' ')
                    .ok_or_else(|| err("kill <target> <name>"))?;
                m.kills.push((target.to_owned(), name.trim().to_owned()));
            }
            other => return Err(err(&format!("unknown key {other:?}"))),
        }
    }
    match mutants
        .iter()
        .find(|m| m.edits.is_empty() || m.kills.is_empty())
    {
        Some(m) => Err(format!("[{}] needs an edit and a kill", m.id)),
        None => Ok(mutants),
    }
}

/// Copies `src` to `dst` without build output or version control, leaving
/// files that are already identical untouched (cargo keeps their builds).
fn copy_tree(src: &Path, dst: &Path) -> std::io::Result<()> {
    fs::create_dir_all(dst)?;
    for entry in fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_name() == "target" || entry.file_name() == ".git" {
            continue;
        }
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &to)?;
        } else {
            let bytes = fs::read(entry.path())?;
            if fs::read(&to).ok() != Some(bytes.clone()) {
                fs::write(&to, bytes)?;
            }
        }
    }
    Ok(())
}

/// Runs one test in release: `Some(true)` if it passed, `Some(false)` if
/// it failed, `None` if it did not build or matched no test.
fn run_test(tree: &Path, target_dir: &Path, (target, name): &Kill) -> Option<bool> {
    let cargo = |extra: &[&str]| {
        let mut cmd = Command::new("cargo");
        cmd.current_dir(tree).env("CARGO_TARGET_DIR", target_dir);
        cmd.args(["test", "--release", "-q"]);
        match target.strip_prefix("lib:") {
            Some(pkg) => cmd.args(["-p", pkg, "--lib"]),
            None => cmd.args(["--test", target]),
        };
        cmd.args(extra).output().expect("cargo runs")
    };
    if !cargo(&["--no-run"]).status.success() {
        return None;
    }
    let out = cargo(&["--", "--exact", name]);
    let ran = String::from_utf8_lossy(&out.stdout).contains("1 passed");
    match out.status.success() {
        true => ran.then_some(true),
        false => Some(false),
    }
}

/// Applies one edit, returning the file's original text.
fn apply(tree: &Path, (file, find, into): &Edit) -> Result<String, String> {
    let path = tree.join(file);
    let original = fs::read_to_string(&path).map_err(|e| format!("{file}: {e}"))?;
    match original.matches(find.as_str()).count() {
        1 => fs::write(&path, original.replacen(find, into, 1))
            .map(|()| original)
            .map_err(|e| format!("{file}: {e}")),
        n => Err(format!("{file}: snippet occurs {n} times: {find}")),
    }
}

fn main() -> ExitCode {
    let (mut tree, mut table, mut target_dir) = (PathBuf::from("."), None, None);
    let mut only: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || PathBuf::from(args.next().expect("flag needs a value"));
        match arg.as_str() {
            "--tree" => tree = value(),
            "--table" => table = Some(value()),
            "--target-dir" => target_dir = Some(value()),
            _ => only.push(arg),
        }
    }
    let tree = tree.canonicalize().expect("tree exists");
    let table = table.unwrap_or_else(|| tree.join("tests/mutants.txt"));
    let target_dir = target_dir.unwrap_or_else(|| tree.join("target/mutants"));
    let mutants: Vec<Mutant> = match parse_table(&fs::read_to_string(&table).expect("table")) {
        Ok(ms) => ms
            .into_iter()
            .filter(|m| only.is_empty() || only.contains(&m.id))
            .collect(),
        Err(e) => {
            eprintln!("{}: {e}", table.display());
            return ExitCode::from(2);
        }
    };
    let work = target_dir.join("tree");
    copy_tree(&tree, &work).expect("tree copies");

    let mut baseline: Vec<&Kill> = mutants.iter().flat_map(|m| &m.kills).collect();
    baseline.sort();
    baseline.dedup();
    for kill in baseline {
        if run_test(&work, &target_dir, kill) != Some(true) {
            eprintln!("baseline: {} {} does not pass unmutated", kill.0, kill.1);
            return ExitCode::from(2);
        }
    }

    let mut bad = 0usize;
    println!("{:<10} {:<9} test", "mutant", "result");
    for m in &mutants {
        let mut originals: Vec<(PathBuf, String)> = Vec::new();
        let applied = m.edits.iter().try_for_each(|edit| {
            apply(&work, edit).map(|original| originals.push((work.join(&edit.0), original)))
        });
        match applied {
            Err(e) => {
                println!("{:<10} {:<9} {e}", m.id, "malformed");
                bad += 1;
            }
            Ok(()) => {
                for kill in &m.kills {
                    let result = match run_test(&work, &target_dir, kill) {
                        Some(false) => "killed",
                        Some(true) => "SURVIVED",
                        None => "unviable",
                    };
                    bad += usize::from(result != "killed");
                    println!("{:<10} {:<9} {} {}", m.id, result, kill.0, kill.1);
                }
            }
        }
        println!("{:<20} ({})", "", m.what);
        // Restore in reverse, so two edits of one file unwind in order.
        for (path, original) in originals.into_iter().rev() {
            fs::write(path, original).expect("restore");
        }
    }
    if bad == 0 {
        println!("all {} mutants killed", mutants.len());
        ExitCode::SUCCESS
    } else {
        println!("{bad} kill checks failed");
        ExitCode::from(1)
    }
}
