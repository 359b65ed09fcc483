//! `e2e_bench` — the repository's benchmark: four workloads against the
//! real `trustmap` binary (over TCP and over the CLI), a correctness
//! oracle, and a separate in-process traced run that prices each layer.
//! See `README.md` beside this file.
//!
//! ```text
//! cargo build --release --workspace
//! target/release/e2e_bench [--workload <name>]… [--seed N] [--seconds N]
//!                          [--trace [0|1]] [--quick] [--out <file>]
//! target/release/e2e_bench --check BENCHMARK.json
//! ```

mod e2e;
mod json;
mod layers;
mod oracle;
mod procs;
mod spec;
mod stats;
mod streams;
mod trace;
mod wire;

use json::Json;
use std::process::ExitCode;

#[derive(Debug)]
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    out: Option<String>,
    check: Option<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        quick: false,
        out: None,
        check: None,
    };
    let mut it = raw.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !spec::WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload `{name}` (one of {:?})",
                        spec::WORKLOADS
                    ));
                }
                args.workloads.push(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a number".to_string())?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds needs a whole number from 1 to 60")?;
            }
            // `--trace` alone switches tracing on; `--trace 0|1` is the
            // driver's spelling.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value("a file")?),
            "--check" => args.check = Some(value("the path of BENCHMARK.json")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = spec::WORKLOADS.map(String::from).to_vec();
    }
    Ok(args)
}

/// One workload's result in the shape the driver reads from the last
/// stdout line.
fn contract_line(
    specs: &[spec::MetricSpec],
    values: &[(&'static str, f64)],
    attempted: u64,
    failed: u64,
) -> Json {
    let metrics = specs.iter().map(|s| {
        let value = values
            .iter()
            .find(|(n, _)| *n == s.name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("`{}` was not measured", s.name));
        (
            s.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(s.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn print_metrics(specs: &[spec::MetricSpec], values: &[(&'static str, f64)]) {
    for s in specs {
        if let Some((_, v)) = values.iter().find(|(n, _)| *n == s.name) {
            println!("{} {v} {}", s.name, s.unit);
        }
    }
}

fn summary_json(s: &stats::Summary) -> Json {
    Json::obj([
        ("n", Json::Num(s.n as f64)),
        ("p50", Json::Num(s.p50)),
        ("tail", Json::Num(s.tail)),
        ("tail_is", Json::str(&s.tail_label)),
        ("top", Json::Num(s.top)),
        ("top_is", Json::str(&s.top_label)),
        ("max", Json::Num(s.max)),
    ])
}

fn pairs_json(pairs: &[(&'static str, f64)]) -> Json {
    Json::obj(pairs.iter().map(|(k, v)| (*k, Json::Num(*v))))
}

fn run(args: &Args) -> Result<bool, String> {
    let exe = procs::trustmap_exe()?;
    let scratch = procs::Scratch::new()?;
    let env = e2e::Env {
        exe: &exe,
        scratch: &scratch,
        seed: args.seed,
        sizes: e2e::Sizes::new(args.seconds, args.quick),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut all_correct = true;
    let mut report = Vec::new();
    // The traced run measures every layer once, whichever workloads were
    // asked for; each workload then reports against its own pass.
    let measured = if args.trace {
        let measured = layers::measure(&env)?;
        print!("{}", measured.tables);
        Some(measured)
    } else {
        None
    };
    for workload in &args.workloads {
        println!("# {workload} (seed {}, trace {})", args.seed, args.trace);
        let (line, detail) = if let Some(measured) = &measured {
            let traced = measured.for_workload(workload);
            print_metrics(&spec::PER_LAYER, &traced.metrics);
            (
                contract_line(
                    &spec::PER_LAYER,
                    &traced.metrics,
                    traced.attempted,
                    traced.failed,
                ),
                Json::obj([("layers", pairs_json(&traced.metrics))]),
            )
        } else {
            let outcome = e2e::run(workload, &env)?;
            print_metrics(&spec::END_TO_END, &outcome.metrics);
            for (name, s) in &outcome.timings {
                println!(
                    "  {name}: n={} p50={} {}={} {}={} max={}",
                    s.n, s.p50, s.tail_label, s.tail, s.top_label, s.top, s.max
                );
            }
            (
                contract_line(
                    &spec::END_TO_END,
                    &outcome.metrics,
                    outcome.attempted,
                    outcome.failed,
                ),
                Json::obj([
                    (
                        "timings",
                        Json::obj(outcome.timings.iter().map(|(k, s)| (*k, summary_json(s)))),
                    ),
                    ("counters", pairs_json(&outcome.counters)),
                ]),
            )
        };
        all_correct &= line.get("correct") == Some(&Json::Bool(true));
        report.push((
            workload.clone(),
            Json::obj([("result", line.clone()), ("detail", detail)]),
        ));
        // The driver reads the last stdout line; with several workloads
        // each gets its line and `--out` holds them all.
        println!("{}", line.render());
    }
    if let Some(out) = &args.out {
        let sizes = &env.sizes;
        let doc = Json::obj([
            ("benchmark", Json::str("e2e_bench")),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds as f64)),
            ("quick", Json::Bool(args.quick)),
            ("trace", Json::Bool(args.trace)),
            ("nproc", Json::Num(nproc as f64)),
            ("clients", Json::Num(streams::CLIENTS as f64)),
            (
                "sizes",
                Json::obj([
                    ("users", Json::Num(sizes.users as f64)),
                    ("reads_per_client", Json::Num(sizes.reads_per_client as f64)),
                    (
                        "writes_per_client",
                        Json::Num(sizes.writes_per_client as f64),
                    ),
                    ("mixed_per_client", Json::Num(sizes.mixed_per_client as f64)),
                    ("warmup", Json::Num(sizes.warmup as f64)),
                    ("batch_users", Json::Num(sizes.batch_users as f64)),
                    ("cli_runs", Json::Num(sizes.cli_runs as f64)),
                    ("setups", Json::Num(sizes.setups as f64)),
                    ("restarts", Json::Num(sizes.restarts as f64)),
                ]),
            ),
            ("workloads", Json::Obj(report)),
        ]);
        std::fs::write(out, doc.render_pretty()).map_err(|e| format!("{out}: {e}"))?;
        println!("# wrote {out}");
    }
    if let Some(measured) = &measured {
        // Spans go next to the results (or beside the executable when no
        // result file was asked for).
        let path = match &args.out {
            Some(out) => std::path::Path::new(out).with_file_name("trace.json"),
            None => exe.with_file_name("e2e_trace.json"),
        };
        trace::write_json(&path, &measured.spans)?;
        eprintln!("# wrote {}", path.display());
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.check {
        let errors = match std::fs::read_to_string(path) {
            Ok(text) => spec::check_benchmark_json(&text),
            Err(e) => vec![format!("{path}: {e}")],
        };
        for e in &errors {
            eprintln!("drift: {e}");
        }
        return if errors.is_empty() {
            println!("{path} matches what e2e_bench emits");
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: the oracle or a reply check failed (see `failed` above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_spelling_and_the_flag_spelling_both_parse() {
        let a = args(&[
            "--workload",
            "wire_reads",
            "--seed",
            "7",
            "--seconds",
            "5",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            (a.workloads.len(), a.seed, a.seconds, a.trace),
            (1, 7, 5, false)
        );
        assert!(args(&["--trace", "1"]).unwrap().trace);
        let a = args(&["--trace", "--quick"]).unwrap();
        assert!(a.trace && a.quick);
        assert_eq!(a.workloads, spec::WORKLOADS);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    #[test]
    fn contract_lines_carry_exactly_the_four_keys() {
        let values: Vec<(&'static str, f64)> =
            spec::END_TO_END.iter().map(|s| (s.name, 1.5)).collect();
        let line = contract_line(&spec::END_TO_END, &values, 10, 0);
        let Json::Obj(fields) = &line else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!()
        };
        assert_eq!(metrics.len(), spec::END_TO_END.len());
        assert!(line
            .render()
            .contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        assert_eq!(
            contract_line(&spec::END_TO_END, &values, 10, 1).get("correct"),
            Some(&Json::Bool(false))
        );
    }
}
