//! The benchmark's vocabulary — workloads, end-to-end metrics, per-layer
//! metrics — in one place, and the check that `BENCHMARK.json` says the
//! same.

use crate::json::Json;
use Better::{Higher, Lower};

/// The measured phase of a full-size run is sized for about this many
/// seconds at the baseline commit; `--seconds` scales op counts from it.
pub const RUN_SECONDS: u64 = 10;

pub const WORKLOADS: [&str; 4] = ["wire_reads", "wire_writes", "wire_mixed", "batch_resolve"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Every workload reports every one of these (the driver's contract), so
/// the names are roles; `README.md` says what fills each role per
/// workload.
pub const END_TO_END: [MetricSpec; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("op_p50_us", "us", Better::Lower, 0.25),
    e2e("op_tail_us", "us", Better::Lower, 0.25),
    e2e("side_p50_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.05),
];

/// Layer = module. Every traced run measures every layer, on the stream
/// of the workload that exercises it.
pub const PER_LAYER: [MetricSpec; 45] = [
    layer("serve.handle_read_us", "us", Lower),
    layer("serve.wire_overhead_us", "us", Lower),
    layer("serve.wire_overhead_write_us", "us", Lower),
    layer("serve.wire_overhead_mixed_us", "us", Lower),
    layer("serve.handle_write_us", "us", Lower),
    layer("serve.handle_read_mixed_us", "us", Lower),
    layer("serve.handle_write_mixed_us", "us", Lower),
    layer("serve.render_us", "us", Lower),
    layer("trustq.parse_us", "us", Lower),
    layer("epoch.read_us", "us", Lower),
    layer("epoch.publish_us", "us", Lower),
    layer("epoch.publish_us_10k", "us", Lower),
    layer("epoch.slow_load_ratio", "ratio", Lower),
    layer("session.apply_us", "us", Lower),
    layer("session.commit_us", "us", Lower),
    layer("session.dirty_nodes_per_edit", "count", Lower),
    layer("store.wal_commit_us", "us", Lower),
    layer("store.fsyncs_per_write", "ratio", Lower),
    layer("store.records_per_unit", "ratio", Higher),
    layer("store.wal_bytes_per_write", "B", Lower),
    layer("store.open_s", "s", Lower),
    layer("store.replayed_units", "count", Lower),
    layer("snapshot.write_s", "s", Lower),
    layer("snapshot.bytes", "B", Lower),
    layer("group.ops_per_group", "ratio", Higher),
    layer("group.wait_us", "us", Lower),
    layer("replica.step_us", "us", Lower),
    layer("replica.poll_wait_ms", "ms", Lower),
    layer("replica.bootstrap_s", "s", Lower),
    layer("format.parse_s", "s", Lower),
    layer("format.bytes", "B", Lower),
    layer("binary.binarize_s", "s", Lower),
    layer("binary.nodes", "count", Lower),
    layer("binary.edges", "count", Lower),
    layer("resolution.resolve_s", "s", Lower),
    layer("parallel.resolve_1t_s", "s", Lower),
    layer("skeptic.resolve_s", "s", Lower),
    layer("cli.residual_s", "s", Lower),
    layer("workloads.gen_s", "s", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("e2e.op_p50_us", "us", Lower),
    layer("e2e.side_p50_us", "us", Lower),
    layer("e2e.restart_s", "s", Lower),
    layer("e2e.ops_per_s", "1/s", Higher),
    layer("trace.spans", "count", Lower),
];

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Compares one section of `BENCHMARK.json` with the names this binary
/// emits, in both directions.
fn check_section(doc: &Json, key: &str, specs: &[MetricSpec], errors: &mut Vec<String>) {
    let Some(entries) = doc.get(key).and_then(Json::as_arr) else {
        errors.push(format!("`{key}` is missing or not a list"));
        return;
    };
    for spec in specs {
        let Some(entry) = entries
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(spec.name))
        else {
            errors.push(format!(
                "{key}: `{}` is emitted but not declared",
                spec.name
            ));
            continue;
        };
        if entry.get("unit").and_then(Json::as_str) != Some(spec.unit) {
            errors.push(format!(
                "{key}: `{}` should have unit {}",
                spec.name, spec.unit
            ));
        }
        if entry.get("better").and_then(Json::as_str) != Some(spec.better.as_str()) {
            errors.push(format!(
                "{key}: `{}` should be better={}",
                spec.name,
                spec.better.as_str()
            ));
        }
        if entry.get("bound").and_then(Json::as_f64) != spec.bound {
            errors.push(format!(
                "{key}: `{}` should have bound {:?}",
                spec.name, spec.bound
            ));
        }
    }
    for entry in entries {
        let name = entry.get("name").and_then(Json::as_str).unwrap_or("");
        if !specs.iter().any(|s| s.name == name) {
            errors.push(format!("{key}: `{name}` is declared but never emitted"));
        }
    }
}

/// Validates the text of `BENCHMARK.json` against what this binary
/// emits. Returns every drift found.
pub fn check_benchmark_json(text: &str) -> Vec<String> {
    let mut errors = Vec::new();
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("not JSON: {e}")],
    };
    match doc.get("workloads").and_then(Json::as_arr) {
        Some(entries) => {
            let declared: Vec<&str> = entries
                .iter()
                .filter_map(|e| e.get("name").and_then(Json::as_str))
                .collect();
            if declared != WORKLOADS {
                errors.push(format!(
                    "workloads: declared {declared:?}, the binary runs {WORKLOADS:?}"
                ));
            }
        }
        None => errors.push("`workloads` is missing or not a list".into()),
    }
    check_section(&doc, "end_to_end", &END_TO_END, &mut errors);
    check_section(&doc, "per_layer", &PER_LAYER, &mut errors);
    if doc.get("run_seconds").and_then(Json::as_f64) != Some(RUN_SECONDS as f64) {
        errors.push(format!("run_seconds should be {RUN_SECONDS}"));
    }
    for spec in END_TO_END.iter().chain(&PER_LAYER) {
        if !valid_name(spec.name) || !valid_unit(spec.unit) {
            errors.push(format!(
                "`{}` [{}] breaks the naming rules",
                spec.name, spec.unit
            ));
        }
    }
    for name in WORKLOADS {
        if !valid_name(name) {
            errors.push(format!("workload `{name}` breaks the naming rules"));
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_emits() {
        // The file sits at the repository root: two levels above
        // `crates/bench` when trustmap-bench builds this bin, five above
        // this directory when its own manifest does.
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let candidates = [
            manifest.join("../../BENCHMARK.json"),
            manifest.join("../../../../../BENCHMARK.json"),
        ];
        let path = candidates
            .iter()
            .find(|p| p.is_file())
            .expect("BENCHMARK.json at the repository root");
        let text = std::fs::read_to_string(path).unwrap();
        let errors = check_benchmark_json(&text);
        assert!(errors.is_empty(), "{errors:#?}");
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|s| s.name)
            .chain(WORKLOADS)
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        assert!(END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .all(|s| valid_unit(s.unit)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .any(|s| s.name == "setup_s" && s.unit == "s"));
        assert!(END_TO_END
            .iter()
            .all(|s| s.bound.is_some_and(|b| b <= 0.25)));
    }

    #[test]
    fn drift_is_reported() {
        let errors =
            check_benchmark_json("{\"workloads\": [], \"end_to_end\": [], \"per_layer\": []}");
        assert!(errors.iter().any(|e| e.contains("workloads")));
        assert!(errors
            .iter()
            .any(|e| e.contains("`setup_s` is emitted but not declared")));
        assert!(!check_benchmark_json("nope").is_empty());
    }
}
