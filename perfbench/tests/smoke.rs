//! Self-test: a tiny run of every workload, untraced and traced, prints
//! every metric `BENCHMARK.json` declares, finite and with its declared
//! unit, and ends with a JSON result holding exactly those metrics.  The
//! untraced report also prints the schedule-quality, peak-memory and serve
//! metrics that are not in the JSON result.

use std::collections::BTreeMap;
use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["online-overload", "online-wide", "serve-light"];

/// Metrics printed above the JSON result only, per workload.
const PRINTED: [(&str, &str); 5] = [
    ("max_stretch", "x"),
    ("sum_stretch", "x"),
    ("slowdown_mean", "x"),
    ("error_share", "fraction"),
    ("peak_rss_mb", "MiB"),
];
const PRINTED_SERVE: [(&str, &str); 5] = [
    ("submit_ms_p50", "ms"),
    ("submit_ms_p99", "ms"),
    ("submit_samples", "count"),
    ("recover_ms", "ms"),
    ("degraded_share", "fraction"),
];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let open = start + text[start..].find('[').expect("section is a list");
    let close = open + text[open..].find(']').expect("list closes");
    text[open..close]
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn field(entry: &str, key: &str) -> String {
    let at = entry.find(&format!("\"{key}\":")).expect("key present") + key.len() + 3;
    let open = at + entry[at..].find('"').expect("string value") + 1;
    let close = open + entry[open..].find('"').expect("string closes");
    entry[open..close].to_string()
}

fn perfbench(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(args).current_dir(env!("CARGO_TARGET_TMPDIR"));
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("STRETCH_") {
            cmd.env_remove(key);
        }
    }
    cmd
}

/// The `metric <name> = <value> <unit>` lines and the last line of a run.
fn smoke(workload: &str, trace: &str) -> (BTreeMap<String, (f64, String)>, String) {
    let out: Output = perfbench(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--smoke",
    ])
    .output()
    .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut metrics = BTreeMap::new();
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("metric ") {
            let (name, rest) = rest.split_once(" = ").expect("metric line has a value");
            let mut words = rest.split_whitespace();
            let value: f64 = words.next().expect("value").parse().expect("numeric value");
            let unit = words.next().expect("unit").to_string();
            metrics.insert(name.to_string(), (value, unit));
        }
    }
    let last = stdout.lines().last().expect("some output").to_string();
    (metrics, last)
}

fn assert_printed(metrics: &BTreeMap<String, (f64, String)>, name: &str, unit: &str, run: &str) {
    let (value, printed_unit) = metrics
        .get(name)
        .unwrap_or_else(|| panic!("{run}: metric {name} not printed"));
    assert_eq!(printed_unit, unit, "{run}: unit of {name}");
    assert!(value.is_finite(), "{run}: {name} = {value}");
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let expected = declared(section);
        assert!(!expected.is_empty(), "{section} declares no metric");
        for workload in WORKLOADS {
            let run = format!("{workload} --trace {trace}");
            let (metrics, json) = smoke(workload, trace);
            assert!(json.starts_with("{\"correct\": true, "), "{run}: {json}");
            assert_eq!(
                json.matches("\"unit\"").count(),
                expected.len(),
                "{run}: the JSON result holds exactly the declared metrics"
            );
            for (name, unit) in &expected {
                assert_printed(&metrics, name, unit, &run);
                assert!(
                    json.contains(&format!("\"{name}\": {{\"value\": "))
                        && json.contains(&format!("\"unit\": \"{unit}\"")),
                    "{run}: {name} missing from the JSON result"
                );
            }
            if trace == "0" {
                for (name, unit) in PRINTED {
                    assert_printed(&metrics, name, unit, &run);
                }
                assert_eq!(metrics["error_share"].0, 0.0, "{run}: failures");
                if workload == "serve-light" {
                    for (name, unit) in PRINTED_SERVE {
                        assert_printed(&metrics, name, unit, &run);
                    }
                    assert_eq!(metrics["degraded_share"].0, 0.0, "{run}: degraded");
                }
            }
        }
    }
}

#[test]
fn configuring_environment_is_refused() {
    let out = perfbench(&["--workload", "online-overload", "--smoke"])
        .env("STRETCH_MINCOST_BACKEND", "monge")
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("STRETCH_MINCOST_BACKEND"));
}
