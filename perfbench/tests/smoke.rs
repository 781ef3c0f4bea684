//! Toy-size self-test of the benchmark's own code path: one process runs
//! every workload untraced and traced, every metric `BENCHMARK.json` names
//! is printed with its unit, end-to-end metrics are never 0, and every
//! output check passes.

use std::path::Path;
use std::process::Command;

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn catalog(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("metric list closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("metric field") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closing quote");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn every_metric_is_printed_with_its_unit_and_every_check_passes() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "all",
            "--seed",
            "3",
            "--seconds",
            "0.01",
            "--smoke",
        ])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "benchmark failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let end_to_end = catalog("end_to_end");
    let per_layer = catalog("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for workload in ["train-channels", "train-scatter", "fleet-burst"] {
        let printed: Vec<(&str, f64, &str)> = stdout
            .lines()
            .filter_map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                (f.len() == 5 && f[0] == "metric" && f[1] == workload)
                    .then(|| (f[2], f[3].parse().expect("numeric value"), f[4]))
            })
            .collect();
        for (name, unit) in end_to_end.iter().chain(&per_layer) {
            let hit = printed
                .iter()
                .find(|m| m.0 == name)
                .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
            assert_eq!(hit.2, unit, "{workload}: {name} unit");
        }
        for (name, _) in &end_to_end {
            let value = printed.iter().find(|m| m.0 == name).expect("printed").1;
            assert!(value > 0.0, "{workload}: {name} reads {value}");
        }
    }

    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true,"),
        "checks failed: {last}"
    );
    assert!(last.contains("\"failed\": 0,"), "{last}");
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .output()
        .expect("run the benchmark");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty() || !String::from_utf8_lossy(&out.stdout).contains("correct"));
}
