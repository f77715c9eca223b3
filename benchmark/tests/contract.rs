//! `BENCHMARK.json` and the benchmark's own tables say the same thing, and
//! both stay inside the limits the benchmark contract sets.

use pbe_benchmark::metrics::{Report, END_TO_END, PAPER_SCHEMES, PER_LAYER};
use pbe_benchmark::suite::{parse_child, results_json, ChildRun};
use pbe_benchmark::workloads::WORKLOADS;
use serde::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing"))
}

fn number(v: &Value) -> f64 {
    pbe_benchmark::suite::number(v).unwrap_or_else(|| panic!("not a number: {v:?}"))
}

fn name_ok(name: &str) -> bool {
    let first = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn names_and_units_stay_inside_the_contract_charset() {
    let mut seen = std::collections::BTreeSet::new();
    for m in END_TO_END {
        assert!(name_ok(m.name), "{}", m.name);
        assert!(unit_ok(m.unit), "{} {}", m.name, m.unit);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        assert!(seen.insert(m.name), "{} used twice", m.name);
    }
    for (name, unit, better) in PER_LAYER {
        assert!(name_ok(name), "{name}");
        assert!(unit_ok(unit), "{name} {unit}");
        assert!(["lower", "higher"].contains(better));
        assert!(seen.insert(name), "{name} used twice");
    }
    for w in WORKLOADS {
        assert!(name_ok(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        assert!(seen.insert(w.name), "{} used twice", w.name);
    }
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    for scheme in PAPER_SCHEMES {
        let name = format!("cc.on_ack_ns.{scheme}");
        assert!(PER_LAYER.iter().any(|m| m.0 == name), "{name}");
    }
}

#[test]
fn benchmark_json_agrees_with_the_tables() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let paths = doc.get("paths").and_then(Value::as_array).expect("paths");
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("benchmark"));
    let command: Vec<&str> = doc
        .get("command")
        .and_then(Value::as_array)
        .expect("command")
        .iter()
        .map(|v| v.as_str().expect("strings"))
        .collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
    let seconds = number(doc.get("run_seconds").expect("run_seconds"));
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let workloads = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, w) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(entry.as_object().expect("object").len(), 2);
        assert_eq!(text(entry, "name"), w.name);
        assert_eq!(text(entry, "why"), w.why);
    }

    let e2e = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(entry.as_object().expect("object").len(), 4);
        assert_eq!(text(entry, "name"), m.name);
        assert_eq!(text(entry, "unit"), m.unit);
        assert_eq!(text(entry, "better"), m.better);
        assert_eq!(number(entry.get("bound").expect("bound")), m.bound);
    }
    // The contract's one fixed metric, with the largest bound.
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

    let per_layer = doc
        .get("per_layer")
        .and_then(Value::as_array)
        .expect("per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (entry, (name, unit, better)) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(entry.as_object().expect("object").len(), 3);
        assert_eq!(text(entry, "name"), *name);
        assert_eq!(text(entry, "unit"), *unit);
        assert_eq!(text(entry, "better"), *better);
    }
}

#[test]
fn the_result_record_has_exactly_the_contract_keys() {
    let mut report = Report::default();
    report.attempt("run", Vec::new());
    report.attempt("run", vec!["went wrong".to_string()]);
    for (i, m) in END_TO_END.iter().enumerate() {
        report.set(m.name, 1.5 + i as f64);
    }
    let line = report.json_line();
    assert!(!line.contains('\n'));
    let record = serde_json::parse(&line).expect("the record is JSON");
    let keys: Vec<&str> = record
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let run = parse_child(&format!("diag input_digest abc\nnoise\n{line}\n")).expect("parses");
    assert!(!run.correct);
    assert_eq!((run.attempted, run.failed), (2, 1));
    assert_eq!(run.input_digest, "abc");
    for (got, m) in run.metrics.iter().zip(END_TO_END) {
        assert_eq!((got.0.as_str(), got.2.as_str()), (m.name, m.unit));
    }

    // A traced record carries every per-layer metric, measured or not.
    let mut traced = Report::default();
    traced.set("cc.share", 0.25);
    traced.complete_per_layer();
    let run = parse_child(&traced.json_line()).expect("parses");
    assert_eq!(run.metrics.len(), PER_LAYER.len());
    assert_eq!(run.get("cc.share"), 0.25);
    assert_eq!(run.get("pdcch.decode_rate"), 0.0);
    assert_eq!(run.attempted, 1, "`attempted` is at least 1");
}

#[test]
fn results_json_carries_the_names_units_and_bounds_of_benchmark_json() {
    let timed = ChildRun {
        correct: true,
        attempted: 3,
        metrics: END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), 2.0, m.unit.to_string()))
            .collect(),
        ..ChildRun::default()
    };
    let traced = ChildRun {
        correct: true,
        attempted: 1,
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.0.to_string(), 1.0, m.1.to_string()))
            .collect(),
        ..ChildRun::default()
    };
    let runs: Vec<_> = WORKLOADS
        .iter()
        .map(|w| (w, timed.clone(), traced.clone()))
        .collect();
    let results = serde_json::parse(&results_json(1, 20.0, &runs)).expect("results.json is JSON");
    let doc = benchmark_json();
    let workloads = results.get("workloads").expect("workloads");
    for w in WORKLOADS {
        let entry = workloads.get(w.name).expect("every workload present");
        for m in doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .expect("end_to_end")
        {
            let got = entry
                .get("end_to_end")
                .and_then(|e| e.get(text(m, "name")))
                .expect("metric present");
            assert_eq!(text(got, "unit"), text(m, "unit"));
            assert_eq!(text(got, "better"), text(m, "better"));
            assert_eq!(got.get("bound"), m.get("bound"));
        }
        for m in doc
            .get("per_layer")
            .and_then(Value::as_array)
            .expect("per_layer")
        {
            let got = entry
                .get("per_layer")
                .and_then(|e| e.get(text(m, "name")))
                .expect("metric present");
            assert_eq!(text(got, "unit"), text(m, "unit"));
        }
    }
}
