//! Self-test of the benchmark's output, at a tiny scale:
//!
//! * an untraced run of every workload prints every end-to-end metric
//!   of `BENCHMARK.json` with its unit, and nothing else;
//! * a traced run prints every per-layer metric with its unit;
//! * the traced run's span file parses, span ids are unique, and every
//!   span is a root or the child of a span in the same file;
//! * the L1/L2/L3 metrics of a traced run come from one phase: the
//!   spans behind them are exactly the layer spans under the run's
//!   `layer_phase`, while the other phase mined too.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::Command;

fn spec() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key}: expected a string, found {other:?}"),
    }
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key}: expected an array, found {other:?}"),
    }
}

/// Runs one tiny workload; returns (context, result).
fn run(workload: &str, seed: u64, trace: u8) -> (Value, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_logdep-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string()])
        .args(["--scale", "0.05"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines = stdout.lines().rev();
    let result: Value =
        serde_json::from_str(lines.next().expect("a result line")).expect("result parses");
    let context: Value =
        serde_json::from_str(lines.next().expect("a context line")).expect("context parses");
    let context = context.get("context").expect("context object").clone();
    (context, result)
}

/// The result holds exactly `expected`'s metrics, each a number with
/// the unit `BENCHMARK.json` gives it.
fn assert_metrics(result: &Value, expected: &[Value], what: &str) {
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{what}: {result:?}"
    );
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    let got: BTreeSet<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: BTreeSet<&str> = expected.iter().map(|m| str_of(m, "name")).collect();
    assert_eq!(got, want, "{what}: metric names");
    for m in expected {
        let name = str_of(m, "name");
        let entry = &metrics.iter().find(|(k, _)| k == name).expect("present").1;
        assert_eq!(
            str_of(entry, "unit"),
            str_of(m, "unit"),
            "{what}: unit of {name}"
        );
        assert!(
            matches!(
                entry.get("value"),
                Some(Value::F64(_) | Value::U64(_) | Value::I64(_))
            ),
            "{what}: value of {name} is {:?}",
            entry.get("value")
        );
    }
}

fn workloads(spec: &Value) -> Vec<String> {
    list(spec, "workloads")
        .iter()
        .map(|w| str_of(w, "name").to_owned())
        .collect()
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    let spec = spec();
    for workload in workloads(&spec) {
        let (context, result) = run(&workload, 3, 0);
        assert_metrics(&result, list(&spec, "end_to_end"), &workload);
        assert_eq!(context.get("span_file"), Some(&Value::Str(String::new())));
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric_and_a_span_tree() {
    let spec = spec();
    for workload in workloads(&spec) {
        let (context, result) = run(&workload, 4, 1);
        assert_metrics(&result, list(&spec, "per_layer"), &workload);

        let path = str_of(&context, "span_file");
        let text = std::fs::read_to_string(path).expect("span file written");
        let spans: Vec<Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("span line parses"))
            .collect();
        assert!(!spans.is_empty(), "{workload}: no spans");
        let id = |v: &Value| match v {
            Value::U64(n) => *n,
            other => panic!("span id {other:?}"),
        };
        let mut ids = BTreeSet::new();
        for s in &spans {
            assert!(
                ids.insert(id(s.get("id").expect("id"))),
                "duplicate span id"
            );
            assert!(matches!(s.get("name"), Some(Value::Str(_))), "span name");
            for key in ["key", "start_ns", "end_ns"] {
                assert!(matches!(s.get(key), Some(Value::U64(_))), "span {key}");
            }
        }
        for s in &spans {
            match s.get("parent") {
                Some(Value::Null) => {}
                Some(p) => assert!(ids.contains(&id(p)), "{workload}: orphan span {s:?}"),
                None => panic!("{workload}: span without a parent field"),
            }
        }

        let by_id: BTreeMap<u64, &Value> = spans
            .iter()
            .map(|s| (id(s.get("id").expect("id")), s))
            .collect();
        let phase = str_of(&context, "layer_phase");
        let in_phase = |s: &Value| {
            let mut up = s.get("parent");
            while let Some(p @ Value::U64(_)) = up {
                let parent = by_id[&id(p)];
                if str_of(parent, "name") == phase {
                    return true;
                }
                up = parent.get("parent");
            }
            false
        };
        let samples = context.get("samples").expect("samples");
        for layer in ["l1", "l2", "l3"] {
            let (inside, outside): (Vec<&Value>, Vec<&Value>) = spans
                .iter()
                .filter(|s| str_of(s, "name") == layer)
                .partition(|s| in_phase(s));
            assert!(
                !inside.is_empty(),
                "{workload}: no {layer} span under {phase}"
            );
            assert!(
                !outside.is_empty(),
                "{workload}: {layer} mined in one phase only"
            );
            assert_eq!(
                samples.get(&format!("{layer}_spans")),
                Some(&Value::U64(inside.len() as u64)),
                "{workload}: {layer} metrics come from the spans under {phase}"
            );
        }
    }
}
