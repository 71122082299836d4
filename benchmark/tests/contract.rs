//! The benchmark against its own contract: what `BENCHMARK.json`
//! declares is what the dictionary holds and what a run prints.

use romp_benchmark::json::{self, Json};
use romp_benchmark::metrics::{self, Def};
use std::collections::BTreeSet;
use std::process::Command;

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, group: &str) -> Vec<(String, String, String)> {
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
    let list = doc.get(group).and_then(Json::as_arr).unwrap();
    list.iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect()
}

fn as_declared(defs: Vec<Def>) -> Vec<(String, String, String)> {
    defs.into_iter()
        .map(|d| {
            let better = if d.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            (d.name, d.unit.to_string(), better.to_string())
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_dictionary() {
    let doc = contract();
    assert_eq!(
        declared(&doc, "end_to_end"),
        as_declared(metrics::end_to_end())
    );
    assert_eq!(
        declared(&doc, "per_layer"),
        as_declared(metrics::per_layer())
    );
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, metrics::WORKLOADS);
    for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    let setup = declared(&doc, "end_to_end")
        .into_iter()
        .find(|m| m.0 == "setup_s");
    assert_eq!(setup, Some(("setup_s".into(), "s".into(), "lower".into())));
}

/// One smoke run of the cheapest workload in the mode `trace`.
fn smoke_result(trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_romp-benchmark"))
        .args([
            "--workload",
            "translate",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", trace])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    json::parse(stdout.lines().last().unwrap()).expect("result line is JSON")
}

#[test]
fn a_run_prints_every_declared_metric_and_nothing_else() {
    for (trace, group) in [("0", "end_to_end"), ("1", "per_layer")] {
        let result = smoke_result(trace);
        let keys: BTreeSet<&str> = result
            .as_obj()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            BTreeSet::from(["attempted", "correct", "failed", "metrics"])
        );
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let printed = result.get("metrics").and_then(Json::as_obj).unwrap();
        let want = declared(&contract(), group);
        assert_eq!(printed.len(), want.len());
        for (name, unit, _) in want {
            let m = printed
                .get(&name)
                .unwrap_or_else(|| panic!("{name} not printed"));
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(unit.as_str()),
                "{name}"
            );
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has no number"
            );
        }
    }
}

#[test]
fn oversubscription_and_unknown_workloads_are_refused() {
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_romp-benchmark"))
            .args(args)
            .output()
            .unwrap();
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    let (code, stdout) = run(&["--workload", "translate", "--threads", "4096", "--smoke"]);
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty(), "a refused run must print no result");
    let (code, stdout) = run(&["--workload", "no-such-workload", "--smoke"]);
    assert_eq!(code, Some(2));
    assert!(!stdout.contains("\"metrics\""));
}
