//! Every workload at tiny scale: every named metric is emitted,
//! finite and unit-tagged, no call fails, no byte mismatches — and
//! the catalogue agrees with `BENCHMARK.json`.

use perfbench::gen::Scale;
use perfbench::{catalog, run, Options, WORKLOADS};
use telemetry::json::Value;

fn tiny(workload: &str, trace: bool) -> perfbench::Outcome {
    let opts = Options {
        workload: workload.into(),
        seed: 3,
        seconds: 0.6,
        trace,
        scale: Scale::tiny(),
    };
    run(&opts).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

fn check(o: &perfbench::Outcome, names: &[&str], what: &str) {
    assert!(o.correct, "{what}: {:?}", o.first_error);
    assert_eq!(o.failed, 0, "{what}: {:?}", o.first_error);
    assert!(o.attempted > 0, "{what}");
    let got: Vec<&str> = o.metrics.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(got, names, "{what}: metric names");
    let line = Value::parse(&o.result_line()).expect("result line is JSON");
    let metrics = line
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    for (name, v) in metrics {
        let value = match v.get("value") {
            Some(Value::Float(f)) => *f,
            Some(Value::Uint(u)) => *u as f64,
            Some(Value::Int(i)) => *i as f64,
            other => panic!("{what}: {name} value {other:?}"),
        };
        assert!(value.is_finite(), "{what}: {name} = {value}");
        let unit = v.get("unit").and_then(Value::as_str).expect("unit");
        assert_eq!(unit, catalog::unit_of(name), "{what}: {name}");
    }
}

#[test]
fn every_workload_emits_every_metric_without_errors() {
    let e2e: Vec<&str> = catalog::END_TO_END.iter().map(|m| m.name).collect();
    let layers: Vec<&str> = catalog::PER_LAYER.iter().map(|m| m.name).collect();
    for w in WORKLOADS {
        let o = tiny(w, false);
        check(&o, &e2e, w);
        for (name, value) in &o.metrics {
            assert!(*value > 0.0, "{w}: end-to-end {name} is {value}");
        }
        let t = tiny(w, true);
        check(&t, &layers, &format!("{w} traced"));
        let error_ratio = t
            .metrics
            .iter()
            .find(|(n, _)| n == "error_ratio")
            .expect("emitted");
        assert_eq!(error_ratio.1, 0.0, "{w}");
    }
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = Value::parse(&text).expect("BENCHMARK.json parses");
    // Name, unit and direction of every metric: a flipped `better`
    // would have the harness judge that metric the wrong way round.
    let listed = |key: &str| -> Vec<[String; 3]> {
        json.get(key)
            .and_then(Value::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                ["name", "unit", "better"]
                    .map(|k| m.get(k).and_then(Value::as_str).expect(k).to_string())
            })
            .collect()
    };
    let want = |metrics: &[catalog::Metric]| -> Vec<[String; 3]> {
        metrics
            .iter()
            .map(|m| [m.name, m.unit, m.better].map(String::from))
            .collect()
    };
    assert_eq!(listed("end_to_end"), want(catalog::END_TO_END));
    assert_eq!(listed("per_layer"), want(catalog::PER_LAYER));
    let workloads: Vec<String> = json
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    // `dsfs_churn` and `thirdput_hol` run on demand but are left out
    // of the measured set (see README.md); every listed workload must
    // exist.
    assert!(workloads.len() >= 2);
    assert!(workloads.iter().all(|w| WORKLOADS.contains(&w.as_str())));
}
