//! The metric tables `BENCHMARK.json` mirrors, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit, better)` of one metric.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// Printed with `--trace 0`: what a user of the trainer sees.
pub const END_TO_END: [MetricDef; 8] = [
    ("setup_s", "s", "lower"),
    ("warmup_epoch_s", "s", "lower"),
    ("seeds_per_s", "seeds/s", "higher"),
    ("iter_wall_p50_s", "s", "lower"),
    ("iter_wall_p90_s", "s", "lower"),
    ("final_loss", "nats", "lower"),
    ("iters_ok_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Printed with `--trace 1`: replay spans and counts (per replayed
/// iteration), trainer report counters, and set-up phases.
pub const PER_LAYER: [MetricDef; 29] = [
    ("graph.materialize_s", "s", "lower"),
    ("executor.new_s", "s", "lower"),
    ("sampler.plan_s", "s", "lower"),
    ("sampler.sample_s", "s", "lower"),
    ("sampler.edges", "count", "higher"),
    ("graph.gather_s", "s", "lower"),
    ("graph.gather_rows", "count", "higher"),
    ("tensor.round_trip_s", "s", "lower"),
    ("tensor.wire_mb", "MB", "lower"),
    ("gnn.forward_s", "s", "lower"),
    ("gnn.train_step_s", "s", "lower"),
    ("gnn.backward_s", "s", "lower"),
    ("gnn.apply_s", "s", "lower"),
    ("sync.all_reduce_s", "s", "lower"),
    ("sync.grad_mb", "MB", "lower"),
    ("replay.iter_s", "s", "lower"),
    ("replay.self_s", "s", "lower"),
    ("trace.span_coverage_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("executor.train_s", "s", "lower"),
    ("executor.data_wait_s", "s", "lower"),
    ("executor.transfer_hidden_ratio", "ratio", "higher"),
    ("executor.measured_iters", "count", "higher"),
    ("executor.rss_growth_mb", "MB", "lower"),
    ("prefetch.restarts", "count", "lower"),
    ("prefetch.invalidation_s", "s", "lower"),
    ("prefetch.salvage_ratio", "ratio", "higher"),
    ("drm.work_moves", "count", "lower"),
    ("drm.thread_moves", "count", "lower"),
];

/// The run's last stdout line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding every metric of `table` in order.
///
/// # Panics
/// If `values` lacks a metric of `table` — a benchmark bug, not a
/// property of the program under test.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    table: &[MetricDef],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (k, (name, unit, _)) in table.iter().enumerate() {
        let v = values
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        // JSON has no NaN: a non-finite value (only a failed run makes
        // one) is written as null next to "correct": false.
        let v = if v.is_finite() {
            format!("{v:?}")
        } else {
            "null".to_string()
        };
        let sep = if k == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::workload::WORKLOADS;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(v: &Value, key: &str) -> Vec<(String, String, String)> {
        v.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn own(table: &[MetricDef]) -> Vec<(String, String, String)> {
        table
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let bench = benchmark_json();
        assert_eq!(listed(&bench, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&bench, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = bench
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn benchmark_json_keys_and_bounds() {
        let bench = benchmark_json();
        assert_eq!(
            bench.keys(),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        for m in bench
            .get("end_to_end")
            .and_then(Value::as_array)
            .expect("list")
        {
            assert_eq!(m.keys(), ["name", "unit", "better", "bound"]);
            let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
        }
        for m in bench
            .get("per_layer")
            .and_then(Value::as_array)
            .expect("list")
        {
            assert_eq!(m.keys(), ["name", "unit", "better"]);
        }
        for w in bench
            .get("workloads")
            .and_then(Value::as_array)
            .expect("list")
        {
            assert_eq!(w.keys(), ["name", "why"]);
        }
    }

    #[test]
    fn result_line_schema() {
        for table in [&END_TO_END[..], &PER_LAYER[..]] {
            let values = table.iter().map(|(n, _, _)| (*n, 1.25)).collect();
            let line = result_line(true, 10, 0, table, &values);
            let v = parse(&line).expect("result line parses");
            assert_eq!(v.keys(), ["correct", "attempted", "failed", "metrics"]);
            let metrics = v.get("metrics").expect("metrics");
            let names: Vec<&str> = table.iter().map(|(n, _, _)| *n).collect();
            assert_eq!(metrics.keys(), names);
            for (name, unit, _) in table {
                let m = metrics.get(name).expect("metric");
                assert_eq!(m.keys(), ["value", "unit"]);
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit));
                assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.25));
            }
        }
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let values = END_TO_END
            .iter()
            .map(|(n, _, _)| (*n, 0.123_456_789_012_345_67))
            .collect();
        let line = result_line(true, 1, 0, &END_TO_END, &values);
        assert!(line.contains("0.12345678901234566"));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn result_line_refuses_missing_metric() {
        result_line(true, 1, 0, &END_TO_END, &BTreeMap::new());
    }
}
