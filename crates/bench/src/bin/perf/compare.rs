//! `perf compare A.json B.json` and the self-comparison of `--repeat`.
//!
//! One row per workload × end-to-end metric: both medians, the ratio with
//! its base, the metric's bound and a verdict. Exact metrics (counts,
//! simulated statistics, state digests) must be equal. Results taken on
//! different hosts, seeds or sizes are refused rather than compared.

use crate::metrics::end_to_end;
use crate::stats::{verdict, Side, Verdict};
use serde_json::Value;

/// One line of a comparison.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub base: f64,
    pub new: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Everything a comparison found.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// Exact metrics and digests that differ, as readable lines.
    pub differing: Vec<String>,
}

impl Comparison {
    /// No metric worse than its bound and no exact value changed.
    pub fn passed(&self) -> bool {
        self.differing.is_empty() && self.rows.iter().all(|r| r.verdict != Verdict::Worse)
    }

    pub fn render(&self) -> String {
        let mut s = format!(
            "{:<14} {:<16} {:>14} {:>14} {:>16} {:>6}  verdict\n",
            "workload", "metric", "base", "new", "new/base", "bound"
        );
        for r in &self.rows {
            s += &format!(
                "{:<14} {:<16} {:>14.6} {:>14.6} {:>8.4} of base {:>5.1}%  {}\n",
                r.workload,
                format!("{} [{}]", r.metric, r.unit),
                r.base,
                r.new,
                if r.base == 0.0 { 0.0 } else { r.new / r.base },
                r.bound * 100.0,
                r.verdict.as_str()
            );
        }
        for d in &self.differing {
            s += &format!("differs: {d}\n");
        }
        s
    }
}

fn side(metric: &Value) -> Option<Side> {
    Some(Side {
        median: metric["value"].as_f64()?,
        q1: metric["q1"].as_f64()?,
        q3: metric["q3"].as_f64()?,
    })
}

/// Compare two sets of workload results (arrays of `Outcome::to_report`
/// documents taken under one context). Workloads present in only one set
/// are ignored.
pub fn compare_sets(base: &[Value], new: &[Value]) -> Result<Comparison, String> {
    let mut out = Comparison::default();
    for b in base {
        let workload = b["workload"].as_str().unwrap_or("?");
        let Some(n) = new.iter().find(|n| n["workload"] == b["workload"]) else {
            continue;
        };
        if b["sizes"] != n["sizes"] {
            return Err(format!(
                "{workload}: sizes differ ({:?} vs {:?})",
                b["sizes"], n["sizes"]
            ));
        }
        for def in end_to_end() {
            let metric = |r: &Value| side(&r["end_to_end"][def.name.as_str()]);
            let (Some(bs), Some(ns)) = (metric(b), metric(n)) else {
                return Err(format!("{workload}: `{}` missing", def.name));
            };
            // Results of other seeds were refused above, so an exact
            // metric has no reason to move at all.
            if def.exact && bs.median != ns.median {
                out.differing.push(format!(
                    "{workload}: {} {} vs {}",
                    def.name, bs.median, ns.median
                ));
            }
            let bound = def.bound.unwrap_or(0.0);
            out.rows.push(Row {
                workload: workload.to_string(),
                metric: def.name.clone(),
                unit: def.unit.to_string(),
                base: bs.median,
                new: ns.median,
                bound,
                verdict: verdict(bs, ns, def.better, bound),
            });
        }
        if b["state_digest"] != n["state_digest"] {
            out.differing.push(format!(
                "{workload}: state_digest {:?} vs {:?}",
                b["state_digest"], n["state_digest"]
            ));
        }
        let (Some(bl), Some(nl)) = (b["per_layer"].as_object(), n["per_layer"].as_object()) else {
            continue;
        };
        for (name, bm) in bl {
            let nm = nl.iter().find(|(k, _)| k == name).map(|(_, v)| v);
            if bm["exact"].as_bool() == Some(true)
                && nm.is_some_and(|nm| nm["value"] != bm["value"])
            {
                out.differing.push(format!(
                    "{workload}: {name} {:?} vs {:?}",
                    bm["value"],
                    nm.map(|m| &m["value"])
                ));
            }
        }
    }
    Ok(out)
}

/// Compare the first set of two report documents, refusing results that
/// were not taken under the same conditions.
pub fn compare_reports<'a>(base: &'a Value, new: &'a Value) -> Result<Comparison, String> {
    for key in ["perf_schema", "seed", "seconds", "smoke"] {
        if base[key] != new[key] {
            return Err(format!(
                "`{key}` differs: {:?} vs {:?}",
                base[key], new[key]
            ));
        }
    }
    for key in ["cpus", "threads", "debug_build"] {
        if base["host"][key] != new["host"][key] {
            return Err(format!(
                "host `{key}` differs: {:?} vs {:?}",
                base["host"][key], new["host"][key]
            ));
        }
    }
    let first = |r: &'a Value| r["sets"][0].as_array();
    match (first(base), first(new)) {
        (Some(b), Some(n)) => compare_sets(b, n),
        _ => Err("not a perf report: no `sets`".to_string()),
    }
}

/// The report document in a file holding captured `perf` output: the line
/// that carries `perf_schema`.
pub fn read_report(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| l.starts_with('{'))
        .filter_map(|l| serde_json::from_str::<Value>(l).ok())
        .find(|v| !v["perf_schema"].is_null())
        .ok_or_else(|| format!("{path}: no perf report line found"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn result(op_ms: f64, digest: &str, pairs: f64) -> Value {
        result_at(op_ms, digest, pairs, 85.0)
    }

    fn result_at(op_ms: f64, digest: &str, pairs: f64, us_per_day: f64) -> Value {
        let m = |v: f64| json!({"value": v, "unit": "x", "n": 1, "q1": v, "q3": v, "exact": false});
        json!({
            "workload": "water_kspace",
            "sizes": {"atoms": 1536, "cycles": 600},
            "state_digest": digest,
            "end_to_end": {
                "setup_s": m(1.0), "op_ms_min": m(op_ms),
                "host_ns_per_day": m(100.0 / op_ms), "sim_us_per_day": m(us_per_day),
                "peak_rss_mb": m(50.0)
            },
            "per_layer": {
                "md.stream.pairs_evaluated_per_step":
                    {"value": pairs, "unit": "count", "n": 1, "q1": pairs, "q3": pairs, "exact": true},
                "md.stream.pairs_per_s":
                    {"value": op_ms, "unit": "1/s", "n": 1, "q1": op_ms, "q3": op_ms, "exact": false}
            }
        })
    }

    fn report(seed: u64, results: Vec<Value>) -> Value {
        json!({
            "perf_schema": 1, "seed": seed, "seconds": 15, "smoke": false,
            "host": {"cpus": 2, "threads": 1, "debug_build": false},
            "sets": [results]
        })
    }

    #[test]
    fn identical_results_pass_and_slower_ones_are_worse() {
        let base = report(1, vec![result(20.0, "ab", 7.0)]);
        let same = compare_reports(&base, &base).unwrap();
        assert_eq!(same.rows.len(), 5);
        assert!(same.passed());
        assert!(same.render().contains("op_ms_min"));

        let slow = report(1, vec![result(30.0, "ab", 7.0)]);
        let c = compare_reports(&base, &slow).unwrap();
        let verdicts: Vec<(&str, Verdict)> = c
            .rows
            .iter()
            .map(|r| (r.metric.as_str(), r.verdict))
            .collect();
        assert_eq!(
            verdicts,
            vec![
                ("setup_s", Verdict::Ok),
                ("op_ms_min", Verdict::Worse),
                ("host_ns_per_day", Verdict::Worse),
                ("sim_us_per_day", Verdict::Ok),
                ("peak_rss_mb", Verdict::Ok),
            ]
        );
        assert!(!c.passed());
        // The faster direction is fine.
        assert!(compare_reports(&slow, &base).unwrap().passed());
    }

    #[test]
    fn exact_values_must_be_equal() {
        let base = report(1, vec![result(20.0, "ab", 7.0)]);
        let digest = compare_reports(&base, &report(1, vec![result(20.0, "cd", 7.0)])).unwrap();
        assert!(!digest.passed() && digest.differing[0].contains("state_digest"));
        let count = compare_reports(&base, &report(1, vec![result(20.0, "ab", 8.0)])).unwrap();
        assert!(!count.passed() && count.differing[0].contains("pairs_evaluated_per_step"));
        // Within its bound for the driver, but not equal: the model moved.
        let model = report(1, vec![result_at(20.0, "ab", 7.0, 84.0)]);
        let moved = compare_reports(&base, &model).unwrap();
        assert!(moved.rows.iter().all(|r| r.verdict == Verdict::Ok));
        assert!(!moved.passed() && moved.differing[0].contains("sim_us_per_day"));
    }

    #[test]
    fn results_taken_under_other_conditions_are_refused() {
        let base = report(1, vec![result(20.0, "ab", 7.0)]);
        assert!(
            compare_reports(&base, &report(2, vec![result(20.0, "ab", 7.0)]))
                .unwrap_err()
                .contains("seed")
        );
        let mut other_host = base.clone();
        if let Value::Object(fields) = &mut other_host {
            fields.retain(|(k, _)| k != "host");
            fields.push((
                "host".to_string(),
                json!({"cpus": 8, "threads": 7, "debug_build": false}),
            ));
        }
        assert!(compare_reports(&base, &other_host)
            .unwrap_err()
            .contains("cpus"));
        let mut resized = result(20.0, "ab", 7.0);
        if let Value::Object(fields) = &mut resized {
            fields.retain(|(k, _)| k != "sizes");
            fields.push(("sizes".to_string(), json!({"atoms": 81, "cycles": 4})));
        }
        assert!(compare_reports(&base, &report(1, vec![resized]))
            .unwrap_err()
            .contains("sizes"));
    }
}
