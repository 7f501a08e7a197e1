//! `--compare a.json b.json`: two sets of runs against the bounds fixed in
//! `BENCHMARK.json`. For every workload and end-to-end metric it takes the
//! median of each set, says by how much the second is worse than the first,
//! and how wide each set's own spread is — the distance between its
//! quartiles as a share of its median, which is what the acceptance check
//! of the benchmark looks at.

use crate::json::Json;
use crate::stats::quartiles;

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds(manifest: &Json) -> Result<Vec<Bound>, String> {
    let list = manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("manifest has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Json::as_str).ok_or(format!("metric lacks {k}"));
            Ok(Bound {
                name: text("name")?.to_string(),
                lower_is_better: text("better")? == "lower",
                bound: m.get("bound").and_then(Json::as_f64).ok_or("metric lacks bound")?,
            })
        })
        .collect()
}

/// Values of `metric` over the untraced runs of `workload` in a set.
fn values(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    let runs = set.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
    runs.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Json::as_f64) == Some(0.0))
        .filter_map(|r| r.get("result")?.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn workloads(set: &Json) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for run in set.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
        if let Some(name) = run.get("workload").and_then(Json::as_str) {
            if !names.iter().any(|n| n == name) {
                names.push(name.to_string());
            }
        }
    }
    names
}

/// Runs whose outputs were wrong or whose operations failed.
fn unsound(set: &Json) -> usize {
    let runs = set.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
    runs.iter()
        .filter(|r| {
            let result = r.get("result");
            let correct = result.and_then(|x| x.get("correct")) == Some(&Json::Bool(true));
            let failed = result.and_then(|x| x.get("failed")).and_then(Json::as_f64);
            !correct || failed != Some(0.0)
        })
        .count()
}

/// The report, and whether every metric of every workload is within bounds.
pub fn compare(a: &Json, b: &Json, manifest: &Json) -> Result<(String, bool), String> {
    for set in [a, b] {
        if set.get("quick") == Some(&Json::Bool(true)) {
            return Err("a --quick set is not for comparison".into());
        }
    }
    let bounds = bounds(manifest)?;
    let mut out = format!(
        "{:<17} {:<15} {:>12} {:>12} {:>8} {:>7} {:>8} {:>8}  verdict\n",
        "workload", "metric", "median a", "median b", "worse", "bound", "spread a", "spread b"
    );
    let mut within = true;
    for workload in workloads(a) {
        for m in &bounds {
            let (va, vb) = (values(a, &workload, &m.name), values(b, &workload, &m.name));
            if va.is_empty() || vb.is_empty() {
                out += &format!("{workload:<17} {:<15} missing from a set\n", m.name);
                within = false;
                continue;
            }
            let ([a1, am, a3], [b1, bm, b3]) = (quartiles(&va), quartiles(&vb));
            let worse = if m.lower_is_better { (bm - am) / am } else { (am - bm) / am };
            let (sa, sb) = ((a3 - a1) / am, (b3 - b1) / bm);
            // Set-up time is exempt from the spread rule: it is a single
            // short phase and the benchmark gives it the widest bound.
            let unsteady = m.name != "setup_s" && sa.max(sb) > m.bound;
            let verdict = if worse > m.bound {
                within = false;
                "OUT OF BOUND"
            } else if unsteady {
                within = false;
                "unresolved: spread over bound"
            } else {
                "ok"
            };
            out += &format!(
                "{workload:<17} {:<15} {am:>12.4} {bm:>12.4} {:>+7.2}% {:>6.1}% {:>7.2}% {:>7.2}%  {verdict}\n",
                m.name,
                worse * 100.0,
                m.bound * 100.0,
                sa * 100.0,
                sb * 100.0,
            );
        }
    }
    let bad = unsound(a) + unsound(b);
    if bad > 0 {
        out += &format!("{bad} runs were incorrect or had failed operations\n");
        within = false;
    }
    Ok((out, within))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const MANIFEST: &str = r#"{"end_to_end": [
        {"name": "cpu_ns_per_op", "unit": "ns", "better": "lower", "bound": 0.08},
        {"name": "virt_ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.02}]}"#;

    fn set(cpu: &[f64], ops: f64) -> Json {
        let runs = cpu
            .iter()
            .map(|c| {
                format!(
                    r#"{{"workload": "w", "seed": 1, "trace": 0, "result": {{"correct": true,
                    "attempted": 9, "failed": 0, "metrics": {{
                    "cpu_ns_per_op": {{"value": {c}, "unit": "ns"}},
                    "virt_ops_per_s": {{"value": {ops}, "unit": "1/s"}}}}}}}}"#
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        parse(&format!(r#"{{"quick": false, "runs": [{runs}]}}"#)).unwrap()
    }

    #[test]
    fn equal_sets_are_within_bounds() {
        let a = set(&[100.0, 101.0, 99.0], 6000.0);
        let (report, ok) = compare(&a, &a, &parse(MANIFEST).unwrap()).unwrap();
        assert!(ok, "{report}");
    }

    #[test]
    fn a_slower_or_a_lower_second_set_is_out_of_bound() {
        let manifest = parse(MANIFEST).unwrap();
        let a = set(&[100.0, 101.0, 99.0], 6000.0);
        let slower = set(&[110.0, 111.0, 109.0], 6000.0);
        assert!(!compare(&a, &slower, &manifest).unwrap().1, "cpu 10% worse, bound 8%");
        assert!(compare(&slower, &a, &manifest).unwrap().1, "getting faster is fine");
        let fewer = set(&[100.0, 101.0, 99.0], 5800.0);
        assert!(!compare(&a, &fewer, &manifest).unwrap().1, "throughput 3.3% lower, bound 2%");
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let manifest = parse(MANIFEST).unwrap();
        let noisy = set(&[80.0, 100.0, 120.0], 6000.0);
        let (report, ok) = compare(&noisy, &noisy, &manifest).unwrap();
        assert!(!ok && report.contains("unresolved"), "{report}");
    }
}
