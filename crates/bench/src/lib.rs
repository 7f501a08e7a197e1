//! # mams-bench — harnesses that regenerate every table and figure
//!
//! One binary per experiment (see DESIGN.md §3). Shared plumbing lives
//! here: table formatting, JSON result export, throughput measurement, and
//! trace inspection helpers. Wall-clock cost is measured by `bench_e2e/`,
//! a package of its own.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

use mams_cluster::deploy::Deployment;
use mams_cluster::metrics::Metrics;
use mams_cluster::workload::Workload;
use mams_coord::CoordTrace;
use mams_core::ViewKey;
use mams_sim::{Duration, NodeId, Sim};

/// Print an aligned table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// A result document: what `save_json` writes. Object keys are sorted.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Pretty-printed: each item of an array or object on a line of its own,
    /// two spaces deeper than its brackets; an empty one on one line.
    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let (open, close, items): (_, _, Vec<(Option<&str>, &Value)>) = match self {
            Value::Bool(b) => return write!(f, "{b}"),
            // Integral and exactly representable: no fraction, no exponent.
            Value::Number(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => {
                return write!(f, "{}", *n as i64)
            }
            Value::Number(n) => return write!(f, "{n}"),
            Value::String(s) => return quote(f, s),
            Value::Array(v) => ("[", "]", v.iter().map(|v| (None, v)).collect()),
            Value::Object(m) => ("{", "}", m.iter().map(|(k, v)| (Some(k.as_str()), v)).collect()),
        };
        if items.is_empty() {
            return write!(f, "{open}{close}");
        }
        f.write_str(open)?;
        for (i, (key, v)) in items.into_iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(f, "{sep}\n{:w$}", "", w = 2 * depth + 2)?;
            if let Some(k) = key {
                quote(f, k)?;
                f.write_str(": ")?;
            }
            v.write(f, depth + 1)?;
        }
        write!(f, "\n{:w$}{close}", "", w = 2 * depth)
    }
}

fn quote(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Number(v as f64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

/// A JSON object from `(key, value)` pairs.
pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A JSON array of anything that converts to a `Value`.
pub fn arr<T: Into<Value>>(items: impl IntoIterator<Item = T>) -> Value {
    Value::Array(items.into_iter().map(Into::into).collect())
}

/// Write a JSON result document under `results/`.
pub fn save_json(name: &str, value: &Value) {
    let dir = PathBuf::from("results");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.json"));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let _ = writeln!(f, "{value}");
            println!("(saved {})", path.display());
        }
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Throughput of a workload against an already-built deployment:
/// `clients` closed-loop clients run for `warmup + measure`; returns mean
/// ops/s over the measurement window.
pub fn measure_throughput(
    sim: &mut Sim,
    deployment: &mut Deployment,
    make_workload: impl Fn(u32) -> Workload,
    clients: u32,
    warmup: Duration,
    measure: Duration,
) -> f64 {
    let metrics = Metrics::new(false);
    for c in 0..clients {
        deployment.add_client(sim, make_workload(c), metrics.clone());
    }
    sim.run_for(warmup);
    let from_sec = (sim.now().micros() / 1_000_000) as usize;
    sim.run_for(measure);
    let to_sec = (sim.now().micros() / 1_000_000) as usize;
    metrics.mean_throughput(from_sec, to_sec)
}

/// Pre-create `files_per_client` files per client (private dirs), waiting
/// for completion. Returns the metrics of the setup phase.
pub fn populate(
    sim: &mut Sim,
    deployment: &mut Deployment,
    clients: u32,
    files_per_client: u64,
    budget: Duration,
) -> Arc<Metrics> {
    let metrics = Metrics::new(false);
    for c in 0..clients {
        deployment.add_client_with(sim, Workload::create_only(c), metrics.clone(), |mut cfg| {
            // +1 for the setup mkdir.
            cfg.max_ops = Some(files_per_client + 1);
            cfg
        });
    }
    let target = clients as u64 * (files_per_client + 1);
    let deadline = sim.now() + budget;
    while metrics.ok_count() + metrics.failed_count() < target && sim.now() < deadline {
        sim.run_for(Duration::from_secs(1));
    }
    metrics
}

/// Reconstruct the global-view state table (the paper's Table II rows) from
/// the coordination trace: one row per change to any member's state key,
/// values `A`/`S`/`J`, and `-` while a member's key is absent (dead or
/// unreachable).
pub fn reconstruct_states(sim: &Sim, members: &[NodeId]) -> Vec<(f64, Vec<String>)> {
    use std::collections::HashMap;
    let mut current: HashMap<NodeId, String> = HashMap::new();
    let mut rows: Vec<(f64, Vec<String>)> = Vec::new();
    let snapshot = |current: &HashMap<NodeId, String>| -> Vec<String> {
        members.iter().map(|m| current.get(m).cloned().unwrap_or_else(|| "-".to_string())).collect()
    };
    for (time, _, e) in sim.trace().of::<CoordTrace>() {
        let (key, value) = match e {
            CoordTrace::ViewSet { key, value } => (key, Some(value)),
            CoordTrace::ViewDel { key } => (key, None),
            _ => continue,
        };
        let Some(ViewKey::State(0, node)) = ViewKey::parse(key) else { continue };
        match value {
            Some(v) => current.insert(node, v.clone()),
            None => current.remove(&node),
        };
        let snap = snapshot(&current);
        if rows.last().map(|(_, s)| s) != Some(&snap) {
            rows.push((time.as_secs_f64(), snap));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use mams_cluster::deploy::{build, DeploySpec};
    use mams_cluster::workload::Workload as W;
    use mams_sim::SimConfig;

    #[test]
    fn reconstruct_states_yields_letter_rows() {
        let mut sim = Sim::new(SimConfig::default());
        let mut d = build(
            &mut sim,
            DeploySpec { groups: 1, standbys_per_group: 2, ..DeploySpec::default() },
        );
        let m = Metrics::new(false);
        d.add_client(&mut sim, W::create_only(0), m);
        sim.run_for(Duration::from_secs(3));
        let rows = reconstruct_states(&sim, &d.groups[0].members);
        assert!(!rows.is_empty());
        let (_, last) = rows.last().unwrap();
        assert_eq!(last.len(), 3);
        assert_eq!(last.iter().filter(|s| s.as_str() == "A").count(), 1, "{last:?}");
        assert_eq!(last.iter().filter(|s| s.as_str() == "S").count(), 2, "{last:?}");
    }

    #[test]
    fn values_render_as_the_results_files_are_written() {
        let v = obj([
            ("n", arr([Value::from(3u64), 0.5.into(), 1e16.into()])),
            ("s", "a\"b\\\n\u{1}".into()),
            ("e", obj([])),
        ]);
        let want = "{\n  \"e\": {},\n  \"n\": [\n    3,\n    0.5,\n    10000000000000000\n  ],\n  \
                    \"s\": \"a\\\"b\\\\\\n\\u0001\"\n}";
        assert_eq!(v.to_string(), want);
    }

    #[test]
    fn print_table_pads_columns() {
        // Smoke test: no panic on ragged rows.
        print_table(
            "t",
            &["a", "long-header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    fn measure_and_populate_helpers_work_together() {
        let mut sim = Sim::new(SimConfig { trace: false, ..SimConfig::default() });
        let mut d = build(
            &mut sim,
            DeploySpec { groups: 1, standbys_per_group: 1, ..DeploySpec::default() },
        );
        let setup = populate(&mut sim, &mut d, 2, 50, Duration::from_secs(60));
        assert_eq!(setup.ok_count(), 2 * 51, "2 clients × (50 files + setup mkdir)");
        let tput = measure_throughput(
            &mut sim,
            &mut d,
            |c| Workload::get_info(c, 50),
            2,
            Duration::from_secs(1),
            Duration::from_secs(3),
        );
        assert!(tput > 100.0, "read throughput {tput}");
    }
}
