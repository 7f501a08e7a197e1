//! `bench_e2e` — the repository's benchmark. It assembles a whole MAMS
//! cluster (coordinator, pool, replica groups, data servers, clients) on the
//! single-threaded simulator, drives it with seed-generated scripts, and
//! reports what a user of the service would see, plus a per-crate table of
//! where the time went. See `README.md` beside this package.
//!
//! ```text
//! bench_e2e --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON line
//! bench_e2e [--runs N] [--out set.json] [--quick]              every workload, a table
//! bench_e2e --compare a.json b.json [--bounds BENCHMARK.json]  two sets against the bounds
//! ```

mod cluster;
mod compare;
mod json;
mod layers;
mod metrics;
mod probe;
mod run;
mod script;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use metrics::Metric;
use probe::{lock, KINDS, LAYERS};
use workload::Spec;

/// "MAMS"; a run records the seed it used.
const DEFAULT_SEED: u64 = 0x4d41_4d53;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    runs: u64,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    bounds: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: workload::RUN_SECONDS,
        trace: false,
        quick: false,
        runs: 1,
        out: None,
        compare: None,
        bounds: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|_| format!("{flag}: not a number: {v}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?).filter(|w| w != "all"),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => args.trace = number(value()?)? != 0,
            "--runs" => args.runs = number(value()?)?.max(1),
            "--out" => args.out = Some(value()?.into()),
            "--bounds" => args.bounds = value()?.into(),
            "--quick" => args.quick = true,
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(
        metrics.iter().map(|m| {
            (m.name, Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]))
        }),
    )
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        eprintln!("  {:<42} {:>16.3} {}", m.name, m.value, m.unit);
    }
}

/// Where a traced run leaves its spans unless `--out` says otherwise.
fn default_trace_path(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("bench_e2e").join(format!("trace_{workload}.json"))
}

fn trace_json(
    spec: &Spec,
    seed: u64,
    traced: &run::Measured,
    roles: &[probe::RoleChange],
    probes: &layers::Probes,
    metrics: &[Metric],
    failover_stages: &[Metric],
) -> Json {
    let num = |n: u64| Json::Num(n as f64);
    let layers = LAYERS.iter().map(|&l| {
        let s = &traced.layers[l as usize];
        let mut top = s.top.clone();
        top.sort_by_key(|span| std::cmp::Reverse(span.ns));
        let by_kind = KINDS.iter().map(|&k| (format!("{k:?}"), num(s.by_kind[k as usize])));
        let spans = top.iter().map(|span| {
            Json::obj([
                ("at_us", num(span.at_us)),
                ("node", num(span.node.into())),
                ("kind", Json::str(format!("{:?}", span.kind))),
                ("ns", num(span.ns)),
            ])
        });
        let row = Json::obj([
            ("busy_ns", num(s.busy_ns)),
            ("callbacks", num(s.callbacks)),
            ("by_kind", Json::obj(by_kind)),
            ("longest_spans", Json::Arr(spans.collect())),
        ]);
        (l.name(), row)
    });
    let windows = traced.windows.iter().map(|w| {
        let busy = LAYERS.iter().map(|&l| (l.name(), num(w.busy_ns[l as usize])));
        Json::obj([
            ("start_us", num(w.start_us)),
            ("end_us", num(w.end_us)),
            ("cpu_ns", num(w.cpu_ns)),
            ("speed", Json::Num(w.speed)),
            ("wall_ns", num(w.wall_ns)),
            ("events", num(w.events)),
            ("busy_ns", Json::obj(busy)),
        ])
    });
    let roles = roles.iter().map(|r| {
        Json::obj([
            ("at_us", num(r.at_us)),
            ("node", num(r.node.into())),
            ("role", Json::str(format!("{:?}", r.role))),
        ])
    });
    let crashes = traced
        .crashes
        .iter()
        .map(|c| Json::obj([("at_us", num(c.at_us)), ("node", num(c.node.into()))]));
    Json::obj([
        ("workload", Json::str(spec.name)),
        ("seed", num(seed)),
        ("layers", Json::obj(layers)),
        ("windows", Json::Arr(windows.collect())),
        ("role_changes", Json::Arr(roles.collect())),
        ("crashes", Json::Arr(crashes.collect())),
        ("probe_findings", Json::Arr(probes.findings.iter().map(Json::str).collect())),
        ("failover_stages", metrics_json(failover_stages)),
        ("metrics", metrics_json(metrics)),
    ])
}

/// One workload in this process. Prints the account of the run to stderr and
/// returns the result line.
fn run_one(spec: &Spec, args: &Args) -> Result<Json, String> {
    let mut meter = stats::Meter::new();
    let spec = if args.quick { spec.quick() } else { spec.clone() };
    let mut windows = spec.windows_for(if args.quick { 1 } else { args.seconds });
    if args.trace {
        // A traced run measures twice, untraced and traced, in the same time.
        windows = (windows / 2).max(2);
    }
    let reps = if args.quick { 1 } else { workload::REPS };
    eprintln!("{}: {}", spec.name, spec.why);
    eprintln!(
        "{}: seed {} | {} group(s) x (1 active + {} standbys), {} pool nodes, {} closed-loop \
         clients, think {} ms | {reps} repetitions of {windows} windows x {} virtual s after {} s \
         warm-up | link \
         100-150 us one way, journal disk 1.5 ms + 100 MB/s, server CPU 50 us read / 150 us \
         mutation | clock {}{}",
        spec.name,
        args.seed,
        spec.groups,
        spec.standbys,
        workload::POOL_NODES,
        spec.clients,
        spec.think_ms,
        spec.window_s,
        spec.warmup_s,
        meter.clock.name(),
        if args.quick { " | QUICK: not for comparison" } else { "" },
    );

    let run::Repeated { measured: untraced, staged, setups_s, same_work } =
        run::repeat(&spec, args.seed, windows, false, reps, &mut meter)?;
    let peak_rss_mb = stats::peak_rss_mb();
    let script_bytes = staged.script_bytes;
    let mut findings = run::audit(&spec, args.seed, windows, staged);
    if untraced.crashes_skipped > 0 {
        findings.push(format!("{} windows had no active to crash", untraced.crashes_skipped));
    }
    if !same_work && spec.groups == 1 {
        findings.push("repetitions of one seed did not acknowledge the same ops".into());
    } else if !same_work {
        // Actives resend unanswered cross-group legs in the order of a
        // randomly keyed hash map, so with several groups a seed does not
        // fix the order of events.
        eprintln!("{}: note: repetitions of this seed differ event for event", spec.name);
    }
    if untraced.acks.is_empty() {
        return Err(format!("{}: no operation was acknowledged", spec.name));
    }
    let e2e = metrics::end_to_end(&untraced, &setups_s, peak_rss_mb);
    eprintln!("{}: {}", spec.name, e2e.detail);

    let metrics = if args.trace {
        let shape = (windows, reps);
        traced_metrics(&spec, args, shape, &mut meter, &untraced, script_bytes, &mut findings)?
    } else {
        e2e.metrics
    };
    print_metrics(&metrics);
    for f in &findings {
        eprintln!("{}: AUDIT FAILED: {f}", spec.name);
    }
    Ok(Json::obj([
        ("correct", Json::Bool(findings.is_empty())),
        ("attempted", Json::Num(e2e.attempted as f64)),
        ("failed", Json::Num(e2e.failed as f64)),
        ("metrics", metrics_json(&metrics)),
    ]))
}

/// The second half of a traced run: the same work again with every node
/// timed, then the layer probes; the spans go to the trace file.
fn traced_metrics(
    spec: &Spec,
    args: &Args,
    (windows, reps): (u32, usize),
    meter: &mut stats::Meter,
    untraced: &run::Measured,
    script_bytes: usize,
    findings: &mut run::Findings,
) -> Result<Vec<Metric>, String> {
    let run::Repeated { measured: traced, staged, .. } =
        run::repeat(spec, args.seed, windows, true, reps, meter)?;
    let trace = staged.cluster.trace.clone().expect("staged as traced");
    let roles = lock(&trace).roles.clone();
    findings.extend(run::audit(spec, args.seed, windows, staged));
    if traced.acks.len() != untraced.acks.len() && spec.groups == 1 {
        findings.push("the traced run did not do the untraced run's work".into());
    }
    let probes = layers::run(spec, args.seed, metrics::ops_per_batch(&traced), meter);
    findings.extend(probes.findings.iter().cloned());
    let inputs = metrics::LayerInputs {
        untraced,
        traced: &traced,
        roles: &roles,
        probes: &probes,
        script_bytes,
    };
    let per_layer = metrics::per_layer(&inputs);
    let stages = metrics::failover_stages(&traced, &roles);
    if spec.crash {
        print_metrics(&stages);
    }
    let path = args.out.clone().unwrap_or_else(|| default_trace_path(spec.name));
    let doc = trace_json(spec, args.seed, &traced, &roles, &probes, &per_layer, &stages);
    path.parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, format!("{doc}\n")))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("{}: trace written to {}", spec.name, path.display());
    Ok(per_layer)
}

/// Run `spec` in a child process — a fresh address space, so that its memory
/// high-water mark is its own — and return the result line it printed.
fn run_child(spec: &Spec, seed: u64, args: &Args) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name, "--seed", &seed.to_string()]);
    cmd.args([
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        &u8::from(args.trace).to_string(),
    ]);
    if args.quick {
        cmd.arg("--quick");
    }
    let child = cmd.stdout(Stdio::piped()).spawn().map_err(|e| format!("cannot start run: {e}"))?;
    let output = child.wait_with_output().map_err(|e| format!("run did not end: {e}"))?;
    if !output.status.success() {
        return Err(format!("{} seed {seed}: run exited with {}", spec.name, output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    json::parse(stdout.lines().last().unwrap_or(""))
}

/// Every selected workload, `--runs` times over consecutive seeds.
fn run_set(specs: &[Spec], args: &Args) -> Result<bool, String> {
    let mut runs = Vec::new();
    let mut sound = true;
    for spec in specs {
        let mut table: Vec<(String, String, Vec<f64>)> = Vec::new();
        for seed in args.seed..args.seed + args.runs {
            let result = run_child(spec, seed, args)?;
            sound &= result.get("correct") == Some(&Json::Bool(true));
            for (name, m) in result.get("metrics").map_or(&[][..], Json::fields) {
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                match table.iter_mut().find(|row| row.0 == *name) {
                    Some(row) => row.2.push(value),
                    None => table.push((name.clone(), unit.to_string(), vec![value])),
                }
            }
            runs.push(Json::obj([
                ("workload", Json::str(spec.name)),
                ("seed", Json::Num(seed as f64)),
                ("trace", Json::Num(u8::from(args.trace).into())),
                ("result", result),
            ]));
        }
        println!("== {} ({} run(s), median, quartile spread) ==", spec.name, args.runs);
        for (name, unit, values) in table {
            let [q1, med, q3] = stats::quartiles(&values);
            let spread = if med == 0.0 { 0.0 } else { 100.0 * (q3 - q1) / med };
            println!("  {name:<42} {med:>16.3} {unit:<6} {spread:>6.2}%");
        }
    }
    let set = Json::obj([
        ("quick", Json::Bool(args.quick)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("runs", Json::Arr(runs)),
    ]);
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{set}\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("set written to {}", path.display());
    }
    Ok(sound)
}

fn read_json(path: &PathBuf) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if let Some((a, b)) = &args.compare {
        let (report, within) =
            compare::compare(&read_json(a)?, &read_json(b)?, &read_json(&args.bounds)?)?;
        print!("{report}");
        return Ok(within);
    }
    let specs = workload::all();
    match &args.workload {
        Some(name) if args.runs == 1 => {
            let spec = specs
                .iter()
                .find(|s| s.name == name)
                .ok_or_else(|| format!("no workload named {name}"))?;
            let result = run_one(spec, &args)?;
            println!("{result}");
            Ok(result.get("correct") == Some(&Json::Bool(true)))
        }
        Some(name) => {
            let chosen: Vec<Spec> = specs.into_iter().filter(|s| s.name == name).collect();
            if chosen.is_empty() {
                return Err(format!("no workload named {name}"));
            }
            run_set(&chosen, &args)
        }
        None => run_set(&specs, &args),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names the workloads and metrics; the code emits
    /// them. A change to one without the other fails here, not in the gate.
    #[test]
    fn the_manifest_lists_what_the_code_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = read_json(&PathBuf::from(path)).unwrap();
        let listed = |key: &str, field: &str| -> Vec<String> {
            let items = manifest.get(key).and_then(Json::as_arr).unwrap();
            items.iter().map(|m| m.get(field).and_then(Json::as_str).unwrap().to_string()).collect()
        };
        let specs = workload::all();
        assert_eq!(listed("workloads", "name"), specs.iter().map(|s| s.name).collect::<Vec<_>>());
        assert_eq!(listed("workloads", "why"), specs.iter().map(|s| s.why).collect::<Vec<_>>());
        assert_eq!(manifest.get("run_seconds"), Some(&Json::Num(workload::RUN_SECONDS as f64)));

        let measured = run::Measured {
            windows: vec![run::Window { end_us: 1, ..Default::default() }],
            acks: vec![mams_cluster::Completion { at_us: 0, issued_us: 0, ok: true }],
            layers: vec![Default::default(); LAYERS.len()],
            ..Default::default()
        };
        let e2e = metrics::end_to_end(&measured, &[1.0], 1.0).metrics;
        assert_eq!(listed("end_to_end", "name"), e2e.iter().map(|m| m.name).collect::<Vec<_>>());
        assert_eq!(listed("end_to_end", "unit"), e2e.iter().map(|m| m.unit).collect::<Vec<_>>());
        let inputs = metrics::LayerInputs {
            untraced: &measured,
            traced: &measured,
            roles: &[],
            probes: &Default::default(),
            script_bytes: 0,
        };
        let layers = metrics::per_layer(&inputs);
        assert_eq!(listed("per_layer", "name"), layers.iter().map(|m| m.name).collect::<Vec<_>>());
        assert_eq!(listed("per_layer", "unit"), layers.iter().map(|m| m.unit).collect::<Vec<_>>());
    }
}
