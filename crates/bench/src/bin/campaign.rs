//! Seeded chaos campaign over the scenario corpus.
//!
//! ```text
//! cargo run --release --bin campaign -- --seeds 200
//! cargo run --release --bin campaign -- --scenario failover_crash --seeds 40
//! cargo run --bin campaign -- --inject --seeds 10             # teeth check
//! ```
//!
//! Splits the seed budget across the corpus, runs every (scenario, seed)
//! pair on a worker pool, shrinks any unexpected failure down to a minimal
//! fault program, and, after a whole-corpus sweep, writes
//! `results/CAMPAIGN.json`. `--inject` runs the debug-only `double_ack`
//! scenario instead, where every run must be convicted.
//!
//! Exit status: `0` when every run is as expected (clean, or convicted
//! under `--inject`); `1` otherwise; `2` for bad arguments, or `--inject`
//! in a release build, which carries no bug.

use std::collections::BTreeMap;
use std::sync::Mutex;

use mams_bench::{arr, obj, Value};
use mams_chaos::{corpus, run_scenario, CheckOutcome, RunConfig, RunReport, Scenario};

struct Args {
    seeds: u64,
    scenario: Option<String>,
    inject: bool,
    jobs: usize,
    shrink_budget: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: 60,
        scenario: None,
        inject: false,
        jobs: std::thread::available_parallelism().map(|n| n.get().min(8)).unwrap_or(4),
        shrink_budget: 32,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => args.seeds = it.next().and_then(|v| v.parse().ok()).expect("--seeds N"),
            "--scenario" => args.scenario = Some(it.next().expect("--scenario NAME")),
            "--inject" => args.inject = true,
            "--jobs" => args.jobs = it.next().and_then(|v| v.parse().ok()).expect("--jobs N"),
            "--shrink-budget" => {
                args.shrink_budget =
                    it.next().and_then(|v| v.parse().ok()).expect("--shrink-budget N")
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: campaign [--seeds N] [--scenario NAME] [--inject] [--jobs N] \
                     [--shrink-budget N]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    args
}

#[derive(Default)]
struct ScenarioTally {
    runs: u64,
    clean: u64,
    violations: u64,
    invariant_failures: u64,
    inconclusive: u64,
    ops_ok: u64,
    ops_failed: u64,
    records: u64,
    max_states: u64,
}

fn main() {
    let args = parse_args();
    // Teeth mode runs the one scenario with a bug, which only debug builds have.
    let name = if args.inject { Some("double_ack") } else { args.scenario.as_deref() };
    let scenarios: Vec<Scenario> = match name {
        Some(name) => vec![mams_chaos::by_name(name).unwrap_or_else(|| {
            if args.inject {
                eprintln!("--inject needs the debug build, the one with the bug: drop --release");
            } else {
                eprintln!("unknown scenario {name}");
            }
            std::process::exit(2);
        })],
        None => corpus(),
    };

    let per_scenario = (args.seeds / scenarios.len() as u64).max(1);
    let mut jobs: Vec<(usize, u64)> = Vec::new();
    for (si, _) in scenarios.iter().enumerate() {
        for seed in 0..per_scenario {
            jobs.push((si, seed + 1));
        }
    }
    println!(
        "campaign: {} scenario(s) x {} seed(s) = {} runs on {} worker(s)",
        scenarios.len(),
        per_scenario,
        jobs.len(),
        args.jobs,
    );

    let queue = Mutex::new(jobs);
    let reports: Mutex<Vec<RunReport>> = Mutex::new(Vec::new());
    let t_start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..args.jobs {
            scope.spawn(|| loop {
                let job = queue.lock().unwrap().pop();
                let Some((si, seed)) = job else { break };
                let cfg = RunConfig { seed, ..Default::default() };
                let rep = run_scenario(&scenarios[si], &cfg);
                reports.lock().unwrap().push(rep);
            });
        }
    });
    let mut reports = reports.into_inner().unwrap();
    reports.sort_by_key(|r| (r.scenario, r.seed));

    // Shrink unexpected failures to minimal witnesses (bounded).
    let mut shrunk_witnesses = Vec::new();
    if !args.inject {
        for rep in reports.iter().filter(|r| r.failed()).take(3) {
            let sc = scenarios.iter().find(|s| s.name == rep.scenario).expect("scenario");
            let cfg = RunConfig { seed: rep.seed, ..Default::default() };
            println!(
                "shrinking {}/seed {} ({} actions)...",
                rep.scenario,
                rep.seed,
                rep.program.len()
            );
            let s = mams_chaos::shrink(sc, &cfg, rep, args.shrink_budget);
            println!(
                "  -> minimal witness: {} action(s) after {} rerun(s)",
                s.program.len(),
                s.runs
            );
            for a in &s.program {
                println!("     t+{}ms {:?}", a.at_ms, a.kind);
            }
            shrunk_witnesses.push((rep.scenario, rep.seed, s));
        }
    }

    // ---- tally + report ----
    let mut tally: BTreeMap<&'static str, ScenarioTally> = BTreeMap::new();
    for r in &reports {
        let t = tally.entry(r.scenario).or_default();
        t.runs += 1;
        t.ops_ok += r.ops_ok;
        t.ops_failed += r.ops_failed;
        t.records += r.records as u64;
        match &r.check {
            CheckOutcome::Ok { states } => t.max_states = t.max_states.max(*states),
            CheckOutcome::Violation { .. } => t.violations += 1,
            CheckOutcome::Inconclusive { states } => {
                t.inconclusive += 1;
                t.max_states = t.max_states.max(*states);
            }
        }
        if !r.invariants.is_empty() {
            t.invariant_failures += 1;
        }
        if !r.failed() {
            t.clean += 1;
        }
    }

    let rows: Vec<Vec<String>> = tally
        .iter()
        .map(|(name, t)| {
            vec![
                name.to_string(),
                t.runs.to_string(),
                t.clean.to_string(),
                t.violations.to_string(),
                t.invariant_failures.to_string(),
                t.inconclusive.to_string(),
                (t.ops_ok / t.runs.max(1)).to_string(),
                t.max_states.to_string(),
            ]
        })
        .collect();
    mams_bench::print_table(
        "Chaos campaign",
        &["scenario", "runs", "clean", "lin-viol", "inv-fail", "inconcl", "ops/run", "max-states"],
        &rows,
    );

    let scenarios = tally.iter().map(|(name, t)| {
        let fields = obj([
            ("runs", t.runs.into()),
            ("clean", t.clean.into()),
            ("linearizability_violations", t.violations.into()),
            ("invariant_failures", t.invariant_failures.into()),
            ("inconclusive", t.inconclusive.into()),
            ("mean_ops_ok", (t.ops_ok / t.runs.max(1)).into()),
            ("history_records", t.records.into()),
            ("max_checker_states", t.max_states.into()),
        ]);
        (name.to_string(), fields)
    });
    let witnesses = shrunk_witnesses.iter().map(|(name, seed, s)| {
        let program = s.program.iter().map(|a| format!("t+{}ms {:?}", a.at_ms, a.kind));
        obj([
            ("scenario", (*name).into()),
            ("seed", (*seed).into()),
            ("minimal_program", arr(program)),
            ("reruns", (s.runs as u64).into()),
        ])
    });
    let doc = obj([
        ("seeds_per_scenario", per_scenario.into()),
        ("strict_linearizability", true.into()),
        ("wall_secs", t_start.elapsed().as_secs_f64().into()),
        ("scenarios", Value::Object(scenarios.collect())),
        ("shrunk_witnesses", arr(witnesses)),
    ]);
    if name.is_none() {
        mams_bench::save_json("CAMPAIGN", &doc);
    }

    let (expected, verdict) = if args.inject {
        ("convicted", "checker has teeth")
    } else {
        ("clean", "all scenarios clean")
    };
    let unexpected: Vec<&RunReport> = reports
        .iter()
        .filter(|r| if args.inject { !r.check.is_violation() } else { r.failed() })
        .collect();
    println!(
        "\n{}/{} run(s) {expected}, {:.1}s wall",
        reports.len() - unexpected.len(),
        reports.len(),
        t_start.elapsed().as_secs_f64()
    );
    for r in unexpected.iter().take(5) {
        println!("-- {} seed {}:", r.scenario, r.seed);
        for inv in &r.invariants {
            println!("   invariant: {inv}");
        }
        match &r.check {
            CheckOutcome::Ok { .. } => {}
            CheckOutcome::Violation { witness } => println!("   {witness}"),
            CheckOutcome::Inconclusive { states } => println!("   inconclusive: {states} states"),
        }
        println!("   timeline:\n{}", r.timeline);
    }
    if !unexpected.is_empty() {
        println!("{verdict}: FAIL");
        std::process::exit(1);
    }
    println!("{verdict}: PASS");
}
