//! Seeded chaos campaign over the scenario corpus.
//!
//! ```text
//! cargo run --release --bin campaign -- --seeds 200
//! cargo run --release --bin campaign -- --scenario failover_crash --seeds 40
//! cargo run --release --bin campaign -- --inject --seeds 10   # teeth check
//! ```
//!
//! Splits the seed budget across the corpus, runs every (scenario, seed)
//! pair on a worker pool, shrinks any unexpected failure down to a minimal
//! fault program, and writes `results/CAMPAIGN.json`.
//!
//! Exit status: `0` when every run upheld the invariants (and, under
//! `--inject`, when the deliberately armed double-ack bug *was* caught);
//! `1` otherwise.

use std::collections::BTreeMap;
use std::sync::Mutex;

use mams_bench::{arr, obj, Value};
use mams_chaos::{corpus, quiet, run_scenario, CheckOutcome, RunConfig, RunReport, Scenario};

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
    let scenarios: Vec<Scenario> = if args.inject {
        // Teeth mode: arm the double-ack defect on the fault-free scenario
        // and demand the checker convicts every seed.
        vec![quiet()]
    } else {
        match &args.scenario {
            Some(name) => vec![mams_chaos::by_name(name).unwrap_or_else(|| {
                eprintln!("unknown scenario {name}");
                std::process::exit(2);
            })],
            None => corpus(),
        }
    };

    let per_scenario = (args.seeds / scenarios.len() as u64).max(1);
    let mut jobs: Vec<(usize, u64)> = Vec::new();
    for (si, _) in scenarios.iter().enumerate() {
        for seed in 0..per_scenario {
            jobs.push((si, seed + 1));
        }
    }
    println!(
        "campaign: {} scenario(s) x {} seed(s) = {} runs on {} worker(s){}",
        scenarios.len(),
        per_scenario,
        jobs.len(),
        args.jobs,
        if args.inject { " [double-ack INJECTED]" } else { "" }
    );

    let queue = Mutex::new(jobs);
    let reports: Mutex<Vec<RunReport>> = Mutex::new(Vec::new());
    let t_start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..args.jobs {
            scope.spawn(|| loop {
                let job = queue.lock().unwrap().pop();
                let Some((si, seed)) = job else { break };
                let cfg = RunConfig { seed, inject_double_ack: args.inject, ..Default::default() };
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
        ("injected_double_ack", args.inject.into()),
        ("strict_linearizability", true.into()),
        ("wall_secs", t_start.elapsed().as_secs_f64().into()),
        ("scenarios", Value::Object(scenarios.collect())),
        ("shrunk_witnesses", arr(witnesses)),
    ]);
    mams_bench::save_json("CAMPAIGN", &doc);

    let failures = reports.iter().filter(|r| r.failed()).count();
    if args.inject {
        let caught = reports.iter().filter(|r| r.check.is_violation()).count();
        println!(
            "\ninjected double-ack: {caught}/{} run(s) convicted by the checker",
            reports.len()
        );
        if caught == reports.len() {
            println!("checker has teeth: PASS");
        } else {
            println!("checker MISSED the injected bug: FAIL");
            std::process::exit(1);
        }
    } else {
        println!(
            "\n{} run(s), {} failure(s), {:.1}s wall",
            reports.len(),
            failures,
            t_start.elapsed().as_secs_f64()
        );
        if failures > 0 {
            for r in reports.iter().filter(|r| r.failed()).take(5) {
                println!("-- {} seed {}:", r.scenario, r.seed);
                for inv in &r.invariants {
                    println!("   invariant: {inv}");
                }
                if let CheckOutcome::Violation { witness } = &r.check {
                    println!("   {witness}");
                }
                println!("   timeline:\n{}", r.timeline);
            }
            std::process::exit(1);
        }
        println!("all scenarios clean: PASS");
    }
}
