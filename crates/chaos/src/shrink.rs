//! Shrink a failing fault program to a minimal witness.
//!
//! Greedy delta-debugging: repeatedly try dropping one action and rerun
//! the scenario with the shortened program under the same seed; keep any
//! drop that still fails, until a fixpoint (or the rerun budget runs out).
//! A [`FaultKind`](mams_cluster::faults::FaultKind) carries its own end (a
//! crash its restart, a pause its resume, a cut its heal), so dropping an
//! action drops its end with it and every shortened program is
//! well-formed — which is what makes single-action dropping sound here.

use mams_cluster::faults::FaultAction;

use crate::engine::{run_scenario, RunConfig, RunReport};
use crate::scenario::Scenario;

/// Result of shrinking.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// Minimal program still reproducing a failure (1-minimal w.r.t.
    /// action dropping, unless the budget ran out first).
    pub program: Vec<FaultAction>,
    /// The failing report produced by the minimal program.
    pub report: RunReport,
    /// Reruns spent.
    pub runs: usize,
}

/// Shrink `failing` (the program of a failed run of `sc` under `cfg`) with
/// at most `max_runs` reruns.
pub fn shrink(sc: &Scenario, cfg: &RunConfig, failing: &RunReport, max_runs: usize) -> Shrunk {
    let mut program = failing.program.clone();
    let mut report = failing.clone();
    let mut runs = 0;

    let rerun = |prog: Vec<FaultAction>| {
        let mut c = cfg.clone();
        c.program = Some(prog);
        run_scenario(sc, &c)
    };

    loop {
        let mut dropped_any = false;
        let mut i = 0;
        while i < program.len() && runs < max_runs {
            let mut candidate = program.clone();
            candidate.remove(i);
            runs += 1;
            let rep = rerun(candidate.clone());
            if rep.failed() {
                program = candidate;
                report = rep;
                dropped_any = true;
                // Same index now points at the next action.
            } else {
                i += 1;
            }
        }
        if !dropped_any || runs >= max_runs {
            break;
        }
    }
    Shrunk { program, report, runs }
}

#[cfg(test)]
#[cfg(debug_assertions)]
mod tests {
    use super::*;
    use crate::scenario;

    #[test]
    fn injected_bug_shrinks_to_the_empty_program() {
        // The double-ack defect fails with *no* faults at all, so every
        // action of any program must shrink away.
        let sc = scenario::double_ack();
        let cfg = RunConfig { seed: 5, ..Default::default() };
        let failing = run_scenario(&sc, &cfg);
        assert!(failing.failed(), "teeth run must fail");
        let s = shrink(&sc, &cfg, &failing, 8);
        assert!(s.program.is_empty(), "minimal witness should be empty, got {:?}", s.program);
        assert!(s.report.failed());
    }
}
