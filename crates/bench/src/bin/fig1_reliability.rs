//! Figure 1: system reliability vs node count for per-node MTBF of 10^5 and
//! 10^6 hours (the paper's motivation figure; analytic model).

use mams_bench::{arr, obj, print_table, save_json, Value};
use mams_sim::reliability::{reliability_series, system_mtbf_hours};

fn main() {
    let counts: Vec<u64> =
        vec![1, 10, 100, 1_000, 5_000, 10_000, 50_000, 100_000, 131_000, 200_000];
    let mission_hours = 24.0;
    let lo = reliability_series(&counts, 1e5, mission_hours);
    let hi = reliability_series(&counts, 1e6, mission_hours);

    let rows: Vec<Vec<String>> = counts
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            vec![
                n.to_string(),
                format!("{:.4}", lo[i].1),
                format!("{:.4}", hi[i].1),
                format!("{:.1}", system_mtbf_hours(n, 1e5)),
                format!("{:.1}", system_mtbf_hours(n, 1e6)),
            ]
        })
        .collect();
    print_table(
        "Figure 1: reliability over a 24h mission vs cluster size",
        &["nodes", "R (MTBF 1e5h)", "R (MTBF 1e6h)", "sys MTBF 1e5 (h)", "sys MTBF 1e6 (h)"],
        &rows,
    );
    println!(
        "\nBlue Gene/L scale (131k nodes, per-node MTBF 9e5h): system MTBF = {:.1} h (paper: below 7 h)",
        system_mtbf_hours(131_000, 9e5)
    );
    let series = |s: &[(u64, f64)]| arr(s.iter().map(|&(n, r)| arr([Value::from(n), r.into()])));
    save_json(
        "fig1_reliability",
        &obj([
            ("mission_hours", mission_hours.into()),
            ("series", obj([("mtbf_1e5", series(&lo)), ("mtbf_1e6", series(&hi))])),
        ]),
    );
}
