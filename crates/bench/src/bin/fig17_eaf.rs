//! Fig 17: the impact of EAF on (a) page walks and (b) DRAM traffic.
//!
//! Paper: Avatar performs 19.1% fewer page walks than Promotion on class-H
//! workloads, and its aggressive sector-granularity speculative fetching
//! raises DRAM traffic by only 2.2% over the baseline on average.

use avatar_bench::json::Json;
use avatar_bench::runner::{run_scenarios, Scenario};
use avatar_bench::{mean, obj, print_table, policy_set, HarnessArgs};
use avatar_workloads::{Class, Workload};

fn main() {
    let opts = HarnessArgs::parse();
    let ro = opts.run_options();
    let workloads = Workload::all();
    let policies: [_; 3] = policy_set("baseline,promotion,avatar");

    let mut scenarios = Vec::new();
    for w in &workloads {
        for p in policies {
            scenarios.push(Scenario::new(p.label(), w, p, ro.clone()));
        }
    }
    let results = run_scenarios(opts.threads, scenarios);

    let mut rows = Vec::new();
    let mut json_rows: Vec<Json> = Vec::new();
    let mut h_walks = Vec::new();
    let mut traffic = Vec::new();

    for (wi, w) in workloads.iter().enumerate() {
        let base = results[wi * 3].expect_stats();
        let promo = results[wi * 3 + 1].expect_stats();
        let avatar = results[wi * 3 + 2].expect_stats();
        let walks_ratio = if promo.page_walks == 0 {
            1.0
        } else {
            avatar.page_walks as f64 / promo.page_walks as f64
        };
        let traffic_ratio = if base.dram_bytes() == 0 {
            1.0
        } else {
            avatar.dram_bytes() as f64 / base.dram_bytes() as f64
        };
        if w.class == Class::H {
            h_walks.push(walks_ratio);
        }
        traffic.push(traffic_ratio);
        rows.push(vec![
            w.abbr.to_string(),
            format!("{:?}", w.class),
            format!("{:+.1}%", (walks_ratio - 1.0) * 100.0),
            format!("{:+.1}%", (traffic_ratio - 1.0) * 100.0),
            avatar.walks_aborted.to_string(),
        ]);
        json_rows.push(obj! {
            "workload": w.abbr,
            "class": format!("{:?}", w.class),
            "walks_vs_promotion": walks_ratio,
            "traffic_vs_baseline": traffic_ratio,
            "walks_aborted": avatar.walks_aborted,
        });
    }

    println!("\nFig 17: EAF impact (Avatar)");
    print_table(
        &["Workload", "Class", "Walks vs Promotion", "DRAM traffic vs baseline", "Walks aborted"],
        &rows,
    );
    println!(
        "\npaper: class-H walks -19.1% vs Promotion, traffic +2.2% vs baseline | measured: class-H walks {:+.1}%, traffic {:+.1}%",
        (mean(&h_walks) - 1.0) * 100.0,
        (mean(&traffic) - 1.0) * 100.0
    );
    opts.dump_json(&json_rows);
}
