//! Fig 21: performance with a 64KB base page (prefetch-enlarged fault
//! granularity), normalized to the 64KB baseline.
//!
//! Paper: Avatar gains 13% over the baseline, ahead of Promotion by 7.2%
//! and CoLT by 3.0%; the CoLT gap narrows versus 4KB pages because 64KB
//! entries raise its maximum coalesced reach, but irregular workloads
//! (SC, XSB) still favour Avatar. SnakeByte is excluded (64KB pages do
//! not align with its merging), as in the paper.

use avatar_bench::json::Json;
use avatar_bench::runner::{fmt_cell, run_scenarios, speedup_cell, Scenario};
use avatar_bench::{geomean, obj, print_table, policy_set, HarnessArgs};
use avatar_core::system::RunOptions;
use avatar_sim::config::BasePage;
use avatar_workloads::Workload;

fn main() {
    let opts = HarnessArgs::parse();
    let ro = RunOptions { base_page: BasePage::Size64K, ..opts.run_options() };
    let workloads = Workload::all();
    let [baseline, configs @ ..] = policy_set::<4>("baseline,promotion,colt,avatar");
    let labels = configs.map(|p| p.label());

    let mut scenarios = Vec::new();
    for w in &workloads {
        scenarios.push(Scenario::new("Baseline", w, baseline, ro.clone()));
        for cfg in configs {
            scenarios.push(Scenario::new(cfg.label(), w, cfg, ro.clone()));
        }
    }
    let results = run_scenarios(opts.threads, scenarios);
    let stride = configs.len() + 1;

    let mut rows = Vec::new();
    let mut json_rows: Vec<Json> = Vec::new();
    let mut per_config: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];

    for (wi, w) in workloads.iter().enumerate() {
        let base = &results[wi * stride];
        let mut cells = vec![w.abbr.to_string()];
        let mut speedups = Vec::new();
        for (i, label) in labels.iter().enumerate() {
            let x = speedup_cell(base, &results[wi * stride + 1 + i]);
            if let Some(x) = x {
                per_config[i].push(x);
            }
            cells.push(fmt_cell(x, 3));
            speedups.push(obj! { "config": label.clone(), "speedup": x });
        }
        json_rows.push(obj! { "workload": w.abbr, "speedups": Json::Arr(speedups) });
        rows.push(cells);
    }

    let mut gmean = vec!["GMEAN".to_string()];
    for xs in &per_config {
        gmean.push(format!("{:.3}", geomean(xs)));
    }
    rows.push(gmean);

    let mut headers = vec!["Workload"];
    headers.extend(labels.iter().map(String::as_str));
    println!("\nFig 21: speedup over the 64KB-base-page baseline");
    print_table(&headers, &rows);
    println!("\npaper: Avatar +13% avg; gaps narrow vs 4KB but irregular workloads still favour Avatar");
    opts.dump_json(&json_rows);
}
