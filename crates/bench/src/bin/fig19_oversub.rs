//! Fig 19: performance under 130% memory oversubscription, normalized to
//! the (equally oversubscribed) baseline.
//!
//! Paper: prior TLB-reach techniques lose effectiveness because chunk
//! evictions shoot down their merged entries; Avatar stays ≥14.3% ahead.
//! LMD, FW, and GEMM are excluded (working sets too small), as in the
//! paper.

use avatar_bench::json::Json;
use avatar_bench::runner::{fmt_cell, run_scenarios, speedup_cell, Scenario};
use avatar_bench::{geomean, obj, print_table, policy_set, HarnessArgs};
use avatar_core::system::RunOptions;
use avatar_workloads::Workload;

const EXCLUDED: [&str; 3] = ["LMD", "FW", "GEMM"];

fn main() {
    let opts = HarnessArgs::parse();
    let ro = RunOptions { oversubscription: Some(1.3), ..opts.run_options() };
    let [baseline, configs @ ..] = policy_set::<5>("baseline,promotion,colt,snakebyte,avatar");
    let labels = configs.map(|p| p.label());
    let workloads: Vec<Workload> =
        Workload::all().into_iter().filter(|w| !EXCLUDED.contains(&w.abbr)).collect();

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
        let evictions = base.stats.as_ref().map(|s| s.chunks_evicted).unwrap_or(0);
        cells.push(evictions.to_string());
        json_rows.push(obj! {
            "workload": w.abbr,
            "speedups": Json::Arr(speedups),
            "evictions": evictions,
        });
        rows.push(cells);
    }

    let mut gmean = vec!["GMEAN".to_string()];
    for xs in &per_config {
        gmean.push(format!("{:.3}", geomean(xs)));
    }
    gmean.push("-".into());
    rows.push(gmean);

    let mut headers = vec!["Workload"];
    headers.extend(labels.iter().map(String::as_str));
    headers.push("Evictions(base)");
    println!("\nFig 19: speedup over baseline under 130% oversubscription");
    print_table(&headers, &rows);
    println!("\npaper: Avatar keeps a >=14.3% gap over prior techniques under oversubscription");
    opts.dump_json(&json_rows);
}
