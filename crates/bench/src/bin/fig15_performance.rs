//! Fig 15: overall performance of the evaluated configurations,
//! normalized to the baseline.
//!
//! Paper headline: Avatar +37.2% on average; CAST-only +29.1%;
//! Avatar beats Promotion by 14.9%, CoLT by 10.1%, SnakeByte by 16.3%;
//! CAST+Ideal-Valid exceeds Avatar by 5.8%.
//!
//! `--policies` swaps the paper's Fig-15 column set
//! ([`avatar_core::policy::FIG15`]) for any registry selections (e.g.
//! `--policies "avatar,revelator,avatar+dead"`).

use avatar_bench::json::Json;
use avatar_bench::runner::{fmt_cell, run_scenarios, speedup_cell, Scenario};
use avatar_bench::{geomean, obj, print_table, HarnessArgs, POLICY_FLAGS};
use avatar_core::policy::{PolicySelection, FIG15};
use avatar_workloads::Workload;

fn main() {
    let opts = HarnessArgs::parse_with(&POLICY_FLAGS);
    let ro = opts.run_options();
    let selections: Vec<PolicySelection> = match opts.policies() {
        Some(sels) => sels.to_vec(),
        None => PolicySelection::parse_list(FIG15).expect("Fig 15 set is valid"),
    };
    let labels: Vec<String> = selections.iter().map(|s| s.label()).collect();
    let baseline = PolicySelection::parse("baseline").expect("baseline is in the registry");
    let workloads = Workload::all();

    // One cell per (workload × {Baseline + column policies}), fanned across
    // the thread pool; the grid is indexed back by fixed stride.
    let mut scenarios = Vec::new();
    for w in &workloads {
        scenarios.push(Scenario::new("Baseline", w, baseline, ro.clone()));
        for (sel, label) in selections.iter().zip(&labels) {
            scenarios.push(Scenario::new(label.clone(), w, *sel, ro.clone()));
        }
    }
    let results = run_scenarios(opts.threads, scenarios);
    let stride = selections.len() + 1;

    let mut rows = Vec::new();
    let mut json_rows: Vec<Json> = Vec::new();
    let mut per_policy: Vec<Vec<f64>> = vec![Vec::new(); selections.len()];

    for (wi, w) in workloads.iter().enumerate() {
        let base = &results[wi * stride];
        let mut cells = vec![w.abbr.to_string(), format!("{:?}", w.class)];
        let mut speedups = Vec::new();
        for (i, label) in labels.iter().enumerate() {
            let x = speedup_cell(base, &results[wi * stride + 1 + i]);
            if let Some(x) = x {
                per_policy[i].push(x);
            }
            cells.push(fmt_cell(x, 3));
            speedups.push(obj! { "config": label.clone(), "speedup": x });
        }
        json_rows.push(obj! {
            "workload": w.abbr,
            "class": format!("{:?}", w.class),
            "speedups": Json::Arr(speedups),
        });
        rows.push(cells);
    }

    let mut gmean_cells = vec!["GMEAN".to_string(), "-".to_string()];
    for xs in &per_policy {
        gmean_cells.push(format!("{:.3}", geomean(xs)));
    }
    rows.push(gmean_cells);

    let mut headers = vec!["Workload", "Class"];
    headers.extend(labels.iter().map(String::as_str));
    println!(
        "\nFig 15: speedup over baseline (scale {}, {} SMs x {} warps)",
        opts.scale, opts.sms, opts.warps
    );
    print_table(&headers, &rows);

    if let Some(avatar_idx) = selections.iter().position(|s| s.label() == "Avatar") {
        println!(
            "\npaper: Avatar 1.372x (avg) | measured GMEAN Avatar {:.3}x",
            geomean(&per_policy[avatar_idx])
        );
    }
    opts.dump_json(&json_rows);
}
