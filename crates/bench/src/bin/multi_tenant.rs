//! Multi-tenancy study (paper §III-D): spatially shared GPUs give each
//! tenant an isolated address space; Avatar tags embedded page information
//! with the ASID so speculation never validates across tenants.
//!
//! Reports per-configuration speedups for 1 vs 2 tenants and the isolation
//! diagnostics (accuracy, ASID-mismatch invalidations).

use avatar_bench::json::Json;
use avatar_bench::runner::{run_scenarios, Scenario};
use avatar_bench::{obj, print_table, policy_set, HarnessArgs};
use avatar_core::system::{speedup, RunOptions};
use avatar_workloads::Workload;

fn main() {
    let opts = HarnessArgs::parse();
    let [baseline, avatar] = policy_set("baseline,avatar");
    let grid: Vec<(&str, usize)> = ["GEMM", "PAF", "SSSP", "XSB"]
        .into_iter()
        .flat_map(|abbr| [(abbr, 1usize), (abbr, 2)])
        .collect();

    let mut scenarios = Vec::new();
    for &(abbr, tenants) in &grid {
        let w = Workload::by_abbr(abbr).expect("known workload");
        let ro = RunOptions {
            tenants,
            scale: opts.scale,
            sms: Some(opts.sms),
            warps: Some(opts.warps),
            ..RunOptions::default()
        };
        scenarios.push(Scenario::new("Baseline", &w, baseline, ro.clone()));
        scenarios.push(Scenario::new("Avatar", &w, avatar, ro));
    }
    let results = run_scenarios(opts.threads, scenarios);

    let mut rows = Vec::new();
    let mut json: Vec<Json> = Vec::new();
    for (gi, &(abbr, tenants)) in grid.iter().enumerate() {
        let base = results[gi * 2].expect_stats();
        let avatar = results[gi * 2 + 1].expect_stats();
        let x = speedup(base, avatar);
        rows.push(vec![
            abbr.to_string(),
            tenants.to_string(),
            format!("{x:.3}"),
            format!("{:.1}%", avatar.spec_accuracy() * 100.0),
            avatar.cava_mismatches.to_string(),
        ]);
        json.push(obj! {
            "workload": abbr,
            "tenants": tenants,
            "avatar_speedup": x,
            "accuracy": avatar.spec_accuracy(),
            "cava_mismatches": avatar.cava_mismatches,
        });
    }

    println!("\nMulti-tenancy: Avatar under spatial sharing (speedup vs equally-shared baseline)");
    print_table(&["Workload", "Tenants", "Avatar speedup", "Accuracy", "CAVA mismatches"], &rows);
    println!("\npaper §III-D: ASID-tagged page info keeps speculation correct across isolated address spaces");
    opts.dump_json(&json);
}
