//! Table III: workload categorization — plus a *measured* L2 TLB MPMI
//! check showing the L/M/H classes emerge from the synthetic streams.
//!
//! Run with `--measure` to simulate every workload on the baseline and
//! report misses per million instructions (slower).

use avatar_bench::json::Json;
use avatar_bench::runner::{run_scenarios, Scenario};
use avatar_bench::{obj, print_table, policy_set, ExtraFlag, HarnessArgs};
use avatar_workloads::Workload;

fn main() {
    let opts = HarnessArgs::parse_with(&[ExtraFlag {
        flag: "--measure",
        value_name: None,
        help: "simulate every workload to measure L2 TLB MPMI (slower)",
    }]);
    let measure = opts.extra_present("--measure");
    let ro = opts.run_options();
    let workloads = Workload::all();

    let mpmis: Vec<Option<f64>> = if measure {
        let [baseline] = policy_set("baseline");
        let scenarios: Vec<Scenario> = workloads
            .iter()
            .map(|w| Scenario::new(w.abbr, w, baseline, ro.clone()))
            .collect();
        run_scenarios(opts.threads, scenarios)
            .iter()
            .map(|r| Some(r.expect_stats().l2_tlb_mpmi()))
            .collect()
    } else {
        vec![None; workloads.len()]
    };

    let mut rows = Vec::new();
    let mut json: Vec<Json> = Vec::new();
    for (w, mpmi) in workloads.iter().zip(&mpmis) {
        rows.push(vec![
            format!("{:?}", w.class),
            w.name.to_string(),
            w.abbr.to_string(),
            format!("{:?}", w.data_type),
            format!("{:?}", w.pattern),
            format!("{}MB", w.working_set >> 20),
            mpmi.map(|m| format!("{m:.0}")).unwrap_or_else(|| "-".to_string()),
        ]);
        json.push(obj! {
            "class": format!("{:?}", w.class),
            "name": w.name,
            "abbr": w.abbr,
            "working_set_mb": w.working_set >> 20,
            "l2_mpmi": *mpmi,
        });
    }
    println!("\nTable III: workload categorization");
    print_table(
        &["Class", "Benchmark", "Abbr", "Type", "Pattern", "WorkingSet", "L2 MPMI (measured)"],
        &rows,
    );
    if !measure {
        println!("\n(add --measure to simulate and report L2 TLB misses per million instructions)");
    } else {
        println!("\npaper classes: L < 10 MPMI, M 10-60, H > 60");
    }
    opts.dump_json(&json);
}
