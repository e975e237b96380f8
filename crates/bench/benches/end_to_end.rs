//! Component bench: small end-to-end simulations per configuration —
//! tracks the simulator's own throughput (simulated work per wall-clock
//! second) so regressions in the engine's hot paths are visible.

use avatar_bench::policy_set;
use avatar_bench::timer::{bench, group};
use avatar_core::system::{run_policy, RunOptions};
use avatar_workloads::Workload;

fn opts() -> RunOptions {
    RunOptions { scale: 0.02, sms: Some(2), warps: Some(8), ..RunOptions::default() }
}

fn main() {
    group("end_to_end_small (SSSP)");
    let w = Workload::by_abbr("SSSP").expect("workload");
    let policies: [_; 5] = policy_set("baseline,promotion,colt,snakebyte,avatar");
    for policy in policies {
        bench(&policy.label(), || run_policy(&w, policy, &opts()));
    }
    let [.., avatar] = policies;

    group("end_to_end_avatar");
    for abbr in ["GEMM", "PAF", "XSB"] {
        let w = Workload::by_abbr(abbr).expect("workload");
        bench(abbr, || run_policy(&w, avatar, &opts()));
    }
}
