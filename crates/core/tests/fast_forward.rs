//! Calendar fast-forward must be invisible to simulated behaviour.
//!
//! `GpuConfig::fast_forward` lets the event calendar jump over empty
//! buckets instead of scanning them cycle by cycle. It is a host-side speed
//! knob only: every statistic a figure could read — cycles, hits, walks,
//! migrations, DRAM traffic — must be identical with it on or off. The one
//! permitted difference is `idle_cycles_skipped`, which *reports* how much
//! scanning was avoided (and is zero when the knob is off).

use avatar_core::policy::PolicySelection;
use avatar_core::system::{assemble_policy, RunOptions};
use avatar_workloads::Workload;

fn opts() -> RunOptions {
    RunOptions { scale: 0.05, sms: Some(4), warps: Some(8), ..RunOptions::default() }
}

#[test]
fn fast_forward_changes_no_simulated_statistic() {
    let w = Workload::by_abbr("GEMM").unwrap();
    for config in PolicySelection::parse_list("baseline,avatar").expect("registry names") {
        let mut on = assemble_policy(&w, config, &opts(), |c| c.fast_forward = true).run();
        let mut off = assemble_policy(&w, config, &opts(), |c| c.fast_forward = false).run();

        // The counter itself is the one legitimate difference: positive
        // when skipping is on (GPU pipelines leave plenty of idle gaps),
        // zero when the calendar walks every cycle.
        assert!(on.idle_cycles_skipped > 0, "{}: no idle cycles skipped", config.label());
        assert_eq!(off.idle_cycles_skipped, 0, "{}", config.label());

        // Everything else must match field for field. `Stats` has no
        // `PartialEq` (it holds histograms), so compare the full Debug
        // rendering with the counter normalized out — any new field added
        // later is automatically covered.
        on.idle_cycles_skipped = 0;
        off.idle_cycles_skipped = 0;
        assert_eq!(
            format!("{on:?}"),
            format!("{off:?}"),
            "{}: fast-forward leaked into simulated stats",
            config.label()
        );
    }
}
