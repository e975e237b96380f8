//! Configuration-matrix tests: every evaluated configuration must satisfy
//! its defining properties on a common workload — the contract between
//! a registry entry and the machinery it enables.

use avatar_core::policy::PolicySelection;
use avatar_core::system::{assemble_policy, gpu_config_for, run_policy, RunOptions};
use avatar_sim::config::{CacheArrangement, GpuConfig};
use avatar_sim::Stats;
use avatar_workloads::Workload;

fn opts() -> RunOptions {
    RunOptions { scale: 0.05, sms: Some(4), warps: Some(8), ..RunOptions::default() }
}

fn policy(name: &str) -> PolicySelection {
    PolicySelection::parse(name).expect("registry name")
}

fn gpu_config(w: &Workload, name: &str) -> GpuConfig {
    gpu_config_for(w, policy(name), &opts())
}

fn run(w: &Workload, name: &str, opts: &RunOptions) -> Stats {
    run_policy(w, policy(name), opts)
}

fn run_with(w: &Workload, name: &str, tweak: impl FnOnce(&mut GpuConfig)) -> Stats {
    assemble_policy(w, policy(name), &opts(), tweak).run()
}

#[test]
fn promotion_flag_follows_configuration() {
    let w = Workload::by_abbr("GEMM").unwrap();
    for name in ["baseline", "ideal"] {
        assert!(!gpu_config(&w, name).uvm.promotion, "{name}");
    }
    for name in ["promotion", "colt", "snakebyte", "cast", "avatar", "cast-ideal", "revelator"] {
        assert!(gpu_config(&w, name).uvm.promotion, "{name}");
    }
}

#[test]
fn embedding_only_for_cava_configurations() {
    let w = Workload::by_abbr("GEMM").unwrap();
    for name in ["baseline", "promotion", "colt", "snakebyte", "cast", "cast-ideal", "revelator"] {
        assert!(!gpu_config(&w, name).uvm.embed_page_info, "{name}");
    }
    for name in ["avatar", "avatar-noeaf", "avatar-vpnt"] {
        assert!(gpu_config(&w, name).uvm.embed_page_info, "{name}");
    }
}

#[test]
fn non_speculating_configs_never_speculate() {
    let w = Workload::by_abbr("SSSP").unwrap();
    for name in ["baseline", "promotion", "colt", "snakebyte"] {
        let s = run(&w, name, &opts());
        assert_eq!(s.speculations, 0, "{name}");
        assert_eq!(s.spec_fetches, 0, "{name}");
        assert_eq!(s.eaf_fills, 0, "{name}");
    }
}

#[test]
fn vpnt_variant_uses_the_vpn_predictor() {
    // The VPN-T predictor speculates directly after one observation, so
    // on a fresh-page stream it attempts strictly more speculations than
    // MOD (which needs two confirming observations per PC).
    let w = Workload::by_abbr("GEMM").unwrap();
    let m = run(&w, "avatar", &opts());
    let v = run(&w, "avatar-vpnt", &opts());
    assert!(v.speculations > 0 && m.speculations > 0);
}

#[test]
fn run_with_tweak_applies() {
    let w = Workload::by_abbr("GEMM").unwrap();
    // Degenerate tweak: zero-entry MOD tables (clamped to 1) with an
    // unreachable threshold disable speculation entirely.
    let s = run_with(&w, "avatar", |c| {
        c.spec.confidence_threshold = 3;
        c.spec.mod_entries = 1;
    });
    let normal = run(&w, "avatar", &opts());
    assert!(s.spec_coverage() <= normal.spec_coverage() + 1e-9);
}

#[test]
fn pipt_is_never_faster_than_vipt() {
    let w = Workload::by_abbr("GEMM").unwrap();
    let vipt = run_with(&w, "baseline", |c| c.l1_arrangement = CacheArrangement::Vipt);
    let pipt = run_with(&w, "baseline", |c| c.l1_arrangement = CacheArrangement::Pipt);
    assert!(pipt.cycles >= vipt.cycles, "PIPT serializes: {} vs {}", pipt.cycles, vipt.cycles);
}

#[test]
fn codec_choice_changes_validation_not_correctness() {
    let w = Workload::by_abbr("GC").unwrap();
    let bpc = run(&w, "avatar", &RunOptions { codec: avatar_bpc::Codec::Bpc, ..opts() });
    let fpc = run(&w, "avatar", &RunOptions { codec: avatar_bpc::Codec::Fpc, ..opts() });
    // Same work either way; FPC's weaker budget fit yields fewer (or
    // equal) rapid validations.
    assert_eq!(bpc.loads, fpc.loads);
    assert!(fpc.outcomes.fast_translation <= bpc.outcomes.fast_translation);
}
