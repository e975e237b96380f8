//! TLB MSHR overflow queues must drain to exactly the same simulation.
//!
//! When the L2-TLB or an SM's L1-TLB MSHR file is full, misses wait on an
//! overflow queue and are re-evaluated when they can make progress. The
//! queues are a host-side structure: which entries a drain re-evaluates
//! is an engine detail, but the simulated outcome (grant order, merges,
//! walk starts, the `*_tlb_mshr_full` counters) must not depend on it.
//!
//! The cells below shrink both MSHR files so the queues stay long and
//! every wake-up path runs: fills in and out of a queued page's 2 MB
//! chunk, Early-TLB-Fill releases, UVM shootdowns under
//! oversubscription, and ASID-salted keys with two tenants. Their
//! digests are pinned constants, so any change to how a drain picks its
//! entries that alters the simulation fails here.

use avatar_core::policy::PolicySelection;
use avatar_core::system::{assemble_policy, RunOptions};
use avatar_sim::{BasePage, Stats};
use avatar_workloads::Workload;

/// Shrinks both TLB MSHR files so the overflow queues carry traffic.
fn tiny_mshrs(cfg: &mut avatar_sim::GpuConfig) {
    cfg.l2_tlb.mshr_entries = 4;
    cfg.l1_tlb.mshr_entries = 2;
}

fn opts(seed: u64) -> RunOptions {
    RunOptions {
        scale: 0.05,
        sms: Some(8),
        warps: Some(16),
        seed,
        ..RunOptions::default()
    }
}

fn run(abbr: &str, policy: &str, opts: &RunOptions) -> Stats {
    let w = Workload::by_abbr(abbr).unwrap_or_else(|| panic!("workload table contains {abbr}"));
    let sel = PolicySelection::parse(policy).unwrap_or_else(|e| panic!("'{policy}': {e}"));
    assemble_policy(&w, sel, opts, tiny_mshrs).run()
}

/// Checks one cell against its pinned digest and that both overflow
/// queues were exercised.
fn check(label: &str, stats: &Stats, pinned: u64) {
    assert!(
        stats.l2_tlb_mshr_full > 0,
        "{label}: L2-TLB overflow queue never used"
    );
    assert!(
        stats.l1_tlb_mshr_full > 0,
        "{label}: L1-TLB overflow queue never used"
    );
    assert_eq!(
        stats.digest(),
        pinned,
        "{label}: digest {:#018x} differs from the pinned {pinned:#018x}",
        stats.digest()
    );
}

/// `(workload, policy, digest)` at [`opts`]`(7)`.
const POLICY_CELLS: [(&str, &str, u64); 7] = [
    ("GEMM", "baseline", 0xab6d63852806ffce),
    ("GEMM", "promotion", 0xc1e901bf53b607dd),
    ("GEMM", "colt", 0x1751c6974f9ecf5b),
    ("GEMM", "snakebyte", 0x092882347b3695d3),
    ("GEMM", "avatar", 0x54edd58607f65f4c),
    ("GEMM", "revelator", 0x9811036bec3ec15c),
    ("GEMM", "avatar+dead", 0x6fc1669a70810dbf),
];

#[test]
fn overflow_heavy_policy_cells_match_pinned_digests() {
    for (abbr, policy, pinned) in POLICY_CELLS {
        let stats = run(abbr, policy, &opts(7));
        if policy == "avatar" {
            assert!(
                stats.eaf_releases > 0,
                "avatar: no EAF release freed an L2-TLB MSHR"
            );
        }
        check(&format!("{abbr}/{policy}"), &stats, pinned);
    }
}

#[test]
fn overflow_under_oversubscription_matches_pinned_digest() {
    let o = RunOptions {
        oversubscription: Some(1.3),
        ..opts(7)
    };
    let stats = run("SPMV", "avatar", &o);
    assert!(
        stats.tlb_shootdowns > 0,
        "oversubscription cell ran no shootdown"
    );
    check("SPMV/avatar oversub 1.3", &stats, 0xffcf37072414eb75);
}

#[test]
fn overflow_with_two_tenants_matches_pinned_digest() {
    let o = RunOptions {
        tenants: 2,
        ..opts(7)
    };
    check(
        "GEMM/avatar tenants 2",
        &run("GEMM", "avatar", &o),
        0xec92d181d87738df,
    );
}

#[test]
fn overflow_with_64k_base_pages_matches_pinned_digest() {
    let o = RunOptions {
        base_page: BasePage::Size64K,
        ..opts(7)
    };
    check(
        "GEMM/baseline 64KB",
        &run("GEMM", "baseline", &o),
        0x6ab5308fff935ffe,
    );
}
