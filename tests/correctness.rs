//! Cross-crate correctness invariants: speculation must never change
//! architectural behaviour, runs must be deterministic, and the accounting
//! must be conserved across configurations.

use avatar_gpu::core::policy::{PolicySelection, REGISTRY};
use avatar_gpu::core::system::{run_policy, RunOptions};
use avatar_gpu::sim::Stats;
use avatar_gpu::workloads::Workload;

fn opts() -> RunOptions {
    RunOptions { scale: 0.05, sms: Some(4), warps: Some(8), ..RunOptions::default() }
}

fn run(w: &Workload, name: &str, opts: &RunOptions) -> Stats {
    run_policy(w, PolicySelection::parse(name).expect("registry name"), opts)
}

/// Every registry entry, plus its `+dead` variant where supported.
fn all_selections() -> impl Iterator<Item = PolicySelection> {
    REGISTRY.iter().flat_map(|def| {
        let base = PolicySelection::base(def);
        let dead = def.supports_dead_entry.then_some(PolicySelection { dead_entry: true, ..base });
        std::iter::once(base).chain(dead)
    })
}

#[test]
fn every_configuration_completes_every_issued_access() {
    // The engine debug-asserts internally that all sector requests
    // complete; here we check the visible accounting across configs.
    let w = Workload::by_abbr("SSSP").unwrap();
    for cfg in all_selections() {
        let s = run_policy(&w, cfg, &opts());
        assert!(s.loads > 0, "{}: no loads issued", cfg.label());
        assert_eq!(
            s.sector_latency.count(),
            s.sector_requests,
            "{}: every sector request must record a completion latency",
            cfg.label()
        );
        assert_eq!(
            s.load_latency.count(),
            s.loads + s.stores,
            "{}: every warp memory instruction must complete",
            cfg.label()
        );
    }
}

#[test]
fn speculation_does_not_change_the_work_performed() {
    // The same workload must issue identical instruction/load/sector
    // counts under every configuration — speculation accelerates, it must
    // not add or drop architectural work.
    let w = Workload::by_abbr("GC").unwrap();
    let base = run(&w, "baseline", &opts());
    for cfg in all_selections() {
        let s = run_policy(&w, cfg, &opts());
        assert_eq!(s.instructions, base.instructions, "{}", cfg.label());
        assert_eq!(s.loads, base.loads, "{}", cfg.label());
        assert_eq!(s.sector_requests, base.sector_requests, "{}", cfg.label());
    }
}

#[test]
fn runs_are_deterministic() {
    let w = Workload::by_abbr("XSB").unwrap();
    for cfg in ["avatar", "colt", "snakebyte"] {
        let a = run(&w, cfg, &opts());
        let b = run(&w, cfg, &opts());
        assert_eq!(a.cycles, b.cycles, "{cfg}");
        assert_eq!(a.speculations, b.speculations, "{cfg}");
        assert_eq!(a.page_walks, b.page_walks, "{cfg}");
        assert_eq!(a.dram_read_bytes, b.dram_read_bytes, "{cfg}");
        assert_eq!(a.stall_cycles, b.stall_cycles, "{cfg}");
    }
}

#[test]
fn accuracy_and_coverage_are_probabilities() {
    for abbr in ["GEMM", "SSSP", "SC"] {
        let w = Workload::by_abbr(abbr).unwrap();
        let s = run(&w, "avatar", &opts());
        assert!((0.0..=1.0).contains(&s.spec_accuracy()), "{abbr}");
        assert!((0.0..=1.0).contains(&s.spec_coverage()), "{abbr}");
        assert!(s.spec_correct <= s.speculations, "{abbr}");
        let o = &s.outcomes;
        assert!(
            o.total() <= s.spec_correct + s.speculations,
            "{abbr}: outcomes only for speculative accesses"
        );
    }
}

#[test]
fn ideal_tlb_never_walks_or_misses() {
    let w = Workload::by_abbr("KM").unwrap();
    let s = run(&w, "ideal", &opts());
    assert_eq!(s.page_walks, 0);
    assert_eq!(s.l1_tlb_lookups, 0, "ideal TLB bypasses the hierarchy");
    assert_eq!(s.speculations, 0);
}

#[test]
fn cast_only_never_fast_translates_and_avatar_does() {
    let w = Workload::by_abbr("SSSP").unwrap();
    let cast = run(&w, "cast", &opts());
    assert!(cast.speculations > 0);
    assert_eq!(cast.outcomes.fast_translation, 0);
    assert_eq!(cast.eaf_fills, 0);
    assert_eq!(cast.spec_compressed, 0, "CAST-only never inspects sectors");

    let avatar = run(&w, "avatar", &opts());
    assert!(avatar.outcomes.fast_translation > 0);
    assert!(avatar.eaf_fills > 0);
}

#[test]
fn eaf_reduces_page_walks() {
    let w = Workload::by_abbr("SSSP").unwrap();
    let no_eaf = run(&w, "avatar-noeaf", &opts());
    let avatar = run(&w, "avatar", &opts());
    assert!(
        avatar.page_walks + avatar.walks_aborted <= no_eaf.page_walks + no_eaf.walks_aborted + no_eaf.page_walks / 2,
        "EAF must not inflate walk work: avatar {}+{} vs no-eaf {}",
        avatar.page_walks,
        avatar.walks_aborted,
        no_eaf.page_walks
    );
    assert!(avatar.walks_aborted > 0, "EAF must abort in-flight walks");
}

#[test]
fn dram_traffic_is_conserved() {
    // Reads cover the fetched sectors and eviction flushes; writes cover
    // the migrated pages. Both must be nonzero and sane.
    let w = Workload::by_abbr("MD").unwrap();
    let s = run(&w, "baseline", &opts());
    assert!(s.dram_read_bytes > 0);
    assert_eq!(
        s.dram_write_bytes,
        s.pages_migrated * 4096,
        "migration writes account 4KB per page"
    );
}

#[test]
fn oversubscription_only_evicts_under_pressure() {
    let w = Workload::by_abbr("XSB").unwrap();
    let unlimited = run(&w, "baseline", &opts());
    assert_eq!(unlimited.chunks_evicted, 0, "no pressure, no evictions");
    // A strongly constrained capacity guarantees churn regardless of how
    // much of the footprint the reduced trace touches.
    let constrained = run(
        &w,
        "baseline",
        &RunOptions { oversubscription: Some(1.3), scale: 0.25, ..opts() },
    );
    assert!(constrained.chunks_evicted > 0);
    assert_eq!(constrained.tlb_shootdowns, constrained.chunks_evicted);
}

#[test]
fn mis_speculation_is_detected_not_consumed() {
    // CAVA mismatches plus false speculations must stay within attempted
    // speculations, and Avatar must remain architecturally equivalent (all
    // loads complete — checked by the engine) despite them.
    let w = Workload::by_abbr("SC").unwrap();
    let s = run(&w, "avatar", &RunOptions { scale: 0.25, ..opts() });
    assert!(s.speculations > 0);
    assert!(s.cava_mismatches <= s.speculations);
    assert!(s.spec_false <= s.speculations);
}

#[test]
fn multi_tenancy_isolates_address_spaces() {
    // Two tenants spatially share the GPU: each sees its own copy of the
    // workload in an isolated address space. Speculation must stay
    // accurate (no cross-tenant aliasing in the shared TLB hierarchy) and
    // validation must never accept another tenant's page (ASID check).
    let w = Workload::by_abbr("SSSP").unwrap();
    let single = run(
        &w,
        "avatar",
        &RunOptions { tenants: 1, scale: 0.1, sms: Some(8), warps: Some(8), ..RunOptions::default() },
    );
    let dual = run(
        &w,
        "avatar",
        &RunOptions { tenants: 2, scale: 0.1, sms: Some(8), warps: Some(8), ..RunOptions::default() },
    );
    assert!(dual.loads > 0);
    assert_eq!(dual.load_latency.count(), dual.loads + dual.stores);
    assert!(dual.speculations > 0, "both tenants speculate");
    // Isolation: accuracy must not collapse under sharing.
    assert!(
        dual.spec_accuracy() > single.spec_accuracy() - 0.15,
        "tenant sharing must not poison prediction: {} vs {}",
        dual.spec_accuracy(),
        single.spec_accuracy()
    );
}

#[test]
fn multi_tenancy_is_deterministic() {
    let w = Workload::by_abbr("GEMM").unwrap();
    let opts = RunOptions { tenants: 2, scale: 0.05, sms: Some(4), warps: Some(4), ..RunOptions::default() };
    let a = run(&w, "avatar", &opts);
    let b = run(&w, "avatar", &opts);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.speculations, b.speculations);
}

#[test]
fn speculative_fill_before_translation_loses_no_request() {
    // A speculative fetch that fills before its translation arrives
    // leaves the MSHR waiter list while the request waits on; when the
    // correct translation then finds a fresh fetch of the same sector in
    // flight, the request must join it rather than wait on the entry it
    // already left. This cell takes that path.
    let w = Workload::by_abbr("SC").unwrap();
    let o = RunOptions { scale: 0.1, sms: Some(16), warps: Some(32), seed: 1, ..RunOptions::default() };
    let s = run(&w, "avatar", &o);
    assert_eq!(s.lost_requests, 0);
    assert_eq!(s.sector_latency.count(), s.sector_requests);
}
