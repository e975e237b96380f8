//! System assembly: the paper's evaluated configurations, wired onto the
//! simulator with one call.
//!
//! Assembly is driven by the name-keyed policy registry
//! ([`crate::policy`]): a [`PolicySelection`] names the TLB family,
//! memory-manager behaviour, and speculation policy, and
//! [`run_policy`]/[`assemble_policy`] execute one workload on it.

use crate::policy::PolicySelection;
use avatar_sim::config::{BasePage, GpuConfig};
use avatar_sim::engine::Engine;
use avatar_sim::stats::Stats;
use avatar_workloads::Workload;

/// Options shared by every experiment harness.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload scale factor (shrinks working sets for quick runs).
    pub scale: f64,
    /// Oversubscription factor: `Some(1.3)` sizes GPU memory to
    /// working-set / 1.3 (paper §IV-B6).
    pub oversubscription: Option<f64>,
    /// Base page size (4KB default; 64KB for the §IV-C1 study).
    pub base_page: BasePage,
    /// Extra seed mixed into allocation randomness.
    pub seed: u64,
    /// Override the SM count (None = Table II's 46).
    pub sms: Option<usize>,
    /// Override warps per SM (None = Table II's 48).
    pub warps: Option<usize>,
    /// Spatially shared tenants (paper §III-D); each runs its own copy of
    /// the workload on its SM partition with an isolated address space.
    pub tenants: usize,
    /// Sector-compression codec behind CAVA (the paper uses BPC; FPC/BDI
    /// support the codec ablation).
    pub codec: avatar_bpc::Codec,
    /// Chrome-trace destination (`probes` feature; set by `--trace-out`
    /// or `AVATAR_TRACE_OUT`). `None` disables trace export.
    pub trace_out: Option<std::path::PathBuf>,
    /// Tag inserted into the trace filename before its extension so grid
    /// cells sharing one `trace_out` write distinct files (typically the
    /// scenario label).
    pub trace_tag: Option<String>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            scale: 1.0,
            oversubscription: None,
            base_page: BasePage::Size4K,
            seed: 7,
            sms: None,
            warps: None,
            tenants: 1,
            codec: avatar_bpc::Codec::Bpc,
            trace_out: None,
            trace_tag: None,
        }
    }
}

impl RunOptions {
    /// Canonical digest over every simulation-affecting field, for
    /// result-cache keys. `trace_out`/`trace_tag` are excluded — they
    /// only add observers, never change simulated behaviour (and cached
    /// replay is bypassed entirely when a trace is requested). The
    /// exhaustive destructuring (no `..`) makes
    /// adding a field without deciding its cache-key role a compile
    /// error.
    pub fn key_digest(&self) -> u64 {
        let RunOptions {
            scale,
            oversubscription,
            base_page,
            seed,
            sms,
            warps,
            tenants,
            codec,
            trace_out: _,
            trace_tag: _,
        } = self;
        let mut h = avatar_sim::invariant::Fnv64::new();
        h.write_u64(scale.to_bits());
        h.write_u64(u64::from(oversubscription.is_some()));
        h.write_u64(oversubscription.map_or(0, f64::to_bits));
        h.write_u64(base_page.pages());
        h.write_u64(*seed);
        h.write_u64(u64::from(sms.is_some()));
        h.write_u64(sms.map_or(0, |s| s as u64));
        h.write_u64(u64::from(warps.is_some()));
        h.write_u64(warps.map_or(0, |w| w as u64));
        h.write_u64(*tenants as u64);
        h.write_u64(match codec {
            avatar_bpc::Codec::Bpc => 0,
            avatar_bpc::Codec::Fpc => 1,
            avatar_bpc::Codec::Bdi => 2,
        });
        h.finish()
    }

    /// The effective trace path: `trace_out` with `trace_tag` (sanitized
    /// to `[a-z0-9_]`) inserted before the extension. `None` when no
    /// trace was requested.
    pub fn trace_path(&self) -> Option<std::path::PathBuf> {
        let base = self.trace_out.as_ref()?;
        let Some(tag) = self.trace_tag.as_deref() else {
            return Some(base.clone());
        };
        let tag: String = tag
            .chars()
            .map(|c| {
                let c = c.to_ascii_lowercase();
                if c.is_ascii_alphanumeric() { c } else { '_' }
            })
            .collect();
        let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
        let ext = base.extension().and_then(|e| e.to_str()).unwrap_or("json");
        Some(base.with_file_name(format!("{stem}.{tag}.{ext}")))
    }
}

/// Builds the `GpuConfig` for (workload, policy selection, options).
pub fn gpu_config_for(
    workload: &Workload,
    policy: PolicySelection,
    opts: &RunOptions,
) -> GpuConfig {
    let mut cfg = GpuConfig::rtx3070();
    if let Some(sms) = opts.sms {
        cfg.num_sms = sms;
    }
    if let Some(warps) = opts.warps {
        cfg.warps_per_sm = warps;
    }
    cfg.seed = opts.seed ^ workload.seed.rotate_left(17);
    cfg.tenants = opts.tenants.max(1);
    cfg.uvm.base_page = opts.base_page;
    policy.configure(&mut cfg);
    if let Some(factor) = opts.oversubscription {
        // Size memory against the footprint the trace actually touches
        // (the paper adjusts memory per workload to incur the target
        // oversubscription). Rounded down to whole chunks so reduced
        // traces still feel the pressure; at least two chunks resident.
        let touched =
            touched_footprint_cached(workload, cfg.num_sms, cfg.warps_per_sm, opts.scale);
        let capacity = ((touched as f64 / factor) as u64 / crate::CHUNK_BYTES) * crate::CHUNK_BYTES;
        cfg.uvm.gpu_memory_bytes = capacity.max(2 * crate::CHUNK_BYTES);
    }
    cfg.validate().expect("assembled harness GpuConfig violates geometry invariants");
    cfg
}

/// [`touched_footprint`](avatar_workloads::trace::touched_footprint) drains
/// the complete trace of a workload, which costs as much as a short
/// simulation. Sweep grids ask for the same (workload, geometry, scale)
/// combination once per cell — dozens of times, from every runner thread —
/// so the answer is memoized process-wide. Computation happens outside the
/// lock: two threads racing on a cold key duplicate the drain once rather
/// than serializing every lookup behind it.
fn touched_footprint_cached(
    workload: &Workload,
    num_sms: usize,
    warps_per_sm: usize,
    scale: f64,
) -> u64 {
    use avatar_sim::fxhash::FxHashMap;
    use std::sync::{Mutex, OnceLock};
    type Key = (&'static str, usize, usize, u64);
    static CACHE: OnceLock<Mutex<FxHashMap<Key, u64>>> = OnceLock::new();
    let key: Key = (workload.name, num_sms, warps_per_sm, scale.to_bits());
    let cache = CACHE.get_or_init(|| Mutex::new(FxHashMap::default()));
    if let Some(&v) = cache.lock().expect("footprint cache poisoned").get(&key) {
        return v;
    }
    let v = avatar_workloads::trace::touched_footprint(workload, num_sms, warps_per_sm, scale);
    cache.lock().expect("footprint cache poisoned").insert(key, v);
    v
}

/// Runs one workload under one registry policy selection.
pub fn run_policy(workload: &Workload, policy: PolicySelection, opts: &RunOptions) -> Stats {
    assemble_policy(workload, policy, opts, |_| {}).run()
}

/// Assembles the engine for (workload, policy selection, options)
/// without running it. `tweak` adjusts the assembled [`GpuConfig`]
/// before the engine is built — the hook for sensitivity/ablation
/// studies (MOD sizing, decompression latency, PIPT caches, …); callers
/// that want statistics chain `.run()`.
pub fn assemble_policy(
    workload: &Workload,
    policy: PolicySelection,
    opts: &RunOptions,
    tweak: impl FnOnce(&mut GpuConfig),
) -> Engine<'static> {
    let mut cfg = gpu_config_for(workload, policy, opts);
    tweak(&mut cfg);
    let (l1s, l2) = policy.build_tlbs(&cfg);
    let accel = policy.build_policy(&cfg);
    let content = avatar_workloads::ContentModel::with_codec(workload.clone(), opts.codec);
    let program: Box<dyn avatar_sim::sm::WarpProgram> = if cfg.tenants > 1 {
        let tenants = cfg.tenants;
        let programs = (0..tenants)
            .map(|t| {
                let sms = avatar_workloads::MultiTenantProgram::partition_sms(
                    cfg.num_sms,
                    tenants,
                    t,
                );
                Box::new(workload.program(sms, cfg.warps_per_sm, opts.scale))
                    as Box<dyn avatar_sim::sm::WarpProgram>
            })
            .collect();
        Box::new(avatar_workloads::MultiTenantProgram::new(programs, cfg.num_sms))
    } else {
        Box::new(workload.program(cfg.num_sms, cfg.warps_per_sm, opts.scale))
    };
    let mut engine = Engine::new(cfg, l1s, l2, accel, Box::new(content), program);
    attach_trace(&mut engine, opts);
    engine
}

/// Attaches a Chrome-trace exporter to the engine when the run options
/// request one (`probes` builds only). The per-warp span sampling stride
/// comes from `AVATAR_TRACE_SAMPLE` (0/1 = every warp); it is read once
/// here, at construction — never on the event path. Public so harnesses
/// that assemble an [`Engine`] by hand (microbenchmark bins) honour
/// `--trace-out` the same way [`assemble_policy`] does.
#[cfg(feature = "probes")]
pub fn attach_trace(engine: &mut Engine, opts: &RunOptions) {
    if let Some(path) = opts.trace_path() {
        let sample = std::env::var("AVATAR_TRACE_SAMPLE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0u32);
        engine.attach_probe(Box::new(avatar_sim::trace_export::ChromeTraceProbe::new(path)), sample);
    }
}

/// Probes are compiled out: warn once per run if a trace was requested.
#[cfg(not(feature = "probes"))]
pub fn attach_trace(_engine: &mut Engine, opts: &RunOptions) {
    if let Some(path) = opts.trace_path() {
        eprintln!(
            "avatar-core: trace output {} requested but the `probes` feature is compiled out; \
             rebuild with `--features probes` to export traces",
            path.display()
        );
    }
}

/// Cycles-based speedup of `other` relative to `base` (higher is faster).
pub fn speedup(base: &Stats, other: &Stats) -> f64 {
    if other.cycles == 0 {
        return 0.0;
    }
    base.cycles as f64 / other.cycles as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> RunOptions {
        RunOptions { scale: 0.03, sms: Some(4), warps: Some(8), ..RunOptions::default() }
    }

    fn quick_workload() -> Workload {
        Workload::by_abbr("GEMM").expect("known workload")
    }

    fn run(workload: &Workload, name: &str, opts: &RunOptions) -> Stats {
        let policy = PolicySelection::parse(name).expect("registry name");
        run_policy(workload, policy, opts)
    }

    #[test]
    fn baseline_runs_to_completion() {
        let stats = run(&quick_workload(), "baseline", &quick_opts());
        assert!(stats.cycles > 0);
        assert!(stats.loads > 0);
        assert_eq!(stats.speculations, 0, "baseline never speculates");
    }

    #[test]
    fn ideal_tlb_beats_baseline() {
        let w = Workload::by_abbr("SSSP").unwrap();
        let base = run(&w, "baseline", &quick_opts());
        let ideal = run(&w, "ideal", &quick_opts());
        assert!(
            ideal.cycles < base.cycles,
            "ideal {} must beat baseline {}",
            ideal.cycles,
            base.cycles
        );
        assert_eq!(ideal.page_walks, 0, "ideal TLB never walks");
    }

    #[test]
    fn avatar_speculates_and_validates() {
        let w = Workload::by_abbr("SSSP").unwrap();
        let stats = run(&w, "avatar", &quick_opts());
        assert!(stats.speculations > 0, "Avatar must speculate");
        assert!(stats.spec_correct > 0, "some speculations must be correct");
        assert!(stats.outcomes.fast_translation > 0, "CAVA must validate some");
        assert!(stats.eaf_fills > 0, "EAF must install entries");
    }

    #[test]
    fn cast_only_speculates_but_never_fast_translates() {
        let w = Workload::by_abbr("SSSP").unwrap();
        let stats = run(&w, "cast", &quick_opts());
        assert!(stats.speculations > 0);
        assert_eq!(stats.outcomes.fast_translation, 0, "no validation hardware");
        assert_eq!(stats.eaf_fills, 0);
    }

    #[test]
    fn promotion_promotes_chunks() {
        // A streaming workload sweeps its whole footprint page by page, so
        // chunks become fully resident and promote.
        let w = Workload::by_abbr("GEMM").unwrap();
        let opts = RunOptions { scale: 0.05, sms: Some(8), warps: Some(16), ..RunOptions::default() };
        let stats = run(&w, "promotion", &opts);
        assert!(stats.promotions > 0, "fully-touched chunks must promote");
    }

    #[test]
    fn oversubscription_evicts() {
        // A streaming sweep larger than the constrained memory must churn.
        let w = Workload::by_abbr("GEMM").unwrap();
        let opts = RunOptions {
            scale: 0.5,
            oversubscription: Some(1.3),
            sms: Some(8),
            warps: Some(16),
            ..RunOptions::default()
        };
        let stats = run(&w, "baseline", &opts);
        assert!(stats.chunks_evicted > 0, "130% oversubscription must evict");
        assert!(stats.tlb_shootdowns > 0);
    }

    #[test]
    fn deterministic_runs() {
        let w = quick_workload();
        let a = run(&w, "avatar", &quick_opts());
        let b = run(&w, "avatar", &quick_opts());
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.speculations, b.speculations);
        assert_eq!(a.dram_read_bytes, b.dram_read_bytes);
    }

    #[test]
    fn colt_and_snakebyte_run() {
        let w = Workload::by_abbr("KM").unwrap();
        for name in ["colt", "snakebyte"] {
            let stats = run(&w, name, &quick_opts());
            assert!(stats.cycles > 0, "{name} must complete");
        }
    }

    #[test]
    fn gpu_config_carries_each_policy_flags() {
        let expect = [
            ("baseline", "Baseline", false, false, false),
            ("ideal", "Ideal-TLB", false, false, true),
            ("promotion", "Promotion", true, false, false),
            ("colt", "CoLT", true, false, false),
            ("snakebyte", "SnakeByte", true, false, false),
            ("cast", "CAST-only", true, false, false),
            ("avatar", "Avatar", true, true, false),
            ("avatar-noeaf", "Avatar-noEAF", true, true, false),
            ("cast-ideal", "CAST+Ideal-Valid", true, false, false),
            ("avatar-vpnt", "Avatar-VPNT", true, true, false),
            ("revelator", "Revelator", true, false, false),
        ];
        assert_eq!(expect.len(), crate::policy::REGISTRY.len(), "every entry is listed");
        let w = quick_workload();
        for (name, label, promotes, embeds, ideal) in expect {
            let sel = PolicySelection::parse(name).expect("registry name");
            assert_eq!(sel.label(), label);
            let cfg = gpu_config_for(&w, sel, &quick_opts());
            assert_eq!(cfg.uvm.promotion, promotes, "{label}");
            assert_eq!(cfg.uvm.embed_page_info, embeds, "{label}");
            assert_eq!(cfg.ideal_tlb, ideal, "{label}");
        }
    }
}
