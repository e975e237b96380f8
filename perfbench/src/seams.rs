//! Benchmark-side timing decorators for the five boxed seams
//! `Engine::new` takes: the L1 and L2 `TlbModel`s, the
//! `TranslationPolicy`, the `SectorCompression` content model and the
//! `WarpProgram`.
//!
//! Each decorator forwards every trait method the engine can call, so a
//! traced cell simulates exactly what its untraced twin does. Forwarding
//! matters beyond the timed calls: `TlbModel::probe` defaults to `None`,
//! which would silently switch off the engine's inline fast path, and
//! `fill_prioritized`, `drain_extra_memory_refs`, `l1_fill_priority`,
//! `policy_counters` and `clone_box` all have defaults that would change
//! results. The checkpoint methods (`save_state`/`load_state`) are not
//! forwarded: the benchmark never checkpoints an engine.
//!
//! Spans are aggregated in memory per (cell, seam) as a call count and
//! summed host nanoseconds, kept in the decorator and folded into the
//! cell's shared [`CellSpans`] when the engine drops it.

use avatar_sim::addr::{Ppn, Vpn};
use avatar_sim::hooks::{
    PolicyCounters, SectorCompression, SpecFillAction, SpecFillContext, TranslationPolicy,
    ValidationKind,
};
use avatar_sim::sm::{WarpOp, WarpProgram};
use avatar_sim::tlb::{FillPriority, TlbFill, TlbHit, TlbModel};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
// Host-side span timing of the seams, never simulated state. lint:allow(nondeterminism)
use std::time::Instant;

/// Calls and summed host time of one seam. Atomic because the `&self`
/// seams (`TlbModel::probe`, `TranslationPolicy::on_spec_fill`,
/// `l1_fill_priority`, ...) may run on shard-lane workers; the `&mut`
/// seams update through `get_mut` without atomic traffic. The values are
/// statistics that publish no other data, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct Span {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Span {
    /// Number of calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Summed host seconds of the recorded calls.
    pub fn seconds(&self) -> f64 {
        self.ns.load(Relaxed) as f64 * 1e-9
    }

    fn time_mut<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now(); // lint:allow(nondeterminism)
        let r = f();
        *self.ns.get_mut() += start.elapsed().as_nanos() as u64;
        *self.calls.get_mut() += 1;
        r
    }

    fn time_shared<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now(); // lint:allow(nondeterminism)
        let r = f();
        self.ns.fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        r
    }

    fn absorb(&self, other: &Span) {
        self.calls.fetch_add(other.calls(), Relaxed);
        self.ns.fetch_add(other.ns.load(Relaxed), Relaxed);
    }
}

/// The spans of one traced cell, one per seam.
#[derive(Debug, Default)]
pub struct CellSpans {
    /// Every per-SM L1 TLB together.
    pub l1_tlb: Span,
    /// The shared L2 TLB.
    pub l2_tlb: Span,
    /// `TlbModel::invalidate` calls at both levels (shootdowns).
    invalidations: AtomicU64,
    /// The translation policy's hooks.
    pub policy: Span,
    /// `SectorCompression::compressible`.
    pub content: Span,
    /// `WarpProgram::next_op`.
    pub program: Span,
}

impl CellSpans {
    /// `TlbModel::invalidate` calls at both levels (shootdowns).
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Relaxed)
    }

    /// Summed host seconds of every seam (the child spans of the cell's
    /// run span; they never nest inside one another).
    pub fn seam_seconds(&self) -> f64 {
        [&self.l1_tlb, &self.l2_tlb, &self.policy, &self.content, &self.program]
            .iter()
            .map(|s| s.seconds())
            .sum()
    }
}

/// Which TLB level a [`TimedTlb`] reports to.
#[derive(Debug, Clone, Copy)]
pub enum Level {
    /// Per-SM L1 TLB.
    L1,
    /// Shared L2 TLB.
    L2,
}

/// Timing decorator over a [`TlbModel`].
#[derive(Debug)]
pub struct TimedTlb {
    inner: Box<dyn TlbModel>,
    level: Level,
    span: Span,
    invalidations: u64,
    sink: Arc<CellSpans>,
}

impl TimedTlb {
    /// Wraps `inner`, reporting to `sink` at `level`.
    pub fn new(inner: Box<dyn TlbModel>, level: Level, sink: Arc<CellSpans>) -> Self {
        Self { inner, level, span: Span::default(), invalidations: 0, sink }
    }
}

impl Drop for TimedTlb {
    fn drop(&mut self) {
        let span = match self.level {
            Level::L1 => &self.sink.l1_tlb,
            Level::L2 => &self.sink.l2_tlb,
        };
        span.absorb(&self.span);
        self.sink.invalidations.fetch_add(self.invalidations, Relaxed);
    }
}

impl TlbModel for TimedTlb {
    fn lookup(&mut self, vpn: Vpn) -> Option<TlbHit> {
        self.span.time_mut(|| self.inner.lookup(vpn))
    }

    fn probe(&self, vpn: Vpn) -> Option<Option<TlbHit>> {
        self.span.time_shared(|| self.inner.probe(vpn))
    }

    fn fill(&mut self, fill: &TlbFill) {
        self.span.time_mut(|| self.inner.fill(fill));
    }

    fn fill_prioritized(&mut self, fill: &TlbFill, priority: FillPriority) {
        self.span.time_mut(|| self.inner.fill_prioritized(fill, priority));
    }

    fn invalidate(&mut self, vpn: Vpn, pages: u64) -> u64 {
        self.invalidations += 1;
        self.span.time_mut(|| self.inner.invalidate(vpn, pages))
    }

    fn flush(&mut self) {
        self.span.time_mut(|| self.inner.flush());
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn drain_extra_memory_refs(&mut self) -> u64 {
        self.span.time_mut(|| self.inner.drain_extra_memory_refs())
    }

    fn audit_invariants(&self) {
        self.inner.audit_invariants();
    }
}

/// Timing decorator over a [`TranslationPolicy`].
#[derive(Debug)]
pub struct TimedPolicy {
    inner: Box<dyn TranslationPolicy>,
    span: Span,
    sink: Arc<CellSpans>,
}

impl TimedPolicy {
    /// Wraps `inner`, reporting to `sink`.
    pub fn new(inner: Box<dyn TranslationPolicy>, sink: Arc<CellSpans>) -> Self {
        Self { inner, span: Span::default(), sink }
    }
}

impl Drop for TimedPolicy {
    fn drop(&mut self) {
        self.sink.policy.absorb(&self.span);
    }
}

impl TranslationPolicy for TimedPolicy {
    fn on_l1_tlb_miss(&mut self, sm: usize, pc: u64, vpn: Vpn) -> Option<Ppn> {
        self.span.time_mut(|| self.inner.on_l1_tlb_miss(sm, pc, vpn))
    }

    fn on_translation_resolved(&mut self, sm: usize, pc: u64, vpn: Vpn, ppn: Ppn) {
        self.span.time_mut(|| self.inner.on_translation_resolved(sm, pc, vpn, ppn));
    }

    fn on_spec_fill(&self, ctx: &SpecFillContext) -> SpecFillAction {
        self.span.time_shared(|| self.inner.on_spec_fill(ctx))
    }

    fn validation_kind(&self) -> ValidationKind {
        self.span.time_shared(|| self.inner.validation_kind())
    }

    fn propagates_cross_sm(&self) -> bool {
        self.span.time_shared(|| self.inner.propagates_cross_sm())
    }

    fn l1_fill_priority(&self, sm: usize, vpn: Vpn) -> FillPriority {
        self.span.time_shared(|| self.inner.l1_fill_priority(sm, vpn))
    }

    fn policy_counters(&self) -> PolicyCounters {
        self.span.time_shared(|| self.inner.policy_counters())
    }
}

/// Timing decorator over a [`SectorCompression`] content model.
#[derive(Debug)]
pub struct TimedContent {
    inner: Box<dyn SectorCompression>,
    span: Span,
    sink: Arc<CellSpans>,
}

impl TimedContent {
    /// Wraps `inner`, reporting to `sink`.
    pub fn new(inner: Box<dyn SectorCompression>, sink: Arc<CellSpans>) -> Self {
        Self { inner, span: Span::default(), sink }
    }
}

impl Drop for TimedContent {
    fn drop(&mut self) {
        self.sink.content.absorb(&self.span);
    }
}

impl SectorCompression for TimedContent {
    fn compressible(&mut self, vpn: Vpn, sector_in_page: u32) -> bool {
        self.span.time_mut(|| self.inner.compressible(vpn, sector_in_page))
    }
}

/// Timing decorator over a [`WarpProgram`]. Clones (one per shard lane)
/// report to the same sink.
pub struct TimedProgram {
    inner: Box<dyn WarpProgram>,
    span: Span,
    sink: Arc<CellSpans>,
}

impl TimedProgram {
    /// Wraps `inner`, reporting to `sink`.
    pub fn new(inner: Box<dyn WarpProgram>, sink: Arc<CellSpans>) -> Self {
        Self { inner, span: Span::default(), sink }
    }
}

impl Drop for TimedProgram {
    fn drop(&mut self) {
        self.sink.program.absorb(&self.span);
    }
}

impl WarpProgram for TimedProgram {
    fn next_op(&mut self, sm: usize, warp: usize) -> Option<WarpOp> {
        self.span.time_mut(|| self.inner.next_op(sm, warp))
    }

    fn clone_box(&self) -> Box<dyn WarpProgram> {
        Box::new(TimedProgram::new(self.inner.clone_box(), Arc::clone(&self.sink)))
    }
}
