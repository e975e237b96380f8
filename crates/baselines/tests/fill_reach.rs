//! The two `TlbModel` contracts the engine's selective L2-TLB overflow
//! drain relies on, checked over random fill/lookup/invalidate sequences
//! for every TLB model:
//!
//! * **Fill reach.** A fill may newly cover only pages in the filled
//!   page's 2 MB chunk. A probed page outside it that missed still
//!   misses afterwards, and one that hit either still hits with the same
//!   frame or was evicted.
//! * **Missing lookups are unobservable.** Two copies of a model fed the
//!   same operations, one with extra lookups that miss sprinkled in,
//!   return identical results throughout.

use avatar_baselines::{ColtTlb, SnakeByteTlb};
use avatar_sim::addr::{Ppn, Vpn, PAGES_PER_CHUNK};
use avatar_sim::rng::SimRng;
use avatar_sim::tlb::{BaseTlb, ContigRun, TlbFill, TlbModel};

const TRIALS: u64 = 24;
const OPS: usize = 240;
/// Pages the operations draw from: four 2 MB chunks.
const SPAN: u64 = 4 * PAGES_PER_CHUNK;
/// First page of a region no operation ever fills.
const COLD: u64 = 1 << 30;

/// One model under test and the fill sizes it sees.
struct Subject {
    name: &'static str,
    build: fn() -> Box<dyn TlbModel>,
    /// Pages per base fill: 1 for 4KB base pages, 16 for 64KB.
    base_pages: u64,
}

const SUBJECTS: [Subject; 4] = [
    Subject {
        name: "base 4KB",
        build: || Box::new(BaseTlb::new(48, 4, 4, 1)),
        base_pages: 1,
    },
    Subject {
        name: "base 64KB",
        build: || Box::new(BaseTlb::new(48, 4, 0, 16)),
        base_pages: 16,
    },
    Subject {
        name: "colt",
        build: || Box::new(ColtTlb::new(32, 4, 4)),
        base_pages: 1,
    },
    Subject {
        name: "snakebyte",
        build: || Box::new(SnakeByteTlb::new(40)),
        base_pages: 1,
    },
];

/// A page mapping that is chunk-contiguous except for scattered pages,
/// so coalescing and merging both engage and both get refused.
struct Mapping {
    chunk_frames: Vec<u64>,
    scatter_salt: u64,
}

impl Mapping {
    fn new(rng: &mut SimRng) -> Self {
        let chunk_frames = (0..SPAN / PAGES_PER_CHUNK)
            .map(|_| rng.next_below(1 << 20) * PAGES_PER_CHUNK)
            .collect();
        Self {
            chunk_frames,
            scatter_salt: rng.next_below(7),
        }
    }

    fn ppn(&self, vpn: u64) -> u64 {
        let contiguous =
            self.chunk_frames[(vpn / PAGES_PER_CHUNK) as usize] + vpn % PAGES_PER_CHUNK;
        if (vpn + self.scatter_salt).is_multiple_of(11) {
            contiguous ^ 0x5_0000
        } else {
            contiguous
        }
    }

    /// The contiguous run around `vpn` within its 16-page window, as the
    /// page table reports it to coalescing TLBs.
    fn run(&self, vpn: u64) -> ContigRun {
        let line = vpn & !15;
        let contiguous = |v: u64| self.ppn(v) == self.ppn(vpn) - vpn + v;
        let start = (line..=vpn)
            .rev()
            .take_while(|&v| contiguous(v))
            .last()
            .unwrap_or(vpn);
        let end = (vpn..line + 16)
            .take_while(|&v| contiguous(v))
            .last()
            .unwrap_or(vpn)
            + 1;
        ContigRun {
            start_vpn: start,
            start_ppn: self.ppn(start),
            len: end - start,
        }
    }
}

enum Op {
    Fill(TlbFill),
    Lookup(u64),
    Invalidate(u64, u64),
}

/// Random operations biased toward a hot page set, so lookups hit and
/// fills evict.
fn ops(rng: &mut SimRng, map: &Mapping, base_pages: u64) -> Vec<Op> {
    let hot: Vec<u64> = (0..24).map(|_| rng.next_below(SPAN)).collect();
    let page = |rng: &mut SimRng| {
        if rng.next_below(3) == 0 {
            rng.next_below(SPAN)
        } else {
            (hot[rng.index(hot.len())] + rng.next_below(4)).min(SPAN - 1)
        }
    };
    (0..OPS)
        .map(|_| match rng.next_below(10) {
            0..=3 => {
                let vpn = page(rng);
                let pages = match rng.next_below(8) {
                    0 => PAGES_PER_CHUNK,
                    _ => base_pages,
                };
                let run = match rng.next_below(4) {
                    0 => None,
                    // A run reaching past the chunk on both sides: the
                    // model, not the page table, must keep the reach.
                    1 => {
                        let start = vpn.saturating_sub(rng.next_below(2 * PAGES_PER_CHUNK));
                        let len = vpn - start + 1 + rng.next_below(2 * PAGES_PER_CHUNK);
                        Some(ContigRun {
                            start_vpn: start,
                            start_ppn: map.ppn(vpn) - (vpn - start),
                            len,
                        })
                    }
                    _ => Some(map.run(vpn)),
                };
                Op::Fill(TlbFill {
                    vpn: Vpn(vpn),
                    ppn: Ppn(map.ppn(vpn)),
                    pages,
                    run,
                })
            }
            4..=8 => Op::Lookup(page(rng)),
            _ => Op::Invalidate(page(rng), [1, 16, PAGES_PER_CHUNK][rng.index(3)]),
        })
        .collect()
}

#[test]
fn fills_newly_cover_only_their_own_chunk() {
    for subject in &SUBJECTS {
        for trial in 0..TRIALS {
            let mut rng = SimRng::seed_from_u64(0xF111 ^ trial);
            let map = Mapping::new(&mut rng);
            let probes: Vec<u64> = (0..48).map(|_| rng.next_below(SPAN)).collect();
            let mut tlb = (subject.build)();
            for op in ops(&mut rng, &map, subject.base_pages) {
                match op {
                    Op::Fill(fill) => {
                        let before: Vec<_> = probes.iter().map(|&v| tlb.lookup(Vpn(v))).collect();
                        tlb.fill(&fill);
                        let chunk = fill.vpn.0 / PAGES_PER_CHUNK;
                        for (&v, was) in probes.iter().zip(before) {
                            if v / PAGES_PER_CHUNK == chunk {
                                continue;
                            }
                            let now = tlb.lookup(Vpn(v)).map(|h| h.ppn);
                            assert!(
                                now.is_none() || now == was.map(|h| h.ppn),
                                "{} trial {trial}: filling page {} changed page {v} from {was:?} to {now:?}",
                                subject.name,
                                fill.vpn.0
                            );
                        }
                    }
                    Op::Lookup(v) => {
                        tlb.lookup(Vpn(v));
                    }
                    Op::Invalidate(v, pages) => {
                        tlb.invalidate(Vpn(v), pages);
                    }
                }
            }
        }
    }
}

#[test]
fn missing_lookups_change_nothing_observable() {
    for subject in &SUBJECTS {
        for trial in 0..TRIALS {
            let mut rng = SimRng::seed_from_u64(0x100C ^ trial);
            let map = Mapping::new(&mut rng);
            let mut plain = (subject.build)();
            let mut probed = (subject.build)();
            let mut extra = 0u32;
            for (i, op) in ops(&mut rng, &map, subject.base_pages)
                .into_iter()
                .enumerate()
            {
                // The probed twin first takes a burst of lookups that miss:
                // cold pages, plus (where the model can say so without
                // touching state) live-region pages it does not hold.
                for _ in 0..rng.next_below(3) {
                    let vpn = if rng.next_below(2) == 0 {
                        COLD + rng.next_below(SPAN)
                    } else {
                        rng.next_below(SPAN)
                    };
                    if vpn < COLD && probed.probe(Vpn(vpn)) != Some(None) {
                        continue;
                    }
                    assert_eq!(
                        probed.lookup(Vpn(vpn)),
                        None,
                        "{}: extra lookup hit",
                        subject.name
                    );
                    extra += 1;
                }
                let ctx = format!("{} trial {trial} op {i}", subject.name);
                match op {
                    Op::Fill(fill) => {
                        plain.fill(&fill);
                        probed.fill(&fill);
                        assert_eq!(
                            plain.drain_extra_memory_refs(),
                            probed.drain_extra_memory_refs(),
                            "{ctx}: merge traffic"
                        );
                    }
                    Op::Lookup(v) => {
                        assert_eq!(
                            plain.lookup(Vpn(v)),
                            probed.lookup(Vpn(v)),
                            "{ctx}: lookup {v}"
                        );
                    }
                    Op::Invalidate(v, pages) => {
                        assert_eq!(
                            plain.invalidate(Vpn(v), pages),
                            probed.invalidate(Vpn(v), pages),
                            "{ctx}: invalidate {v}+{pages}"
                        );
                    }
                }
            }
            assert!(
                extra > 0,
                "{} trial {trial}: no extra lookup ran",
                subject.name
            );
        }
    }
}
