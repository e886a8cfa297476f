//! Property tests for the frozen CSR read path: searching over
//! `LayeredGraph::freeze()` must be *bit-identical* to searching the nested
//! layout — same ids, same distances, same search-statistics counters — for
//! every lookup strategy, for a growing index of either ACORN variant
//! against its sealed clone, and through the save → load round trip of a
//! sealed segment. Where the paper says ACORN's lookup is HNSW's (everything
//! passes, nothing truncated), its layer search must walk exactly like the
//! plain one. And the expansion's resume memo, which only a bit-test filter
//! uses, must walk exactly as the full rescan a lazy filter still makes.

use std::sync::Arc;

use acorn_core::search::{acorn_search_layer, LookupMode};
use acorn_core::{AcornIndex, AcornParams, AcornVariant, SegmentedAcornIndex};
use acorn_hnsw::heap::Neighbor;
use acorn_hnsw::search::{gated, search_layer};
use acorn_hnsw::{GraphView, LayeredGraph, Metric, SearchScratch, SearchStats, VectorStore};
use acorn_predicate::{BitmapFilter, NodeFilter};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_store(n: usize, dim: usize, seed: u64) -> Arc<VectorStore> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = VectorStore::with_capacity(dim, n);
    for _ in 0..n {
        let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        s.push(&v);
    }
    Arc::new(s)
}

fn random_query(dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51ab);
    (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn random_filter(n: usize, keep_one_in: u32, seed: u64) -> acorn_predicate::BitmapFilter {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf117e5);
    let bits = acorn_predicate::Bitset::from_ids(
        n,
        (0..n as u32).filter(|_| rng.gen_range(0..keep_one_in) == 0),
    );
    acorn_predicate::BitmapFilter::new(bits)
}

fn small_params(seed: u64) -> AcornParams {
    AcornParams { m: 8, gamma: 4, m_beta: 12, ef_construction: 32, seed, ..Default::default() }
}

fn pairs(out: &[Neighbor]) -> Vec<(u32, f32)> {
    out.iter().map(|n| (n.id, n.dist)).collect()
}

fn bits(out: &[Neighbor]) -> Vec<(u32, u32)> {
    out.iter().map(|n| (n.id, n.dist.to_bits())).collect()
}

/// A random multi-level graph: geometric levels, and up to 12 random
/// targets per node and level drawn from the nodes on that level, self
/// loops and repeated targets included. Half the lists are full, so the
/// truncation bound is reached; none outgrows the graph, which the CSR
/// refuses.
fn random_graph(n: usize, seed: u64) -> LayeredGraph {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9a7);
    let mut g = LayeredGraph::new();
    for _ in 0..n {
        let mut level = 0;
        while level < 3 && rng.gen_range(0..4) == 0 {
            level += 1;
        }
        g.add_node(level);
    }
    for lev in 0..=g.max_level() {
        let on_level: Vec<u32> = (0..n as u32).filter(|&v| g.level_of(v) >= lev).collect();
        for &v in &on_level {
            let cap = on_level.len().min(12);
            let degree = if rng.gen_range(0..2) == 0 { cap } else { rng.gen_range(0..=cap) };
            for _ in 0..degree {
                g.push_edge(v, on_level[rng.gen_range(0..on_level.len())], lev);
            }
        }
    }
    g
}

/// One layer walk: answers, `ndis`, `nhops` and the expansion log, each
/// distance as its bits.
type Walk = (Vec<(u32, u32)>, u64, u64, Vec<(u32, u32)>);

/// Run `search` on a fresh scratch over `n` nodes and record its walk.
fn walk(
    n: usize,
    search: impl FnOnce(&mut SearchScratch, &mut SearchStats) -> Vec<Neighbor>,
) -> Walk {
    let mut scratch = SearchScratch::new(n);
    scratch.begin(n);
    let mut stats = SearchStats::default();
    let out = search(&mut scratch, &mut stats);
    (bits(&out), stats.ndis, stats.nhops, bits(&scratch.frontier))
}

/// ACORN's all-pass truncated walk and the gated all-pass walk from the same
/// entries.
fn acorn_and_gated_walks<G: GraphView>(
    vecs: &VectorStore,
    graph: &G,
    q: &[f32],
    entries: &[Neighbor],
    ef: usize,
    level: usize,
    m: usize,
) -> (Walk, Walk) {
    let (n, all) = (graph.len(), |_: u32, _: &mut SearchStats| true);
    let acorn = walk(n, |scratch, stats| {
        let (filter, mode) = (&acorn_predicate::AllPass, LookupMode::Truncate);
        acorn_search_layer(
            vecs,
            graph,
            Metric::L2,
            q,
            filter,
            entries,
            ef,
            level,
            m,
            mode,
            scratch,
            stats,
        )
    });
    let plain = walk(n, |scratch, stats| {
        let hood = gated(graph, level, all);
        search_layer(vecs, Metric::L2, q, entries, ef, scratch, stats, all, hood)
    });
    (acorn, plain)
}

/// The same bitmap behind the default `BRANCH_FREE = false`: the lookups
/// ask it only about fresh rows and never read a resume mark, so every
/// expansion walks its list from the start.
struct Lazy<'a>(&'a BitmapFilter);

impl NodeFilter for Lazy<'_> {
    fn passes(&self, id: u32) -> bool {
        self.0.passes(id)
    }
}

/// One ACORN layer search on `scratch` (visited marks cleared first, the
/// resume memo left as the last search left it): its walk and its `npred`.
#[allow(clippy::too_many_arguments)]
fn acorn_walk<G: GraphView, F: NodeFilter>(
    scratch: &mut SearchScratch,
    vecs: &VectorStore,
    graph: &G,
    q: &[f32],
    filter: &F,
    entries: &[Neighbor],
    ef: usize,
    level: usize,
    m: usize,
    mode: LookupMode,
) -> (Walk, u64) {
    scratch.begin(graph.len());
    let mut stats = SearchStats::default();
    let out = acorn_search_layer(
        vecs,
        graph,
        Metric::L2,
        q,
        filter,
        entries,
        ef,
        level,
        m,
        mode,
        scratch,
        &mut stats,
    );
    ((bits(&out), stats.ndis, stats.nhops, bits(&scratch.frontier)), stats.npred)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `acorn_search_layer` over the frozen layout matches the nested layout
    /// exactly — results *and* stats counters — under all three
    /// `LookupMode`s.
    #[test]
    fn layer_search_identical_across_layouts_and_modes(
        n in 30usize..250,
        keep_one_in in 1u32..4,
        ef in 1usize..24,
        seed in 0u64..500,
    ) {
        let vecs = random_store(n, 6, seed);
        let idx = AcornIndex::build(vecs.clone(), small_params(seed), AcornVariant::Gamma);
        let g = idx.graph().expect("growing");
        let csr = g.freeze();
        let q = random_query(6, seed);
        let filter = random_filter(n, keep_one_in, seed);
        let entry = g.entry_point().unwrap();
        let entries = vec![Neighbor::new(Metric::L2.distance(vecs.get(entry), &q), entry)];

        let modes = [
            LookupMode::Truncate,
            LookupMode::GammaSearch { m_beta: 12, compressed_levels: 1 },
            LookupMode::TwoHop,
        ];
        for mode in modes {
            let mut s_nested = SearchScratch::new(n);
            s_nested.begin(n);
            let mut st_nested = SearchStats::default();
            let a = acorn_search_layer(
                &*vecs, g, Metric::L2, &q, &filter, &entries, ef, 0, 8, mode,
                &mut s_nested, &mut st_nested,
            );
            let mut s_csr = SearchScratch::new(n);
            s_csr.begin(n);
            let mut st_csr = SearchStats::default();
            let b = acorn_search_layer(
                &*vecs, &csr, Metric::L2, &q, &filter, &entries, ef, 0, 8, mode,
                &mut s_csr, &mut st_csr,
            );
            prop_assert_eq!(pairs(&a), pairs(&b), "results differ under {:?}", mode);
            prop_assert_eq!(st_nested, st_csr, "stats counters differ under {:?}", mode);
        }
    }

    /// Full filtered index search is bit-identical between a growing index
    /// and its sealed clone for both ACORN variants (covering the
    /// GammaSearch and TwoHop serving paths end to end, upper levels
    /// included).
    #[test]
    fn compacted_index_search_identical_for_both_variants(
        n in 50usize..400,
        keep_one_in in 1u32..4,
        seed in 0u64..500,
    ) {
        for variant in [AcornVariant::Gamma, AcornVariant::One] {
            let vecs = random_store(n, 8, seed);
            let growing = AcornIndex::build(vecs, small_params(seed), variant);
            let sealed = growing.clone().seal();
            prop_assert!(growing.csr().is_none() && sealed.csr().is_some());
            let filter = random_filter(n, keep_one_in, seed);
            let mut scratch = SearchScratch::new(n);
            for i in 0..4 {
                let q = random_query(8, seed.wrapping_add(i));
                let (mut want_stats, mut stats) = (SearchStats::default(), SearchStats::default());
                let want = pairs(
                    &growing.search_filtered(&q, &filter, 10, 40, &mut scratch, &mut want_stats),
                );
                let got =
                    pairs(&sealed.search_filtered(&q, &filter, 10, 40, &mut scratch, &mut stats));
                prop_assert_eq!(got, want, "{:?} CSR result drift", variant);
                prop_assert_eq!(stats, want_stats, "{:?} CSR stats drift", variant);
            }
        }
    }

    /// save → load of a sealed segment comes back sealed and answers exactly
    /// like the in-memory index it was saved from.
    #[test]
    fn compacted_serialize_roundtrip_identical(n in 40usize..300, seed in 0u64..500) {
        let vecs = random_store(n, 6, seed);
        let mut index = SegmentedAcornIndex::new(6, small_params(seed), AcornVariant::Gamma);
        index.bulk_load(VectorStore::clone(&vecs));
        let saved = index.snapshot();
        let mut buf = Vec::new();
        saved.save(&mut buf).unwrap();
        let loaded = SegmentedAcornIndex::load(&mut buf.as_slice()).unwrap().snapshot();
        let (idx, loaded) =
            (saved.frozen_segments()[0].index(), loaded.frozen_segments()[0].index());
        prop_assert!(loaded.csr().is_some(), "flag must round-trip");

        let filter = random_filter(n, 2, seed);
        let mut scratch = SearchScratch::new(n);
        for i in 0..3 {
            let q = random_query(6, seed.wrapping_add(i));
            let mut sa = SearchStats::default();
            let mut sb = SearchStats::default();
            let a = pairs(&idx.search_filtered(&q, &filter, 8, 32, &mut scratch, &mut sa));
            let b = pairs(&loaded.search_filtered(&q, &filter, 8, 32, &mut scratch, &mut sb));
            prop_assert_eq!(a, b);
            prop_assert_eq!(sa, sb);
        }
    }

    /// With an all-pass filter, the truncated lookup and `m` at least the
    /// longest list, ACORN's neighborhood is HNSW's: `acorn_search_layer`
    /// walks exactly like `search_layer` over `gated(graph, level, all)` —
    /// same answers, distance and hop counts, and expansion order — on the
    /// growing and the frozen layout, at every level.
    #[test]
    fn acorn_walk_is_the_gated_walk_when_everything_passes(
        n in 2usize..200,
        ef in 1usize..24,
        slack in 0usize..2,
        seed in 0u64..500,
    ) {
        let vecs = random_store(n, 6, seed);
        let g = random_graph(n, seed);
        let csr = g.freeze();
        let q = random_query(6, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xe7);
        let longest = (0..n as u32)
            .flat_map(|v| (0..=g.level_of(v)).map(move |lev| (v, lev)))
            .map(|(v, lev)| g.neighbors(v, lev).len())
            .max()
            .unwrap_or(0);
        let m = longest + slack;
        for lev in 0..=g.max_level() {
            let on_level: Vec<u32> = (0..n as u32).filter(|&v| g.level_of(v) >= lev).collect();
            let starts = [g.entry_point().unwrap(), on_level[rng.gen_range(0..on_level.len())]];
            let entries: Vec<Neighbor> = starts
                .iter()
                .map(|&v| Neighbor::new(Metric::L2.distance(vecs.get(v), &q), v))
                .collect();
            let (acorn, plain) = acorn_and_gated_walks(&vecs, &g, &q, &entries, ef, lev, m);
            prop_assert_eq!(acorn, plain, "growing layout, level {}", lev);
            let (acorn, plain) = acorn_and_gated_walks(&vecs, &csr, &q, &entries, ef, lev, m);
            prop_assert_eq!(acorn, plain, "frozen layout, level {}", lev);
        }
    }

    /// The resume memo is exact: a layer search under a `BitmapFilter`
    /// (each expansion resumes where an earlier hop left the list) and the
    /// same bitmap behind a lazy wrapper (each expansion rescans) agree in
    /// answers, distance bits, `ndis`, `nhops`, `npred` and expansion order,
    /// in ACORN-γ's compressed lookup and ACORN-1's two-hop one, on both
    /// layouts, at every level, at densities from none to all. The graphs
    /// hold repeated targets, self loops, back edges, full lists and lists
    /// longer than `m_beta`; `m` is small enough that lookups stop part-way
    /// through a list. One scratch serves every memo search in turn, so a
    /// mark left by one layer search must not leak into the next.
    #[test]
    fn resume_memo_walks_as_the_full_rescan(
        n in 2usize..200,
        ef in 1usize..24,
        m in 1usize..=16,
        m_beta in 0usize..12,
        density in 0u32..=100,
        seed in 0u64..500,
    ) {
        let vecs = random_store(n, 6, seed);
        let g = random_graph(n, seed);
        let csr = g.freeze();
        let q = random_query(6, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7e5);
        let modes = [
            LookupMode::GammaSearch { m_beta, compressed_levels: g.max_level() + 1 },
            LookupMode::TwoHop,
        ];
        let mut shared = SearchScratch::new(0);
        for percent in [0, density, 100] {
            let bitmap = BitmapFilter::new(acorn_predicate::Bitset::from_ids(
                n,
                (0..n as u32).filter(|_| rng.gen_range(0u32..100) < percent),
            ));
            for lev in 0..=g.max_level() {
                let on_level: Vec<u32> =
                    (0..n as u32).filter(|&v| g.level_of(v) >= lev).collect();
                let starts = [g.entry_point().unwrap(), on_level[rng.gen_range(0..on_level.len())]];
                let entries: Vec<Neighbor> = starts
                    .iter()
                    .map(|&v| Neighbor::new(Metric::L2.distance(vecs.get(v), &q), v))
                    .collect();
                for mode in modes {
                    let (e, lazy) = (&entries, Lazy(&bitmap));
                    let mut fresh = SearchScratch::new(n);
                    let want = acorn_walk(&mut fresh, &vecs, &g, &q, &lazy, e, ef, lev, m, mode);
                    let got = acorn_walk(&mut shared, &vecs, &g, &q, &bitmap, e, ef, lev, m, mode);
                    prop_assert_eq!(&got, &want, "growing, {}%, level {}, {:?}", percent, lev, mode);
                    let got = acorn_walk(&mut shared, &vecs, &csr, &q, &bitmap, e, ef, lev, m, mode);
                    prop_assert_eq!(&got, &want, "frozen, {}%, level {}, {:?}", percent, lev, mode);
                }
            }
        }
    }
}
