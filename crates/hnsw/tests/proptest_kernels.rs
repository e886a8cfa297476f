//! Property tests for the distance-kernel layer: the dispatched (possibly
//! SIMD) kernels must agree with the portable scalar ones on every length —
//! including the remainder-loop edge cases around the 8-lane boundary — and
//! the SQ8 codec's per-dimension error must stay within half a
//! quantization step. The batched exact scan built on them must answer as a
//! per-row score-and-sort would.

use acorn_hnsw::heap::Neighbor;
use acorn_hnsw::kernels;
use acorn_hnsw::search::exact_top_k;
use acorn_hnsw::sq8::Sq8Store;
use acorn_hnsw::{Metric, VectorData, VectorStore};
use proptest::prelude::*;

/// Lengths that straddle every code path: empty, sub-lane, one lane, lane
/// + remainder, eight lanes, and a realistic embedding width.
const LENS: [usize; 9] = [0, 1, 7, 8, 9, 63, 64, 65, 128];

fn vec_of(len: usize, seed: u64, scale: f32) -> Vec<f32> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-scale..scale.max(1e-3))).collect()
}

/// FMA contraction reorders rounding, so SIMD and scalar sums may differ by
/// a few ULPs per accumulated term; scale the tolerance with length and
/// magnitude.
fn close(a: f32, b: f32, len: usize, scale: f32) -> bool {
    let tol = 1e-5 * (len.max(1) as f32) * (1.0 + scale * scale);
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dispatched f32 kernels agree with the scalar reference on every
    /// length and magnitude.
    #[test]
    fn f32_kernels_match_scalar(seed in 0u64..10_000, scale in 0.1f32..100.0) {
        for &len in &LENS {
            let a = vec_of(len, seed, scale);
            let b = vec_of(len, seed.wrapping_add(1), scale);
            let (l2, l2_ref) = (kernels::l2_sq(&a, &b), kernels::l2_sq_scalar(&a, &b));
            prop_assert!(close(l2, l2_ref, len, scale), "l2 len {len}: {l2} vs {l2_ref}");
            let (dp, dp_ref) = (kernels::dot(&a, &b), kernels::dot_scalar(&a, &b));
            prop_assert!(close(dp, dp_ref, len, scale), "dot len {len}: {dp} vs {dp_ref}");
        }
    }

    /// The batched L2 scan scores four rows per `l2_sq_x4` call and the rest
    /// one by one. Every distance must be bit-identical to `l2_sq` on the
    /// same path, for every dimension up to 130 (each 8-lane remainder) and
    /// every id-list length up to 9 (each remainder of 4).
    #[test]
    fn batched_l2_is_bit_identical_to_l2_sq(seed in 0u64..10_000, scale in 0.1f32..100.0) {
        let mut out = Vec::new();
        for dim in 0..=130usize {
            let rows: Vec<Vec<f32>> = (0..4).map(|r| vec_of(dim, seed + r, scale)).collect();
            let q = vec_of(dim, seed + 4, scale);
            let x4 = kernels::l2_sq_x4([&rows[0], &rows[1], &rows[2], &rows[3]], &q);
            for (row, d) in rows.iter().zip(x4) {
                prop_assert_eq!(d.to_bits(), kernels::l2_sq(row, &q).to_bits(), "dim {}", dim);
            }
            if dim == 0 {
                continue; // a store has at least one dimension
            }
            let flat = (0..6).flat_map(|r| vec_of(dim, seed + 5 + r, scale)).collect();
            let store = VectorStore::from_flat(dim, flat);
            for len in 0..=9u64 {
                let ids: Vec<u32> = (0..len).map(|i| ((seed + 5 * i) % 6) as u32).collect();
                store.distances_batch(Metric::L2, &q, &ids, &mut out);
                prop_assert_eq!(out.len(), ids.len());
                for (&id, d) in ids.iter().zip(&out) {
                    let want = kernels::l2_sq(store.get(id), &q);
                    prop_assert_eq!(d.to_bits(), want.to_bits(), "dim {} len {}", dim, len);
                }
            }
        }
    }

    /// The shared exact scan equals "score each id with `distance_to`, sort,
    /// truncate" bit for bit on both stores under every metric: unsorted id
    /// lists (repeats allowed) on each side of the 64-id chunk edge, `k` up
    /// to two past the list length, and dimensions across the 4-row
    /// kernel's remainder. It counts one distance per id fed, and at
    /// `k = 0` it never draws an id. Rows scoring NaN, -NaN, ±∞, -0.0
    /// and +0.0, duplicate rows and repeated ids hold its one-compare skip
    /// to `Neighbor`'s total order.
    #[test]
    fn exact_top_k_equals_score_sort_truncate(
        seed in 0u64..10_000,
        dim in 1usize..=40,
        len in 0usize..=150,
        k_pick in 0usize..1_000,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const ROWS: u32 = 200;
        let store = VectorStore::from_flat(dim, vec_of(ROWS as usize * dim, seed, 1.0));
        let sq = Sq8Store::train(&store);
        let q = vec_of(dim, seed + 1, 1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let bits = |v: &[Neighbor]| v.iter().map(|n| (n.dist.to_bits(), n.id)).collect::<Vec<_>>();
        for len in [0, 1, 5, 63, 64, 65, 128, 129, len] {
            let ids: Vec<u32> = (0..len).map(|_| rng.gen_range(0..ROWS)).collect();
            let k = k_pick % (len + 3);
            for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
                for vecs in [&store as &dyn VectorData, &sq] {
                    let (got, ndis) =
                        exact_top_k(vecs, metric, &q, k, ids.iter().copied());
                    let mut want: Vec<Neighbor> = ids
                        .iter()
                        .map(|&id| Neighbor::new(vecs.distance_to(metric, id, &q), id))
                        .collect();
                    want.sort_unstable();
                    want.truncate(k);
                    prop_assert_eq!(bits(&got), bits(&want), "{:?} dim {} len {} k {}", metric, dim, len, k);
                    prop_assert_eq!(ndis, if k == 0 { 0 } else { len as u64 });
                }
            }
        }
        let never = std::iter::from_fn(|| panic!("k = 0 drew an id"));
        let (none, ndis) = exact_top_k(&store, Metric::L2, &q, 0, never);
        prop_assert!(none.is_empty() && ndis == 0);

        // Rows the one-compare skip must leave to the total order. With
        // `q[0] = 0`: the query itself scores +0.0 under L2; the zero row
        // -0.0 under inner product and +0.0 under cosine; the first axis
        // (orthogonal to the query) -0.0 under both; a NaN or -NaN component
        // scores NaN of either sign; an infinite one ±∞ or NaN; and one row
        // is stored twice. Every special id is fed twice, in random order
        // among random ids.
        let mut q = q;
        q[0] = 0.0;
        let mut flat = vec_of(ROWS as usize * dim, seed + 2, 1.0);
        let mut axis = vec![0.0; dim];
        axis[0] = 1.0;
        let specials: [Vec<f32>; 6] = [
            q.clone(),
            vec![0.0; dim],
            axis,
            (0..dim).map(|i| if i == 0 { f32::NAN } else { 0.5 }).collect(),
            (0..dim).map(|i| if i == 0 { -f32::NAN } else { 0.5 }).collect(),
            (0..dim).map(|i| if i == 0 { f32::INFINITY } else { 0.5 }).collect(),
        ];
        for (row, special) in specials.iter().enumerate() {
            flat[row * dim..(row + 1) * dim].copy_from_slice(special);
        }
        flat.copy_within(7 * dim..8 * dim, 6 * dim);
        let edge = VectorStore::from_flat(dim, flat);
        let mut ids: Vec<u32> = (0..8).chain(0..8).collect();
        ids.extend((0..len).map(|_| rng.gen_range(0..ROWS)));
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
        for k in [1, 2, 3, 8, 16, k_pick % (ids.len() + 3)] {
            for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
                let (got, ndis) =
                    exact_top_k(&edge, metric, &q, k, ids.iter().copied());
                let mut want: Vec<Neighbor> = ids
                    .iter()
                    .map(|&id| Neighbor::new(edge.distance_to(metric, id, &q), id))
                    .collect();
                want.sort_unstable();
                want.truncate(k);
                prop_assert_eq!(bits(&got), bits(&want), "edge rows {:?} dim {} k {}", metric, dim, k);
                prop_assert_eq!(ndis, if k == 0 { 0 } else { ids.len() as u64 });
            }
        }
    }

    /// Dispatched SQ8 kernels agree with the scalar reference on every
    /// length (codes decoded as `min + code * step` on both paths).
    #[test]
    fn sq8_kernels_match_scalar(seed in 0u64..10_000, scale in 0.1f32..10.0) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        for &len in &LENS {
            let q = vec_of(len, seed, scale);
            let codes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
            let mins = vec_of(len, seed.wrapping_add(2), scale);
            let steps: Vec<f32> = (0..len).map(|_| rng.gen_range(1e-6f32..0.1)).collect();
            let (l2, l2_ref) = (
                kernels::sq8_l2_sq(&codes, &mins, &steps, &q),
                kernels::sq8_l2_sq_scalar(&codes, &mins, &steps, &q),
            );
            prop_assert!(close(l2, l2_ref, len, scale), "sq8 l2 len {len}: {l2} vs {l2_ref}");
            let (dp, dp_ref) = (
                kernels::sq8_dot(&codes, &mins, &steps, &q),
                kernels::sq8_dot_scalar(&codes, &mins, &steps, &q),
            );
            prop_assert!(close(dp, dp_ref, len, scale), "sq8 dot len {len}: {dp} vs {dp_ref}");
        }
    }

    /// Every metric, computed through the dispatched kernels via
    /// [`Metric::distance`], agrees with the scalar formula.
    #[test]
    fn metric_distances_match_scalar_formula(seed in 0u64..10_000, scale in 0.1f32..10.0) {
        for &len in &LENS {
            if len == 0 {
                continue; // Cosine is undefined on empty vectors.
            }
            let a = vec_of(len, seed, scale);
            let b = vec_of(len, seed.wrapping_add(1), scale);
            for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
                let got = metric.distance(&a, &b);
                let dp = kernels::dot_scalar(&a, &b);
                let want = match metric {
                    Metric::L2 => kernels::l2_sq_scalar(&a, &b),
                    Metric::InnerProduct => -dp,
                    Metric::Cosine => {
                        let na = kernels::dot_scalar(&a, &a).sqrt();
                        let nb = kernels::dot_scalar(&b, &b).sqrt();
                        if na == 0.0 || nb == 0.0 { 0.0 } else { -(dp / (na * nb)) }
                    }
                };
                prop_assert!(
                    close(got, want, len, scale),
                    "{metric:?} len {len}: {got} vs {want}"
                );
            }
        }
    }

    /// SQ8 round-trip error is at most half a quantization step per
    /// dimension (for rows inside the trained range; training covers every
    /// stored row, so all of them are).
    #[test]
    fn sq8_roundtrip_error_within_half_step(
        n in 1usize..60,
        dim in 1usize..48,
        seed in 0u64..10_000,
        scale in 0.1f32..50.0,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = VectorStore::with_capacity(dim, n);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-scale..scale)).collect();
            store.push(&v);
        }
        let sq = Sq8Store::train(&store);
        let mut decoded = Vec::new();
        for i in 0..n as u32 {
            sq.decode_into(i, &mut decoded);
            let orig = store.get(i);
            for d in 0..dim {
                let half_step = sq.steps()[d] * 0.5;
                let err = (orig[d] - decoded[d]).abs();
                // Slack for the f32 arithmetic of encode/decode itself.
                let slack = 1e-5 * scale.max(1.0);
                prop_assert!(
                    err <= half_step + slack,
                    "row {i} dim {d}: err {err} > step/2 {half_step}"
                );
            }
        }
    }
}

// A length mismatch panics on every path, in release builds too: the AVX2
// bodies size their 8-lane loads by one slice and read all of them, so the
// dispatchers check before they dispatch. One test per dispatcher and
// direction; the lengths span several lanes so the SIMD loop would run.

#[test]
#[should_panic(expected = "different lengths")]
fn l2_sq_refuses_a_shorter_second_slice() {
    kernels::l2_sq(&[0.5; 32], &[0.5; 24]);
}

#[test]
#[should_panic(expected = "different lengths")]
fn l2_sq_refuses_a_shorter_first_slice() {
    kernels::l2_sq(&[0.5; 24], &[0.5; 32]);
}

#[test]
#[should_panic(expected = "different lengths")]
fn l2_sq_x4_refuses_a_short_row() {
    let row = [0.5; 32];
    kernels::l2_sq_x4([&row, &row, &row[..24], &row], &[0.5; 32]);
}

#[test]
#[should_panic(expected = "different lengths")]
fn dot_refuses_a_shorter_second_slice() {
    kernels::dot(&[0.5; 32], &[0.5; 24]);
}

#[test]
#[should_panic(expected = "different lengths")]
fn dot_refuses_a_shorter_first_slice() {
    kernels::dot(&[0.5; 24], &[0.5; 32]);
}

/// A 32-d SQ8 row: codes, mins and steps.
fn sq8_row() -> (Vec<u8>, Vec<f32>, Vec<f32>) {
    (vec![7; 32], vec![-1.0; 32], vec![0.01; 32])
}

#[test]
#[should_panic(expected = "SQ8 kernel")]
fn sq8_l2_sq_refuses_a_longer_query() {
    let (codes, mins, steps) = sq8_row();
    kernels::sq8_l2_sq(&codes, &mins, &steps, &[0.5; 40]);
}

#[test]
#[should_panic(expected = "SQ8 kernel")]
fn sq8_l2_sq_refuses_a_shorter_query() {
    let (codes, mins, steps) = sq8_row();
    kernels::sq8_l2_sq(&codes, &mins, &steps, &[0.5; 24]);
}

#[test]
#[should_panic(expected = "SQ8 kernel")]
fn sq8_dot_refuses_a_longer_query() {
    let (codes, mins, steps) = sq8_row();
    kernels::sq8_dot(&codes, &mins, &steps, &[0.5; 40]);
}

#[test]
#[should_panic(expected = "SQ8 kernel")]
fn sq8_dot_refuses_a_shorter_query() {
    let (codes, mins, steps) = sq8_row();
    kernels::sq8_dot(&codes, &mins, &steps, &[0.5; 24]);
}
