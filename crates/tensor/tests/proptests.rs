//! Property-based tests for the tensor substrate: format round trips,
//! bit-vector algebra, bit-tree/flat equivalence, compression, and the
//! Matrix Market loader.

use capstan_tensor::bcsr::Bcsr;
use capstan_tensor::bittree::BitTree;
use capstan_tensor::bitvec::BitVec;
use capstan_tensor::compress::CompressedTile;
use capstan_tensor::convert::SparseVec;
use capstan_tensor::dcsr::{Dcsc, Dcsr};
use capstan_tensor::partition::{partition_graph, tile_by_nnz, tile_evenly};
use capstan_tensor::{mm, Coo, Csc, Csr};
use proptest::prelude::*;

fn triplets(n: usize, max_len: usize) -> impl Strategy<Value = Vec<(u32, u32, f32)>> {
    prop::collection::vec(
        (0..n as u32, 0..n as u32, 1u32..1000).prop_map(|(r, c, v)| (r, c, v as f32 / 16.0)),
        0..max_len,
    )
}

type Triplets = Vec<(u32, u32, f32)>;

/// A `rows x cols` shape (each 1..=8, so 1×N and N×1 shapes and empty
/// rows and columns are common) with triplets full of duplicates and
/// explicit zeros. Values are multiples of 0.3, so summing duplicates in
/// a different order could change their bits.
fn shaped_triplets() -> impl Strategy<Value = (usize, usize, Triplets)> {
    (
        1usize..9,
        1usize..9,
        prop::collection::vec((any::<u32>(), any::<u32>(), -6i32..7), 0..80),
    )
        .prop_map(|(rows, cols, raw)| {
            let ts = raw
                .into_iter()
                .map(|(r, c, k)| (r % rows as u32, c % cols as u32, k as f32 * 0.3))
                .collect();
            (rows, cols, ts)
        })
}

/// The push-based construction `Coo::from_triplets` used before it
/// merged duplicates in place: sort, push each entry or sum it into the
/// previous one, then drop zeros.
fn push_dedup_reference(mut triplets: Triplets) -> Triplets {
    triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));
    let mut entries: Triplets = Vec::with_capacity(triplets.len());
    for (r, c, v) in triplets {
        match entries.last_mut() {
            Some(last) if last.0 == r && last.1 == c => last.2 += v,
            _ => entries.push((r, c, v)),
        }
    }
    entries.retain(|&(_, _, v)| v != 0.0);
    entries
}

/// Entries with values as bit patterns, so `-0.0` and rounding show.
fn entry_bits(entries: &[(u32, u32, f32)]) -> Vec<(u32, u32, u32)> {
    entries
        .iter()
        .map(|&(r, c, v)| (r, c, v.to_bits()))
        .collect()
}

/// The sort-based transpose: `from_triplets` of the swapped triplets.
fn sorted_transpose(coo: &Coo) -> Coo {
    let swapped = coo.iter().map(|(r, c, v)| (c, r, v)).collect();
    Coo::from_triplets(coo.cols(), coo.rows(), swapped).unwrap()
}

/// CSC assembled from the sort-based transpose, column by column.
fn sorted_csc(coo: &Coo) -> Csc {
    let t = sorted_transpose(coo);
    let mut col_ptr = vec![0usize; coo.cols() + 1];
    for (c, _, _) in t.iter() {
        col_ptr[c as usize + 1] += 1;
    }
    for c in 0..coo.cols() {
        col_ptr[c + 1] += col_ptr[c];
    }
    let row_idx = t.iter().map(|(_, r, _)| r).collect();
    let values = t.iter().map(|(_, _, v)| v).collect();
    Csc::from_raw(coo.rows(), coo.cols(), col_ptr, row_idx, values).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn in_place_dedup_matches_the_push_based_reference(
        (rows, cols, ts) in shaped_triplets()
    ) {
        let coo = Coo::from_triplets(rows, cols, ts.clone()).unwrap();
        prop_assert_eq!(entry_bits(coo.entries()), entry_bits(&push_dedup_reference(ts)));
    }

    #[test]
    fn scatter_transpose_and_csc_match_the_sort_based_reference(
        (rows, cols, ts) in shaped_triplets()
    ) {
        let coo = Coo::from_triplets(rows, cols, ts).unwrap();
        let t = coo.transpose();
        prop_assert_eq!((t.rows(), t.cols()), (cols, rows));
        prop_assert_eq!(entry_bits(t.entries()), entry_bits(sorted_transpose(&coo).entries()));
        prop_assert_eq!(Csc::from_coo(&coo), sorted_csc(&coo));
        prop_assert_eq!(Csc::from(coo.clone()), sorted_csc(&coo));
    }

    #[test]
    fn every_format_round_trips(ts in triplets(48, 150)) {
        let coo = Coo::from_triplets(48, 48, ts).unwrap();
        prop_assert_eq!(Csr::from_coo(&coo).to_coo(), coo.clone());
        prop_assert_eq!(Csc::from_coo(&coo).to_coo(), coo.clone());
        prop_assert_eq!(Dcsr::from_coo(&coo).to_coo(), coo.clone());
        prop_assert_eq!(Dcsc::from_coo(&coo).to_coo(), coo.clone());
        for block in [3usize, 4, 16] {
            prop_assert_eq!(Bcsr::from_coo(&coo, block).to_coo(), coo.clone());
        }
    }

    #[test]
    fn every_format_computes_the_same_spmv(ts in triplets(40, 120)) {
        let coo = Coo::from_triplets(40, 40, ts).unwrap();
        let x: Vec<f32> = (0..40).map(|i| ((i * 7) % 5) as f32 - 2.0).collect();
        let reference = Csr::from_coo(&coo).spmv(&x);
        let candidates = [
            Csc::from_coo(&coo).spmv(&x),
            Dcsr::from_coo(&coo).spmv(&x),
            Bcsr::from_coo(&coo, 4).spmv(&x),
        ];
        for y in candidates {
            for (a, b) in y.iter().zip(&reference) {
                prop_assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()));
            }
        }
    }

    #[test]
    fn transpose_is_involutive(ts in triplets(32, 100)) {
        let coo = Coo::from_triplets(32, 32, ts).unwrap();
        prop_assert_eq!(coo.transpose().transpose(), coo);
    }

    #[test]
    fn bitvec_set_algebra(
        a_idx in prop::collection::btree_set(0u32..500, 0..80),
        b_idx in prop::collection::btree_set(0u32..500, 0..80),
    ) {
        let to_vec = |s: &std::collections::BTreeSet<u32>| {
            BitVec::from_indices(500, &s.iter().copied().collect::<Vec<_>>()).unwrap()
        };
        let (a, b) = (to_vec(&a_idx), to_vec(&b_idx));
        // Commutativity.
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        // Idempotence.
        prop_assert_eq!(a.union(&a), a.clone());
        prop_assert_eq!(a.intersect(&a), a.clone());
        // Inclusion-exclusion on cardinalities.
        prop_assert_eq!(
            a.union(&b).count_ones() + a.intersect(&b).count_ones(),
            a.count_ones() + b.count_ones()
        );
    }

    #[test]
    fn rank_select_inverse(idx in prop::collection::btree_set(0u32..1000, 1..120)) {
        let bv = BitVec::from_indices(1000, &idx.iter().copied().collect::<Vec<_>>()).unwrap();
        for k in 0..bv.count_ones() {
            let pos = bv.select(k).unwrap();
            prop_assert!(bv.get(pos));
            prop_assert_eq!(bv.rank(pos), k);
        }
        prop_assert_eq!(bv.select(bv.count_ones()), None);
    }

    #[test]
    fn bittree_merges_equal_flat_merges(
        a_idx in prop::collection::btree_set(0u32..20_000, 0..100),
        b_idx in prop::collection::btree_set(0u32..20_000, 0..100),
    ) {
        let a_v: Vec<u32> = a_idx.iter().copied().collect();
        let b_v: Vec<u32> = b_idx.iter().copied().collect();
        let at = BitTree::from_indices(20_000, &a_v).unwrap();
        let bt = BitTree::from_indices(20_000, &b_v).unwrap();
        let af = BitVec::from_indices(20_000, &a_v).unwrap();
        let bf = BitVec::from_indices(20_000, &b_v).unwrap();
        prop_assert_eq!(at.union(&bt).0.to_bitvec(), af.union(&bf));
        prop_assert_eq!(at.intersect(&bt).0.to_bitvec(), af.intersect(&bf));
    }

    #[test]
    fn compression_round_trips(words in prop::collection::vec(any::<u32>(), 1..300)) {
        let tile = CompressedTile::compress(&words);
        prop_assert_eq!(tile.decode(), words);
        prop_assert!(tile.encoded_bytes() > 0);
    }

    #[test]
    fn sorted_pointers_compress_well(base in 0u32..1_000_000, n in 64usize..256) {
        // Monotone, closely spaced pointers (the COO/PR-Edge case).
        let words: Vec<u32> = (0..n as u32).map(|i| base + i / 4).collect();
        let tile = CompressedTile::compress(&words);
        prop_assert_eq!(tile.decode(), words);
        prop_assert!(tile.compression_ratio() > 2.0);
    }

    #[test]
    fn matrix_market_round_trips(ts in triplets(30, 80)) {
        let coo = Coo::from_triplets(30, 30, ts).unwrap();
        let mut buf = Vec::new();
        mm::write(&mut buf, &coo).unwrap();
        let back = mm::read(buf.as_slice()).unwrap();
        prop_assert_eq!(back.rows(), coo.rows());
        prop_assert_eq!(back.nnz(), coo.nnz());
        for (x, y) in back.iter().zip(coo.iter()) {
            prop_assert_eq!(x.0, y.0);
            prop_assert_eq!(x.1, y.1);
            prop_assert!((x.2 - y.2).abs() < 1e-4 * (1.0 + y.2.abs()));
        }
    }

    #[test]
    fn sparse_vec_round_trips(dense in prop::collection::vec(-5.0f32..5.0, 1..200)) {
        let sv = SparseVec::from_dense(&dense);
        prop_assert_eq!(sv.to_dense(), dense);
        prop_assert_eq!(sv.to_bitvec().count_ones(), sv.nnz());
    }

    #[test]
    fn tiling_partitions_exactly(n in 0usize..500, parts in 1usize..20) {
        let tiles = tile_evenly(n, parts);
        prop_assert_eq!(tiles.len(), parts);
        prop_assert_eq!(tiles.iter().map(|t| t.end - t.start).sum::<usize>(), n);
        for w in tiles.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn nnz_tiling_covers_all_rows(ts in triplets(64, 300), parts in 1usize..8) {
        let coo = Coo::from_triplets(64, 64, ts).unwrap();
        let tiles = tile_by_nnz(&coo, parts);
        prop_assert_eq!(tiles.len(), parts);
        prop_assert_eq!(tiles[0].start, 0);
        prop_assert_eq!(tiles.last().unwrap().end, 64);
        for w in tiles.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn graph_partition_is_total(ts in triplets(80, 400), parts in 1usize..10) {
        let coo = Coo::from_triplets(80, 80, ts).unwrap();
        let adj = Csr::from_coo(&coo);
        let p = partition_graph(&adj, parts);
        prop_assert_eq!(p.assignment().len(), 80);
        prop_assert!(p.assignment().iter().all(|&a| (a as usize) < parts));
    }
}

#[test]
fn scatter_transpose_and_csc_cover_degenerate_shapes() {
    let cases: [(usize, usize, Triplets); 6] = [
        (1, 7, vec![(0, 6, 1.0), (0, 0, 2.0), (0, 3, -1.5)]),
        (7, 1, vec![(6, 0, 1.0), (0, 0, 2.0), (3, 0, -1.5)]),
        // Rows 1 and 3 and columns 0, 2 and 5 are empty.
        (
            5,
            6,
            vec![(4, 1, 1.0), (0, 4, 2.0), (2, 3, 3.0), (0, 1, 4.0)],
        ),
        (4, 4, vec![]),
        (0, 3, vec![]),
        (3, 0, vec![]),
    ];
    for (rows, cols, ts) in cases {
        let coo = Coo::from_triplets(rows, cols, ts).unwrap();
        assert_eq!(coo.transpose(), sorted_transpose(&coo), "{rows}x{cols}");
        assert_eq!(Csc::from_coo(&coo), sorted_csc(&coo), "{rows}x{cols}");
        assert_eq!(Csc::from(coo.clone()), sorted_csc(&coo), "{rows}x{cols}");
        assert_eq!(Csc::from_coo(&coo).to_coo(), coo, "{rows}x{cols}");
    }
}
