//! Property tests for the recording executor: counting invariants that
//! the performance engine relies on.

use capstan_arch::scanner::ScanMode;
use capstan_arch::spmu::RmwOp;
use capstan_core::program::{WorkloadBuilder, SRAM_SAMPLE_LIMIT};
use capstan_tensor::bitvec::BitVec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lane_work_and_vectors_are_consistent(sizes in prop::collection::vec(0usize..200, 1..12)) {
        let mut wl = WorkloadBuilder::new("t");
        let mut t = wl.tile();
        for &n in &sizes {
            t.foreach_vec(n, |_, _| {});
        }
        wl.commit(t);
        let w = wl.finish();
        let tile = &w.tiles[0];
        let expect_work: u64 = sizes.iter().map(|&n| n as u64).sum();
        let expect_vectors: u64 = sizes.iter().map(|&n| (n as u64).div_ceil(16)).sum();
        prop_assert_eq!(tile.lane_work, expect_work);
        prop_assert_eq!(tile.vectors, expect_vectors);
        // Vector count bounds: ceil-div cannot waste more than 15/vector.
        prop_assert!(tile.vectors * 16 >= tile.lane_work);
        prop_assert!(tile.lane_work + 15 * tile.vectors >= tile.vectors * 16);
    }

    #[test]
    fn sram_request_counts_are_exact(
        n in 0usize..300,
        rmw_every in 1usize..5,
    ) {
        let mut wl = WorkloadBuilder::new("t");
        let mut t = wl.tile();
        t.foreach_vec(n, |t, i| {
            t.sram_read(i as u32);
            if i % rmw_every == 0 {
                t.sram_rmw(i as u32, RmwOp::AddF);
            }
        });
        wl.commit(t);
        let w = wl.finish();
        let sram = &w.tiles[0].sram;
        let expect_rmw = n.div_ceil(rmw_every) as u64;
        prop_assert_eq!(sram.total_requests, n as u64 + expect_rmw);
        prop_assert_eq!(sram.rmw_requests, expect_rmw);
        // Sampled vectors never exceed twice the sample limit.
        prop_assert!(sram.sampled.len() <= 2 * SRAM_SAMPLE_LIMIT);
        // Every sampled vector is non-empty.
        prop_assert!(sram.sampled.iter().all(|v| v.occupancy() > 0));
    }

    #[test]
    fn scan_emission_matches_set_algebra(
        a_idx in prop::collection::btree_set(0u32..600, 0..80),
        b_idx in prop::collection::btree_set(0u32..600, 0..80),
    ) {
        let a = BitVec::from_indices(600, &a_idx.iter().copied().collect::<Vec<_>>()).unwrap();
        let b = BitVec::from_indices(600, &b_idx.iter().copied().collect::<Vec<_>>()).unwrap();
        let mut wl = WorkloadBuilder::new("t");
        let mut t = wl.tile();
        let mut count = 0u64;
        t.scan(ScanMode::Intersect, &a, Some(&b), |_, _| count += 1);
        wl.commit(t);
        let w = wl.finish();
        let expect = a_idx.intersection(&b_idx).count() as u64;
        prop_assert_eq!(count, expect);
        prop_assert_eq!(w.tiles[0].scan_emitted, expect);
        prop_assert_eq!(w.tiles[0].scan_input_nnz, (a_idx.len() + b_idx.len()) as u64);
        prop_assert_eq!(w.tiles[0].lane_work, expect);
    }

    #[test]
    fn dram_byte_accounting_is_additive(
        reads in prop::collection::vec(0usize..10_000, 0..8),
        writes in prop::collection::vec(0usize..10_000, 0..8),
    ) {
        let mut wl = WorkloadBuilder::new("t");
        let mut t = wl.tile();
        for &r in &reads {
            t.dram_stream_read(r);
        }
        for &w in &writes {
            t.dram_stream_write(w);
        }
        wl.commit(t);
        let w = wl.finish();
        let expect: u64 = reads.iter().chain(&writes).map(|&b| b as u64).sum();
        prop_assert_eq!(w.tiles[0].dram_stream_bytes, expect);
        prop_assert_eq!(w.tiles[0].dram_compressible_bytes, 0);
    }

    #[test]
    fn compressed_bytes_never_exceed_raw(words in prop::collection::vec(any::<u32>(), 1..2000)) {
        let mut wl = WorkloadBuilder::new("t");
        let mut t = wl.tile();
        t.dram_pointer_read(&words);
        wl.commit(t);
        let w = wl.finish();
        let tile = &w.tiles[0];
        prop_assert_eq!(tile.dram_compressible_bytes, words.len() as u64 * 4);
        // Incompressible tiles fall back to raw: never more traffic.
        prop_assert!(tile.dram_compressed_bytes <= tile.dram_compressible_bytes);
    }

    #[test]
    fn remote_entries_are_counted_exactly(dests in prop::collection::vec(0usize..16, 0..200)) {
        let mut wl = WorkloadBuilder::new("t");
        let mut t = wl.tile();
        t.foreach_vec(dests.len(), |t, i| t.remote_update(dests[i]));
        wl.commit(t);
        let w = wl.finish();
        prop_assert_eq!(w.tiles[0].remote.total_entries, dests.len() as u64);
    }
}
