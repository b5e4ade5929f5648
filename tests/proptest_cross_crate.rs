//! Cross-crate property tests: format round trips through the
//! architecture and programming model, scanner/hardware equivalence, and
//! executor-vs-reference equality on random inputs.

use capstan::arch::scanner::{BitVecScanner, ScanMode};
use capstan::arch::spmu::driver::run_vectors;
use capstan::arch::spmu::{AccessVector, LaneRequest, RmwOp, Spmu, SpmuConfig};
use capstan::core::config::CapstanConfig;
use capstan::tensor::bitvec::BitVec;
use capstan::tensor::{Coo, Csc, Csr};
use proptest::prelude::*;

fn triplet_strategy(n: usize) -> impl Strategy<Value = Vec<(u32, u32, f32)>> {
    prop::collection::vec(
        (0..n as u32, 0..n as u32, -4.0f32..4.0).prop_map(|(r, c, v)| {
            // Keep values bounded away from 0 so dedup-summing can't
            // produce explicit zeros that change nnz counts.
            (r, c, if v >= 0.0 { v + 0.25 } else { v - 0.25 })
        }),
        0..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn format_round_trips(triplets in triplet_strategy(64)) {
        let coo = Coo::from_triplets(64, 64, triplets).unwrap();
        let csr = Csr::from_coo(&coo);
        let csc = Csc::from_coo(&coo);
        prop_assert_eq!(csr.to_coo(), coo.clone());
        prop_assert_eq!(csc.to_coo(), coo.clone());
        prop_assert_eq!(Csr::from_coo(&csc.to_coo()), csr);
    }

    #[test]
    fn spmv_agrees_across_formats(triplets in triplet_strategy(48)) {
        let coo = Coo::from_triplets(48, 48, triplets).unwrap();
        let csr = Csr::from_coo(&coo);
        let csc = Csc::from_coo(&coo);
        let x: Vec<f32> = (0..48).map(|i| (i % 5) as f32 - 2.0).collect();
        let y_csr = csr.spmv(&x);
        let y_csc = csc.spmv(&x);
        for (a, b) in y_csr.iter().zip(&y_csc) {
            prop_assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn scanner_equals_naive_set_iteration(
        a_idx in prop::collection::btree_set(0u32..600, 0..64),
        b_idx in prop::collection::btree_set(0u32..600, 0..64),
    ) {
        let a = BitVec::from_indices(600, &a_idx.iter().copied().collect::<Vec<_>>()).unwrap();
        let b = BitVec::from_indices(600, &b_idx.iter().copied().collect::<Vec<_>>()).unwrap();
        let scanner = BitVecScanner::default();
        let (inter, _) = scanner.scan(ScanMode::Intersect, &a, Some(&b));
        let expect: Vec<u32> = a_idx.intersection(&b_idx).copied().collect();
        prop_assert_eq!(inter.iter().map(|e| e.j).collect::<Vec<_>>(), expect);
        let (uni, _) = scanner.scan(ScanMode::Union, &a, Some(&b));
        let expect: Vec<u32> = a_idx.union(&b_idx).copied().collect();
        prop_assert_eq!(uni.iter().map(|e| e.j).collect::<Vec<_>>(), expect);
    }

    #[test]
    fn spmu_rmw_results_match_functional_model(
        addrs in prop::collection::vec(0u32..512, 1..48),
    ) {
        // Stream AddF updates through the cycle simulator. Updates are
        // never elided, so the grant log must grant every populated lane
        // of every vector exactly once.
        let vectors: Vec<AccessVector> = addrs
            .chunks(16)
            .map(|chunk| {
                AccessVector::new(
                    chunk
                        .iter()
                        .map(|&a| Some(LaneRequest::rmw(a, RmwOp::AddF)))
                        .collect(),
                )
            })
            .collect();
        let mut spmu = Spmu::new(SpmuConfig::default());
        spmu.enable_grant_log();
        let mut pending: Option<&AccessVector> = None;
        let mut iter = vectors.iter();
        for _ in 0..10_000 {
            if pending.is_none() {
                pending = iter.next();
            }
            if let Some(v) = pending.take() {
                if !spmu.try_enqueue(v) {
                    pending = Some(v);
                }
            }
            spmu.tick();
            if pending.is_none() && spmu.is_idle() && iter.len() == 0 {
                break;
            }
        }
        prop_assert!(spmu.is_idle(), "the unit failed to drain");
        let mut granted: Vec<(u64, usize)> = spmu
            .grant_log()
            .expect("log enabled")
            .iter()
            .map(|g| (g.vector_id, g.lane))
            .collect();
        granted.sort_unstable();
        let populated: Vec<(u64, usize)> = (0..addrs.len())
            .map(|i| ((i / 16) as u64, i % 16))
            .collect();
        prop_assert_eq!(granted, populated);
    }

    #[test]
    fn spmu_ordering_modes_preserve_request_count(
        addrs in prop::collection::vec(0u32..4096, 16..64),
    ) {
        use capstan::arch::spmu::OrderingMode;
        let vectors: Vec<AccessVector> =
            addrs.chunks(16).map(AccessVector::reads).collect();
        let baseline = run_vectors(SpmuConfig::default(), &vectors).requests;
        for mode in [OrderingMode::AddressOrdered, OrderingMode::FullyOrdered, OrderingMode::Arbitrated] {
            let cfg = SpmuConfig {
                ordering: mode,
                ..Default::default()
            };
            let result = run_vectors(cfg, &vectors);
            prop_assert_eq!(result.requests, baseline, "{:?}", mode);
        }
    }

    #[test]
    fn recorded_spmv_matches_reference_on_random_matrices(
        triplets in triplet_strategy(64),
    ) {
        let coo = Coo::from_triplets(64, 64, triplets).unwrap();
        let app = capstan::apps::spmv::CsrSpmv::new(&coo);
        let cfg = CapstanConfig::paper_default();
        let (_, y) = app.record(&cfg);
        let reference = app.reference();
        for (a, b) in y.iter().zip(&reference) {
            prop_assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn bcsr_spmv_agrees_with_csr_for_any_block_size(
        triplets in triplet_strategy(64),
        block in prop::sample::select(vec![2usize, 4, 8, 16, 32]),
    ) {
        let coo = Coo::from_triplets(64, 64, triplets).unwrap();
        let cfg = CapstanConfig::paper_default();
        let bcsr = capstan::apps::spmv::BcsrSpmv::new(&coo, block);
        let (_, y_bcsr) = bcsr.record(&cfg);
        let y_csr = capstan::apps::spmv::CsrSpmv::new(&coo).reference();
        for (a, b) in y_bcsr.iter().zip(&y_csr) {
            prop_assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()), "block {}", block);
        }
    }

    #[test]
    fn dcsr_spmv_agrees_with_csr_on_random_matrices(
        triplets in triplet_strategy(64),
    ) {
        let coo = Coo::from_triplets(64, 64, triplets).unwrap();
        let cfg = CapstanConfig::paper_default();
        let (_, y_dcsr) = capstan::apps::spmv::DcsrSpmv::new(&coo).record(&cfg);
        let y_csr = capstan::apps::spmv::CsrSpmv::new(&coo).reference();
        for (a, b) in y_dcsr.iter().zip(&y_csr) {
            prop_assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn recorded_spmm_matches_reference_on_random_inputs(
        triplets in triplet_strategy(48),
        features in 1usize..24,
    ) {
        let coo = Coo::from_triplets(48, 48, triplets).unwrap();
        let b = capstan::tensor::DenseMatrix::from_fn(48, features, |r, c| {
            ((r * 5 + c * 3) % 7) as f32 - 3.0
        });
        let app = capstan::apps::gnn::Spmm::new(&coo, b);
        let cfg = CapstanConfig::paper_default();
        let (_, out) = app.record(&cfg);
        let reference = app.reference();
        for (a, b) in out.as_slice().iter().zip(reference.as_slice()) {
            prop_assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn cg_converges_on_random_diagonally_dominant_systems(
        triplets in triplet_strategy(40),
    ) {
        // Symmetrize and make strictly diagonally dominant => SPD.
        let coo = Coo::from_triplets(40, 40, triplets).unwrap();
        let mut entries: Vec<(u32, u32, f32)> = Vec::new();
        let mut row_abs = [0.0f32; 40];
        for (r, c, v) in coo.iter() {
            if r != c {
                entries.push((r, c, v / 2.0));
                entries.push((c, r, v / 2.0));
                row_abs[r as usize] += (v / 2.0).abs();
                row_abs[c as usize] += (v / 2.0).abs();
            }
        }
        for i in 0..40u32 {
            entries.push((i, i, 1.0 + 2.0 * row_abs[i as usize]));
        }
        let spd = Coo::from_triplets(40, 40, entries).unwrap();
        let mut cg = capstan::apps::cg::ConjugateGradient::new(&spd);
        cg.iterations = 24;
        let result = cg.reference();
        prop_assert!(!result.residuals.is_empty());
        let first = result.residuals.first().unwrap();
        let last = result.residuals.last().unwrap();
        prop_assert!(last <= first, "residual grew: {} -> {}", first, last);
        // Recorded execution is bit-identical in algorithm terms.
        let (_, recorded) = cg.record(&CapstanConfig::paper_default());
        prop_assert_eq!(recorded.residuals.len(), result.residuals.len());
    }

    #[test]
    fn mm_write_read_round_trip(triplets in triplet_strategy(32)) {
        let coo = Coo::from_triplets(32, 32, triplets).unwrap();
        let mut buf = Vec::new();
        capstan::tensor::mm::write(&mut buf, &coo).unwrap();
        let back = capstan::tensor::mm::read(buf.as_slice()).unwrap();
        prop_assert_eq!(back.rows(), coo.rows());
        prop_assert_eq!(back.cols(), coo.cols());
        prop_assert_eq!(back.nnz(), coo.nnz());
        for ((r1, c1, v1), (r2, c2, v2)) in back.iter().zip(coo.iter()) {
            prop_assert_eq!((r1, c1), (r2, c2));
            prop_assert!((v1 - v2).abs() < 1e-4 * (1.0 + v2.abs()));
        }
    }

    #[test]
    fn elision_changes_timing_but_never_results(
        addrs in prop::collection::vec(0u32..32, 16..48),
    ) {
        // Read an alias-heavy stream with elision on and off: each vector
        // must complete with the same lanes either way (elision is a
        // performance optimization only, paper §3.1.2).
        let vectors: Vec<AccessVector> = addrs.chunks(16).map(AccessVector::reads).collect();
        let completed_lanes = |elide: bool| -> Vec<(u64, u64)> {
            let cfg = SpmuConfig {
                elide_repeated_reads: elide,
                ..Default::default()
            };
            let mut spmu = Spmu::new(cfg);
            let mut out: Vec<(u64, u64)> = Vec::new();
            let mut iter = vectors.iter();
            let mut pending: Option<&AccessVector> = None;
            for _ in 0..10_000 {
                if pending.is_none() {
                    pending = iter.next();
                }
                let exhausted = pending.is_none();
                if let Some(v) = pending.take() {
                    if !spmu.try_enqueue(v) {
                        pending = Some(v);
                    }
                }
                if let Some(c) = spmu.tick() {
                    out.push((c.id, c.lanes));
                }
                if exhausted && pending.is_none() && spmu.is_idle() {
                    break;
                }
            }
            out.sort_unstable();
            out
        };
        let with_elision = completed_lanes(true);
        prop_assert_eq!(with_elision.len(), vectors.len());
        prop_assert_eq!(with_elision, completed_lanes(false));
    }
}
