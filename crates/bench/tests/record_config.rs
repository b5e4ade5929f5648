//! Recording reads only a configuration's `RecordConfig`.
//!
//! The harness records each (app, dataset) once per
//! `CapstanConfig::record_config()` and costs that one workload under
//! every configuration of the group (`cost_rows` in `experiments.rs`).
//! That is valid only while no app reads a field outside `RecordConfig`
//! when it records, and while every field an app does read is part of
//! the key. This test holds every `AppId` to both halves:
//!
//! - each app records the same workload under the paper's design point
//!   and under configurations that differ from it in every field outside
//!   `RecordConfig`;
//! - changing any one recording input changes the key, and some app
//!   then records a different workload.

use capstan_arch::scanner::{BitVecScanner, DataScanner};
use capstan_arch::shuffle::{MergeShift, ShuffleConfig};
use capstan_arch::spmu::{BankHash, OrderingMode, SpmuConfig};
use capstan_bench::{AppId, Suite};
use capstan_core::config::{CapstanConfig, MemAddressing, MemTiming, MemoryKind, TenantPartition};
use capstan_tensor::gen::Dataset;

fn tiny() -> Suite {
    Suite::parse("la=0.01,graph=0.004,spmspm=0.1,conv=0.03").unwrap()
}

/// The whole recorded workload, spelled out: every per-tile counter,
/// sample and SRAM and shuffle digest.
fn recording(suite: &Suite, app: AppId, dataset: Dataset, cfg: &CapstanConfig) -> String {
    format!("{:?}", suite.build(app, dataset).build(cfg))
}

/// `base` with every field outside its `RecordConfig` changed and
/// `shuffle` as given. The literal names every field (no `..`), so a new
/// configuration field does not compile here until it is sorted into or
/// out of `RecordConfig`.
fn differs_outside_record_config(
    base: CapstanConfig,
    shuffle: Option<ShuffleConfig>,
) -> CapstanConfig {
    let spmu = base.spmu;
    let cfg = CapstanConfig {
        memory: MemoryKind::Ddr4,
        spmu: SpmuConfig {
            lanes: spmu.lanes / 2,
            // Twice the banks of half the words: the same capacity.
            banks: spmu.banks * 2,
            bank_words: spmu.bank_words / 2,
            queue_depth: spmu.queue_depth * 2,
            input_speedup: spmu.input_speedup + 1,
            priorities: spmu.priorities - 1,
            alloc_iterations: spmu.alloc_iterations + 1,
            hash: BankHash::Linear,
            ordering: OrderingMode::FullyOrdered,
            elide_repeated_reads: !spmu.elide_repeated_reads,
            bloom_entries: spmu.bloom_entries * 2,
            pipeline_latency: spmu.pipeline_latency + 3,
            ideal_conflict_free: !spmu.ideal_conflict_free,
        },
        scanner: base.scanner,
        data_scanner: base.data_scanner,
        shuffle,
        compression: !base.compression,
        outer_par: base.outer_par,
        ideal_net_and_mem: !base.ideal_net_and_mem,
        scalar_stream_join: !base.scalar_stream_join,
        rmw_bubble_cycles: base.rmw_bubble_cycles + 5,
        serialized_sram: !base.serialized_sram,
        mem_timing: MemTiming::CycleLevel,
        mem_channels: base.mem_channels + 3,
        mem_addresses: MemAddressing::Recorded,
        mem_tenants: base.mem_tenants + 1,
        mem_tenant_partition: TenantPartition::Dedicated,
        mem_fast_forward: !base.mem_fast_forward,
    };
    assert_eq!(cfg.record_config(), base.record_config());
    cfg
}

#[test]
fn every_app_records_the_same_workload_under_one_record_config() {
    let suite = tiny();
    let base = CapstanConfig::paper_default();
    let others = [
        // Every shuffle field but the port count changes.
        Some(ShuffleConfig {
            lanes: 8,
            shift: MergeShift::Full,
            ..ShuffleConfig::default()
        }),
        // No network records against the paper's 16 ports.
        None,
    ]
    .map(|shuffle| differs_outside_record_config(base, shuffle));
    for app in AppId::ALL {
        let dataset = app.datasets()[0];
        let expected = recording(&suite, app, dataset, &base);
        for other in &others {
            assert!(
                recording(&suite, app, dataset, other) == expected,
                "{app:?} on {dataset:?} records differently under {other:?}, \
                 a config with the same RecordConfig"
            );
        }
    }
}

#[test]
fn each_recording_input_changes_the_key_and_some_recording() {
    let suite = tiny();
    let base = CapstanConfig::paper_default();
    let with = |f: &dyn Fn(&mut CapstanConfig)| {
        let mut cfg = base;
        f(&mut cfg);
        cfg
    };
    let inputs = [
        ("outer_par", with(&|c| c.outer_par = 4)),
        ("scanner", with(&|c| c.scanner = BitVecScanner::new(1, 1))),
        (
            "data_scanner",
            with(&|c| c.data_scanner = DataScanner::new(1)),
        ),
        (
            "shuffle ports",
            with(&|c| {
                c.shuffle = Some(ShuffleConfig {
                    ports: 4,
                    ..ShuffleConfig::default()
                })
            }),
        ),
        // 16 words: no app's dense vector fits.
        ("SpMU capacity", with(&|c| c.spmu.bank_words = 1)),
    ];
    for (name, cfg) in inputs {
        assert_ne!(
            cfg.record_config(),
            base.record_config(),
            "{name} does not change the recording key"
        );
        assert!(
            AppId::ALL.into_iter().any(|app| {
                let dataset = app.datasets()[0];
                recording(&suite, app, dataset, &cfg) != recording(&suite, app, dataset, &base)
            }),
            "no app records differently when only {name} changes"
        );
    }
}
