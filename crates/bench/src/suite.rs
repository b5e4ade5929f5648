//! Benchmark suite assembly: the paper's app x dataset matrix (Table 6)
//! at configurable simulation scale.

use capstan_apps::bfs::Bfs;
use capstan_apps::bicgstab::BiCgStab;
use capstan_apps::conv::SparseConv;
use capstan_apps::mpm::MatrixAdd;
use capstan_apps::pagerank::{PrEdge, PrPull};
use capstan_apps::spmspm::SpMSpM;
use capstan_apps::spmv::{CooSpmv, CscSpmv, CsrSpmv};
use capstan_apps::sssp::Sssp;
use capstan_apps::App;
use capstan_core::config::{run_mode, PlanMode};
use capstan_tensor::gen::{is_valid_scale, Dataset};
use capstan_tensor::stats::TensorStats;

/// The eleven applications, in Table 12 column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppId {
    /// CSR SpMV.
    CsrSpmv,
    /// COO SpMV.
    CooSpmv,
    /// CSC SpMV.
    CscSpmv,
    /// Sparse convolution.
    Conv,
    /// Pull PageRank.
    PrPull,
    /// Edge-centric PageRank.
    PrEdge,
    /// Breadth-first search.
    Bfs,
    /// Single-source shortest paths.
    Sssp,
    /// Sparse matrix addition.
    MpM,
    /// Gustavson SpMSpM.
    SpMSpM,
    /// Fused BiCGStab solver.
    BiCgStab,
}

impl AppId {
    /// All apps in Table 12 order.
    pub const ALL: [AppId; 11] = [
        AppId::CsrSpmv,
        AppId::CooSpmv,
        AppId::CscSpmv,
        AppId::Conv,
        AppId::PrPull,
        AppId::PrEdge,
        AppId::Bfs,
        AppId::Sssp,
        AppId::MpM,
        AppId::SpMSpM,
        AppId::BiCgStab,
    ];

    /// Display name matching the paper's tables.
    pub(crate) fn name(self) -> &'static str {
        match self {
            AppId::CsrSpmv => "CSR SpMV",
            AppId::CooSpmv => "COO SpMV",
            AppId::CscSpmv => "CSC SpMV",
            AppId::Conv => "Conv",
            AppId::PrPull => "PR-Pull",
            AppId::PrEdge => "PR-Edge",
            AppId::Bfs => "BFS",
            AppId::Sssp => "SSSP",
            AppId::MpM => "M+M",
            AppId::SpMSpM => "SpMSpM",
            AppId::BiCgStab => "BiCGStab",
        }
    }

    /// Short column header.
    pub(crate) fn short(self) -> &'static str {
        match self {
            AppId::CsrSpmv => "CSR",
            AppId::CooSpmv => "COO",
            AppId::CscSpmv => "CSC",
            AppId::Conv => "Conv",
            AppId::PrPull => "Pull",
            AppId::PrEdge => "Edge",
            AppId::Bfs => "BFS",
            AppId::Sssp => "SSSP",
            AppId::MpM => "M+M",
            AppId::SpMSpM => "SpMSpM",
            AppId::BiCgStab => "BiCG",
        }
    }

    /// The paper's Table 6 datasets for this application.
    pub fn datasets(self) -> &'static [Dataset] {
        match self {
            AppId::CsrSpmv | AppId::CooSpmv | AppId::CscSpmv | AppId::MpM | AppId::BiCgStab => &[
                Dataset::Ckt11752,
                Dataset::Trefethen20000,
                Dataset::Bcsstk30,
            ],
            AppId::PrPull | AppId::PrEdge | AppId::Bfs | AppId::Sssp => {
                &[Dataset::UsRoads, Dataset::WebStanford, Dataset::Flickr]
            }
            AppId::SpMSpM => &[Dataset::SpaceStation4, Dataset::Qc324, Dataset::Mbeacxc],
            AppId::Conv => &[
                Dataset::ResNet50L1,
                Dataset::ResNet50L2,
                Dataset::ResNet50L29,
            ],
        }
    }

    /// Normalization family for Table 12 ("the fastest Capstan-HBM2E
    /// version of each application"): SpMV variants share a normalizer,
    /// as do the PageRank variants.
    pub(crate) fn family(self) -> &'static str {
        match self {
            AppId::CsrSpmv | AppId::CooSpmv | AppId::CscSpmv => "SpMV",
            AppId::PrPull | AppId::PrEdge => "PageRank",
            other => other.name(),
        }
    }
}

/// Simulation scale: the fraction of each dataset's paper-reported size
/// that is generated and simulated. Scaled evaluation follows the paper's
/// own practice of substituting a smaller graph when "simulation
/// feasibility" demands it (§4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Suite {
    /// Scale for the linear-algebra matrices (SpMV, M+M, BiCGStab).
    pub la_scale: f64,
    /// Scale for the graph datasets (PR, BFS, SSSP).
    pub graph_scale: f64,
    /// Scale for the small SpMSpM matrices.
    pub spmspm_scale: f64,
    /// Scale for the convolution layers (channel fraction).
    pub conv_scale: f64,
}

impl Suite {
    /// Fast suite for CI and iteration (seconds per experiment).
    pub fn small() -> Self {
        Suite {
            la_scale: 0.04,
            graph_scale: 0.015,
            spmspm_scale: 0.5,
            conv_scale: 0.10,
        }
    }

    /// Medium suite (default for the experiment binary).
    fn medium() -> Self {
        Suite {
            la_scale: 0.12,
            graph_scale: 0.03,
            spmspm_scale: 1.0,
            conv_scale: 0.20,
        }
    }

    /// Large suite (minutes per experiment).
    fn large() -> Self {
        Suite {
            la_scale: 0.4,
            graph_scale: 0.08,
            spmspm_scale: 1.0,
            conv_scale: 0.5,
        }
    }

    /// Parses a scale name.
    fn from_name(name: &str) -> Option<Suite> {
        match name {
            "small" => Some(Suite::small()),
            "medium" => Some(Suite::medium()),
            "large" => Some(Suite::large()),
            _ => None,
        }
    }

    /// Parses a scale specification: a named preset (`small`, `medium`,
    /// `large`) or an explicit custom form
    /// `la=0.04,graph=0.015,spmspm=0.5,conv=0.1` listing every scale
    /// factor exactly once (any key order). Custom factors must be
    /// finite, positive, and at most 1 (the full dataset, the largest
    /// the generators produce) — `NaN`/`inf` parse as valid `f64`s but
    /// would silently produce empty or unbounded datasets, so every
    /// out-of-range factor is rejected loudly here, before any
    /// simulation runs.
    /// The accepted spellings contain no whitespace or tabs, keeping
    /// scale strings safe to embed in journal manifests, bench records,
    /// and wire-protocol fields.
    pub fn parse(spec: &str) -> Result<Suite, String> {
        if let Some(suite) = Suite::from_name(spec) {
            return Ok(suite);
        }
        let mut la = None;
        let mut graph = None;
        let mut spmspm = None;
        let mut conv = None;
        for part in spec.split(',') {
            let (key, raw) = part.split_once('=').ok_or_else(|| {
                format!(
                    "unknown scale `{spec}` (small|medium|large or \
                     la=F,graph=F,spmspm=F,conv=F)"
                )
            })?;
            let value: f64 = raw
                .parse()
                .map_err(|_| format!("scale factor `{key}={raw}` is not a number"))?;
            if !is_valid_scale(value) {
                return Err(format!(
                    "scale factor `{key}={raw}` must be finite and in (0, 1]"
                ));
            }
            let slot = match key {
                "la" => &mut la,
                "graph" => &mut graph,
                "spmspm" => &mut spmspm,
                "conv" => &mut conv,
                _ => {
                    return Err(format!(
                        "unknown scale factor `{key}` (la|graph|spmspm|conv)"
                    ))
                }
            };
            if slot.replace(value).is_some() {
                return Err(format!("scale factor `{key}` given more than once"));
            }
        }
        match (la, graph, spmspm, conv) {
            (Some(la_scale), Some(graph_scale), Some(spmspm_scale), Some(conv_scale)) => {
                Ok(Suite {
                    la_scale,
                    graph_scale,
                    spmspm_scale,
                    conv_scale,
                })
            }
            _ => Err(format!(
                "scale `{spec}` must give all of la, graph, spmspm, conv"
            )),
        }
    }

    /// The four scale factors' exact `f64` bit patterns. Every dataset
    /// is generated deterministically from `(Dataset, scale factor)`, so
    /// these bits identify the generated inputs, and `0.5` and `5e-1`
    /// give the same bits. The recording memo and the serving layer's
    /// job table key on them.
    pub fn scale_bits(&self) -> [u64; 4] {
        [
            self.la_scale,
            self.graph_scale,
            self.spmspm_scale,
            self.conv_scale,
        ]
        .map(f64::to_bits)
    }

    fn scale_for(&self, app: AppId) -> f64 {
        match app {
            AppId::CsrSpmv | AppId::CooSpmv | AppId::CscSpmv | AppId::MpM | AppId::BiCgStab => {
                self.la_scale
            }
            AppId::PrPull | AppId::PrEdge | AppId::Bfs | AppId::Sssp => self.graph_scale,
            AppId::SpMSpM => self.spmspm_scale,
            AppId::Conv => self.conv_scale,
        }
    }

    /// Builds one application instance on one dataset under the
    /// process-wide plan mode ([`run_mode`]): hardcoded
    /// constructors under `Fixed` (bit-compatible with every committed
    /// golden value), planner-derived formats under `Auto` (see
    /// `Suite::build_planned`).
    pub fn build(&self, app: AppId, dataset: Dataset) -> Box<dyn App> {
        self.build_planned(app, dataset, run_mode().plan)
    }

    /// Builds one application instance on one dataset under an explicit
    /// plan mode. Under [`PlanMode::Auto`], the format-generic SpMV slot
    /// (`AppId::CsrSpmv`) consults the planner's static tier
    /// ([`TensorStats::suggest`]) and stores the matrix in the suggested
    /// format, falling back to CSR when the suggestion has no SpMV
    /// kernel. The other apps keep their identities: COO/CSC SpMV study
    /// specific hazard patterns, and the graph/solver apps are not
    /// format-generic.
    fn build_planned(&self, app: AppId, dataset: Dataset, plan: PlanMode) -> Box<dyn App> {
        let scale = self.scale_for(app);
        match app {
            AppId::Conv => Box::new(SparseConv::from_dataset(dataset, scale)),
            _ => {
                let m = dataset.generate_scaled(scale);
                if plan == PlanMode::Auto && app == AppId::CsrSpmv {
                    let suggestion = TensorStats::compute(&m).suggest();
                    if let Some(planned) = capstan_plan::build_spmv(&m, suggestion) {
                        return planned;
                    }
                }
                match app {
                    AppId::CsrSpmv => Box::new(CsrSpmv::new(&m)),
                    AppId::CooSpmv => Box::new(CooSpmv::new(&m)),
                    AppId::CscSpmv => Box::new(CscSpmv::new(&m)),
                    AppId::PrPull => Box::new(PrPull::new(&m)),
                    AppId::PrEdge => Box::new(PrEdge::new(&m)),
                    AppId::Bfs => Box::new(Bfs::new(&m)),
                    AppId::Sssp => Box::new(Sssp::new(&m)),
                    AppId::MpM => Box::new(MatrixAdd::self_shifted(&m)),
                    AppId::SpMSpM => Box::new(SpMSpM::squared(&m)),
                    AppId::BiCgStab => Box::new(BiCgStab::new(&m)),
                    AppId::Conv => unreachable!(),
                }
            }
        }
    }

    /// Generates the scaled matrix this suite would feed to `app` on
    /// `dataset` — the exact bytes [`Suite::build`] constructs its
    /// formats from, so the planner can probe what the experiment will
    /// run. (Conv builds from layer descriptors, not a matrix, and is
    /// not covered.)
    pub fn build_matrix_for(&self, app: AppId, dataset: Dataset) -> capstan_tensor::Coo {
        dataset.generate_scaled(self.scale_for(app))
    }
}

/// Geometric mean of a slice (0 if empty).
pub(crate) fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-300).ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_app_builds_and_simulates() {
        // `small` on each app's first dataset, then every dataset at the
        // low end of what `Suite::parse` accepts: the smallest positive
        // factor, a hair above zero, and seeded interior factors in
        // [1e-6, 0.01], drawn independently per scale family.
        let mut rng = capstan_arch::spmu::driver::TraceRng::new(0x5EED);
        let mut draw = || (rng.below(10_000) + 1) as f64 * 1e-6;
        let mut specs = vec![
            "la=5e-324,graph=5e-324,spmspm=5e-324,conv=5e-324".to_string(),
            "la=1e-9,graph=1e-9,spmspm=1e-9,conv=1e-9".to_string(),
        ];
        for _ in 0..2 {
            specs.push(format!(
                "la={:e},graph={:e},spmspm={:e},conv={:e}",
                draw(),
                draw(),
                draw(),
                draw()
            ));
        }
        let mut runs: Vec<(Suite, AppId, Dataset)> = AppId::ALL
            .iter()
            .map(|&app| (Suite::small(), app, app.datasets()[0]))
            .collect();
        for spec in &specs {
            let suite = Suite::parse(spec).unwrap();
            for app in AppId::ALL {
                runs.extend(app.datasets().iter().map(|&dataset| (suite, app, dataset)));
            }
        }
        let cfg = capstan_core::config::CapstanConfig::paper_default();
        for (suite, app, dataset) in runs {
            let instance = suite.build(app, dataset);
            assert_eq!(instance.name(), app.name());
            let report = instance.simulate(&cfg);
            assert!(
                report.cycles > 0,
                "{} on {dataset:?} produced zero cycles at {suite:?}",
                app.name()
            );
        }
    }

    #[test]
    fn planned_builds_replace_only_the_format_generic_spmv() {
        let suite = Suite::small();
        // Fixed mode is the hardcoded constructor set, byte-compatible
        // with `build` under the default run mode.
        for app in AppId::ALL {
            let fixed = suite.build_planned(app, app.datasets()[0], PlanMode::Fixed);
            assert_eq!(fixed.name(), app.name());
        }
        // Auto mode: the CSR slot follows the static suggestion; every
        // other app keeps its identity.
        let cfg = capstan_core::config::CapstanConfig::paper_default();
        for app in AppId::ALL {
            let auto = suite.build_planned(app, app.datasets()[0], PlanMode::Auto);
            if app == AppId::CsrSpmv {
                let m = suite.build_matrix_for(app, app.datasets()[0]);
                let suggestion = TensorStats::compute(&m).suggest();
                match capstan_plan::build_spmv(&m, suggestion) {
                    Some(planned) => assert_eq!(auto.name(), planned.name()),
                    None => assert_eq!(auto.name(), app.name(), "CSR fallback"),
                }
            } else {
                assert_eq!(auto.name(), app.name());
            }
            assert!(auto.simulate(&cfg).cycles > 0);
        }
    }

    #[test]
    fn datasets_match_table6_grouping() {
        assert_eq!(AppId::CsrSpmv.datasets().len(), 3);
        assert_eq!(AppId::Bfs.datasets()[0], Dataset::UsRoads);
        assert_eq!(AppId::SpMSpM.datasets()[1], Dataset::Qc324);
        assert_eq!(AppId::Conv.datasets()[2], Dataset::ResNet50L29);
    }

    #[test]
    fn families_group_variants() {
        assert_eq!(AppId::CsrSpmv.family(), AppId::CscSpmv.family());
        assert_eq!(AppId::PrPull.family(), AppId::PrEdge.family());
        assert_ne!(AppId::Bfs.family(), AppId::Sssp.family());
    }

    #[test]
    fn scale_parse_accepts_presets_and_custom_factors() {
        assert_eq!(Suite::parse("small").unwrap(), Suite::small());
        assert_eq!(Suite::parse("large").unwrap(), Suite::large());
        let custom = Suite::parse("la=0.04,graph=0.015,spmspm=0.5,conv=0.1").unwrap();
        assert_eq!(custom, Suite::small());
        // Key order is free-form; values are what matter.
        let reordered = Suite::parse("conv=0.1,spmspm=0.5,la=0.04,graph=0.015").unwrap();
        assert_eq!(reordered, custom);
        // 1 is the full dataset: the largest accepted factor.
        assert_eq!(
            Suite::parse("la=1,graph=1,spmspm=1,conv=1")
                .unwrap()
                .la_scale,
            1.0
        );
    }

    #[test]
    fn scale_parse_rejects_nan_inf_and_malformed_specs() {
        for bad in [
            "gigantic",
            "la=0.04",
            "la=0.04,graph=0.015,spmspm=0.5,conv=NaN",
            "la=inf,graph=0.015,spmspm=0.5,conv=0.1",
            "la=-0.04,graph=0.015,spmspm=0.5,conv=0.1",
            "la=0,graph=0.015,spmspm=0.5,conv=0.1",
            "la=99,graph=0.015,spmspm=0.5,conv=0.1",
            "la=1.5,graph=0.015,spmspm=0.5,conv=0.1",
            "la=0.04,graph=0.015,spmspm=2,conv=0.1",
            "la=0.04,la=0.04,graph=0.015,spmspm=0.5,conv=0.1",
            "la=0.04,graph=0.015,spmspm=0.5,conv=0.1,zoom=2",
            "la=0.04,graph=0.015,spmspm=0.5,conv=0.1 ",
        ] {
            assert!(Suite::parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn scale_bits_follow_values_not_spellings() {
        let named = Suite::parse("small").unwrap().scale_bits();
        let spelled = Suite::parse("la=4e-2,graph=1.5e-2,spmspm=5e-1,conv=1e-1")
            .unwrap()
            .scale_bits();
        assert_eq!(named, spelled);
        assert_ne!(named, Suite::medium().scale_bits());
        assert_ne!(Suite::medium().scale_bits(), Suite::large().scale_bits());
    }

    #[test]
    fn gmean_basics() {
        assert_eq!(gmean(&[]), 0.0);
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
