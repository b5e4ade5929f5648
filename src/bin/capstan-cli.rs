//! `capstan-cli` — run one application on one matrix and print the
//! simulated cycle count and stall breakdown.
//!
//! ```text
//! capstan-cli --app csr-spmv --dataset ckt11752 --scale 0.1 --memory hbm2e
//! capstan-cli --app pr-pull --matrix web.mtx --memory ddr4 --compare-plasticine
//! capstan-cli --list
//! ```

use capstan::apps::bfs::Bfs;
use capstan::apps::bicgstab::BiCgStab;
use capstan::apps::cg::ConjugateGradient;
use capstan::apps::conv::SparseConv;
use capstan::apps::gnn::{GcnLayer, Spmm};
use capstan::apps::mpm::MatrixAdd;
use capstan::apps::pagerank::{PrEdge, PrPull};
use capstan::apps::spmspm::SpMSpM;
use capstan::apps::spmv::{BcsrSpmv, CooSpmv, CscSpmv, CsrSpmv, DcsrSpmv};
use capstan::apps::sssp::Sssp;
use capstan::apps::App;
use capstan::baselines::plasticine;
use capstan::core::config::{CapstanConfig, MemoryKind};
use capstan::tensor::gen::{is_valid_scale, Dataset};
use capstan::tensor::DenseMatrix;
use capstan::tensor::{mm, Coo};
use std::process::ExitCode;

const APPS: &[&str] = &[
    "csr-spmv",
    "coo-spmv",
    "csc-spmv",
    "bcsr-spmv",
    "dcsr-spmv",
    "conv",
    "pr-pull",
    "pr-edge",
    "bfs",
    "sssp",
    "mpm",
    "spmspm",
    "bicgstab",
    "cg",
    "spmm",
    "gcn",
];

const DATASETS: &[(&str, Dataset)] = &[
    ("ckt11752", Dataset::Ckt11752),
    ("trefethen", Dataset::Trefethen20000),
    ("bcsstk30", Dataset::Bcsstk30),
    ("usroads", Dataset::UsRoads),
    ("web-stanford", Dataset::WebStanford),
    ("flickr", Dataset::Flickr),
    ("gnutella", Dataset::Gnutella31),
    ("spacestation", Dataset::SpaceStation4),
    ("qc324", Dataset::Qc324),
    ("mbeacxc", Dataset::Mbeacxc),
    ("resnet-l1", Dataset::ResNet50L1),
    ("resnet-l2", Dataset::ResNet50L2),
    ("resnet-l29", Dataset::ResNet50L29),
];

struct Args {
    app: String,
    matrix: Option<String>,
    dataset: Option<String>,
    scale: f64,
    memory: MemoryKind,
    ordering: Option<String>,
    outer_par: Option<usize>,
    compare_plasticine: bool,
}

fn usage() -> &'static str {
    "capstan-cli: simulate a sparse application on Capstan\n\
     \n\
     USAGE:\n\
       capstan-cli --app <APP> (--matrix <FILE.mtx> | --dataset <NAME>) [OPTIONS]\n\
       capstan-cli --list\n\
     \n\
     OPTIONS:\n\
       --app <APP>             application (see --list)\n\
       --matrix <FILE>         Matrix Market input\n\
       --dataset <NAME>        synthetic Table 6 dataset (see --list)\n\
       --scale <F>             dataset scale in (0,1], default 0.1\n\
       --memory <M>            hbm2e | hbm2 | ddr4 | ideal | <GB/s>, default hbm2e\n\
       --ordering <O>          unordered | address | full | arbitrated\n\
       --outer-par <N>         parallel pipelines (default 32)\n\
       --compare-plasticine    also simulate the Plasticine baseline\n"
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        app: String::new(),
        matrix: None,
        dataset: None,
        scale: 0.1,
        memory: MemoryKind::Hbm2e,
        ordering: None,
        outer_par: None,
        compare_plasticine: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--list" => return Ok(None),
            "--help" | "-h" => return Err(String::new()),
            "--app" => args.app = value("--app")?,
            "--matrix" => args.matrix = Some(value("--matrix")?),
            "--dataset" => args.dataset = Some(value("--dataset")?),
            "--scale" => {
                let raw = value("--scale")?;
                let scale: f64 = raw.parse().map_err(|_| format!("bad --scale `{raw}`"))?;
                if !is_valid_scale(scale) {
                    return Err(format!("--scale `{raw}` must be finite and in (0, 1]"));
                }
                args.scale = scale;
            }
            "--memory" => {
                let m = value("--memory")?;
                args.memory = match m.as_str() {
                    "hbm2e" => MemoryKind::Hbm2e,
                    "hbm2" => MemoryKind::Hbm2,
                    "ddr4" => MemoryKind::Ddr4,
                    "ideal" => MemoryKind::Ideal,
                    other => {
                        let gbps: f64 = other
                            .parse()
                            .map_err(|_| format!("bad --memory `{other}`"))?;
                        if !gbps.is_finite() || gbps <= 0.0 {
                            return Err(format!(
                                "--memory `{other}` must be a finite, positive bandwidth in GB/s"
                            ));
                        }
                        MemoryKind::Custom(gbps)
                    }
                };
            }
            "--ordering" => args.ordering = Some(value("--ordering")?),
            "--outer-par" => {
                args.outer_par = Some(
                    value("--outer-par")?
                        .parse()
                        .map_err(|_| "bad --outer-par".to_string())?,
                )
            }
            "--compare-plasticine" => args.compare_plasticine = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.app.is_empty() {
        return Err("missing --app".to_string());
    }
    Ok(Some(args))
}

fn load_matrix(args: &Args) -> Result<Coo, String> {
    if let Some(path) = &args.matrix {
        let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        return mm::read(std::io::BufReader::new(file)).map_err(|e| format!("parse {path}: {e}"));
    }
    let name = args.dataset.as_deref().unwrap_or("ckt11752");
    let dataset = DATASETS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, d)| *d)
        .ok_or_else(|| format!("unknown dataset `{name}` (try --list)"))?;
    Ok(dataset.generate_scaled(args.scale))
}

/// Apps that index the matrix as a square graph or operator.
const SQUARE_ONLY: &[&str] = &[
    "pr-pull", "pr-edge", "bfs", "sssp", "spmspm", "bicgstab", "cg", "gcn",
];

fn build_app(args: &Args, m: &Coo) -> Result<Box<dyn App>, String> {
    if SQUARE_ONLY.contains(&args.app.as_str()) && m.rows() != m.cols() {
        return Err(format!(
            "{} needs a square matrix, got {}x{}",
            args.app,
            m.rows(),
            m.cols()
        ));
    }
    Ok(match args.app.as_str() {
        "csr-spmv" => Box::new(CsrSpmv::new(m)),
        "coo-spmv" => Box::new(CooSpmv::new(m)),
        "csc-spmv" => Box::new(CscSpmv::new(m)),
        "pr-pull" => Box::new(PrPull::new(m)),
        "pr-edge" => Box::new(PrEdge::new(m)),
        "bfs" => Box::new(Bfs::new(m)),
        "sssp" => Box::new(Sssp::new(m)),
        "mpm" => Box::new(MatrixAdd::self_shifted(m)),
        "spmspm" => Box::new(SpMSpM::squared(m)),
        "bicgstab" => Box::new(BiCgStab::new(m)),
        "bcsr-spmv" => Box::new(BcsrSpmv::new(m, 16)),
        "dcsr-spmv" => Box::new(DcsrSpmv::new(m)),
        "cg" => Box::new(ConjugateGradient::new(m)),
        "spmm" => {
            let b = DenseMatrix::from_fn(m.cols(), 32, |r, c| ((r + c) % 3) as f32 - 1.0);
            Box::new(Spmm::new(m, b))
        }
        "gcn" => Box::new(GcnLayer::with_synthetic(m, 32, 32)),
        "conv" => {
            if args.matrix.is_some() {
                return Err("conv runs a ResNet-50 layer; use --dataset, not --matrix".to_string());
            }
            let ds = match args.dataset.as_deref() {
                None | Some("resnet-l2") => Dataset::ResNet50L2,
                Some("resnet-l1") => Dataset::ResNet50L1,
                Some("resnet-l29") => Dataset::ResNet50L29,
                Some(other) => {
                    return Err(format!(
                        "conv needs a ResNet-50 layer (resnet-l1, resnet-l2, resnet-l29), got `{other}`"
                    ))
                }
            };
            Box::new(SparseConv::from_dataset(ds, args.scale))
        }
        other => return Err(format!("unknown app `{other}` (try --list)")),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("applications: {}", APPS.join(", "));
            println!(
                "datasets:     {}",
                DATASETS
                    .iter()
                    .map(|(n, _)| *n)
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
    };

    let matrix = match load_matrix(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.app != "conv" {
        println!(
            "matrix: {}x{}, {} non-zeros ({:.4}% dense)",
            matrix.rows(),
            matrix.cols(),
            matrix.nnz(),
            matrix.density() * 100.0
        );
    }

    let mut cfg = CapstanConfig::new(args.memory);
    if let Some(par) = args.outer_par {
        cfg.outer_par = par;
    }
    if let Some(ordering) = &args.ordering {
        use capstan::arch::spmu::OrderingMode;
        cfg.spmu.ordering = match ordering.as_str() {
            "unordered" => OrderingMode::Unordered,
            "address" => OrderingMode::AddressOrdered,
            "full" => OrderingMode::FullyOrdered,
            "arbitrated" => OrderingMode::Arbitrated,
            other => {
                eprintln!("error: unknown ordering `{other}`");
                return ExitCode::FAILURE;
            }
        };
    }

    let app = match build_app(&args, &matrix) {
        Ok(app) => app,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let report = app.simulate(&cfg);
    println!("{report}");
    for (name, frac) in report.breakdown.fractions() {
        let bar = "#".repeat((frac.clamp(0.0, 1.0) * 40.0).round() as usize);
        println!("  {name:<14} {:>5.1}% {bar}", frac * 100.0);
    }

    if args.compare_plasticine {
        if plasticine::supports(app.name()) {
            let p = app.simulate(&plasticine::config(args.memory));
            println!("\nPlasticine baseline: {p}");
            println!(
                "Capstan speedup: {:.2}x",
                p.cycles as f64 / report.cycles.max(1) as f64
            );
        } else {
            println!("\n({} has no efficient Plasticine mapping)", app.name());
        }
    }
    ExitCode::SUCCESS
}
