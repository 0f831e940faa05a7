//! Table V: ablation on SSH — compression ratio and time of the tuned
//! pipeline versus the same pipeline with each strategy cancelled
//! (mask / classification / permutation+fusion / periodicity), plus a λ
//! sweep backing Theorem 2's λ = 0.4.
//!
//! ```sh
//! cargo run -p cliz-bench --release --bin table5_ablation_ssh [--full|--quick]
//! ```

use cliz::data::DatasetKind;
use cliz::grid::FusionSpec;
use cliz::prelude::*;
use cliz_bench::{datasets, Args, Report, ScaledDims};

fn run(
    label: &str,
    dataset: &cliz::data::ClimateDataset,
    bound: cliz::quant::ErrorBound,
    cfg: &PipelineConfig,
    baseline: Option<(f64, f64)>,
    report: &mut Report,
) -> (f64, f64) {
    let original = dataset.data.len() * 4;
    let t0 = std::time::Instant::now();
    let bytes = cliz::compress(&dataset.data, dataset.mask.as_ref(), bound, cfg).unwrap();
    let secs = t0.elapsed().as_secs_f64();
    let ratio = original as f64 / bytes.len() as f64;
    let (cr_impr, time_incr) = match baseline {
        Some((r0, t0)) => ((r0 / ratio - 1.0) * 100.0, (t0 / secs - 1.0) * 100.0),
        None => (0.0, 0.0),
    };
    println!(
        "{:<22} {:>8} {:>6} {:>6} {:>7} {:>7} {:>9.3} {:>9.2}% {:>8.3} {:>9.2}%",
        label,
        cfg.periodicity.label(),
        if cfg.classification { "Yes" } else { "No" },
        cfg.permutation_label(),
        cfg.fusion.label(),
        cfg.fitting.label(),
        ratio,
        cr_impr,
        secs,
        time_incr
    );
    report.row(&format!(
        "{label},{},{},{},{},{},{ratio},{cr_impr},{secs},{time_incr}",
        cfg.periodicity.label(),
        cfg.classification,
        cfg.permutation_label(),
        cfg.fusion.label(),
        cfg.fitting.label(),
    ));
    (ratio, secs)
}

fn main() {
    let args = Args::parse();
    let tier = ScaledDims::from_args(&args);
    let dataset = datasets::scaled(DatasetKind::Ssh, tier);
    let bound = cliz::rel_bound_on_valid(&dataset.data, dataset.mask.as_ref(), 1e-3);
    let mut report = Report::new(
        "table5_ablation_ssh",
        "case,periodicity,classification,permutation,fusion,fitting,ratio,cr_improvement_pct,seconds,time_increment_pct",
    );

    // The tuned pipeline (1% sampling, as in the paper's Table V).
    let tuned = cliz::autotune(
        &dataset.data,
        dataset.mask.as_ref(),
        TuneSpec {
            sampling_rate: 0.01,
            time_axis: dataset.time_axis,
            bound,
        },
    )
    .expect("autotune")
    .best;

    println!(
        "Table V — SSH ablation ({} {}, rel eb 1e-3)\n",
        dataset.kind.name(),
        dataset.data.shape()
    );
    println!(
        "{:<22} {:>8} {:>6} {:>6} {:>7} {:>7} {:>9} {:>10} {:>8} {:>10}",
        "case",
        "period",
        "class",
        "perm",
        "fusion",
        "fit",
        "ratio",
        "CR impr",
        "time_s",
        "time incr"
    );

    // Optimal, then each strategy cancelled (the paper's column layout).
    let opt = run("optimal", &dataset, bound, &tuned, None, &mut report);

    let mut no_mask = tuned.clone();
    no_mask.use_mask = false;
    run(
        "mask off",
        &dataset,
        bound,
        &no_mask,
        Some(opt),
        &mut report,
    );

    let mut no_class = tuned.clone();
    no_class.classification = false;
    let mut with_class = tuned.clone();
    with_class.classification = true;
    // Paper table reports classification-on as optimal; show both states.
    run(
        "classification off",
        &dataset,
        bound,
        &no_class,
        Some(opt),
        &mut report,
    );
    run(
        "classification on",
        &dataset,
        bound,
        &with_class,
        Some(opt),
        &mut report,
    );

    let mut no_perm = tuned.clone();
    no_perm.permutation = (0..3).collect();
    no_perm.fusion = FusionSpec::none();
    run(
        "perm+fusion off",
        &dataset,
        bound,
        &no_perm,
        Some(opt),
        &mut report,
    );

    let mut no_period = tuned.clone();
    no_period.periodicity = Periodicity::None;
    run(
        "periodicity off",
        &dataset,
        bound,
        &no_period,
        Some(opt),
        &mut report,
    );

    // λ sweep (extension backing Theorem 2): classification quality around 0.4.
    println!("\nλ sweep (classification threshold; Theorem 2 optimum is 0.4):");
    println!("{:>8} {:>10}", "lambda", "ratio");
    for lambda in [0.1, 0.25, 0.4, 0.6, 0.8] {
        let mut cfg = tuned.clone();
        cfg.classification = true;
        cfg.lambda = lambda;
        let bytes = cliz::compress(&dataset.data, dataset.mask.as_ref(), bound, &cfg).unwrap();
        let ratio = (dataset.data.len() * 4) as f64 / bytes.len() as f64;
        println!("{lambda:>8.2} {ratio:>10.3}");
        report.row(&format!("lambda_{lambda},,,,,,{ratio},,,"));
    }
    println!("\nCSV mirrored to target/experiments/table5_ablation_ssh.csv");
}
