//! Extension ablation: the template error-bound factor.
//!
//! The periodic split takes the residual against the *reconstructed*
//! template, so the template may be stored at any accuracy without breaking
//! the user bound. Tighter templates cost template bits but make residuals
//! smaller/smoother; looser templates do the opposite. This sweep locates
//! the trade-off empirically (DESIGN.md design-choice ablation).
//!
//! ```sh
//! cargo run -p cliz-bench --release --bin ablation_template_eb [--full|--quick]
//! ```

use cliz::data::DatasetKind;
use cliz::prelude::*;
use cliz_bench::{datasets, Args, Report, ScaledDims};

fn main() {
    let args = Args::parse();
    let tier = ScaledDims::from_args(&args);
    let dataset = datasets::scaled(DatasetKind::Ssh, tier);
    let bound = cliz::rel_bound_on_valid(&dataset.data, dataset.mask.as_ref(), 1e-3);
    let original = dataset.data.len() * 4;
    let mut report = Report::new("ablation_template_eb", "factor,ratio,max_err,bound");

    let base = PipelineConfig {
        periodicity: Periodicity::Extract {
            time_axis: dataset.time_axis.unwrap(),
            period: dataset.nominal_period.unwrap(),
        },
        ..PipelineConfig::default_for(3)
    };
    let ErrorBound::Abs(eb) = bound else {
        unreachable!()
    };

    println!(
        "Template-bound ablation on {} {} (residual bound fixed at {eb:.3e})\n",
        dataset.kind.name(),
        dataset.data.shape()
    );
    println!("{:>8} {:>10} {:>14}", "factor", "ratio", "max err");
    for factor in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let cfg = PipelineConfig {
            template_eb_factor: factor,
            ..base.clone()
        };
        let bytes = cliz::compress(&dataset.data, dataset.mask.as_ref(), bound, &cfg).unwrap();
        let recon = cliz::decompress(&bytes, dataset.mask.as_ref()).unwrap();
        let max_err = cliz::metrics::max_abs_error(
            dataset.data.as_slice(),
            recon.as_slice(),
            dataset.mask.as_ref(),
        );
        assert!(
            max_err <= eb * (1.0 + 1e-9),
            "user bound must hold at every factor"
        );
        let ratio = original as f64 / bytes.len() as f64;
        println!("{factor:>8.2} {ratio:>10.3} {max_err:>14.3e}");
        report.row(&format!("{factor},{ratio},{max_err},{eb}"));
    }
    println!(
        "\nKey invariant verified: the user-facing bound holds at *every* factor — the \
         knob only moves bits between the template and residual stages."
    );
    println!("CSV mirrored to target/experiments/ablation_template_eb.csv");
}
