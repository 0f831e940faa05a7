//! Compression-pipeline configuration — the artifact the offline auto-tuner
//! produces and the online compressor consumes (Fig. 1's "optimized
//! configuration settings").

use cliz_grid::{FusionSpec, Shape};
use cliz_predict::Fitting;

/// Periodic-extraction setting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Periodicity {
    /// No periodic split.
    None,
    /// Split along `time_axis` with the given period length.
    Extract { time_axis: usize, period: usize },
}

impl Periodicity {
    pub fn label(&self) -> String {
        match self {
            Periodicity::None => "No".to_string(),
            Periodicity::Extract { period, .. } => period.to_string(),
        }
    }
}

/// One fully-specified compression pipeline.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineConfig {
    /// Axis permutation applied before prediction (paper's "sequence of
    /// dimensions"; `perm[i]` = source axis landing at position `i`).
    pub permutation: Vec<usize>,
    /// Dimension fusion applied on the permuted shape.
    pub fusion: FusionSpec,
    /// Fitting family for the interpolation predictor.
    pub fitting: Fitting,
    /// Quantization-bin classification + multi-Huffman (Sec. VI-E).
    pub classification: bool,
    /// Classification threshold λ (Theorem 2's optimum by default).
    pub lambda: f64,
    /// Periodic component extraction (Sec. VI-D).
    pub periodicity: Periodicity,
    /// Template error bound as a multiple of the user bound (encode-side
    /// only: the residual is taken against the *reconstructed* template, so
    /// any factor keeps the user contract — this knob trades template bits
    /// against residual smoothness; 1.0 is the default operating point and
    /// `ablation_template_eb` sweeps it).
    pub template_eb_factor: f64,
    /// Use the dataset's mask map for prediction and encoding (Sec. VI-B).
    /// Per the paper this is the user's call, not the tuner's.
    pub use_mask: bool,
}

impl PipelineConfig {
    /// A sensible identity pipeline for `ndim`-dimensional data: no
    /// permutation/fusion, cubic fitting, no classification, no periodicity,
    /// mask honoured when provided.
    pub fn default_for(ndim: usize) -> Self {
        Self {
            permutation: (0..ndim).collect(),
            fusion: FusionSpec::none(),
            fitting: Fitting::Cubic,
            classification: false,
            lambda: cliz_quant::classify::optimal_lambda(),
            periodicity: Periodicity::None,
            template_eb_factor: 1.0,
            use_mask: true,
        }
    }

    /// Validates against a concrete shape.
    pub fn validate(&self, shape: &Shape) -> Result<(), crate::error::ClizError> {
        use crate::error::ClizError;
        let ndim = shape.ndim();
        if self.permutation.len() != ndim {
            return Err(ClizError::BadConfig("permutation arity mismatch"));
        }
        let mut seen = vec![false; ndim];
        for &p in &self.permutation {
            if p >= ndim || seen[p] {
                return Err(ClizError::BadConfig("invalid permutation"));
            }
            seen[p] = true;
        }
        if !self.fusion.is_none() && self.fusion.start + self.fusion.len > ndim {
            return Err(ClizError::BadConfig("fusion out of range"));
        }
        if let Periodicity::Extract { time_axis, period } = self.periodicity {
            if time_axis >= ndim {
                return Err(ClizError::BadConfig("time axis out of range"));
            }
            if period < 2 || period >= shape.dim(time_axis) {
                return Err(ClizError::BadConfig("period out of range"));
            }
        }
        if !(0.0..1.0).contains(&self.lambda) {
            return Err(ClizError::BadConfig("lambda out of range"));
        }
        if !(self.template_eb_factor > 0.0 && self.template_eb_factor.is_finite()) {
            return Err(ClizError::BadConfig("template eb factor must be positive"));
        }
        Ok(())
    }

    /// Paper-style permutation label, e.g. `"201"`.
    pub fn permutation_label(&self) -> String {
        self.permutation.iter().map(|p| p.to_string()).collect()
    }

    /// Serializes to the shareable `key = value` text form used by the CLI's
    /// per-climate-model configuration files (Fig. 1's offline artifact).
    pub fn to_config_string(&self) -> String {
        let mut s = String::new();
        s.push_str("# CliZ pipeline configuration (offline auto-tuning artifact)\n");
        s.push_str(&format!("permutation = {}\n", self.permutation_label()));
        s.push_str(&format!("fusion = {}\n", self.fusion.label()));
        s.push_str(&format!("fitting = {}\n", self.fitting.label()));
        s.push_str(&format!("classification = {}\n", self.classification));
        s.push_str(&format!("lambda = {}\n", self.lambda));
        match self.periodicity {
            Periodicity::None => s.push_str("periodicity = none\n"),
            Periodicity::Extract { time_axis, period } => {
                s.push_str(&format!("time_axis = {time_axis}\n"));
                s.push_str(&format!("period = {period}\n"));
            }
        }
        s.push_str(&format!(
            "template_eb_factor = {}\n",
            self.template_eb_factor
        ));
        s.push_str(&format!("use_mask = {}\n", self.use_mask));
        s
    }

    /// Parses [`PipelineConfig::to_config_string`] output. Unknown keys are
    /// rejected so typos surface immediately.
    pub fn from_config_string(text: &str) -> Result<Self, crate::error::ClizError> {
        use crate::error::ClizError;
        let bad = |_: &'static str| ClizError::BadConfig("unparsable configuration file");
        let mut permutation: Option<Vec<usize>> = None;
        let mut fusion = cliz_grid::FusionSpec::none();
        let mut fitting = Fitting::Cubic;
        let mut classification = false;
        let mut lambda = cliz_quant::classify::optimal_lambda();
        let mut time_axis: Option<usize> = None;
        let mut period: Option<usize> = None;
        let mut template_eb_factor = 1.0f64;
        let mut use_mask = true;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or(ClizError::BadConfig("expected key = value"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "permutation" => {
                    let digits: Result<Vec<usize>, _> = value
                        .chars()
                        .map(|c| c.to_digit(10).map(|d| d as usize).ok_or(()))
                        .collect();
                    permutation = Some(digits.map_err(|_| bad("permutation"))?);
                }
                "fusion" => {
                    if value == "No" || value == "none" {
                        fusion = cliz_grid::FusionSpec::none();
                    } else {
                        let axes: Result<Vec<usize>, _> = value
                            .split('&')
                            .map(|a| a.trim().parse::<usize>())
                            .collect();
                        let axes = axes.map_err(|_| bad("fusion"))?;
                        if axes.len() < 2 || !axes.windows(2).all(|w| w[1] == w[0] + 1) {
                            return Err(ClizError::BadConfig("fusion axes must be adjacent"));
                        }
                        fusion = cliz_grid::FusionSpec {
                            start: axes[0],
                            len: axes.len(),
                        };
                    }
                }
                "fitting" => {
                    fitting = match value {
                        "Linear" | "linear" => Fitting::Linear,
                        "Cubic" | "cubic" => Fitting::Cubic,
                        _ => return Err(ClizError::BadConfig("unknown fitting")),
                    }
                }
                "classification" => {
                    classification = value.parse().map_err(|_| bad("classification"))?
                }
                "lambda" => lambda = value.parse().map_err(|_| bad("lambda"))?,
                "periodicity" if value == "none" => {}
                "time_axis" => time_axis = Some(value.parse().map_err(|_| bad("time_axis"))?),
                "period" => period = Some(value.parse().map_err(|_| bad("period"))?),
                "template_eb_factor" => {
                    template_eb_factor = value.parse().map_err(|_| bad("template_eb_factor"))?
                }
                "use_mask" => use_mask = value.parse().map_err(|_| bad("use_mask"))?,
                _ => return Err(ClizError::BadConfig("unknown configuration key")),
            }
        }
        let permutation = permutation.ok_or(ClizError::BadConfig("missing permutation"))?;
        let periodicity = match (time_axis, period) {
            (Some(a), Some(p)) => Periodicity::Extract {
                time_axis: a,
                period: p,
            },
            (None, None) => Periodicity::None,
            _ => return Err(ClizError::BadConfig("time_axis and period go together")),
        };
        Ok(Self {
            permutation,
            fusion,
            fitting,
            classification,
            lambda,
            periodicity,
            template_eb_factor,
            use_mask,
        })
    }

    /// One-line summary matching the paper's Table IV/V/VI rows.
    pub fn describe(&self) -> String {
        format!(
            "period={} class={} perm={} fusion={} fit={} mask={}",
            self.periodicity.label(),
            if self.classification { "Yes" } else { "No" },
            self.permutation_label(),
            self.fusion.label(),
            self.fitting.label(),
            if self.use_mask { "Yes" } else { "No" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        let shape = Shape::new(&[4, 5, 6]);
        PipelineConfig::default_for(3).validate(&shape).unwrap();
    }

    #[test]
    fn bad_permutation_rejected() {
        let shape = Shape::new(&[4, 5]);
        let mut c = PipelineConfig::default_for(2);
        c.permutation = vec![0, 0];
        assert!(c.validate(&shape).is_err());
        c.permutation = vec![0];
        assert!(c.validate(&shape).is_err());
    }

    #[test]
    fn bad_fusion_rejected() {
        let shape = Shape::new(&[4, 5]);
        let mut c = PipelineConfig::default_for(2);
        c.fusion = FusionSpec { start: 1, len: 2 };
        assert!(c.validate(&shape).is_err());
    }

    #[test]
    fn bad_period_rejected() {
        let shape = Shape::new(&[10, 5]);
        let mut c = PipelineConfig::default_for(2);
        c.periodicity = Periodicity::Extract {
            time_axis: 0,
            period: 10,
        };
        assert!(c.validate(&shape).is_err(), "period == axis length");
        c.periodicity = Periodicity::Extract {
            time_axis: 2,
            period: 3,
        };
        assert!(c.validate(&shape).is_err(), "axis out of range");
        c.periodicity = Periodicity::Extract {
            time_axis: 0,
            period: 5,
        };
        assert!(c.validate(&shape).is_ok());
    }

    #[test]
    fn config_string_roundtrip() {
        let mut c = PipelineConfig::default_for(3);
        c.permutation = vec![2, 0, 1];
        c.fusion = FusionSpec { start: 0, len: 2 };
        c.fitting = cliz_predict::Fitting::Linear;
        c.classification = true;
        c.lambda = 0.35;
        c.periodicity = Periodicity::Extract {
            time_axis: 2,
            period: 12,
        };
        c.use_mask = false;
        let text = c.to_config_string();
        let back = PipelineConfig::from_config_string(&text).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn config_string_roundtrip_defaults() {
        let c = PipelineConfig::default_for(4);
        let back = PipelineConfig::from_config_string(&c.to_config_string()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn config_string_rejects_garbage() {
        assert!(PipelineConfig::from_config_string("nonsense").is_err());
        assert!(PipelineConfig::from_config_string("permutation = 01\nwat = 1").is_err());
        assert!(PipelineConfig::from_config_string("fusion = 0&2\npermutation = 012").is_err());
        assert!(
            PipelineConfig::from_config_string("permutation = 012\ntime_axis = 1").is_err(),
            "time_axis without period"
        );
    }

    #[test]
    fn describe_matches_paper_style() {
        let mut c = PipelineConfig::default_for(3);
        c.permutation = vec![2, 0, 1];
        c.fusion = FusionSpec { start: 1, len: 2 };
        c.classification = true;
        c.periodicity = Periodicity::Extract {
            time_axis: 2,
            period: 12,
        };
        let d = c.describe();
        assert!(d.contains("period=12"));
        assert!(d.contains("perm=201"));
        assert!(d.contains("fusion=1&2"));
        assert!(d.contains("class=Yes"));
    }
}
