//! Dataset size policy for the harnesses.
//!
//! The paper's full sizes (Table III) reach 674 MB per variable; scaled
//! defaults keep every harness in CI territory while preserving the
//! structural properties (mask fraction, anisotropy, periodicity,
//! topography coupling) that drive each experiment's shape.

use cliz::data::{self, ClimateDataset, DatasetKind};

/// Size tier selected by the flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaledDims {
    Quick,
    Scaled,
    Full,
}

impl ScaledDims {
    pub fn from_args(args: &crate::Args) -> Self {
        if args.full {
            ScaledDims::Full
        } else if args.quick {
            ScaledDims::Quick
        } else {
            ScaledDims::Scaled
        }
    }
}

/// Builds a dataset at the chosen tier. Seeds are fixed so every harness
/// reports reproducible numbers.
pub fn scaled(kind: DatasetKind, tier: ScaledDims) -> ClimateDataset {
    use DatasetKind::*;
    use ScaledDims::*;
    let seed = 0xC11Au64;
    match (kind, tier) {
        (Ssh, Quick) => data::ssh(&[48, 40, 120], seed),
        (Ssh, Scaled) => data::ssh(&[96, 80, 360], seed),
        (Ssh, Full) => data::ssh(&[384, 320, 1032], seed),

        (CesmT, Quick) => data::cesm_t(&[13, 90, 180], seed),
        (CesmT, Scaled) => data::cesm_t(&[26, 240, 480], seed),
        (CesmT, Full) => data::cesm_t(&[26, 1800, 3600], seed),

        (Relhum, Quick) => data::relhum(&[13, 90, 180], seed),
        (Relhum, Scaled) => data::relhum(&[26, 240, 480], seed),
        (Relhum, Full) => data::relhum(&[26, 1800, 3600], seed),

        (Soilliq, Quick) => data::soilliq(&[36, 5, 32, 48], seed),
        (Soilliq, Scaled) => data::soilliq(&[120, 8, 48, 72], seed),
        (Soilliq, Full) => data::soilliq(&[360, 15, 96, 144], seed),

        (Tsfc, Quick) => data::tsfc(&[48, 40, 60], seed),
        (Tsfc, Scaled) => data::tsfc(&[96, 80, 180], seed),
        (Tsfc, Full) => data::tsfc(&[384, 320, 360], seed),

        (HurricaneT, Quick) => data::hurricane_t(&[20, 100, 100], seed),
        (HurricaneT, Scaled) => data::hurricane_t(&[50, 250, 250], seed),
        (HurricaneT, Full) => data::hurricane_t(&[100, 500, 500], seed),

        (Salt, Quick) => data::salt(&[6, 32, 28, 36], seed),
        (Salt, Scaled) => data::salt(&[15, 96, 80, 60], seed),
        (Salt, Full) => data::salt(&[30, 384, 320, 120], seed),
    }
}

/// The five datasets Fig. 10 sweeps.
pub fn fig10_kinds() -> Vec<DatasetKind> {
    vec![
        DatasetKind::Ssh,
        DatasetKind::CesmT,
        DatasetKind::Relhum,
        DatasetKind::Soilliq,
        DatasetKind::Tsfc,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_smaller_than_scaled() {
        for kind in fig10_kinds() {
            let q = scaled(kind, ScaledDims::Quick);
            let s = scaled(kind, ScaledDims::Scaled);
            assert!(q.data.len() < s.data.len(), "{:?}", kind);
        }
    }

    #[test]
    fn full_matches_table3() {
        // Spot check the smallest full dataset to avoid generating giants.
        let d = scaled(DatasetKind::Soilliq, ScaledDims::Full);
        assert_eq!(
            d.data.shape().dims(),
            DatasetKind::Soilliq.paper_dims().as_slice()
        );
    }
}
