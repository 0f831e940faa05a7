//! Dimension fusion (Sec. VI-C).
//!
//! Fusion treats several *adjacent* dimensions as a single one "without
//! affecting the data storage sequence": fusing axes `i..=j` of a row-major
//! grid is a pure reshape that multiplies their extents. After fusion, the
//! interpolation predictor sees one long axis, which suppresses short-stride
//! predictions along the fused axes except the last — exactly the behaviour
//! the paper exploits on rough dimensions.

use crate::shape::Shape;

/// A contiguous run of axes to merge, expressed on the *permuted* shape.
/// `FusionSpec { start: 0, len: 2 }` is the paper's "0&1";
/// `len == 1` (or [`FusionSpec::none`]) means no fusion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FusionSpec {
    pub start: usize,
    pub len: usize,
}

impl FusionSpec {
    /// No fusion.
    pub const fn none() -> Self {
        Self { start: 0, len: 1 }
    }

    #[inline]
    pub fn is_none(&self) -> bool {
        self.len <= 1
    }

    /// Paper-style label: "No", "0&1", "1&2", "0&1&2", ...
    pub fn label(&self) -> String {
        if self.is_none() {
            return "No".to_string();
        }
        (self.start..self.start + self.len)
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join("&")
    }

    /// Every fusion candidate for an `ndim`-dimensional grid: none, plus every
    /// contiguous run of ≥2 axes. For 3-D this yields the paper's four cases
    /// {No, 0&1, 1&2, 0&1&2}.
    pub fn candidates(ndim: usize) -> Vec<FusionSpec> {
        let mut out = vec![FusionSpec::none()];
        for len in 2..=ndim {
            for start in 0..=(ndim - len) {
                out.push(FusionSpec { start, len });
            }
        }
        out
    }
}

/// Applies a fusion to a shape: axes `spec.start .. spec.start+spec.len`
/// collapse into one axis with the product extent. Data layout is unchanged,
/// so the caller just reinterprets the same buffer under the fused shape.
pub fn fuse_shape(shape: &Shape, spec: FusionSpec) -> Shape {
    if spec.is_none() {
        return shape.clone();
    }
    assert!(
        spec.start + spec.len <= shape.ndim(),
        "fusion {spec:?} out of range for {shape:?}"
    );
    let mut dims = Vec::with_capacity(shape.ndim() - spec.len + 1);
    dims.extend_from_slice(&shape.dims()[..spec.start]);
    dims.push(
        shape.dims()[spec.start..spec.start + spec.len]
            .iter()
            .product(),
    );
    dims.extend_from_slice(&shape.dims()[spec.start + spec.len..]);
    Shape::new(&dims)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuse_none_is_identity() {
        let s = Shape::new(&[3, 4, 5]);
        assert_eq!(fuse_shape(&s, FusionSpec::none()), s);
    }

    #[test]
    fn fuse_front_pair() {
        let s = Shape::new(&[3, 4, 5]);
        let f = fuse_shape(&s, FusionSpec { start: 0, len: 2 });
        assert_eq!(f.dims(), &[12, 5]);
    }

    #[test]
    fn fuse_back_pair() {
        let s = Shape::new(&[3, 4, 5]);
        let f = fuse_shape(&s, FusionSpec { start: 1, len: 2 });
        assert_eq!(f.dims(), &[3, 20]);
    }

    #[test]
    fn fuse_all() {
        let s = Shape::new(&[3, 4, 5]);
        let f = fuse_shape(&s, FusionSpec { start: 0, len: 3 });
        assert_eq!(f.dims(), &[60]);
    }

    #[test]
    fn fusion_preserves_linear_index() {
        // Fusing must not move data: linear indices of corresponding points
        // must coincide.
        let s = Shape::new(&[3, 4, 5]);
        let f = fuse_shape(&s, FusionSpec { start: 0, len: 2 });
        // point (2, 3, 1) in s == fused coords (2*4+3, 1)
        assert_eq!(s.index_of(&[2, 3, 1]), f.index_of(&[11, 1]));
    }

    #[test]
    fn candidates_3d_match_paper() {
        let c = FusionSpec::candidates(3);
        let labels: Vec<String> = c.iter().map(|f| f.label()).collect();
        assert_eq!(labels, vec!["No", "0&1", "1&2", "0&1&2"]);
    }

    #[test]
    fn candidates_4d_count() {
        // none + 3 pairs + 2 triples + 1 quad = 7
        assert_eq!(FusionSpec::candidates(4).len(), 7);
    }

    #[test]
    fn candidates_1d_only_none() {
        assert_eq!(FusionSpec::candidates(1), vec![FusionSpec::none()]);
    }
}
