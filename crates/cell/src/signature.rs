//! Cell type identity.
//!
//! "Two cells are of the same type if they have identical sub-graphs,
//! share the same parameter weights, and expect the same number of
//! identically-shaped input tensors. Cells with the same type can be
//! batched together if there is no data dependency between them." (§3.1)

use std::fmt;

/// Opaque identifier of a cell type within a [`crate::CellRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellTypeId(pub u32);

impl fmt::Display for CellTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ct{}", self.0)
    }
}

impl CellTypeId {
    /// The numeric index, usable for dense per-type arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a cell type shares besides its weights: the kind name and the
/// per-invocation input tensor shapes. Two cells are one type iff their
/// signatures are equal and their weights are equal bit for bit (see
/// [`crate::CellRegistry::register`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellSignature {
    kind: &'static str,
    input_shapes: Vec<(usize, usize)>,
}

impl CellSignature {
    /// Builds a signature from its components.
    pub fn new(kind: &'static str, input_shapes: Vec<(usize, usize)>) -> Self {
        CellSignature { kind, input_shapes }
    }

    /// The cell kind name.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Per-invocation input tensor shapes.
    pub fn input_shapes(&self) -> &[(usize, usize)] {
        &self.input_shapes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_index() {
        let id = CellTypeId(3);
        assert_eq!(id.to_string(), "ct3");
        assert_eq!(id.index(), 3);
    }

    #[test]
    fn signature_equality_requires_all_components() {
        let a = CellSignature::new("lstm", vec![(1, 4)]);
        assert_eq!(a, CellSignature::new("lstm", vec![(1, 4)]));
        assert_ne!(a, CellSignature::new("decoder", vec![(1, 4)]));
        assert_ne!(a, CellSignature::new("lstm", vec![(1, 8)]));
        assert_ne!(a, CellSignature::new("lstm", vec![(1, 4), (1, 4)]));
    }
}
