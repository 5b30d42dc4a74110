//! Shared helpers for cell weight persistence (§4.2: "BatchMaker loads
//! each cell's definition and its pre-trained weights from files").

use bm_tensor::io::WeightBundle;
use bm_tensor::{ops, Matrix};

/// Fetches a required matrix from a bundle.
pub(crate) fn expect<'a>(b: &'a WeightBundle, name: &str) -> Result<&'a Matrix, String> {
    b.get(name)
        .ok_or_else(|| format!("missing weight {name:?}"))
}

/// Validates a loaded matrix's shape.
pub(crate) fn expect_shape(m: &Matrix, shape: (usize, usize), name: &str) -> Result<(), String> {
    if m.shape() != shape {
        return Err(format!(
            "weight {name:?} has shape {:?}, expected {shape:?}",
            m.shape()
        ));
    }
    Ok(())
}

/// Slices fused gate weights `w = [W_g|..]` and biases `b = [b_g|..]`
/// back into the per-gate matrices the bundle format names — `w<g>`,
/// `b<g>` for each `g` of `gates`, in that order. Cells that run one
/// product per step keep only the fused pair; bundles still hold the
/// per-gate matrices.
pub(crate) fn split_gates(w: &Matrix, b: &Matrix, gates: &[&str]) -> Vec<(String, Matrix)> {
    let ws = ops::split_cols(w, gates.len());
    let bs = ops::split_cols(b, gates.len());
    let mut out = Vec::with_capacity(2 * gates.len());
    for ((g, w_g), b_g) in gates.iter().zip(ws).zip(bs) {
        out.push((format!("w{g}"), w_g));
        out.push((format!("b{g}"), b_g));
    }
    out
}

/// Inverse of [`split_gates`]: fetches `w<g>` (`(rows, hidden)`) and
/// `b<g>` (`(1, hidden)`) for each gate and fuses them column-wise.
pub(crate) fn fuse_gates(
    bundle: &WeightBundle,
    gates: &[&str],
    rows: usize,
    hidden: usize,
) -> Result<(Matrix, Matrix), String> {
    let fetch = |prefix: &str, shape: (usize, usize)| -> Result<Matrix, String> {
        let mut parts = Vec::with_capacity(gates.len());
        for g in gates {
            let name = format!("{prefix}{g}");
            let m = expect(bundle, &name)?;
            expect_shape(m, shape, &name)?;
            parts.push(m);
        }
        Ok(ops::concat_cols(&parts))
    };
    Ok((fetch("w", (rows, hidden))?, fetch("b", (1, hidden))?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expect_reports_missing() {
        let b = WeightBundle::new();
        assert!(expect(&b, "w").unwrap_err().contains("missing"));
    }

    #[test]
    fn expect_shape_reports_mismatch() {
        let m = Matrix::zeros(2, 3);
        assert!(expect_shape(&m, (2, 3), "w").is_ok());
        let err = expect_shape(&m, (3, 2), "w").unwrap_err();
        assert!(err.contains("(2, 3)") && err.contains("(3, 2)"));
    }
}
