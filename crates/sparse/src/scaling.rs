//! Row/column equilibration.
//!
//! Scaling `A → R·A·C` with diagonal `R`, `C` chosen so every row and
//! column has unit infinity norm improves pivot quality on badly scaled
//! systems. This is the standard pre-processing the S*/SuperLU family
//! applies before factorization.

use crate::CscMatrix;

/// Result of [`equilibrate`].
#[derive(Debug, Clone, PartialEq)]
pub struct Equilibration {
    /// Row scale factors `R` (multiply row `i` by `row_scale[i]`).
    pub row_scale: Vec<f64>,
    /// Column scale factors `C`.
    pub col_scale: Vec<f64>,
    /// The scaled matrix `R·A·C`.
    pub scaled: CscMatrix,
}

/// Equilibrates a matrix: first scale each row to unit infinity norm, then
/// each column of the row-scaled matrix.
///
/// Structurally empty rows/columns get scale `1.0` (the factorization will
/// reject such matrices as singular anyway).
pub fn equilibrate(a: &CscMatrix) -> Equilibration {
    let (m, n) = (a.nrows(), a.ncols());
    let mut row_max = vec![0.0_f64; m];
    for (i, _, v) in a.triplets() {
        row_max[i] = row_max[i].max(v.abs());
    }
    let row_scale: Vec<f64> = row_max
        .iter()
        .map(|&x| if x > 0.0 { 1.0 / x } else { 1.0 })
        .collect();
    let mut col_max = vec![0.0_f64; n];
    for (i, j, v) in a.triplets() {
        col_max[j] = col_max[j].max((v * row_scale[i]).abs());
    }
    let col_scale: Vec<f64> = col_max
        .iter()
        .map(|&x| if x > 0.0 { 1.0 / x } else { 1.0 })
        .collect();
    let scaled = CscMatrix::from_triplets_iter(
        m,
        n,
        a.triplets()
            .map(|(i, j, v)| (i, j, v * row_scale[i] * col_scale[j])),
    )
    .expect("scaling preserves the pattern");
    Equilibration {
        row_scale,
        col_scale,
        scaled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_matrix_has_unit_norms() {
        let a = CscMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 1e6),
                (0, 1, 2e6),
                (1, 1, 1e-4),
                (2, 0, 5.0),
                (2, 2, -80.0),
            ],
        )
        .unwrap();
        let eq = equilibrate(&a);
        // Every row max of |R A C| is ≤ 1, every column max is exactly 1.
        let mut row_max = [0.0_f64; 3];
        let mut col_max = [0.0_f64; 3];
        for (i, j, v) in eq.scaled.triplets() {
            row_max[i] = row_max[i].max(v.abs());
            col_max[j] = col_max[j].max(v.abs());
        }
        for j in 0..3 {
            assert!((col_max[j] - 1.0).abs() < 1e-12, "col {j}: {}", col_max[j]);
        }
        for i in 0..3 {
            assert!(row_max[i] <= 1.0 + 1e-12);
            assert!(row_max[i] > 0.0);
        }
    }

    #[test]
    fn rhs_and_solution_transforms_are_consistent() {
        // If (RAC) y = Rb then x = Cy solves Ax = b.
        let a = CscMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 4e3), (0, 1, 1.0), (1, 0, -2.0), (1, 1, 3e-3)],
        )
        .unwrap();
        let eq = equilibrate(&a);
        let x_true = [2.0, -1.5];
        let b = a.mat_vec(&x_true);
        let scale =
            |v: &[f64], by: &[f64]| -> Vec<f64> { v.iter().zip(by).map(|(v, s)| v * s).collect() };
        let sb = scale(&b, &eq.row_scale);
        // Solve the scaled 2x2 directly.
        let s = &eq.scaled;
        let (a11, a12, a21, a22) = (s.get(0, 0), s.get(0, 1), s.get(1, 0), s.get(1, 1));
        let det = a11 * a22 - a12 * a21;
        let y = [
            (sb[0] * a22 - a12 * sb[1]) / det,
            (a11 * sb[1] - sb[0] * a21) / det,
        ];
        let x = scale(&y, &eq.col_scale);
        assert!((x[0] - x_true[0]).abs() < 1e-9);
        assert!((x[1] - x_true[1]).abs() < 1e-9);
    }

    #[test]
    fn zero_rows_get_unit_scale() {
        let a = CscMatrix::from_triplets(2, 2, &[(0, 0, 2.0)]).unwrap();
        let eq = equilibrate(&a);
        assert_eq!(eq.row_scale[1], 1.0);
        assert_eq!(eq.col_scale[1], 1.0);
    }
}
