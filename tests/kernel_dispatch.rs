//! End-to-end coverage of the kernel dispatch layer through the top-level
//! driver: `SparseLu::factor` must produce **bitwise identical** factors —
//! pivots, solves, determinants — under every [`KernelChoice`], on every
//! suite matrix: whatever instantiation `Auto` resolves to on this CPU must
//! reproduce the baseline's bits exactly.

use parsplu::core::{KernelChoice, Options, SparseLu};
use parsplu::matgen::{manufactured_rhs, paper_suite, Scale};

fn factor_with(choice: KernelChoice, a: &parsplu::sparse::CscMatrix, threads: usize) -> SparseLu {
    let opts = Options {
        threads,
        kernels: choice,
        ..Options::default()
    };
    SparseLu::factor(a, &opts).expect("factorization succeeds")
}

#[test]
fn sparse_lu_factors_are_kernel_invariant_suitewide() {
    for m in paper_suite(Scale::Reduced) {
        let (_, b) = manufactured_rhs(&m.a, 3);
        for threads in [1usize, 4] {
            let reference = factor_with(KernelChoice::Portable, &m.a, threads);
            let x_ref = reference.solve(&b);
            let det_ref = reference.determinant();
            let lu = factor_with(KernelChoice::Auto, &m.a, threads);
            // Solves run through every stored factor entry, so equal
            // solve vectors + equal determinants pin the factor bits.
            assert_eq!(
                lu.solve(&b),
                x_ref,
                "{}: Auto solve differs at {threads} threads",
                m.name
            );
            assert_eq!(
                lu.determinant(),
                det_ref,
                "{}: Auto determinant differs",
                m.name
            );
        }
    }
}

#[test]
fn kernel_choice_defaults_to_auto() {
    assert_eq!(Options::default().kernels, KernelChoice::Auto);
}
