//! File-level I/O integration tests: Matrix Market round-trips through the
//! filesystem and Harwell–Boeing ingestion feeding the full solver.

use parsplu::core::{Options, SparseLu};
use parsplu::matgen::{manufactured_rhs, paper_matrix, Scale};
use parsplu::sparse::io::{parse_harwell_boeing, read_matrix_market, write_matrix_market};
use parsplu::sparse::relative_residual;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("parsplu_io_{name}_{}.mtx", std::process::id()))
}

#[test]
fn matrix_market_file_roundtrip_preserves_solutions() {
    let a = paper_matrix("saylr4", Scale::Reduced).unwrap();
    let path = tmp("saylr4");
    write_matrix_market(&a, &path).unwrap();
    let a2 = read_matrix_market(&path).unwrap();
    assert_eq!(a, a2);

    let (_, b) = manufactured_rhs(&a, 3);
    let x1 = SparseLu::factor(&a, &Options::default()).unwrap().solve(&b);
    let x2 = SparseLu::factor(&a2, &Options::default())
        .unwrap()
        .solve(&b);
    assert_eq!(x1, x2, "file round-trip changed the solution");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn harwell_boeing_matrix_feeds_the_solver() {
    // A hand-written 4x4 RUA file (1-based, column-compressed).
    let text = "\
hb integration fixture                                                  hbfix
             6             1             2             3             0
RUA                        4             4             8             0
(8I3)           (8I3)           (4E16.8)
  1  3  5  7  9
  1  2  2  3  1  3  3  4
  4.00000000E+00  1.00000000E+00  5.00000000E+00 -1.00000000E+00  2.00000000E+00
  6.00000000E+00  1.50000000E+00  3.00000000E+00
";
    let a = parse_harwell_boeing(text).unwrap();
    assert_eq!(a.nrows(), 4);
    assert_eq!(a.nnz(), 8);
    let b = vec![1.0, -2.0, 0.5, 3.0];
    let lu = SparseLu::factor(&a, &Options::default()).unwrap();
    let x = lu.solve(&b);
    assert!(relative_residual(&a, &x, &b) < 1e-12);
}

#[test]
fn write_then_cli_style_read_of_every_generator() {
    for name in [
        "sherman3", "sherman5", "lnsp3937", "lns3937", "orsreg1", "saylr4", "goodwin",
    ] {
        let a = paper_matrix(name, Scale::Reduced).unwrap();
        // Not `tmp(name)`: the saylr4 round trip above runs concurrently
        // and removes its file.
        let path = tmp(&format!("every_{name}"));
        write_matrix_market(&a, &path).unwrap();
        let a2 = read_matrix_market(&path).unwrap();
        assert_eq!(a.nnz(), a2.nnz(), "{name}");
        assert_eq!(a.pattern(), a2.pattern(), "{name}");
        // Values survive the decimal round-trip exactly (we print with
        // enough digits).
        assert_eq!(a.values(), a2.values(), "{name}");
        let _ = std::fs::remove_file(&path);
    }
}
