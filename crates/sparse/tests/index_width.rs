//! Row indices are stored as `u32`: every constructor and reader refuses a
//! dimension past `u32::MAX` before it sizes anything, nothing truncates an
//! index, and `heap_bytes` counts the arrays at their element sizes.

use splu_sparse::io::{parse_harwell_boeing, parse_matrix_market};
use splu_sparse::{CscMatrix, SparseError, SparsityPattern};

const BIG: usize = 1 << 32;

#[test]
fn constructors_refuse_dimensions_past_u32() {
    let rows = SparseError::DimensionTooLarge {
        nrows: BIG,
        ncols: 1,
    };
    let new = SparsityPattern::new(BIG, 1, vec![0, 0], Vec::new());
    assert_eq!(new, Err(rows.clone()));
    let entries = SparsityPattern::from_entries(BIG, 1, std::iter::empty());
    assert_eq!(entries, Err(rows.clone()));
    assert_eq!(CscMatrix::from_triplets(BIG, 1, &[]), Err(rows));
    // Columns past u32 would be the rows of the transpose; `from_entries`
    // would size a list per column before any other check.
    let cols = SparsityPattern::from_entries(1, BIG, std::iter::empty());
    assert_eq!(
        cols,
        Err(SparseError::DimensionTooLarge {
            nrows: 1,
            ncols: BIG
        })
    );
}

#[test]
fn no_index_is_truncated() {
    let last = u32::MAX as usize;
    let p = SparsityPattern::new(last, 1, vec![0, 1], vec![u32::MAX - 1]).unwrap();
    assert!(p.contains(last - 1, 0));
    assert!(!p.contains(BIG + last - 1, 0));
    let a = CscMatrix::from_pattern_values(p, vec![2.5]).unwrap();
    assert_eq!((a.get(last - 1, 0), a.get(BIG + last - 1, 0)), (2.5, 0.0));
}

#[test]
fn readers_refuse_rows_past_u32_at_the_size_line() {
    let mm = "%%MatrixMarket matrix coordinate real general\n4294967296 1 0\n";
    match parse_matrix_market(mm) {
        Err(SparseError::ParseAt { line: 2, msg, .. }) => assert!(msg.contains("32-bit")),
        other => panic!("expected a refusal of the size line, got {other:?}"),
    }
    let hb = "wide\n 3 1 1 1 0\nRUA 4294967296 2 2 0\n(6I3) (8I3) (4E16.8)\n  1  2  3\n  1  2\n\
              1.0E+00 2.0E+00\n";
    match parse_harwell_boeing(hb) {
        Err(SparseError::Parse(msg)) => assert!(msg.contains("32-bit index range"), "{msg}"),
        other => panic!("expected a refusal of the header, got {other:?}"),
    }
}

#[test]
fn heap_bytes_counts_each_array_at_its_element_size() {
    let a = CscMatrix::from_triplets(3, 4, &[(0, 0, 1.0), (2, 0, 4.0), (1, 3, -3.0)]).unwrap();
    // Five `usize` column pointers, three `u32` rows, three `f64` values.
    assert_eq!(a.pattern().heap_bytes(), 5 * 8 + 3 * 4);
    assert_eq!(a.heap_bytes(), 5 * 8 + 3 * 4 + 3 * 8);
}

#[test]
#[should_panic(expected = "pattern dimensions exceed u32")]
fn an_empty_pattern_past_u32_is_a_programming_error() {
    SparsityPattern::empty(BIG, 1);
}
