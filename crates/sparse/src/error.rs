//! Error type shared by the sparse substrate.

use std::fmt;

/// Errors produced while constructing or parsing sparse matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// An index was outside the matrix dimensions.
    IndexOutOfBounds {
        /// Row index of the offending entry.
        row: usize,
        /// Column index of the offending entry.
        col: usize,
        /// Number of rows of the matrix.
        nrows: usize,
        /// Number of columns of the matrix.
        ncols: usize,
    },
    /// A dimension does not fit the `u32` row indices a pattern stores.
    DimensionTooLarge {
        /// Number of rows asked for.
        nrows: usize,
        /// Number of columns asked for.
        ncols: usize,
    },
    /// A compressed structure was internally inconsistent.
    InvalidStructure(String),
    /// A permutation vector was not a bijection on `0..n`.
    InvalidPermutation(String),
    /// A file could not be parsed.
    Parse(String),
    /// A file could not be parsed, with the 1-based source line and the
    /// offending token — the precise form the file readers emit for
    /// malformed entries (bad tokens, non-finite values, out-of-range
    /// indices).
    ParseAt {
        /// 1-based line number in the source text.
        line: usize,
        /// The offending token, verbatim.
        token: String,
        /// What was wrong with it.
        msg: String,
    },
    /// An I/O error occurred (message only, to keep the type `Eq`).
    Io(String),
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::IndexOutOfBounds {
                row,
                col,
                nrows,
                ncols,
            } => write!(
                f,
                "entry ({row}, {col}) outside matrix dimensions {nrows}x{ncols}"
            ),
            SparseError::DimensionTooLarge { nrows, ncols } => {
                write!(
                    f,
                    "dimensions {nrows}x{ncols} exceed the 32-bit index range"
                )
            }
            SparseError::InvalidStructure(msg) => write!(f, "invalid sparse structure: {msg}"),
            SparseError::InvalidPermutation(msg) => write!(f, "invalid permutation: {msg}"),
            SparseError::Parse(msg) => write!(f, "parse error: {msg}"),
            SparseError::ParseAt { line, token, msg } => {
                write!(f, "parse error at line {line}: {msg} (`{token}`)")
            }
            SparseError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SparseError::IndexOutOfBounds {
            row: 5,
            col: 1,
            nrows: 3,
            ncols: 3,
        };
        let s = e.to_string();
        assert!(s.contains("(5, 1)") && s.contains("3x3"));
        assert!(SparseError::Parse("bad".into()).to_string().contains("bad"));
        let at = SparseError::ParseAt {
            line: 12,
            token: "nan".into(),
            msg: "non-finite value".into(),
        };
        let s = at.to_string();
        assert!(s.contains("line 12") && s.contains("`nan`") && s.contains("non-finite"));
    }
}
