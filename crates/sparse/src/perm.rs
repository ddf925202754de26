//! Permutation vectors with cached inverses.

use crate::SparseError;

/// A permutation of `0..n`.
///
/// The convention follows classical sparse direct-solver codes: the forward
/// vector lists **old indices in new order**, i.e. `perm[new] = old`. For a
/// fill-reducing ordering, `perm[k]` is the original index of the `k`-th
/// pivot. The inverse satisfies `inv[old] = new`.
///
/// Applying a permutation pair `(p, q)` to a matrix yields
/// `B[i][j] = A[p[i]][q[j]]`, i.e. `B = Pᵀ A Q` in the usual algebraic
/// notation where `P e_new = e_old`.
///
/// Both vectors hold `u32`, like the row indices of a pattern: a
/// permutation acts on at most `u32::MAX` indices
/// ([`SparseError::DimensionTooLarge`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    perm: Vec<u32>,
    inv: Vec<u32>,
}

/// `Err` unless every index of `0..n` fits a `u32`.
fn check_len(n: usize) -> Result<(), SparseError> {
    if n > u32::MAX as usize {
        return Err(SparseError::DimensionTooLarge { nrows: n, ncols: n });
    }
    Ok(())
}

impl Permutation {
    /// Identity permutation on `0..n`. Panics, before allocating, when `n`
    /// exceeds `u32::MAX`.
    pub fn identity(n: usize) -> Self {
        check_len(n).unwrap_or_else(|e| panic!("identity permutation: {e}"));
        let perm: Vec<u32> = (0..n as u32).collect();
        Permutation {
            inv: perm.clone(),
            perm,
        }
    }

    /// Builds a permutation from a forward vector (`perm[new] = old`) — a
    /// `Vec<usize>` or any sequence of known length.
    ///
    /// Returns an error unless `perm` is a bijection on `0..perm.len()`, and
    /// [`SparseError::DimensionTooLarge`], before allocating, when its
    /// length exceeds `u32::MAX`.
    pub fn from_vec<I>(perm: I) -> Result<Self, SparseError>
    where
        I: IntoIterator<Item = usize>,
        I::IntoIter: ExactSizeIterator,
    {
        let perm = perm.into_iter();
        let n = perm.len();
        check_len(n)?;
        // `new < n <= u32::MAX`, so `u32::MAX` marks an unset entry.
        let mut inv = vec![u32::MAX; n];
        let mut fwd = Vec::with_capacity(n);
        for (new, old) in perm.enumerate() {
            if old >= n {
                return Err(SparseError::InvalidPermutation(format!(
                    "index {old} out of range for length {n}"
                )));
            }
            if inv[old] != u32::MAX {
                return Err(SparseError::InvalidPermutation(format!(
                    "index {old} appears twice"
                )));
            }
            inv[old] = new as u32;
            fwd.push(old as u32);
        }
        Ok(Permutation { perm: fwd, inv })
    }

    /// Number of elements permuted.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// `true` when the permutation acts on an empty index set.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// `true` when this is the identity permutation.
    pub fn is_identity(&self) -> bool {
        self.perm.iter().enumerate().all(|(i, &p)| i == p as usize)
    }

    /// Old index occupying new position `new`.
    #[inline]
    pub fn old_of(&self, new: usize) -> usize {
        self.perm[new] as usize
    }

    /// New position of old index `old`.
    #[inline]
    pub fn new_of(&self, old: usize) -> usize {
        self.inv[old] as usize
    }

    /// The forward vector (`perm[new] = old`).
    pub fn as_slice(&self) -> &[u32] {
        &self.perm
    }

    /// Bytes the forward and inverse vectors occupy on the heap.
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of_val;
        (size_of_val(&self.perm[..]) + size_of_val(&self.inv[..])) as u64
    }

    /// Returns the inverse permutation as an owned [`Permutation`].
    pub fn inverse(&self) -> Permutation {
        Permutation {
            perm: self.inv.clone(),
            inv: self.perm.clone(),
        }
    }

    /// Composition `self ∘ other`: applying the result is equivalent to
    /// applying `other` first, then `self`.
    ///
    /// In vector form: `result[new] = other.old_of(self.old_of(new))`.
    /// This matches permuting a matrix first by `other`, then by `self`.
    pub fn compose(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.len(), other.len(), "length mismatch in compose");
        let perm = (0..self.len()).map(|new| other.old_of(self.old_of(new)));
        Permutation::from_vec(perm).expect("composition of bijections is a bijection")
    }

    /// Parity of the permutation: `true` when it decomposes into an even
    /// number of transpositions (i.e. `sign = +1`).
    pub fn is_even(&self) -> bool {
        // Count cycles: parity = (n - #cycles) mod 2.
        let n = self.len();
        let mut seen = vec![false; n];
        let mut transpositions = 0usize;
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut len = 0usize;
            let mut x = start;
            while !seen[x] {
                seen[x] = true;
                x = self.old_of(x);
                len += 1;
            }
            transpositions += len - 1;
        }
        transpositions.is_multiple_of(2)
    }

    /// Gathers `x` into new order: `out[new] = x[perm[new]]`.
    pub fn apply_vec<T: Copy>(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.len());
        self.perm.iter().map(|&old| x[old as usize]).collect()
    }

    /// Scatters `x` back to old order: `out[perm[new]] = x[new]`.
    pub fn apply_inverse_vec<T: Copy + Default>(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.len());
        let mut out = vec![T::default(); x.len()];
        for (new, &old) in self.perm.iter().enumerate() {
            out[old as usize] = x[new];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        let p = Permutation::identity(4);
        assert!(p.is_identity());
        assert_eq!(p.apply_vec(&[10, 11, 12, 13]), vec![10, 11, 12, 13]);
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
    }

    #[test]
    fn from_vec_rejects_non_bijections() {
        assert!(Permutation::from_vec(vec![0, 0]).is_err());
        assert!(Permutation::from_vec(vec![0, 5]).is_err());
        assert!(Permutation::from_vec(vec![2, 0, 1]).is_ok());
    }

    /// A length past `u32::MAX` is refused from its length alone: the
    /// range below is never materialized.
    #[test]
    fn from_vec_refuses_lengths_past_u32() {
        let n = u32::MAX as usize + 1;
        assert_eq!(
            Permutation::from_vec(0..n),
            Err(SparseError::DimensionTooLarge { nrows: n, ncols: n })
        );
        let last = Permutation::from_vec([1, 0]).unwrap();
        assert_eq!(last.as_slice(), &[1, 0]);
        assert_eq!(last.heap_bytes(), 16);
    }

    #[test]
    #[should_panic(expected = "32-bit index range")]
    fn identity_refuses_lengths_past_u32() {
        Permutation::identity(u32::MAX as usize + 1);
    }

    #[test]
    fn forward_and_inverse_agree() {
        let p = Permutation::from_vec(vec![2, 0, 3, 1]).unwrap();
        for new in 0..4 {
            assert_eq!(p.new_of(p.old_of(new)), new);
        }
        assert_eq!(p.inverse().compose(&p).as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    fn apply_and_unapply_are_inverse() {
        let p = Permutation::from_vec(vec![3, 1, 0, 2]).unwrap();
        let x = [5.0, 6.0, 7.0, 8.0];
        let y = p.apply_vec(&x);
        assert_eq!(y, vec![8.0, 6.0, 5.0, 7.0]);
        assert_eq!(p.apply_inverse_vec(&y), x.to_vec());
    }

    #[test]
    fn parity_matches_transposition_count() {
        assert!(Permutation::identity(5).is_even());
        // A single swap is odd.
        assert!(!Permutation::from_vec(vec![1, 0, 2]).unwrap().is_even());
        // A 3-cycle is even.
        assert!(Permutation::from_vec(vec![1, 2, 0]).unwrap().is_even());
        // Two disjoint swaps are even.
        assert!(Permutation::from_vec(vec![1, 0, 3, 2]).unwrap().is_even());
        // Parity of a composition is the product of parities.
        let p = Permutation::from_vec(vec![2, 0, 1, 3]).unwrap(); // even
        let q = Permutation::from_vec(vec![0, 1, 3, 2]).unwrap(); // odd
        assert!(!p.compose(&q).is_even());
    }

    #[test]
    fn compose_applies_right_then_left() {
        // q: rotate left, p: swap first two.
        let q = Permutation::from_vec(vec![1, 2, 0]).unwrap();
        let p = Permutation::from_vec(vec![1, 0, 2]).unwrap();
        let pq = p.compose(&q);
        let x = [10, 20, 30];
        assert_eq!(pq.apply_vec(&x), p.apply_vec(&q.apply_vec(&x)));
    }
}
