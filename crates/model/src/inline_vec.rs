//! A fixed-capacity inline vector for the engine's hot paths.
//!
//! Strategy decisions produce tiny collections — one entry per rail, and
//! the engine caps rails at [`MAX_RAILS`]. Heap-allocating a `Vec` for every
//! split/selection result puts malloc on the per-message critical path; an
//! [`InlineVec`] keeps the elements inline on the stack (or inside the
//! owning struct) with no allocation at all. Every element type it is used
//! with is plain data (`Copy + Default`), so the storage is an ordinary
//! `[T; N]` plus a length.
//!
//! The capacity is a hard bound: pushing past `N` panics. This is
//! intentional — a silent heap spill would hide exactly the allocation this
//! type exists to eliminate.

use std::fmt;

/// Upper bound on rails the engine supports (paper testbed uses 2; the
/// built-in model set tops out at 5). Collections sized by rail count use
/// this as their inline capacity.
pub const MAX_RAILS: usize = 8;

/// A `Vec`-like container storing at most `N` plain-data elements inline.
///
/// Slots past `len` hold `T::default()` (or a stale copy) and are never
/// observable: every view goes through [`InlineVec::as_slice`].
#[derive(Clone)]
pub struct InlineVec<T, const N: usize> {
    buf: [T; N],
    len: usize,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty vector.
    pub fn new() -> Self {
        InlineVec { buf: [T::default(); N], len: 0 }
    }

    /// Appends an element.
    ///
    /// # Panics
    /// When the vector already holds `N` elements.
    pub fn push(&mut self, value: T) {
        assert!(self.len < N, "InlineVec overflow: capacity {N}");
        self.buf[self.len] = value;
        self.len += 1;
    }

    /// Removes and returns the last element.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        Some(self.buf[self.len])
    }

    /// Removes the element at `index` by shifting the tail left.
    pub fn remove(&mut self, index: usize) -> T {
        assert!(index < self.len, "index {index} out of bounds (len {})", self.len);
        let value = self.buf[index];
        self.buf.copy_within(index + 1..self.len, index);
        self.len -= 1;
        value
    }
}

impl<T, const N: usize> InlineVec<T, N> {
    /// The fixed capacity `N`.
    pub const fn capacity(&self) -> usize {
        N
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all elements.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Borrows the elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        &self.buf[..self.len]
    }

    /// Borrows the elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.buf[..self.len]
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> std::ops::Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T, const N: usize> std::ops::DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: PartialEq, const N: usize> PartialEq<[T]> for InlineVec<T, N> {
    fn eq(&self, other: &[T]) -> bool {
        self.as_slice() == other
    }
}

impl<T: PartialEq, const N: usize> PartialEq<&[T]> for InlineVec<T, N> {
    fn eq(&self, other: &&[T]) -> bool {
        self.as_slice() == *other
    }
}

impl<T: PartialEq, const N: usize, const M: usize> PartialEq<[T; M]> for InlineVec<T, N> {
    fn eq(&self, other: &[T; M]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: PartialEq, const N: usize> PartialEq<Vec<T>> for InlineVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Self::new();
        v.extend(iter);
        v
    }
}

impl<T: Copy + Default, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<T: Copy + Default, const N: usize, const M: usize> From<[T; M]> for InlineVec<T, N> {
    fn from(items: [T; M]) -> Self {
        items.into_iter().collect()
    }
}

impl<T, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = std::iter::Take<std::array::IntoIter<T, N>>;
    fn into_iter(self) -> Self::IntoIter {
        self.buf.into_iter().take(self.len)
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_len() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        assert!(v.is_empty());
        v.push(1);
        v.push(2);
        assert_eq!(v.len(), 2);
        assert_eq!(v.as_slice(), &[1, 2]);
        assert_eq!(v.pop(), Some(2));
        assert_eq!(v.pop(), Some(1));
        assert_eq!(v.pop(), None);
    }

    #[test]
    #[should_panic(expected = "InlineVec overflow")]
    fn overflow_panics() {
        let mut v: InlineVec<u8, 2> = InlineVec::new();
        v.push(0);
        v.push(1);
        v.push(2);
    }

    #[test]
    fn remove_shifts_tail() {
        let mut v: InlineVec<u32, 4> = [10, 20, 30, 40].into();
        assert_eq!(v.remove(1), 20);
        assert_eq!(v.as_slice(), &[10, 30, 40]);
        assert_eq!(v.remove(2), 40);
        assert_eq!(v.as_slice(), &[10, 30]);
    }

    #[test]
    fn equality_against_vec_and_arrays() {
        let v: InlineVec<u32, 8> = [1, 2, 3].into();
        assert_eq!(v, [1, 2, 3]);
        assert_eq!(v, vec![1, 2, 3]);
        assert_eq!(v, *[1u32, 2, 3].as_slice());
        let w: InlineVec<u32, 8> = v.clone();
        assert_eq!(v, w);
    }

    #[test]
    fn iterators_and_collect() {
        let v: InlineVec<u32, 8> = (0..5).collect();
        let doubled: Vec<u32> = v.iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![0, 2, 4, 6, 8]);
        let owned: Vec<u32> = v.into_iter().collect();
        assert_eq!(owned, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn mutation_through_deref() {
        let mut v: InlineVec<u64, 4> = [5, 1, 9].into();
        v.sort_unstable();
        assert_eq!(v, [1, 5, 9]);
        v[0] = 7;
        assert_eq!(v.iter().sum::<u64>(), 21);
    }
}
