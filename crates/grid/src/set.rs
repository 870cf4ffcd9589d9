//! [`GridSet`]: the named mesh environment a stencil group executes against.

use std::collections::HashMap;

use crate::{Grid, GridError};

/// An ordered, name-addressed collection of [`Grid`]s.
///
/// The Snowflake DSL refers to grids by name (`Component("beta_x", …)`);
/// at execution time a `GridSet` supplies the actual storage. Insertion
/// order is stable so compiled kernels can address grids by dense index.
#[derive(Clone, Debug, Default)]
pub struct GridSet {
    names: Vec<String>,
    grids: Vec<Grid>,
    index: HashMap<String, usize>,
}

impl GridSet {
    /// Create an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a grid under a name, returning its dense index.
    ///
    /// # Panics
    /// Panics if the name is already present.
    pub fn insert(&mut self, name: &str, grid: Grid) -> usize {
        assert!(
            !self.index.contains_key(name),
            "grid {name:?} already present in GridSet"
        );
        let idx = self.grids.len();
        self.names.push(name.to_string());
        self.grids.push(grid);
        self.index.insert(name.to_string(), idx);
        idx
    }

    /// Number of grids.
    pub fn len(&self) -> usize {
        self.grids.len()
    }

    /// True when no grids are present.
    pub fn is_empty(&self) -> bool {
        self.grids.is_empty()
    }

    /// Dense index of a name, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Grid names in insertion order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Borrow a grid by name.
    pub fn get(&self, name: &str) -> Option<&Grid> {
        self.index_of(name).map(|i| &self.grids[i])
    }

    /// Mutably borrow a grid by name.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Grid> {
        let i = self.index_of(name)?;
        Some(&mut self.grids[i])
    }

    /// Map of name → shape for all grids (what stencil compilation needs).
    pub fn shapes(&self) -> HashMap<String, Vec<usize>> {
        self.names
            .iter()
            .zip(&self.grids)
            .map(|(n, g)| (n.clone(), g.shape().to_vec()))
            .collect()
    }

    /// Swap the *contents* of two same-shaped grids (O(1): the backing
    /// buffers are exchanged). Used for ping-pong schemes (a Jacobi sweep,
    /// an explicit time step) where "previous" and "next" roles rotate
    /// between fixed names.
    ///
    /// Returns an error if either name is missing or the shapes differ;
    /// the set is left unchanged in both cases.
    pub fn swap_data(&mut self, a: &str, b: &str) -> Result<(), GridError> {
        let ia = self.index_of(a).ok_or_else(|| GridError::UnknownGrid {
            name: a.to_string(),
        })?;
        let ib = self.index_of(b).ok_or_else(|| GridError::UnknownGrid {
            name: b.to_string(),
        })?;
        if ia == ib {
            return Ok(());
        }
        if self.grids[ia].shape() != self.grids[ib].shape() {
            return Err(GridError::ShapeMismatch {
                a: a.to_string(),
                a_shape: self.grids[ia].shape().to_vec(),
                b: b.to_string(),
                b_shape: self.grids[ib].shape().to_vec(),
            });
        }
        self.grids.swap(ia, ib);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut s = GridSet::new();
        let i0 = s.insert("x", Grid::new(&[4, 4]));
        let i1 = s.insert("rhs", Grid::new(&[4, 4]));
        assert_eq!((i0, i1), (0, 1));
        assert_eq!(s.index_of("rhs"), Some(1));
        assert_eq!(s.index_of("nope"), None);
        assert_eq!(s.len(), 2);
        assert_eq!(s.names(), &["x".to_string(), "rhs".to_string()]);
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn duplicate_name_rejected() {
        let mut s = GridSet::new();
        s.insert("x", Grid::new(&[2]));
        s.insert("x", Grid::new(&[2]));
    }

    #[test]
    fn mutation_through_name() {
        let mut s = GridSet::new();
        s.insert("x", Grid::new(&[2, 2]));
        s.get_mut("x").unwrap().set(&[1, 1], 3.0);
        assert_eq!(s.get("x").unwrap().get(&[1, 1]), 3.0);
    }

    #[test]
    fn shapes_map() {
        let mut s = GridSet::new();
        s.insert("a", Grid::new(&[3]));
        s.insert("b", Grid::new(&[5, 7]));
        let m = s.shapes();
        assert_eq!(m["a"], vec![3]);
        assert_eq!(m["b"], vec![5, 7]);
    }

    #[test]
    fn swap_data_exchanges_contents() {
        let mut s = GridSet::new();
        s.insert("a", Grid::from_fn(&[3], |p| p[0] as f64));
        s.insert("b", Grid::new(&[3]));
        s.swap_data("a", "b").unwrap();
        assert_eq!(s.get("a").unwrap().as_slice(), &[0.0, 0.0, 0.0]);
        assert_eq!(s.get("b").unwrap().as_slice(), &[0.0, 1.0, 2.0]);
        // Self-swap is a no-op.
        s.swap_data("a", "a").unwrap();
        assert_eq!(s.get("a").unwrap().as_slice(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn swap_data_rejects_shape_mismatch() {
        let mut s = GridSet::new();
        s.insert("a", Grid::new(&[3]));
        s.insert("b", Grid::new(&[4]));
        let err = s.swap_data("a", "b").unwrap_err();
        assert_eq!(
            err,
            GridError::ShapeMismatch {
                a: "a".into(),
                a_shape: vec![3],
                b: "b".into(),
                b_shape: vec![4],
            }
        );
        // The set is untouched after the failure.
        assert_eq!(s.get("a").unwrap().shape(), &[3]);
    }

    #[test]
    fn swap_data_rejects_unknown_names() {
        let mut s = GridSet::new();
        s.insert("a", Grid::new(&[3]));
        assert_eq!(
            s.swap_data("a", "ghost").unwrap_err(),
            GridError::UnknownGrid {
                name: "ghost".into()
            }
        );
        assert_eq!(
            s.swap_data("ghost", "a").unwrap_err(),
            GridError::UnknownGrid {
                name: "ghost".into()
            }
        );
    }
}
