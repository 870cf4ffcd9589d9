//! Stencil expressions and affine index maps.
//!
//! An [`Expr`] is the right-hand side of a stencil: a tree over constants
//! and grid reads, closed under `+ - * /` and negation. Every read carries
//! an [`AffineMap`] describing *which* element is read as a function of the
//! iteration point `p`: `index_d = scale_d · p_d + offset_d`.
//!
//! Ordinary stencils use `scale = 1` everywhere; multigrid restriction uses
//! `scale = 2` on its fine-grid reads (the "multiplicative offsets" the
//! Snowflake paper highlights as missing from SDSL).

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

use crate::component::Component;

/// Per-dimension affine index map `index = scale · p + offset`.
///
/// ```
/// use snowflake_core::AffineMap;
///
/// // Multigrid restriction reads fine[2p + 1] from a coarse point p —
/// // the "multiplicative offsets" ordinary stencil DSLs cannot express.
/// let m = AffineMap::scaled(vec![2], vec![1]);
/// assert_eq!(m.apply(&[3]), vec![7]);
/// assert!(!m.is_translation());
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AffineMap {
    /// Multiplier applied to the iteration point, per dimension.
    pub scale: Vec<i64>,
    /// Constant offset added afterwards, per dimension.
    pub offset: Vec<i64>,
}

impl AffineMap {
    /// The identity map in `ndim` dimensions.
    pub fn identity(ndim: usize) -> Self {
        AffineMap {
            scale: vec![1; ndim],
            offset: vec![0; ndim],
        }
    }

    /// Pure translation by `offset` (scale 1). This is an ordinary stencil
    /// offset.
    pub fn translate(offset: Vec<i64>) -> Self {
        AffineMap {
            scale: vec![1; offset.len()],
            offset,
        }
    }

    /// General map with explicit scale and offset.
    ///
    /// # Panics
    /// Panics if the two vectors disagree in rank.
    pub fn scaled(scale: Vec<i64>, offset: Vec<i64>) -> Self {
        assert_eq!(scale.len(), offset.len(), "AffineMap rank mismatch");
        AffineMap { scale, offset }
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.scale.len()
    }

    /// Apply the map to a point.
    ///
    /// Each index is formed in `i128`, where `scale · p + offset` cannot
    /// overflow, so a map whose intermediate product leaves `i64` still
    /// lands on the cell it names. [`Stencil::validate`] proves that every
    /// in-domain index is a cell of its grid, so the result fits `i64`.
    ///
    /// # Panics
    /// Panics if an index does not fit `i64`, which only a point outside
    /// every validated domain can reach.
    ///
    /// [`Stencil::validate`]: crate::Stencil::validate
    pub fn apply(&self, p: &[i64]) -> Vec<i64> {
        debug_assert_eq!(p.len(), self.ndim());
        (0..p.len())
            .map(|d| {
                let index =
                    i128::from(self.scale[d]) * i128::from(p[d]) + i128::from(self.offset[d]);
                i64::try_from(index).expect("affine index outside i64")
            })
            .collect()
    }

    /// Is this a pure unit-scale translation?
    pub fn is_translation(&self) -> bool {
        self.scale.iter().all(|&s| s == 1)
    }

    /// Is this exactly the identity?
    pub fn is_identity(&self) -> bool {
        self.is_translation() && self.offset.iter().all(|&o| o == 0)
    }
}

/// A stencil expression tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A literal constant.
    Const(f64),
    /// A read of `grid` at `map(p)` for iteration point `p`.
    Read {
        /// Name of the grid read from.
        grid: String,
        /// Index map applied to the iteration point.
        map: AffineMap,
    },
    /// Sum of two subexpressions.
    Add(Box<Expr>, Box<Expr>),
    /// Difference of two subexpressions.
    Sub(Box<Expr>, Box<Expr>),
    /// Product of two subexpressions.
    Mul(Box<Expr>, Box<Expr>),
    /// Quotient of two subexpressions.
    Div(Box<Expr>, Box<Expr>),
    /// Negation.
    Neg(Box<Expr>),
}

impl Expr {
    /// A read of `grid` at the iteration point itself.
    pub fn read(grid: &str, ndim: usize) -> Expr {
        Expr::Read {
            grid: grid.to_string(),
            map: AffineMap::identity(ndim),
        }
    }

    /// A read of `grid` at a constant offset from the iteration point.
    pub fn read_at(grid: &str, offset: &[i64]) -> Expr {
        Expr::Read {
            grid: grid.to_string(),
            map: AffineMap::translate(offset.to_vec()),
        }
    }

    /// A read of `grid` through a general affine map.
    pub fn read_mapped(grid: &str, map: AffineMap) -> Expr {
        Expr::Read {
            grid: grid.to_string(),
            map,
        }
    }

    /// Collect `(grid, map)` for every read in the expression, in
    /// depth-first order (duplicates preserved).
    pub fn reads(&self) -> Vec<(&str, &AffineMap)> {
        let mut out = Vec::new();
        self.visit_reads(&mut |g, m| out.push((g, m)));
        out
    }

    /// Visit every read in depth-first order.
    pub fn visit_reads<'a>(&'a self, f: &mut impl FnMut(&'a str, &'a AffineMap)) {
        match self {
            Expr::Const(_) => {}
            Expr::Read { grid, map } => f(grid, map),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                a.visit_reads(f);
                b.visit_reads(f);
            }
            Expr::Neg(a) => a.visit_reads(f),
        }
    }

    /// The set of distinct grid names read, in first-appearance order.
    pub fn grids(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        self.visit_reads(&mut |g, _| {
            if !out.iter().any(|x| x == g) {
                out.push(g.to_string());
            }
        });
        out
    }

    /// The dimensionality of the expression, if any read fixes one.
    /// Returns `None` for pure-constant expressions (compatible with any
    /// rank) and `Some(Err(..))`-like mismatches are reported as `None` by
    /// [`Expr::consistent_ndim`] instead.
    pub fn ndim(&self) -> Option<usize> {
        let mut nd = None;
        self.visit_reads(&mut |_, m| {
            if nd.is_none() {
                nd = Some(m.ndim());
            }
        });
        nd
    }

    /// Check that every read agrees on rank; returns that rank.
    pub fn consistent_ndim(&self) -> Result<Option<usize>, (usize, usize)> {
        let mut nd: Option<usize> = None;
        let mut bad: Option<(usize, usize)> = None;
        self.visit_reads(&mut |_, m| match nd {
            None => nd = Some(m.ndim()),
            Some(n) if n != m.ndim() && bad.is_none() => bad = Some((n, m.ndim())),
            _ => {}
        });
        match bad {
            Some(b) => Err(b),
            None => Ok(nd),
        }
    }

    /// Evaluate at iteration point `p`, resolving reads with `read_fn`.
    /// This is the semantic reference used by the interpreter backend and
    /// the property tests that check compiled backends against it.
    pub fn eval(&self, p: &[i64], read_fn: &mut impl FnMut(&str, &[i64]) -> f64) -> f64 {
        match self {
            Expr::Const(c) => *c,
            Expr::Read { grid, map } => {
                let idx = map.apply(p);
                read_fn(grid, &idx)
            }
            Expr::Add(a, b) => a.eval(p, read_fn) + b.eval(p, read_fn),
            Expr::Sub(a, b) => a.eval(p, read_fn) - b.eval(p, read_fn),
            Expr::Mul(a, b) => a.eval(p, read_fn) * b.eval(p, read_fn),
            Expr::Div(a, b) => a.eval(p, read_fn) / b.eval(p, read_fn),
            Expr::Neg(a) => -a.eval(p, read_fn),
        }
    }

    /// Constant-fold the expression (pure-constant subtrees collapse, and
    /// the usual `0`/`1` identities are applied). Lowering calls this.
    // Float-literal patterns are deprecated in Rust, so equality guards are
    // the correct way to match the 0.0/1.0 identities.
    #[allow(clippy::redundant_guards)]
    pub fn simplify(&self) -> Expr {
        match self {
            Expr::Const(_) | Expr::Read { .. } => self.clone(),
            Expr::Neg(a) => match a.simplify() {
                Expr::Const(c) => Expr::Const(-c),
                Expr::Neg(inner) => *inner,
                s => Expr::Neg(Box::new(s)),
            },
            Expr::Add(a, b) => match (a.simplify(), b.simplify()) {
                (Expr::Const(x), Expr::Const(y)) => Expr::Const(x + y),
                (Expr::Const(c), s) if c == 0.0 => s,
                (s, Expr::Const(c)) if c == 0.0 => s,
                (x, y) => Expr::Add(Box::new(x), Box::new(y)),
            },
            Expr::Sub(a, b) => match (a.simplify(), b.simplify()) {
                (Expr::Const(x), Expr::Const(y)) => Expr::Const(x - y),
                (s, Expr::Const(c)) if c == 0.0 => s,
                (Expr::Const(c), s) if c == 0.0 => Expr::Neg(Box::new(s)).simplify(),
                (x, y) => Expr::Sub(Box::new(x), Box::new(y)),
            },
            Expr::Mul(a, b) => match (a.simplify(), b.simplify()) {
                (Expr::Const(x), Expr::Const(y)) => Expr::Const(x * y),
                (Expr::Const(c), _) | (_, Expr::Const(c)) if c == 0.0 => Expr::Const(0.0),
                (Expr::Const(c), s) if c == 1.0 => s,
                (s, Expr::Const(c)) if c == 1.0 => s,
                (Expr::Const(c), s) if c == -1.0 => Expr::Neg(Box::new(s)),
                (s, Expr::Const(c)) if c == -1.0 => Expr::Neg(Box::new(s)),
                (x, y) => Expr::Mul(Box::new(x), Box::new(y)),
            },
            Expr::Div(a, b) => match (a.simplify(), b.simplify()) {
                (Expr::Const(x), Expr::Const(y)) => Expr::Const(x / y),
                (s, Expr::Const(c)) if c == 1.0 => s,
                (x, y) => Expr::Div(Box::new(x), Box::new(y)),
            },
        }
    }

    /// Number of nodes in the tree (used by tests and compile-cost benches).
    pub fn size(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Read { .. } => 1,
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                1 + a.size() + b.size()
            }
            Expr::Neg(a) => 1 + a.size(),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Read { grid, map } => {
                if map.is_translation() {
                    write!(f, "{grid}{:?}", map.offset)
                } else {
                    write!(f, "{grid}[{:?}*p+{:?}]", map.scale, map.offset)
                }
            }
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Div(a, b) => write!(f, "({a} / {b})"),
            Expr::Neg(a) => write!(f, "(-{a})"),
        }
    }
}

/// Conversion into [`Expr`]; the glue that lets weight-array literals mix
/// numbers, components and expressions, as the paper's Python embedding
/// does.
pub trait IntoExpr {
    /// Convert into an expression.
    fn into_expr(self) -> Expr;
}

impl IntoExpr for Expr {
    fn into_expr(self) -> Expr {
        self
    }
}
impl IntoExpr for f64 {
    fn into_expr(self) -> Expr {
        Expr::Const(self)
    }
}
impl IntoExpr for i32 {
    fn into_expr(self) -> Expr {
        Expr::Const(self as f64)
    }
}
impl IntoExpr for Component {
    fn into_expr(self) -> Expr {
        self.expand()
    }
}
impl IntoExpr for &Component {
    fn into_expr(self) -> Expr {
        self.clone().expand()
    }
}
impl IntoExpr for &Expr {
    fn into_expr(self) -> Expr {
        self.clone()
    }
}

macro_rules! binop {
    ($trait:ident, $method:ident, $variant:ident) => {
        impl $trait for Expr {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::$variant(Box::new(self), Box::new(rhs))
            }
        }
        impl $trait<f64> for Expr {
            type Output = Expr;
            fn $method(self, rhs: f64) -> Expr {
                Expr::$variant(Box::new(self), Box::new(Expr::Const(rhs)))
            }
        }
        impl $trait<Expr> for f64 {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::$variant(Box::new(Expr::Const(self)), Box::new(rhs))
            }
        }
        impl $trait<Component> for Expr {
            type Output = Expr;
            fn $method(self, rhs: Component) -> Expr {
                Expr::$variant(Box::new(self), Box::new(rhs.into_expr()))
            }
        }
        impl $trait<Expr> for Component {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::$variant(Box::new(self.into_expr()), Box::new(rhs))
            }
        }
        impl $trait for Component {
            type Output = Expr;
            fn $method(self, rhs: Component) -> Expr {
                Expr::$variant(Box::new(self.into_expr()), Box::new(rhs.into_expr()))
            }
        }
        impl $trait<f64> for Component {
            type Output = Expr;
            fn $method(self, rhs: f64) -> Expr {
                Expr::$variant(Box::new(self.into_expr()), Box::new(Expr::Const(rhs)))
            }
        }
        impl $trait<Component> for f64 {
            type Output = Expr;
            fn $method(self, rhs: Component) -> Expr {
                Expr::$variant(Box::new(Expr::Const(self)), Box::new(rhs.into_expr()))
            }
        }
    };
}

binop!(Add, add, Add);
binop!(Sub, sub, Sub);
binop!(Mul, mul, Mul);
binop!(Div, div, Div);

impl Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Neg(Box::new(self))
    }
}

impl Neg for Component {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Neg(Box::new(self.into_expr()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_map_apply() {
        let m = AffineMap::scaled(vec![2, 1], vec![1, -1]);
        assert_eq!(m.apply(&[3, 5]), vec![7, 4]);
        assert!(!m.is_translation());
        let t = AffineMap::translate(vec![0, 0]);
        assert!(t.is_identity());
    }

    #[test]
    fn reads_and_grids_collected_in_order() {
        let e = Expr::read_at("a", &[1]) + Expr::read_at("b", &[0]) * Expr::read_at("a", &[-1]);
        let reads = e.reads();
        assert_eq!(reads.len(), 3);
        assert_eq!(e.grids(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn eval_matches_hand_computation() {
        // 2*a[p+1] - b[p] evaluated where a[x]=x, b[x]=10x.
        let e = 2.0 * Expr::read_at("a", &[1]) - Expr::read_at("b", &[0]);
        let v = e.eval(&[3], &mut |g, idx| match g {
            "a" => idx[0] as f64,
            _ => 10.0 * idx[0] as f64,
        });
        assert_eq!(v, 2.0 * 4.0 - 30.0);
    }

    #[test]
    fn eval_scaled_read() {
        // restriction-style read: fine[2p] + fine[2p+1]
        let e = Expr::read_mapped("f", AffineMap::scaled(vec![2], vec![0]))
            + Expr::read_mapped("f", AffineMap::scaled(vec![2], vec![1]));
        let v = e.eval(&[3], &mut |_, idx| idx[0] as f64);
        assert_eq!(v, 6.0 + 7.0);
    }

    #[test]
    fn simplify_folds_constants_and_identities() {
        let r = Expr::read_at("a", &[0]);
        assert_eq!(
            (Expr::Const(2.0) + Expr::Const(3.0)).simplify(),
            Expr::Const(5.0)
        );
        assert_eq!((r.clone() * 1.0).simplify(), r);
        assert_eq!((r.clone() * 0.0).simplify(), Expr::Const(0.0));
        assert_eq!((r.clone() + 0.0).simplify(), r);
        assert_eq!((0.0 - r.clone()).simplify(), Expr::Neg(Box::new(r.clone())));
        assert_eq!((-(-r.clone())).simplify(), r);
        assert_eq!((r.clone() / 1.0).simplify(), r);
    }

    #[test]
    fn simplify_preserves_value_on_sample() {
        let e = (Expr::read_at("a", &[1]) * 1.0 + 0.0) * (Expr::Const(2.0) + Expr::Const(1.0));
        let s = e.simplify();
        let mut f = |_: &str, idx: &[i64]| idx[0] as f64 + 0.5;
        for p in -3i64..3 {
            assert_eq!(e.eval(&[p], &mut f), s.eval(&[p], &mut f));
        }
        assert!(s.size() < e.size());
    }

    #[test]
    fn consistent_ndim_detects_mismatch() {
        let good = Expr::read_at("a", &[0, 0]) + Expr::read_at("b", &[1, 1]);
        assert_eq!(good.consistent_ndim(), Ok(Some(2)));
        let bad = Expr::read_at("a", &[0, 0]) + Expr::read_at("b", &[1]);
        assert!(bad.consistent_ndim().is_err());
        assert_eq!(Expr::Const(3.0).consistent_ndim(), Ok(None));
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::read_at("x", &[1]) + Expr::Const(2.0);
        assert_eq!(format!("{e}"), "(x[1] + 2)");
    }

    #[test]
    fn operator_mixing_with_scalars() {
        let e = 1.0 + Expr::read_at("x", &[0]) * 3.0 - 0.5;
        let v = e.eval(&[0], &mut |_, _| 2.0);
        assert_eq!(v, 1.0 + 6.0 - 0.5);
    }
}
