//! Whole-group lowering: the front half of the JIT micro-compiler.
//!
//! `lower_group` validates a [`StencilGroup`] against concrete shapes, runs
//! the Diophantine analysis (parallel-safety per stencil, the paper's
//! greedy barrier phases across stencils) and lowers every stencil to a
//! [`LoweredKernel`]: its constant-folded expression becomes a register
//! tape ([`SpecTape`]) whose reads are addressed as *cursor class +
//! constant delta*. All reads sharing a
//! `(grid, scale)` pair use one linear cursor that the executor advances
//! incrementally as the loop nest walks the region, so the inner loop does
//! no index arithmetic beyond `cursor + delta`. The result is the entire
//! platform-agnostic "contract" a backend needs — the narrow interface the
//! paper credits for making new backends easy to add.

use std::collections::HashMap;

use snowflake_core::{AffineMap, CoreError, Expr, ShapeMap, StencilGroup};
use snowflake_grid::grid::row_major_strides;
use snowflake_grid::Region;

use snowflake_analysis::{greedy_phases, is_parallel_safe, ResolvedStencil};

use crate::kernel::{AccessClass, LoweredKernel};
use crate::spec::{SpecForm, SpecTape, TapeInstr, TapeOp};

/// Lowering has no options: every group lowers to the paper's greedy
/// barrier schedule with every stencil kept. The struct and
/// [`lower_group`]'s third parameter remain so existing callers that pass
/// `&LowerOptions::default()` keep compiling.
#[derive(Clone, Debug, Default)]
pub struct LowerOptions {}

/// A fully lowered stencil group.
#[derive(Clone, Debug)]
pub struct Lowered {
    /// Dense grid-name table; kernels address grids by index into this.
    pub grid_names: Vec<String>,
    /// The shapes the group was lowered against (executables verify the
    /// runtime `GridSet` matches).
    pub grid_shapes: Vec<Vec<usize>>,
    /// Lowered kernels in program order, one per stencil.
    pub kernels: Vec<LoweredKernel>,
    /// Barrier phases over `kernels` (indices into `kernels`).
    pub phases: Vec<Vec<usize>>,
}

impl Lowered {
    /// Total iteration points per full execution of the group.
    pub fn num_points(&self) -> u64 {
        self.kernels.iter().map(|k| k.num_points()).sum()
    }
}

/// Lower a stencil group against concrete shapes.
pub fn lower_group(
    group: &StencilGroup,
    shapes: &ShapeMap,
    _opts: &LowerOptions,
) -> Result<Lowered, CoreError> {
    // Dense grid table in first-appearance order.
    let grid_names = group.grids();
    let grid_shapes: Vec<Vec<usize>> = grid_names
        .iter()
        .map(|g| {
            shapes
                .get(g)
                .cloned()
                .ok_or_else(|| CoreError::UnknownGrid {
                    stencil: String::new(),
                    grid: g.clone(),
                })
        })
        .collect::<Result<_, _>>()?;

    // Resolve + validate every stencil.
    let mut resolved: Vec<ResolvedStencil> = Vec::with_capacity(group.len());
    for s in group.stencils() {
        resolved.push(ResolvedStencil::resolve(s, shapes)?);
    }

    // Barrier phases: the paper's greedy program-order grouping.
    let schedule = greedy_phases(&resolved);

    // Lower each kernel.
    let mut kernels = Vec::with_capacity(resolved.len());
    for rs in &resolved {
        let mut table = ClassTable::new(rs.stencil.name(), &grid_names, &grid_shapes);
        let expr = rs.stencil.expr().simplify();
        let tape = lower_tape(&expr, &mut table)?;
        let (out_grid_name, out_map) = rs.write();
        let (out_class, out_delta) = table.intern(&out_grid_name, &out_map)?;
        table.check_cursors(&rs.regions)?;
        let classes = table.finish();
        let out_grid = classes[out_class as usize].grid;
        let parallel_safe = is_parallel_safe(rs);
        kernels.push(LoweredKernel {
            name: rs.stencil.name().to_string(),
            ndim: rs.stencil.ndim(),
            classes,
            out_class,
            out_delta,
            form: SpecForm::Tape(tape),
            regions: rs.regions.clone(),
            parallel_safe,
            out_grid,
        });
    }

    Ok(Lowered {
        grid_names,
        grid_shapes,
        kernels,
        phases: schedule.phases,
    })
}

/// Accumulates cursor classes while lowering one stencil.
struct ClassTable<'a> {
    stencil: &'a str,
    grid_names: &'a [String],
    grid_shapes: &'a [Vec<usize>],
    classes: Vec<AccessClass>,
    lookup: HashMap<(usize, Vec<i64>), u32>,
    /// Largest `|delta|` interned so far.
    max_delta: u128,
}

impl<'a> ClassTable<'a> {
    /// An empty table for stencil `stencil` over the dense grid table and
    /// the grids' shapes.
    fn new(stencil: &'a str, grid_names: &'a [String], grid_shapes: &'a [Vec<usize>]) -> Self {
        ClassTable {
            stencil,
            grid_names,
            grid_shapes,
            classes: Vec::new(),
            lookup: HashMap::new(),
            max_delta: 0,
        }
    }

    /// The refusal of an access to grid `gi` whose flat address arithmetic
    /// does not fit `isize`.
    fn overflow(&self, gi: usize, detail: String) -> CoreError {
        CoreError::AddressOverflow {
            stencil: self.stencil.to_string(),
            grid: self.grid_names[gi].clone(),
            detail,
        }
    }

    /// Refuse the stencil unless the executors' cursor arithmetic fits
    /// `isize` over every region: they compute `scale·p·stride` per
    /// dimension, sum the terms, add a delta and step the cursor by
    /// `scale·region_stride·stride`. The bound sums the magnitudes of every
    /// such term (in `i128`), so no partial result can overflow either.
    fn check_cursors(&self, regions: &[Region]) -> Result<(), CoreError> {
        for class in &self.classes {
            for r in regions.iter().filter(|r| !r.is_empty()) {
                let mut bound = Some(self.max_delta);
                for (d, (&s, &stride)) in class.scale.iter().zip(&class.strides).enumerate() {
                    let last = i128::from(r.lo[d])
                        + (i128::from(r.extent(d)) - 1) * i128::from(r.stride[d]);
                    let s = i128::from(s);
                    let reach = (s * i128::from(r.lo[d])).unsigned_abs()
                        + (s * last).unsigned_abs()
                        + (s * i128::from(r.stride[d])).unsigned_abs();
                    bound = bound.and_then(|b| {
                        reach
                            .checked_mul(stride.max(1) as u128)
                            .and_then(|t| t.checked_add(b))
                    });
                }
                if bound.is_none_or(|b| b > isize::MAX as u128) {
                    return Err(self.overflow(
                        class.grid,
                        format!(
                            "cursor of scale {:?} over region {:?}..{:?} leaves isize",
                            class.scale, r.lo, r.hi
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Intern the `(grid, scale)` class of an access; returns
    /// `(class id, delta)` for the access's map.
    fn intern(&mut self, grid: &str, map: &AffineMap) -> Result<(u32, isize), CoreError> {
        let gi = self
            .grid_names
            .iter()
            .position(|n| n == grid)
            .ok_or_else(|| CoreError::UnknownGrid {
                stencil: String::new(),
                grid: grid.to_string(),
            })?;
        let strides = row_major_strides(&self.grid_shapes[gi]);
        let key = (gi, map.scale.clone());
        let class = *self.lookup.entry(key).or_insert_with(|| {
            // A group lowers to a handful of access classes; u32 cannot
            // overflow before memory does.
            #[allow(clippy::cast_possible_truncation)]
            let id = self.classes.len() as u32;
            self.classes.push(AccessClass {
                grid: gi,
                scale: map.scale.clone(),
                strides: strides.clone(),
            });
            id
        });
        // A validated access may still have an offset of any size: compute
        // the flat delta exactly and refuse it when it leaves isize.
        let delta = (0..map.ndim())
            .try_fold(0i128, |acc, d| {
                i128::from(map.offset[d])
                    .checked_mul(strides[d] as i128)
                    .and_then(|t| acc.checked_add(t))
            })
            .and_then(|delta| isize::try_from(delta).ok())
            .ok_or_else(|| {
                self.overflow(gi, format!("flat offset of {:?} leaves isize", map.offset))
            })?;
        self.max_delta = self.max_delta.max(delta.unsigned_abs() as u128);
        Ok((class, delta))
    }

    /// Finish, returning the interned classes.
    fn finish(self) -> Vec<AccessClass> {
        self.classes
    }
}

/// A register of a tape under construction: its block and its index in
/// that block. Blocks are numbered once the tree has been walked.
#[derive(Clone, Copy)]
enum Reg {
    Read(u32),
    Const(u32),
    Instr(u32),
}

/// Walks a source tree left to right, interning reads and constants in
/// first-use order and emitting one instruction per arithmetic node in
/// postfix order.
struct TapeBuilder<'t, 'a> {
    table: &'t mut ClassTable<'a>,
    tape: SpecTape,
    reads: HashMap<(u32, isize), u32>,
    consts: HashMap<u64, u32>,
    instrs: Vec<(TapeOp, Reg, Reg)>,
}

// Register ids count a kernel's reads, constants and operations; u32
// cannot truncate before the expression exhausts memory.
#[allow(clippy::cast_possible_truncation)]
impl TapeBuilder<'_, '_> {
    fn node(&mut self, expr: &Expr) -> Result<Reg, CoreError> {
        let (op, a, b) = match expr {
            Expr::Const(c) => {
                let tape = &mut self.tape;
                let k = *self.consts.entry(c.to_bits()).or_insert_with(|| {
                    tape.consts.push(*c);
                    tape.consts.len() as u32 - 1
                });
                return Ok(Reg::Const(k));
            }
            Expr::Read { grid, map } => {
                let (class, delta) = self.table.intern(grid, map)?;
                let tape = &mut self.tape;
                let r = *self.reads.entry((class, delta)).or_insert_with(|| {
                    tape.read_classes.push(class);
                    tape.read_deltas.push(delta);
                    tape.read_classes.len() as u32 - 1
                });
                return Ok(Reg::Read(r));
            }
            Expr::Add(a, b) => (TapeOp::Add, self.node(a)?, self.node(b)?),
            Expr::Sub(a, b) => (TapeOp::Sub, self.node(a)?, self.node(b)?),
            Expr::Mul(a, b) => (TapeOp::Mul, self.node(a)?, self.node(b)?),
            Expr::Div(a, b) => (TapeOp::Div, self.node(a)?, self.node(b)?),
            Expr::Neg(a) => {
                let a = self.node(a)?;
                (TapeOp::Neg, a, a)
            }
        };
        self.instrs.push((op, a, b));
        Ok(Reg::Instr(self.instrs.len() as u32 - 1))
    }
}

/// Lower a (pre-simplified) expression to its tape, interning the class of
/// every read in `table`.
// As in `TapeBuilder`: register ids fit u32.
#[allow(clippy::cast_possible_truncation)]
fn lower_tape(expr: &Expr, table: &mut ClassTable<'_>) -> Result<SpecTape, CoreError> {
    let mut builder = TapeBuilder {
        table,
        tape: SpecTape::default(),
        reads: HashMap::new(),
        consts: HashMap::new(),
        instrs: Vec::new(),
    };
    let out = builder.node(expr)?;
    let mut tape = builder.tape;
    let const_base = tape.num_reads() as u32;
    let instr_base = const_base + tape.consts.len() as u32;
    let reg = |r: Reg| match r {
        Reg::Read(i) => i,
        Reg::Const(k) => const_base + k,
        Reg::Instr(i) => instr_base + i,
    };
    tape.instrs = builder
        .instrs
        .into_iter()
        .map(|(op, a, b)| TapeInstr {
            op,
            a: reg(a),
            b: reg(b),
        })
        .collect();
    tape.out = reg(out);
    Ok(tape)
}

/// The tape and classes of `expr` over two 4×8 grids, `x` and `y`.
#[cfg(test)]
pub(crate) fn test_tape(expr: &Expr) -> (SpecTape, Vec<AccessClass>) {
    let names = ["x".to_string(), "y".to_string()];
    let shapes = [vec![4, 8], vec![4, 8]];
    let mut table = ClassTable::new("test", &names, &shapes);
    let tape = lower_tape(expr, &mut table).unwrap();
    (tape, table.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_core::{weights2, Component, DomainUnion, RectDomain, Stencil};

    fn shapes(n: usize) -> ShapeMap {
        let mut m = ShapeMap::new();
        for g in ["x", "y", "z", "rhs"] {
            m.insert(g.to_string(), vec![n, n]);
        }
        m
    }

    fn lap(grid: &str) -> Expr {
        Component::new(grid, weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]).expand()
    }

    #[test]
    fn lower_single_stencil() {
        let g = StencilGroup::from(Stencil::new(lap("x"), "y", RectDomain::interior(2)));
        let low = lower_group(&g, &shapes(8), &LowerOptions::default()).unwrap();
        assert_eq!(low.grid_names, vec!["x".to_string(), "y".to_string()]);
        assert_eq!(low.kernels.len(), 1);
        let k = &low.kernels[0];
        assert!(k.parallel_safe);
        assert_eq!(k.num_points(), 36);
        assert_eq!(low.phases, vec![vec![0]]);
        // Output class: grid y, identity scale, delta 0.
        assert_eq!(k.classes[k.out_class as usize].grid, 1);
        assert_eq!(k.out_delta, 0);
    }

    #[test]
    fn lexicographic_in_place_flagged_unsafe() {
        let g = StencilGroup::from(Stencil::new(lap("x"), "x", RectDomain::interior(2)));
        let low = lower_group(&g, &shapes(8), &LowerOptions::default()).unwrap();
        assert!(!low.kernels[0].parallel_safe);
    }

    #[test]
    fn red_black_kernels_safe_with_barrier() {
        let (red, black) = DomainUnion::red_black(2);
        let g = StencilGroup::new()
            .with(Stencil::new(lap("x"), "x", red))
            .with(Stencil::new(lap("x"), "x", black));
        let low = lower_group(&g, &shapes(10), &LowerOptions::default()).unwrap();
        assert!(low.kernels[0].parallel_safe);
        assert!(low.kernels[1].parallel_safe);
        assert_eq!(low.phases.len(), 2, "colors need a barrier between them");
        // Together the two colors cover the full interior.
        assert_eq!(low.num_points(), 64);
    }

    #[test]
    fn validation_failure_propagates() {
        let g = StencilGroup::from(Stencil::new(
            Expr::read_at("missing", &[0, 0]),
            "y",
            RectDomain::interior(2),
        ));
        assert!(lower_group(&g, &shapes(8), &LowerOptions::default()).is_err());
    }

    #[test]
    fn shapes_recorded_for_runtime_verification() {
        let g = StencilGroup::from(Stencil::new(lap("x"), "y", RectDomain::interior(2)));
        let low = lower_group(&g, &shapes(8), &LowerOptions::default()).unwrap();
        assert_eq!(low.grid_shapes, vec![vec![8, 8], vec![8, 8]]);
    }

    #[test]
    fn shared_class_for_same_grid_and_scale() {
        let e = Expr::read_at("x", &[0, 1])
            + Expr::read_at("x", &[0, -1])
            + Expr::read_at("y", &[1, 0]);
        let (t, classes) = test_tape(&e);
        assert_eq!(classes.len(), 2, "x-translation and y-translation");
        // Deltas: row-major strides of [4,8] are [8,1].
        let reads: Vec<_> = t.read_classes.iter().copied().zip(t.read_deltas).collect();
        assert_eq!(reads, vec![(0, 1), (0, -1), (1, 8)]);
    }

    #[test]
    fn scaled_reads_get_distinct_class() {
        let e = Expr::read_at("x", &[0, 0])
            + Expr::read_mapped("x", AffineMap::scaled(vec![2, 2], vec![0, 1]));
        let (_, classes) = test_tape(&e);
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0].scale, vec![1, 1]);
        assert_eq!(classes[1].scale, vec![2, 2]);
    }

    #[test]
    fn tape_interns_reads_and_constants_in_first_use_order() {
        // (y[0,1] * x[0,0] + 2) * (x[0,0] - 2): two reads, one constant.
        let x = || Expr::read_at("x", &[0, 0]);
        let y = || Expr::read_at("y", &[0, 1]);
        let (t, _) = test_tape(&((y() * x() + 2.0) * (x() - 2.0)));
        assert_eq!(
            (&t.read_classes[..], &t.read_deltas[..]),
            (&[0, 1][..], &[1, 0][..])
        );
        assert_eq!(t.consts, vec![2.0]);
        // Registers: y=0, x=1, 2.0=2, then one per instruction from 3.
        let ins = |op, a, b| TapeInstr { op, a, b };
        assert_eq!(
            t.instrs,
            vec![
                ins(TapeOp::Mul, 0, 1),
                ins(TapeOp::Add, 3, 2),
                ins(TapeOp::Sub, 1, 2),
                ins(TapeOp::Mul, 4, 5),
            ]
        );
        assert_eq!(t.out, 6);
        assert_eq!(t.num_regs(), 7);
    }
}
