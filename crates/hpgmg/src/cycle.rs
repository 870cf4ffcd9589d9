//! The multigrid cycle as data.
//!
//! A V-cycle, an F-cycle and the solve loop are written once, here, as
//! sequences of [`Step`]s. Each solver supplies one step executor (a
//! `match` on `Step`) and its finest-level residual norm; the hand
//! baseline, the Snowflake solver and `snowlint` therefore run and lint
//! the same operator order by construction.

use crate::{BottomSolve, SolveOptions, BOTTOM_SMOOTHS, SMOOTHS_PER_LEG};

/// One operation of a multigrid cycle, at a level (0 = finest).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// One application of the configured smoother to `x_l`.
    Smooth(usize),
    /// `res_l = rhs_l − A x_l`.
    Residual(usize),
    /// `rhs_{l+1} = R res_l` and `x_{l+1} = 0`.
    Restrict(usize),
    /// `rhs_{l+1} = R rhs_l` (the F-cycle's right-hand-side hierarchy).
    RestrictRhs(usize),
    /// `x_l += P x_{l+1}` with the configured prolongation.
    Prolong(usize),
    /// `x_l = 0`.
    ClearX(usize),
    /// BiCGStab solve of `A x_l = rhs_l` (the Krylov bottom solve).
    Krylov(usize),
}

impl Step {
    /// The level this step acts on.
    pub(crate) fn level(self) -> usize {
        match self {
            Step::Smooth(l)
            | Step::Residual(l)
            | Step::Restrict(l)
            | Step::RestrictRhs(l)
            | Step::Prolong(l)
            | Step::ClearX(l)
            | Step::Krylov(l) => l,
        }
    }
}

/// The steps of one V-cycle from level `l` down, on a hierarchy of
/// `levels` levels bottoming out with `bottom`: at each level
/// [`SMOOTHS_PER_LEG`] pre-smooths, residual, restriction, the coarser
/// levels, prolongation and [`SMOOTHS_PER_LEG`] post-smooths; at the
/// coarsest level [`BOTTOM_SMOOTHS`] smooths or one Krylov solve.
pub fn vcycle(l: usize, levels: usize, bottom: BottomSolve) -> Vec<Step> {
    let mut steps = Vec::new();
    push_vcycle(&mut steps, l, levels, bottom);
    steps
}

/// The steps of one full-multigrid F-cycle (HPGMG's default cycle type):
/// restrict the right-hand side to every level, clear every `x`, solve the
/// coarsest level, then prolong each solution up as the initial guess for
/// a V-cycle at the next finer level.
pub fn fcycle(levels: usize, bottom: BottomSolve) -> Vec<Step> {
    let last = levels - 1;
    let mut steps: Vec<Step> = (0..last).map(Step::RestrictRhs).collect();
    steps.extend((0..levels).map(Step::ClearX));
    push_bottom(&mut steps, last, bottom);
    for l in (0..last).rev() {
        // x_l is zero, so "+=" realizes x_l = P(x_{l+1}).
        steps.push(Step::Prolong(l));
        push_vcycle(&mut steps, l, levels, bottom);
    }
    steps
}

fn push_bottom(steps: &mut Vec<Step>, l: usize, bottom: BottomSolve) {
    match bottom {
        BottomSolve::Smooths => steps.extend([Step::Smooth(l)].repeat(BOTTOM_SMOOTHS)),
        BottomSolve::BiCgStab => steps.push(Step::Krylov(l)),
    }
}

fn push_vcycle(steps: &mut Vec<Step>, l: usize, levels: usize, bottom: BottomSolve) {
    if l + 1 == levels {
        return push_bottom(steps, l, bottom);
    }
    steps.extend([Step::Smooth(l)].repeat(SMOOTHS_PER_LEG));
    steps.extend([Step::Residual(l), Step::Restrict(l)]);
    push_vcycle(steps, l + 1, levels, bottom);
    steps.push(Step::Prolong(l));
    steps.extend([Step::Smooth(l)].repeat(SMOOTHS_PER_LEG));
}

/// A solver the shared cycles drive: one step executor plus the
/// finest-level residual norm the solve loop records.
pub(crate) trait Executor {
    /// Failure of a step (`Infallible` for the hand baseline).
    type Error;
    /// Level count and configured coarse-grid solver of the hierarchy.
    fn hierarchy(&self) -> (usize, BottomSolve);
    /// Execute one step.
    fn run(&mut self, step: Step) -> Result<(), Self::Error>;
    /// Compute the finest residual and return its interior max-norm.
    fn finest_residual_norm(&mut self) -> Result<f64, Self::Error>;
}

/// Execute `steps` in order, stopping at the first failure.
pub(crate) fn run<E: Executor>(exec: &mut E, steps: Vec<Step>) -> Result<(), E::Error> {
    steps.into_iter().try_for_each(|step| exec.run(step))
}

/// The solve loop: zero `x_0`, record the initial residual norm, then run
/// up to `opts.cycles` cycles (an F-cycle first when `opts.fmg`),
/// recording the norm after each and stopping early at `opts.rtol`.
pub(crate) fn solve<E: Executor>(exec: &mut E, opts: SolveOptions) -> Result<Vec<f64>, E::Error> {
    let (levels, bottom) = exec.hierarchy();
    exec.run(Step::ClearX(0))?;
    let mut norms = vec![exec.finest_residual_norm()?];
    for c in 0..opts.cycles {
        let steps = if opts.fmg && c == 0 {
            fcycle(levels, bottom)
        } else {
            vcycle(0, levels, bottom)
        };
        run(exec, steps)?;
        norms.push(exec.finest_residual_norm()?);
        if opts.converged(&norms) {
            break;
        }
    }
    Ok(norms)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEVELS: usize = 5;

    fn smooths_at(steps: &[Step], l: usize) -> usize {
        steps.iter().filter(|&&s| s == Step::Smooth(l)).count()
    }

    #[test]
    fn vcycle_visits_each_level_in_order() {
        let steps = vcycle(0, LEVELS, BottomSolve::Smooths);
        for l in 0..LEVELS - 1 {
            assert_eq!(smooths_at(&steps, l), 2 * SMOOTHS_PER_LEG, "level {l}");
            let pos = |s: Step| steps.iter().position(|&t| t == s).unwrap();
            let last_pos = |s: Step| steps.iter().rposition(|&t| t == s).unwrap();
            let first_coarser = steps.iter().position(|s| s.level() > l).unwrap();
            let last_coarser = steps.iter().rposition(|s| s.level() > l).unwrap();
            // Pre-smooths → residual → restrict → coarser levels.
            let pre = &steps[pos(Step::Smooth(l))..pos(Step::Residual(l))];
            assert_eq!(pre, [Step::Smooth(l)].repeat(SMOOTHS_PER_LEG), "level {l}");
            assert_eq!(pos(Step::Restrict(l)), pos(Step::Residual(l)) + 1);
            assert_eq!(first_coarser, pos(Step::Restrict(l)) + 1, "level {l}");
            // Coarser levels → prolong → post-smooths.
            assert_eq!(pos(Step::Prolong(l)), last_coarser + 1, "level {l}");
            let post = &steps[pos(Step::Prolong(l)) + 1..=last_pos(Step::Smooth(l))];
            assert_eq!(post, [Step::Smooth(l)].repeat(SMOOTHS_PER_LEG), "level {l}");
        }
        // The coarsest level is one contiguous run of bottom smooths.
        let bottom: Vec<Step> = steps
            .iter()
            .copied()
            .filter(|s| s.level() == LEVELS - 1)
            .collect();
        assert_eq!(bottom, [Step::Smooth(LEVELS - 1)].repeat(BOTTOM_SMOOTHS));
        let first = steps.iter().position(|s| s.level() == LEVELS - 1).unwrap();
        assert_eq!(&steps[first..first + BOTTOM_SMOOTHS], &bottom[..]);
        // Every step is a smooth, residual, restriction or prolongation.
        assert_eq!(
            steps.len(),
            (LEVELS - 1) * (2 * SMOOTHS_PER_LEG + 3) + BOTTOM_SMOOTHS
        );
    }

    #[test]
    fn bicgstab_bottom_is_one_krylov_step() {
        let steps = vcycle(0, LEVELS, BottomSolve::BiCgStab);
        let bottom: Vec<Step> = steps
            .iter()
            .copied()
            .filter(|s| s.level() == LEVELS - 1)
            .collect();
        assert_eq!(bottom, [Step::Krylov(LEVELS - 1)]);
        assert!(!steps.contains(&Step::Smooth(LEVELS - 1)));
        // A V-cycle from a coarser level starts at that level.
        assert_eq!(vcycle(3, LEVELS, BottomSolve::BiCgStab)[0], Step::Smooth(3));
        assert_eq!(
            vcycle(LEVELS - 1, LEVELS, BottomSolve::BiCgStab),
            [Step::Krylov(LEVELS - 1)]
        );
    }

    #[test]
    fn fcycle_restricts_every_rhs_before_clearing_any_x() {
        for bottom in [BottomSolve::Smooths, BottomSolve::BiCgStab] {
            let steps = fcycle(LEVELS, bottom);
            let restricts: Vec<usize> = (0..LEVELS - 1)
                .map(|l| {
                    steps
                        .iter()
                        .position(|&s| s == Step::RestrictRhs(l))
                        .unwrap()
                })
                .collect();
            let clears: Vec<usize> = (0..LEVELS)
                .map(|l| steps.iter().position(|&s| s == Step::ClearX(l)).unwrap())
                .collect();
            assert!(restricts.iter().max() < clears.iter().min(), "{steps:?}");
            // Fine to coarse, then bottom, then prolong + V-cycle per level
            // from coarse to fine.
            assert!(restricts.windows(2).all(|w| w[0] < w[1]));
            let mut expect: Vec<Step> = (0..LEVELS - 1).map(Step::RestrictRhs).collect();
            expect.extend((0..LEVELS).map(Step::ClearX));
            expect.extend(vcycle(LEVELS - 1, LEVELS, bottom));
            for l in (0..LEVELS - 1).rev() {
                expect.push(Step::Prolong(l));
                expect.extend(vcycle(l, LEVELS, bottom));
            }
            assert_eq!(steps, expect);
        }
    }
}
