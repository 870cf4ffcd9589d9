//! The multigrid cycle as data.
//!
//! A V-cycle and the solve loop are written once, here, as sequences of
//! [`Step`]s. Each solver supplies one step executor (a `match` on
//! `Step`) and its finest-level residual norm; the hand baseline, the
//! Snowflake solver and `snowlint` therefore run and lint the same
//! operator order by construction.

use crate::{BOTTOM_SMOOTHS, SMOOTHS_PER_LEG};

/// One operation of a multigrid cycle, at a level (0 = finest).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// One GSRB smooth of `x_l`.
    Smooth(usize),
    /// `res_l = rhs_l − A x_l`.
    Residual(usize),
    /// `rhs_{l+1} = R res_l` and `x_{l+1} = 0`.
    Restrict(usize),
    /// `x_l += P x_{l+1}` (piecewise-constant interpolation).
    Prolong(usize),
    /// `x_l = 0`.
    ClearX(usize),
}

/// The steps of one V-cycle from level `l` down, on a hierarchy of
/// `levels` levels: at each level [`SMOOTHS_PER_LEG`] pre-smooths,
/// residual, restriction, the coarser levels, prolongation and
/// [`SMOOTHS_PER_LEG`] post-smooths; at the coarsest level
/// [`BOTTOM_SMOOTHS`] smooths.
pub fn vcycle(l: usize, levels: usize) -> Vec<Step> {
    if l + 1 == levels {
        return [Step::Smooth(l)].repeat(BOTTOM_SMOOTHS);
    }
    let mut steps = [Step::Smooth(l)].repeat(SMOOTHS_PER_LEG);
    steps.extend([Step::Residual(l), Step::Restrict(l)]);
    steps.extend(vcycle(l + 1, levels));
    steps.push(Step::Prolong(l));
    steps.extend([Step::Smooth(l)].repeat(SMOOTHS_PER_LEG));
    steps
}

/// A solver the shared cycles drive: one step executor plus the
/// finest-level residual norm the solve loop records.
pub(crate) trait Executor {
    /// Failure of a step (`Infallible` for the hand baseline).
    type Error;
    /// Level count of the hierarchy.
    fn hierarchy(&self) -> usize;
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
/// `cycles` V-cycles, recording the norm after each.
pub(crate) fn solve<E: Executor>(exec: &mut E, cycles: usize) -> Result<Vec<f64>, E::Error> {
    let levels = exec.hierarchy();
    exec.run(Step::ClearX(0))?;
    let mut norms = vec![exec.finest_residual_norm()?];
    for _ in 0..cycles {
        run(exec, vcycle(0, levels))?;
        norms.push(exec.finest_residual_norm()?);
    }
    Ok(norms)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEVELS: usize = 5;

    /// The level `step` acts on.
    fn level(step: Step) -> usize {
        match step {
            Step::Smooth(l)
            | Step::Residual(l)
            | Step::Restrict(l)
            | Step::Prolong(l)
            | Step::ClearX(l) => l,
        }
    }

    fn smooths_at(steps: &[Step], l: usize) -> usize {
        steps.iter().filter(|&&s| s == Step::Smooth(l)).count()
    }

    #[test]
    fn vcycle_visits_each_level_in_order() {
        let steps = vcycle(0, LEVELS);
        for l in 0..LEVELS - 1 {
            assert_eq!(smooths_at(&steps, l), 2 * SMOOTHS_PER_LEG, "level {l}");
            let pos = |s: Step| steps.iter().position(|&t| t == s).unwrap();
            let last_pos = |s: Step| steps.iter().rposition(|&t| t == s).unwrap();
            let first_coarser = steps.iter().position(|&s| level(s) > l).unwrap();
            let last_coarser = steps.iter().rposition(|&s| level(s) > l).unwrap();
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
            .filter(|&s| level(s) == LEVELS - 1)
            .collect();
        assert_eq!(bottom, [Step::Smooth(LEVELS - 1)].repeat(BOTTOM_SMOOTHS));
        let first = steps.iter().position(|&s| level(s) == LEVELS - 1).unwrap();
        assert_eq!(&steps[first..first + BOTTOM_SMOOTHS], &bottom[..]);
        // Every step is a smooth, residual, restriction or prolongation.
        assert_eq!(
            steps.len(),
            (LEVELS - 1) * (2 * SMOOTHS_PER_LEG + 3) + BOTTOM_SMOOTHS
        );
    }
}
