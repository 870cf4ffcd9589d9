//! Group-level scheduling: dependence DAGs and greedy barrier grouping
//! (§IV-A of the paper).
//!
//! The paper's OpenMP backend forms stencil groups *greedily*: it keeps
//! appending stencils to the current phase and places a barrier only when
//! the next stencil depends on one already in the phase. Stencils within a
//! phase are mutually independent and may be farmed out as tasks.

use crate::deps::{depends, DepKind, ResolvedStencil};

/// A barrier-phase schedule over a stencil group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Phases in execution order; each phase lists stencil indices that may
    /// run concurrently. Barriers sit between consecutive phases.
    pub phases: Vec<Vec<usize>>,
}

impl Schedule {
    /// Total number of barriers (phase count minus one).
    pub fn num_barriers(&self) -> usize {
        self.phases.len().saturating_sub(1)
    }

    /// Flatten back to serial order (for validation).
    pub fn flat(&self) -> Vec<usize> {
        self.phases.iter().flatten().copied().collect()
    }
}

/// Must `b` run after `a`? True for every hazard, and for a pair whose
/// ranks mismatch (unproven independence orders conservatively).
fn ordered(a: &ResolvedStencil, b: &ResolvedStencil) -> bool {
    depends(a, b) != Ok(None)
}

/// The full dependence DAG: `edges[j]` lists the earlier stencils `i < j`
/// that stencil `j` depends on, with the hazard kind. A pair whose ranks
/// mismatch gets a conservative read-after-write edge.
pub fn dependence_dag(stencils: &[ResolvedStencil]) -> Vec<Vec<(usize, DepKind)>> {
    let n = stencils.len();
    let mut edges = vec![Vec::new(); n];
    for j in 0..n {
        for i in 0..j {
            match depends(&stencils[i], &stencils[j]) {
                Ok(None) => {}
                Ok(Some(h)) => edges[j].push((i, h.kind)),
                Err(_) => edges[j].push((i, DepKind::ReadAfterWrite)),
            }
        }
    }
    edges
}

/// The paper's greedy barrier grouping: scan stencils in program order,
/// starting a new phase (placing a barrier) only when the next stencil
/// depends on a member of the current phase.
///
/// The program order is preserved inside and across phases, so the schedule is
/// always legal: any dependence on an earlier phase is protected by the
/// barrier between them, and dependences *within* a phase never exist by
/// construction.
pub fn greedy_phases(stencils: &[ResolvedStencil]) -> Schedule {
    let mut phases: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = Vec::new();
    for (j, sj) in stencils.iter().enumerate() {
        if current.iter().any(|&i| ordered(&stencils[i], sj)) {
            phases.push(std::mem::take(&mut current));
        }
        current.push(j);
    }
    if !current.is_empty() {
        phases.push(current);
    }
    Schedule { phases }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_core::{weights2, Component, DomainUnion, Expr, RectDomain, ShapeMap, Stencil};

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

    // By-value keeps the many test call sites terse.
    #[allow(clippy::needless_pass_by_value)]
    fn rs(s: Stencil) -> ResolvedStencil {
        ResolvedStencil::resolve(&s, &shapes(16)).unwrap()
    }

    fn face(dom: RectDomain, off: [i64; 2]) -> Stencil {
        Stencil::new(Expr::Neg(Box::new(Expr::read_at("x", &off))), "x", dom)
    }

    fn four_faces() -> Vec<Stencil> {
        vec![
            face(RectDomain::new(&[0, 1], &[0, -1], &[0, 1]), [1, 0]),
            face(RectDomain::new(&[-1, 1], &[-1, -1], &[0, 1]), [-1, 0]),
            face(RectDomain::new(&[1, 0], &[-1, 0], &[1, 0]), [0, 1]),
            face(RectDomain::new(&[1, -1], &[-1, -1], &[1, 0]), [0, -1]),
        ]
    }

    #[test]
    fn greedy_fuses_independent_faces_into_one_phase() {
        let stencils: Vec<_> = four_faces().into_iter().map(rs).collect();
        let sched = greedy_phases(&stencils);
        assert_eq!(sched.phases.len(), 1, "{:?}", sched);
        assert_eq!(sched.num_barriers(), 0);
        assert_eq!(sched.flat(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn gsrb_sweep_gets_barriers_between_color_passes() {
        // boundary faces, red, boundary faces, black — the paper's GSRB
        // sweep. Red depends on the faces (reads ghosts), faces depend on
        // red (re-fill after update), black depends on faces.
        let (red, black) = DomainUnion::red_black(2);
        let mut group: Vec<Stencil> = four_faces();
        group.push(Stencil::new(lap("x"), "x", red));
        group.extend(four_faces());
        group.push(Stencil::new(lap("x"), "x", black));
        let stencils: Vec<_> = group.into_iter().map(rs).collect();
        let sched = greedy_phases(&stencils);
        // Expect: [faces], [red], [faces], [black] = 4 phases.
        assert_eq!(sched.phases.len(), 4, "{:?}", sched);
        assert_eq!(sched.phases[0], vec![0, 1, 2, 3]);
        assert_eq!(sched.phases[1], vec![4]);
        assert_eq!(sched.phases[2], vec![5, 6, 7, 8]);
        assert_eq!(sched.phases[3], vec![9]);
    }

    #[test]
    fn dag_records_hazard_kinds() {
        let a = Stencil::new(lap("x"), "y", RectDomain::interior(2));
        let b = Stencil::new(lap("y"), "z", RectDomain::interior(2));
        let c = Stencil::new(lap("x"), "y", RectDomain::interior(2));
        let stencils = vec![rs(a), rs(b), rs(c)];
        let dag = dependence_dag(&stencils);
        assert!(dag[0].is_empty());
        assert_eq!(dag[1], vec![(0, DepKind::ReadAfterWrite)]);
        // c writes y again (WAW with a) and y is read by b (WAR).
        assert!(dag[2].contains(&(0, DepKind::WriteAfterWrite)));
        assert!(dag[2].contains(&(1, DepKind::WriteAfterRead)));
    }

    #[test]
    fn independent_chain_is_single_phase() {
        let a = Stencil::new(lap("x"), "y", RectDomain::interior(2));
        let b = Stencil::new(lap("x"), "z", RectDomain::interior(2));
        let sched = greedy_phases(&[rs(a), rs(b)]);
        assert_eq!(sched.phases, vec![vec![0, 1]]);
    }

    #[test]
    fn dependent_chain_is_fully_serialized() {
        let a = Stencil::new(lap("x"), "y", RectDomain::interior(2));
        let b = Stencil::new(lap("y"), "x", RectDomain::interior(2));
        let c = Stencil::new(lap("x"), "y", RectDomain::interior(2));
        let sched = greedy_phases(&[rs(a), rs(b), rs(c)]);
        assert_eq!(sched.phases.len(), 3);
    }
}
