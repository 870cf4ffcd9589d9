//! Group-level scheduling: dependence DAGs, greedy barrier grouping and
//! dead-stencil elimination (§IV-A of the paper).
//!
//! The paper's OpenMP backend forms stencil groups *greedily*: it keeps
//! appending stencils to the current phase and places a barrier only when
//! the next stencil depends on one already in the phase. Stencils within a
//! phase are mutually independent and may be farmed out as tasks.

use crate::deps::{depends, reads_after_write, DepKind, ResolvedStencil};

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

/// Dependence-preserving reordering (§VII "reordering optimizations"):
/// list-schedule the dependence DAG, emitting at each round every ready
/// stencil that is also independent of the stencils already placed in the
/// round. Compared to [`greedy_phases`] (which never reorders), this can
/// both widen phases and reduce barrier count when the program order
/// interleaves independent work with dependent work.
///
/// The schedule is legal by construction: an edge `i → j` forces `i` into
/// an earlier phase than `j`, and same-phase stencils are pairwise
/// independent.
pub fn reorder_minimize_barriers(stencils: &[ResolvedStencil]) -> Schedule {
    let n = stencils.len();
    let dag = dependence_dag(stencils);
    // predecessor counts
    let mut preds = vec![0usize; n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (j, edges) in dag.iter().enumerate() {
        preds[j] = edges.len();
        for &(i, _) in edges {
            succs[i].push(j);
        }
    }
    let mut scheduled = vec![false; n];
    let mut phases: Vec<Vec<usize>> = Vec::new();
    let mut remaining = n;
    while remaining > 0 {
        // Ready = all predecessors scheduled in earlier phases.
        let ready: Vec<usize> = (0..n).filter(|&j| !scheduled[j] && preds[j] == 0).collect();
        assert!(!ready.is_empty(), "dependence DAG must be acyclic");
        // Keep program order inside the phase; drop candidates that
        // conflict with an earlier member of this same phase.
        let mut phase: Vec<usize> = Vec::new();
        for j in ready {
            let independent = phase.iter().all(|&i| {
                !ordered(&stencils[i], &stencils[j]) && !ordered(&stencils[j], &stencils[i])
            });
            if independent {
                phase.push(j);
            }
        }
        for &j in &phase {
            scheduled[j] = true;
            remaining -= 1;
            for &k in &succs[j] {
                preds[k] -= 1;
            }
        }
        phases.push(phase);
    }
    Schedule { phases }
}

/// Dead-stencil elimination: returns a keep-mask over the group.
///
/// A stencil is *dead* when its output grid is not in `live_outputs` and no
/// later (surviving) stencil reads any cell it writes before that cell is
/// fully irrelevant. The test is conservative: a stencil is kept whenever
/// any later stencil's read of its output grid may alias its write set.
///
/// The scan runs back-to-front so that a dead stencil's own reads do not
/// keep earlier stencils alive.
pub fn dead_stencils(stencils: &[ResolvedStencil], live_outputs: &[String]) -> Vec<bool> {
    let n = stencils.len();
    let mut keep = vec![false; n];
    for i in (0..n).rev() {
        keep[i] = live_outputs.contains(&stencils[i].write().0)
            || (i + 1..n).any(|j| keep[j] && reads_after_write(&stencils[i], &stencils[j]));
    }
    keep
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

    #[test]
    fn reordering_widens_phases() {
        // In program order A(x→y), B(y→x'), C(x→z): greedy keeps [A],[B,C];
        // list scheduling moves C up: [A,C],[B].
        let a = Stencil::new(lap("x"), "y", RectDomain::interior(2));
        let b = Stencil::new(lap("y"), "rhs", RectDomain::interior(2));
        let c = Stencil::new(lap("x"), "z", RectDomain::interior(2));
        let stencils = vec![rs(a), rs(b), rs(c)];
        let greedy = greedy_phases(&stencils);
        assert_eq!(greedy.phases, vec![vec![0], vec![1, 2]]);
        let reordered = reorder_minimize_barriers(&stencils);
        assert_eq!(reordered.phases, vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn reordering_respects_all_hazards() {
        // Chain with WAW: a→y, c→y (overwrite), b reads y between them.
        let a = Stencil::new(lap("x"), "y", RectDomain::interior(2));
        let b = Stencil::new(lap("y"), "z", RectDomain::interior(2));
        let c = Stencil::new(lap("x"), "y", RectDomain::interior(2));
        let stencils = vec![rs(a), rs(b), rs(c)];
        let sched = reorder_minimize_barriers(&stencils);
        // Every edge must point to an earlier phase.
        let phase_of = |k: usize| {
            sched
                .phases
                .iter()
                .position(|p| p.contains(&k))
                .expect("scheduled")
        };
        for (j, edges) in dependence_dag(&stencils).iter().enumerate() {
            for &(i, _) in edges {
                assert!(phase_of(i) < phase_of(j), "edge {i}->{j} violated");
            }
        }
        // All stencils scheduled exactly once.
        let mut all: Vec<usize> = sched.flat();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2]);
    }

    #[test]
    fn reordering_can_reduce_barriers() {
        // Interleaved program order A(x→y) B(y→p) A'(x→z) B'(z→q):
        // greedy: [A],[B,A'],[B'] = 3 phases; reordered: [A,A'],[B,B'] = 2.
        let a1 = Stencil::new(lap("x"), "y", RectDomain::interior(2));
        let b1 = Stencil::new(lap("y"), "rhs", RectDomain::interior(2));
        let a2 = Stencil::new(lap("x"), "z", RectDomain::interior(2));
        let b2 = Stencil::new(lap("z"), "w", RectDomain::interior(2));
        let mut m = shapes(16);
        m.insert("w".into(), vec![16, 16]);
        let stencils: Vec<_> = [a1, b1, a2, b2]
            .into_iter()
            .map(|s| ResolvedStencil::resolve(&s, &m).unwrap())
            .collect();
        let greedy = greedy_phases(&stencils);
        let reordered = reorder_minimize_barriers(&stencils);
        assert!(reordered.num_barriers() < greedy.num_barriers());
        assert_eq!(reordered.phases, vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn dead_stencil_eliminated() {
        // a writes y (never read again, not live) — dead.
        // b writes z (live) — kept.
        let a = Stencil::new(lap("x"), "y", RectDomain::interior(2));
        let b = Stencil::new(lap("x"), "z", RectDomain::interior(2));
        let keep = dead_stencils(&[rs(a), rs(b)], &["z".to_string()]);
        assert_eq!(keep, vec![false, true]);
    }

    #[test]
    fn chain_liveness_propagates() {
        // a -> y, b: y -> z, z live: both kept.
        let a = Stencil::new(lap("x"), "y", RectDomain::interior(2));
        let b = Stencil::new(lap("y"), "z", RectDomain::interior(2));
        let keep = dead_stencils(&[rs(a), rs(b)], &["z".to_string()]);
        assert_eq!(keep, vec![true, true]);
    }

    #[test]
    fn dead_consumer_does_not_keep_producer() {
        // a -> y, b: y -> z, but z is NOT live and nothing reads z: both die.
        let a = Stencil::new(lap("x"), "y", RectDomain::interior(2));
        let b = Stencil::new(lap("y"), "z", RectDomain::interior(2));
        let keep = dead_stencils(&[rs(a), rs(b)], &["x".to_string()]);
        assert_eq!(keep, vec![false, false]);
    }

    #[test]
    fn disjoint_region_write_is_dead_for_far_reader() {
        // a writes only row 1 of y; b reads y rows 8.. — never aliases.
        let a = Stencil::new(
            Expr::read_at("x", &[0, 0]),
            "y",
            RectDomain::new(&[1, 1], &[2, -1], &[1, 1]),
        );
        let b = Stencil::new(
            Expr::read_at("y", &[0, 0]),
            "z",
            RectDomain::new(&[8, 1], &[-1, -1], &[1, 1]),
        );
        let keep = dead_stencils(&[rs(a), rs(b)], &["z".to_string()]);
        assert_eq!(keep, vec![false, true]);
    }
}
