//! E7 ablation: the cost of the Diophantine analysis and of full JIT
//! lowering — the paper's claim is that analysis is cheap enough to run at
//! compile (stencil-construction) time.

use criterion::{criterion_group, criterion_main, Criterion};
use hpgmg::stencils::{gsrb_smooth_group, Coeff, Names};
use snowflake_analysis::dio::{intersect, StridedRange};
use snowflake_analysis::{greedy_phases, ResolvedStencil};
use snowflake_core::ShapeMap;
use snowflake_ir::{lower_group, LowerOptions};

fn shapes(n: usize) -> ShapeMap {
    let names = Names::level(0);
    let mut m = ShapeMap::new();
    for g in [
        &names.x,
        &names.rhs,
        &names.res,
        &names.dinv,
        &names.alpha,
        &names.beta_x,
        &names.beta_y,
        &names.beta_z,
    ] {
        m.insert(g.clone(), vec![n + 2, n + 2, n + 2]);
    }
    m
}

fn analysis(c: &mut Criterion) {
    let mut g = c.benchmark_group("analysis");
    g.sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));

    g.bench_function("diophantine_range_pair", |b| {
        let r1 = StridedRange::new(1, 1 << 20, 3);
        let r2 = StridedRange::new(2, 1 << 20, 7);
        b.iter(|| intersect(std::hint::black_box(r1), std::hint::black_box(r2)))
    });

    let names = Names::level(0);
    let group = gsrb_smooth_group(&names, Coeff::Variable, 0.0, 1.0, 4096.0);
    let sh = shapes(64);

    g.bench_function("schedule_gsrb_group", |b| {
        let resolved: Vec<_> = group
            .stencils()
            .iter()
            .map(|s| ResolvedStencil::resolve(s, &sh).unwrap())
            .collect();
        b.iter(|| greedy_phases(std::hint::black_box(&resolved)))
    });

    g.bench_function("lower_gsrb_group_full_jit", |b| {
        b.iter(|| lower_group(&group, &sh, &LowerOptions::default()).unwrap())
    });
    g.finish();
}

criterion_group!(benches, analysis);
criterion_main!(benches);
