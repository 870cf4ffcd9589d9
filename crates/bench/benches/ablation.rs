//! E8 ablations of the OpenMP backend's §IV-A design choices: tiling size
//! and multicolor reordering, on the VC GSRB smoother.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hpgmg::problem::{LevelData, Problem};
use hpgmg::stencils::{gsrb_smooth_group, Coeff, Names};
use snowflake_backends::{Backend, OmpBackend};
use snowflake_grid::GridSet;

fn build_grids(n: usize) -> (GridSet, snowflake_core::StencilGroup) {
    let problem = Problem::poisson_vc(n);
    let names = Names::level(0);
    let group = gsrb_smooth_group(&names, Coeff::Variable, 0.0, 1.0, (n * n) as f64);
    let mut lvl = LevelData::build(&problem, n);
    lvl.x.fill_random(7, -1.0, 1.0);
    lvl.rhs.fill_random(8, -1.0, 1.0);
    let mut grids = GridSet::new();
    grids.insert(&names.x, lvl.x);
    grids.insert(&names.rhs, lvl.rhs);
    grids.insert(&names.res, lvl.res);
    grids.insert(&names.dinv, lvl.dinv);
    grids.insert(&names.alpha, lvl.alpha);
    grids.insert(&names.beta_x, lvl.beta_x);
    grids.insert(&names.beta_y, lvl.beta_y);
    grids.insert(&names.beta_z, lvl.beta_z);
    (grids, group)
}

fn ablation(c: &mut Criterion) {
    let n = 32usize;
    let (mut grids, group) = build_grids(n);
    let shapes = grids.shapes();
    let mut g = c.benchmark_group("ablation_omp");
    g.sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    g.throughput(Throughput::Elements((n * n * n) as u64));

    // Tiling sweep (the paper: "provides a method of tuning tiling sizes").
    for tile in [4i64, 8, 16, 32] {
        let backend = OmpBackend::new().with_tile(vec![tile, tile, 1 << 40]);
        let exe = backend.compile(&group, &shapes).unwrap();
        g.bench_function(BenchmarkId::new("tile", format!("{tile}x{tile}xN")), |b| {
            b.iter(|| exe.run(&mut grids).unwrap())
        });
    }

    // Multicolor reordering on/off.
    for (label, on) in [("multicolor_on", true), ("multicolor_off", false)] {
        let backend = OmpBackend::new()
            .with_multicolor(on)
            .with_tile(vec![8, 8, 64]);
        let exe = backend.compile(&group, &shapes).unwrap();
        g.bench_function(BenchmarkId::new("reorder", label), |b| {
            b.iter(|| exe.run(&mut grids).unwrap())
        });
    }

    // §VII fusion, on the one HPGMG group with same-region kernels: the
    // eight interpolation stencils.
    {
        let nc = 16usize;
        let interp = hpgmg::stencils::interpolate_group(
            &hpgmg::stencils::Names::level(1),
            &hpgmg::stencils::Names::level(0),
        );
        let mut gs = GridSet::new();
        let mut fine = snowflake_grid::Grid::new(&[2 * nc + 2, 2 * nc + 2, 2 * nc + 2]);
        fine.fill_random(1, -1.0, 1.0);
        gs.insert("x_0", fine);
        let mut coarse = snowflake_grid::Grid::new(&[nc + 2, nc + 2, nc + 2]);
        coarse.fill_random(2, -1.0, 1.0);
        gs.insert("x_1", coarse);
        let shapes = gs.shapes();
        for (label, on) in [("fuse_on", true), ("fuse_off", false)] {
            let exe = OmpBackend::new()
                .with_fusion(on)
                .compile(&interp, &shapes)
                .unwrap();
            g.bench_function(BenchmarkId::new("fusion_interp", label), |b| {
                b.iter(|| exe.run(&mut gs).unwrap())
            });
        }
    }

    g.finish();
}

criterion_group!(benches, ablation);
criterion_main!(benches);
