//! Incremental refinement engine vs. from-scratch recomputation.
//!
//! Pits [`qsc_core::rothko::Rothko`] (which maintains an
//! `IncrementalDegrees` engine across splits) against the from-scratch
//! reference stepper (which rebuilds the degree matrices each step, the
//! seed's original behaviour) on Barabási–Albert graphs. The
//! `incremental_engine` suite asserts that both produce the same coloring.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qsc_core::rothko::{Rothko, RothkoConfig};
use qsc_graph::generators;
use std::hint::black_box;

fn bench_incremental_vs_scratch(c: &mut Criterion) {
    let mut group = c.benchmark_group("rothko_engine");
    group.sample_size(10);
    for &(n, colors) in &[(2_000usize, 64usize), (10_000, 200)] {
        let g = generators::barabasi_albert(n, 4, 7);
        group.bench_with_input(
            BenchmarkId::new(format!("incremental/n{n}"), colors),
            &colors,
            |b, &colors| {
                b.iter(|| {
                    let coloring = Rothko::new(RothkoConfig::with_max_colors(colors)).run(&g);
                    black_box(coloring.partition.num_colors())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("from_scratch/n{n}"), colors),
            &colors,
            |b, &colors| {
                b.iter(|| {
                    let coloring =
                        Rothko::new(RothkoConfig::with_max_colors(colors)).run_reference(&g);
                    black_box(coloring.partition.num_colors())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_incremental_vs_scratch);
criterion_main!(benches);
