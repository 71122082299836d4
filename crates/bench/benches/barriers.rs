//! Ablation A2 — the team barrier (centralized sense-reversing) across
//! team sizes.
//!
//! Measures 100 barrier episodes per region (amortizing the fork), the
//! dominant synchronization cost of barrier-heavy codes like CG.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use romp_runtime::{fork, ForkSpec};

fn bench_barriers(c: &mut Criterion) {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut g = c.benchmark_group("barrier_100_episodes");
    g.sample_size(10);
    let mut teams = vec![2usize, 4, hw.max(2)];
    teams.sort_unstable();
    teams.dedup();
    for &team in &teams {
        let label = format!("Central/{team}t");
        g.bench_with_input(BenchmarkId::from_parameter(label), &team, |b, &t| {
            b.iter(|| {
                fork(ForkSpec::with_num_threads(t), |ctx| {
                    for _ in 0..100 {
                        ctx.barrier();
                    }
                });
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_barriers);
criterion_main!(benches);
