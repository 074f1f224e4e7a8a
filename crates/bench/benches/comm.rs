//! Communication-substrate benchmarks: wall-clock cost of the mpisim
//! runtime executing the paper's exchange patterns with real data
//! movement (the virtual-clock *model* times are covered by the table1
//! binary; here we benchmark the runtime itself).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpisim::{Cluster, NetworkModel};
use std::hint::black_box;

fn bench_exchange_patterns(c: &mut Criterion) {
    let mut g = c.benchmark_group("exchange_patterns");
    g.sample_size(10);
    let p = 4;
    let bytes = 1 << 18; // 256 KiB blocks

    g.bench_with_input(BenchmarkId::new("bcast_all_roots", p), &p, |b, &p| {
        b.iter(|| {
            Cluster::new(p, 2, NetworkModel::ideal()).run(|comm| {
                for root in 0..comm.size() {
                    let payload =
                        if comm.rank() == root { Some(vec![0u8; bytes]) } else { None };
                    let blk = comm.bcast(root, payload);
                    black_box(blk.len());
                }
            })
        })
    });

    g.bench_with_input(BenchmarkId::new("ring_rotation", p), &p, |b, &p| {
        b.iter(|| {
            Cluster::new(p, 2, NetworkModel::ideal()).run(|comm| {
                let right = (comm.rank() + 1) % comm.size();
                let left = (comm.rank() + comm.size() - 1) % comm.size();
                let mut blk = vec![0u8; bytes];
                for step in 0..comm.size() - 1 {
                    blk = comm.sendrecv(left, right, step as u64, blk);
                }
                black_box(blk.len());
            })
        })
    });

    g.bench_with_input(BenchmarkId::new("async_ring", p), &p, |b, &p| {
        b.iter(|| {
            Cluster::new(p, 2, NetworkModel::ideal()).run(|comm| {
                let right = (comm.rank() + 1) % comm.size();
                let left = (comm.rank() + comm.size() - 1) % comm.size();
                let mut blk = vec![0u8; bytes];
                for step in 0..comm.size() - 1 {
                    let rreq = comm.irecv(left, step as u64);
                    let _ = comm.isend(right, step as u64, blk.clone());
                    blk = comm.wait(rreq).expect("block");
                }
                black_box(blk.len());
            })
        })
    });
    g.finish();
}

fn bench_collectives(c: &mut Criterion) {
    let mut g = c.benchmark_group("collectives");
    g.sample_size(10);
    let n = 1 << 16;

    for p in [2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::new("allreduce_f64", p), &p, |b, &p| {
            b.iter(|| {
                Cluster::new(p, 2, NetworkModel::ideal())
                    .run(|comm| black_box(comm.allreduce(vec![1.0f64; n])[0]))
            })
        });
        g.bench_with_input(BenchmarkId::new("hier_allreduce", p), &p, |b, &p| {
            b.iter(|| {
                Cluster::new(p, 2, NetworkModel::ideal())
                    .run(|comm| black_box(comm.hier_allreduce(vec![1.0f64; n])[0]))
            })
        });
        g.bench_with_input(BenchmarkId::new("alltoallv", p), &p, |b, &p| {
            b.iter(|| {
                Cluster::new(p, 2, NetworkModel::ideal()).run(|comm| {
                    let chunks: Vec<Vec<f64>> =
                        (0..comm.size()).map(|_| vec![0.0f64; n / comm.size()]).collect();
                    black_box(comm.alltoallv(chunks).len())
                })
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_exchange_patterns, bench_collectives);
criterion_main!(benches);
