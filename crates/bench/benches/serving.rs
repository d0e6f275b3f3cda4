//! Microbenchmarks of the virtual-time serving simulator: iteration
//! processing throughput and end-to-end burst latency per preset.

use std::hint::black_box;

use aim_llm::{presets, CallKind, LlmRequest, RequestId, ServerConfig, SimServer, VirtualTime};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn burst(server: &mut SimServer, n: u64) -> usize {
    for i in 0..n {
        server.submit(
            VirtualTime::ZERO,
            LlmRequest::new(
                RequestId(i),
                i as u32,
                i % 10,
                640 + (i as u32 * 37) % 200,
                20 + (i as u32) % 10,
                CallKind::Plan,
            ),
        );
    }
    server.drain().len()
}

fn bench_burst_drain(c: &mut Criterion) {
    let mut g = c.benchmark_group("serving/burst_drain");
    g.sample_size(20);
    for (name, preset, replicas) in [
        ("l4x1", presets::l4_llama3_8b(), 1u32),
        ("l4x8", presets::l4_llama3_8b(), 8),
        ("a100tp4x2", presets::a100_tp4_llama3_70b(), 2),
        ("mixtral-x4", presets::a100_tp2_mixtral_8x7b(), 4),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &preset, |b, preset| {
            b.iter(|| {
                let mut server =
                    SimServer::new(ServerConfig::from_preset(preset.clone(), replicas, true));
                black_box(burst(&mut server, 512))
            });
        });
    }
    g.finish();
}

fn bench_submit_advance(c: &mut Criterion) {
    c.bench_function("serving/submit_advance_steady", |b| {
        let mut server = SimServer::new(ServerConfig::from_preset(presets::tiny_test(), 2, true));
        let mut done = Vec::new();
        let mut i = 0u64;
        b.iter(|| {
            server.submit(
                server.now(),
                LlmRequest::new(RequestId(i), 0, i % 5, 128, 8, CallKind::Perceive),
            );
            if let Some(t) = server.next_event() {
                server.advance(t, &mut done);
                black_box(done.len());
                done.clear();
            }
            i += 1;
        });
    });
}

fn bench_calibration(c: &mut Criterion) {
    // Machine-speed reference for bench_gate normalization (see
    // `aim_bench::calibration_spin`).
    c.bench_function("calibration/spin", |b| {
        b.iter(|| black_box(aim_bench::calibration_spin()))
    });
}

criterion_group!(
    benches,
    bench_calibration,
    bench_burst_drain,
    bench_submit_advance
);
criterion_main!(benches);
