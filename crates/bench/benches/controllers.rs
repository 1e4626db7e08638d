//! Criterion benches for the control-path hot spots: the MPC solve that
//! runs every control period on 64 channels, the underlying QP solvers,
//! the SGCT baselines' per-period assignment, and the cheaper loops
//! around them.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use baselines::{SgctConfig, SgctPolicy, SgctVariant};
use powersim::cpu::CoreRole;
use powersim::rack::Rack;
use powersim::units::{Seconds, Utilization, Watts};
use sprint_control::linalg::Mat;
use sprint_control::mpc::{MpcBackend, MpcConfig, MpcController};
use sprint_control::pid::{Pid, PidConfig};
use sprint_control::qp::QpProblem;
use sprint_control::stability::mimo_spectral_radius;
use sprint_control::GainEstimator;
use sprintcon::{PowerLoadAllocator, ServerPowerController, SprintConConfig};
use workloads::batch::BatchJob;
use workloads::progress_model::ProgressModel;

fn qp_instance(n: usize) -> QpProblem {
    // The MPC's Hessian shape: rank-heavy kkᵀ blocks plus a diagonal.
    let mut h = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            h[(i, j)] = 2.0 * 15.0 * 15.0;
        }
        h[(i, i)] += 16.0;
    }
    let g: Vec<f64> = (0..n).map(|i| -30.0 - (i as f64 % 7.0)).collect();
    QpProblem::new(h, g, vec![0.2; n], vec![1.0; n])
}

fn bench_qp(c: &mut Criterion) {
    let mut group = c.benchmark_group("qp");
    for &n in &[16usize, 64, 128] {
        let p = qp_instance(n);
        group.bench_function(format!("fista_{n}"), |b| {
            b.iter(|| black_box(p.solve(1e-7, 2_000).x[0]))
        });
        let p2 = qp_instance(n);
        group.bench_function(format!("coordinate_descent_{n}"), |b| {
            b.iter(|| black_box(p2.solve_coordinate_descent(1e-7, 2_000).x[0]))
        });
    }
    group.finish();
}

fn bench_mpc(c: &mut Criterion) {
    let mut group = c.benchmark_group("mpc");
    for &n in &[8usize, 64] {
        for (tag, backend) in [
            ("structured", MpcBackend::Structured),
            ("dense", MpcBackend::DenseFista),
        ] {
            let mut ctrl = MpcController::with_backend(
                MpcConfig::paper_default(),
                vec![15.0; n],
                vec![0.2; n],
                vec![1.0; n],
                backend,
            );
            let f_now = vec![0.6; n];
            group.bench_function(format!("compute_{tag}_{n}ch"), |b| {
                b.iter(|| black_box(ctrl.compute(1500.0, 1700.0, &f_now).freqs[0]))
            });
        }
    }
    group.finish();
}

fn bench_server_controller(c: &mut Criterion) {
    let cfg = SprintConConfig::paper_default();
    let mut ctrl = ServerPowerController::new(&cfg);
    let utils = vec![Utilization(0.6); cfg.num_servers];
    let freqs = vec![0.6; ctrl.num_channels()];
    c.bench_function("server_controller/control_period", |b| {
        b.iter(|| {
            black_box(
                ctrl.control(Watts(3800.0), &utils, Watts(1700.0), &freqs)
                    .freqs[0],
            )
        })
    });
    c.bench_function("server_controller/fit_models", |b| {
        b.iter(|| black_box(ServerPowerController::new(&cfg).num_channels()))
    });
}

fn bench_allocator(c: &mut Criterion) {
    let cfg = SprintConConfig::paper_default();
    let ctrl = ServerPowerController::new(&cfg);
    let jobs: Vec<BatchJob> = (0..cfg.total_batch_cores())
        .map(|i| {
            BatchJob::new(
                format!("j{i}"),
                ProgressModel::new(0.25),
                400.0,
                Seconds(720.0),
            )
        })
        .collect();
    c.bench_function("allocator/advance_with_update", |b| {
        b.iter_batched(
            || PowerLoadAllocator::new(&cfg, ctrl.batch_models().to_vec()),
            |mut alloc| {
                alloc.observe_interactive_power(Watts(2100.0));
                alloc.advance(Seconds(0.0), Seconds(1.0), 0.1, &jobs);
                black_box(alloc.targets().p_batch)
            },
            BatchSize::SmallInput,
        )
    });
}

/// The tentpole guarantee: instrumentation on the server-controller hot
/// path costs nothing measurable when telemetry is disabled, and stays
/// within noise (< 2%) with a null-sink collector installed. Compare the
/// three printed means.
fn bench_telemetry_overhead(c: &mut Criterion) {
    let cfg = SprintConConfig::paper_default();
    let mut ctrl = ServerPowerController::new(&cfg);
    let utils = vec![Utilization(0.6); cfg.num_servers];
    let freqs = vec![0.6; ctrl.num_channels()];
    let mut hot = |b: &mut criterion::Bencher| {
        b.iter(|| {
            black_box(
                ctrl.control(Watts(3800.0), &utils, Watts(1700.0), &freqs)
                    .freqs[0],
            )
        })
    };

    // Baseline: no collector installed — every telemetry call short-circuits.
    c.bench_function("telemetry/server_control_disabled", &mut hot);

    // Null sink: metrics are recorded, sink records are dropped.
    let null = std::sync::Arc::new(telemetry::Collector::new(Box::new(telemetry::NullSink)));
    telemetry::with_collector(std::sync::Arc::clone(&null), || {
        c.bench_function("telemetry/server_control_null_sink", &mut hot);
    });

    // Memory ring sink: the most a bounded in-process sink can cost.
    let ring = std::sync::Arc::new(telemetry::Collector::new(Box::new(
        telemetry::MemorySink::new(4096),
    )));
    telemetry::with_collector(ring, || {
        c.bench_function("telemetry/server_control_memory_sink", &mut hot);
    });
}

/// One SGCT-family control period on the §VI-A paper rack at the repo
/// benchmark's operating point (interactive 0.65, batch 0.97
/// utilization). A zero `dt` holds the open-loop schedule in its
/// overload phase; the policy's ranking and probe buffers stay warm
/// across iterations, as they do across periods in a run.
fn bench_sgct(c: &mut Criterion) {
    let mut rack = Rack::builder().build().expect("paper rack is valid");
    for (role, u) in [(CoreRole::Interactive, 0.65), (CoreRole::Batch, 0.97)] {
        for id in rack.cores_with_role(role) {
            rack.set_util(id, Utilization(u));
        }
    }
    for (tag, variant) in [
        ("sgct", SgctVariant::Uncontrolled),
        ("v1", SgctVariant::V1Ideal),
        ("v2", SgctVariant::V2InteractivePriority),
    ] {
        let mut policy = SgctPolicy::new(SgctConfig::paper_default(variant));
        c.bench_function(format!("baselines/sgct_step_{tag}"), |b| {
            b.iter(|| {
                let cmd = policy.step(Seconds(0.0), &rack, Watts(4000.0), Watts::ZERO);
                black_box(cmd.sprinted)
            })
        });
    }
}

fn bench_small_loops(c: &mut Criterion) {
    c.bench_function("pid/step", |b| {
        let mut pid = Pid::new(PidConfig {
            kp: 0.005,
            ki: 0.01,
            kd: 0.0,
            out_min: 0.2,
            out_max: 1.0,
            period: 1.0,
        });
        b.iter(|| black_box(pid.step(1700.0, 1650.0)))
    });
    c.bench_function("rls/gain_update", |b| {
        let mut est = GainEstimator::new(50.0, 5.0, 300.0);
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            est.observe(0.05 * ((k as f64) * 0.7).sin(), 3.0);
            black_box(est.kappa())
        })
    });
    c.bench_function("stability/mimo_radius_16ch", |b| {
        let km = vec![15.0; 16];
        let r = vec![8.0; 16];
        b.iter(|| black_box(mimo_spectral_radius(&km, &km, &r, 8, 1.0, 0.78)))
    });
}

criterion_group!(
    benches,
    bench_qp,
    bench_mpc,
    bench_server_controller,
    bench_telemetry_overhead,
    bench_allocator,
    bench_sgct,
    bench_small_loops
);
criterion_main!(benches);
