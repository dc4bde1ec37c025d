//! Resolution retry/backoff benchmark: time to resolve a bottom-up
//! checkpoint's message content across loss rates and retry policies.
//!
//! Each iteration builds a root+child hierarchy with the push path off
//! (forcing the parent onto the miss-then-pull path), injects a targeted
//! loss rule on the child's topic, sends one bottom-up transfer, and runs
//! to quiescence — the pull round trips, retries, and backoff waits all
//! land inside the measured region.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hc_actors::sa::SaConfig;
use hc_core::{HierarchyRuntime, RuntimeConfig};
use hc_net::{FaultKind, FaultPlan, FaultRule, RetryPolicy};
use hc_types::{SubnetId, TokenAmount};

fn whole(n: u64) -> TokenAmount {
    TokenAmount::from_whole(n)
}

fn resolve_under_loss(loss_rate: f64, retry: RetryPolicy) {
    let mut rt = HierarchyRuntime::new(RuntimeConfig {
        push_enabled: false,
        retry,
        ..RuntimeConfig::default()
    });
    let root = SubnetId::root();
    let alice = rt.create_user(&root, whole(10_000)).unwrap();
    let v = rt.create_user(&root, whole(100)).unwrap();
    let child = rt
        .spawn_subnet(&alice, SaConfig::default(), whole(10), &[(v, whole(5))])
        .unwrap();
    let bob = rt.create_user(&child, TokenAmount::ZERO).unwrap();
    rt.cross_transfer(&alice, &bob, whole(100)).unwrap();
    rt.run_until_quiescent(10_000).unwrap();

    if loss_rate > 0.0 {
        let now = rt.now_ms();
        let loss = FaultKind::Loss {
            topic: Some(child.topic()),
            from: None,
            to: None,
            rate: loss_rate,
        };
        rt.extend_faults(FaultPlan {
            rules: vec![FaultRule::new(now, now + 60_000, loss)],
        });
    }
    rt.cross_transfer(&bob, &alice, whole(1)).unwrap();
    rt.run_until_quiescent(10_000).unwrap();
    assert_eq!(
        rt.node(&root).unwrap().resolver().stats().pulls_abandoned,
        0
    );
}

fn bench_resolution_retry(c: &mut Criterion) {
    let mut group = c.benchmark_group("resolution_retry");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));

    let policies = [
        (
            "fast_backoff",
            RetryPolicy {
                base_timeout_ms: 200,
                backoff: 2,
                max_timeout_ms: 1_600,
                max_attempts: 0,
                jitter_pct: 0,
            },
        ),
        ("default_backoff", RetryPolicy::default()),
    ];
    for loss_pct in [0u32, 25, 50] {
        let rate = f64::from(loss_pct) / 100.0;
        for (name, policy) in &policies {
            group.bench_with_input(
                BenchmarkId::new(*name, format!("loss_{loss_pct}pct")),
                &rate,
                |b, &rate| b.iter(|| resolve_under_loss(rate, *policy)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_resolution_retry);
criterion_main!(benches);
