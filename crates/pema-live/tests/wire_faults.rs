//! Seeded fault schedules on the wire: arbitrary interleavings of the
//! four [`Fault`]s across a multi-window run with PATCHes between the
//! windows, reconciled against [`FakeCluster`]'s own ledger rather than
//! against expectations about the retry policy.

use pema_control::{ClusterBackend, ControlLoop, HarnessConfig};
use pema_core::{PemaController, PemaParams};
use pema_live::{
    live_over_fake, FakeClock, FakeCluster, Fault, HttpClient, HttpError, KubeClient,
    KubeConfigLite, KubeError, LiveBackend, LiveConfig, LiveError, PromClient, PromError,
};
use pema_sim::{Allocation, AppSpec};
use pema_telemetry::Telemetry;
use proptest::collection::vec;
use proptest::prelude::*;
use std::time::Duration;

const RPS: f64 = 120.0;
const IO_TIMEOUT: Duration = Duration::from_millis(100);
/// Long enough to time the client out, short enough that the request
/// queued behind the stalled one (requests are handled one at a time)
/// is still answered within its own timeout.
const STALL: Duration = Duration::from_millis(150);

const DELAY: u8 = 3;

fn fault(kind: u8) -> Fault {
    match kind {
        0 => Fault::DropConnection,
        1 => Fault::Http500,
        2 => Fault::GarbageBody,
        _ => Fault::Delay(STALL),
    }
}

fn wire(app: &AppSpec, hub: &Telemetry) -> (FakeCluster, LiveBackend) {
    let cluster = FakeCluster::start(app, RPS);
    let http = HttpClient {
        connect_timeout: Duration::from_secs(2),
        io_timeout: IO_TIMEOUT,
    };
    let mut backend = LiveBackend::new(
        app,
        PromClient {
            endpoint: cluster.endpoint(),
            http: http.clone(),
        },
        KubeClient {
            config: KubeConfigLite {
                server: cluster.endpoint(),
                token: None,
                namespace: "pema".into(),
            },
            http,
        },
        Box::new(FakeClock::new()),
        LiveConfig::default(),
    );
    backend.set_telemetry(hub);
    (cluster, backend)
}

/// The failures each fault kind can cause, and nothing else: a drop is
/// an empty close, a delay a timeout, a 500 a status, garbage a body
/// that does not parse.
fn is_fault_shaped(e: &LiveError) -> bool {
    match e {
        LiveError::Scrape { last, .. } => matches!(
            last,
            PromError::Http(HttpError::Malformed(_) | HttpError::Timeout)
                | PromError::Status(500)
                | PromError::Malformed(_)
        ),
        LiveError::Patch { error, .. } => matches!(
            error,
            KubeError::Http(HttpError::Malformed(_))
                | KubeError::Status { code: 500, .. }
                | KubeError::Malformed(_)
        ),
    }
}

fn bits(a: &Allocation) -> Vec<u64> {
    a.0.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Each step queues up to three faults (at most one delay) for the
    /// window's scrapes, measures the window, queues up to three more
    /// (no delay) for the PATCHes, and applies a fresh allocation.
    ///
    /// A delay never hits a PATCH: a timed-out PATCH may still land
    /// after the client gave up, with a real API server as with the
    /// fake, so no shadow can follow it. Two delays are never adjacent
    /// in the queue, since the second would hold the request behind it
    /// past its own timeout. A final fault-free window consumes what
    /// the PATCHes left over.
    #[test]
    fn seeded_fault_schedules_reconcile_with_the_cluster_ledger(
        steps in vec(
            (vec(0u8..4, 0..4usize), vec(0u8..3, 0..4usize), vec(1u32..9, 3usize)),
            2..4usize,
        ),
    ) {
        let app = pema_apps::toy_chain();
        let hub = Telemetry::new();
        let (cluster, mut backend) = wire(&app, &hub);
        let mut injected = 0u64;
        let mut errors = Vec::new();
        for (scrape_faults, patch_faults, eighths) in &steps {
            let mut delayed = false;
            for &kind in scrape_faults {
                if kind == DELAY && std::mem::replace(&mut delayed, true) {
                    continue;
                }
                cluster.inject_fault(fault(kind));
                injected += 1;
            }
            let stats = backend.measure_window(RPS, 1.0, 8.0);
            prop_assert_eq!(stats.per_service.len(), app.services.len());

            for &kind in patch_faults {
                cluster.inject_fault(fault(kind));
                injected += 1;
            }
            let next = Allocation::new(
                app.generous_alloc
                    .iter()
                    .zip(eighths)
                    .map(|(g, &k)| g * k as f64 / 8.0)
                    .collect(),
            );
            backend.apply(&next);
            prop_assert_eq!(bits(&backend.allocation()), bits(&cluster.allocation()));
            errors.extend(backend.take_errors());
        }
        backend.measure_window(RPS, 1.0, 8.0);
        errors.extend(backend.take_errors());
        prop_assert_eq!(bits(&backend.allocation()), bits(&cluster.allocation()));

        for e in &errors {
            prop_assert!(is_fault_shaped(e), "a failure no fault explains: {e:?}");
        }
        let counter = |name: &str, labels: &[(&str, &str)]| hub.counter(name, "", labels).value() as u64;
        let queries = counter("pema_live_queries_total", &[("target", "prom")]);
        let patches = counter("pema_live_patches_total", &[("target", "kube")]);
        let retries = counter("pema_live_retries_total", &[("target", "prom")]);
        let truth = cluster.fault_stats();
        prop_assert_eq!(queries + patches, truth.requests);
        prop_assert_eq!(truth.total_faults(), injected);
        // Every fault fired is a counted retry or the last attempt of a
        // recorded error; nothing else failed.
        prop_assert_eq!(retries + errors.len() as u64, truth.total_faults());
        // One connection, and one more after each fault that breaks it.
        prop_assert_eq!(truth.connections, 1 + truth.dropped + truth.delayed);
    }
}

#[test]
fn a_fault_free_episode_opens_one_connection_per_cluster() {
    // Two clusters driven in turn from one thread: each keeps its own
    // connection for the whole episode, scrapes and PATCHes alike.
    let hub = Telemetry::new();
    let apps = [pema_apps::toy_chain(), pema_apps::sockshop()];
    let mut loops: Vec<_> = apps
        .iter()
        .map(|app| {
            let mut live = live_over_fake(app, RPS);
            live.backend.set_telemetry(&hub);
            let mut params = PemaParams::defaults(app.slo_ms);
            params.seed = 5;
            let policy = PemaController::new(params, app.generous_alloc.clone());
            ControlLoop::new(live, policy, HarnessConfig::default())
        })
        .collect();
    for _ in 0..25 {
        for control in &mut loops {
            control.step_once(RPS);
        }
    }
    for control in &loops {
        assert!(control.backend.backend.errors().is_empty());
        let truth = control.backend.cluster.fault_stats();
        assert!(truth.requests >= 25 * 6);
        assert_eq!(truth.connections, 1, "{truth:?}");
    }
    let patches = hub.counter("pema_live_patches_total", "", &[("target", "kube")]);
    assert!(patches.value() > 0.0, "the episodes never PATCHed");
}

#[test]
fn a_fault_costs_a_connection_only_when_it_breaks_one() {
    for (fault, extra) in [
        (Fault::DropConnection, 1),
        (Fault::Delay(STALL), 1),
        (Fault::Http500, 0),
        (Fault::GarbageBody, 0),
    ] {
        let (cluster, mut backend) = wire(&pema_apps::toy_chain(), &Telemetry::new());
        backend.measure_window(RPS, 1.0, 8.0);
        cluster.inject_fault(fault.clone());
        backend.measure_window(RPS, 1.0, 8.0);
        assert!(backend.errors().is_empty(), "{fault:?}");
        let truth = cluster.fault_stats();
        assert_eq!((truth.requests, truth.total_faults()), (13, 1), "{fault:?}");
        assert_eq!(truth.connections, 1 + extra, "{fault:?}");
    }
}
