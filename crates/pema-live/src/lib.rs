//! # pema-live — the live-cluster backend (Prometheus + Kubernetes)
//!
//! Everything else in this repository reproduces the paper against
//! simulated clusters; this crate is the deployable half: a
//! [`LiveBackend`] implementing the same
//! [`ClusterBackend`](pema_control::ClusterBackend) contract over a
//! *real* telemetry/actuation pair — Prometheus HTTP range queries in,
//! Kubernetes deployment PATCHes out — so the PEMA controller, the
//! fleet executor, and the trace recorder drive a live cluster
//! unchanged.
//!
//! | module | contents |
//! |---|---|
//! | [`backend`] | [`LiveBackend`], [`LiveConfig`], typed [`LiveError`]s, the scrape retry schedule |
//! | [`clock`] | the [`TimeSource`] seam: [`WallClock`] in production, [`FakeClock`] in tests |
//! | [`http`] | re-export of [`pema_telemetry::http`], the workspace's one hand-rolled HTTP/1.1 client + server (explicit timeouts, no async runtime) |
//! | [`prom`] | `query_range` client + matrix parsing |
//! | [`kube`] | kubeconfig-lite bearer-token auth + CPU-limit PATCHes |
//! | [`fake`] | [`FakeCluster`]: an in-process fluid-model-backed handler on that server, with fault injection |
//!
//! The wire protocol, the retry/backoff policy, dry-run semantics, and
//! FakeCluster usage are documented in `docs/live-backend.md`. The
//! CLI entry point is `pema-cli live`.

pub mod backend;
pub mod clock;
pub mod fake;
pub mod kube;
pub mod prom;

pub use pema_telemetry::http;

pub use backend::{LiveBackend, LiveConfig, LiveError};
pub use clock::{FakeClock, TimeSource, WallClock};
pub use fake::{
    live_over_fake, live_over_fake_with, FakeCluster, FakeLive, Fault, FaultStats, PatchEvent,
};
pub use http::{Endpoint, HttpClient, HttpError};
pub use kube::{KubeClient, KubeConfigLite, KubeError};
pub use prom::{PromClient, PromError, Series};
