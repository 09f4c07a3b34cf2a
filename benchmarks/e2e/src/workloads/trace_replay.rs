//! `trace_replay` — a what-if study off a recorded tape. Set-up records
//! 2 000 fluid intervals of TrainTicket (41 services) under PEMA
//! through `TraceRecorder`. A repetition encodes the tape (`to_jsonl`),
//! decodes it (`parse_jsonl`, strict), and replays 20 000 intervals
//! each under PEMA, RULE and HOLD over a cycling `TraceBackend` (one
//! pass of the tape is too short to time).
//!
//! Why it exists: writes sit beside reads on one layer (`trace.format`
//! encode against decode), so a gain for one that costs the other
//! shows; the bulk side of `telemetry.json` is measured here against
//! the many small bodies of `live_wire`; and with a backend that costs
//! next to nothing per window, the control loop's and the policies'
//! own cost is the replay's whole bill.

use super::{derive_seed, leg, LayerInputs, LayerMetrics, Leg, PolicyKind, Rep, Workload};
use crate::adapters::{
    TimedBackend, TimedObserver, TimedPolicy, DECIDE_HOLD, DECIDE_PEMA, DECIDE_RULE, LOOP_STEP,
    OBSERVE_RECORDER, TRACE_BACKEND,
};
use crate::digest::Digest;
use crate::host;
use crate::spans::Tracer;
use crate::stats::median;
use pema_control::{
    ControlLoop, Experiment, HarnessConfig, HoldPolicy, Observer, Policy, RulePolicy, UseFluid,
};
use pema_core::{PemaController, PemaParams};
use pema_sim::AppSpec;
use pema_telemetry::json;
use pema_trace::{replay, ReadMode, Trace, TraceBackend, TraceRecorder};
use std::sync::Arc;
use std::time::Instant;

const TAPE_INTERVALS: usize = 2000;
const REPLAY_INTERVALS: usize = 20_000;
const RPS: f64 = 250.0;

pub struct TraceReplay {
    seed: u64,
    app: AppSpec,
    tape: Trace,
}

impl TraceReplay {
    pub fn prepare(seed: u64) -> Self {
        let app = pema_apps::trainticket();
        let tape = Self::record(&app, seed, TAPE_INTERVALS, |recorder| recorder);
        TraceReplay { seed, app, tape }
    }

    fn harness_config(seed: u64) -> HarnessConfig {
        HarnessConfig::with_seed(derive_seed(seed, 0))
    }

    /// The policy that recorded the tape; replaying it must reproduce
    /// the tape exactly.
    fn recording_policy(app: &AppSpec, seed: u64) -> PemaController {
        let mut params = PemaParams::defaults(app.slo_ms);
        params.seed = derive_seed(seed, 1);
        PemaController::new(params, app.generous_alloc.clone())
    }

    fn record<O: Observer + Send + 'static>(
        app: &AppSpec,
        seed: u64,
        intervals: usize,
        wrap: impl FnOnce(TraceRecorder) -> O,
    ) -> Trace {
        let cfg = Self::harness_config(seed);
        let policy = Self::recording_policy(app, seed);
        let recorder = TraceRecorder::new(app, "pema", policy.params().seed, &cfg);
        let handle = recorder.handle();
        Experiment::builder()
            .app(app)
            .policy(policy)
            .backend(UseFluid)
            .config(cfg)
            .rps(RPS)
            .iters(intervals)
            .observer(wrap(recorder))
            .run();
        handle.take()
    }

    fn wire<P: Policy + 'static>(
        &self,
        policy: P,
        decide: &'static str,
        member: usize,
        tracer: Option<&Arc<Tracer>>,
    ) -> Leg {
        let cfg = Self::harness_config(self.seed);
        let backend = TraceBackend::cycling(self.tape.clone());
        match tracer {
            None => leg(
                ControlLoop::new(backend, policy, cfg),
                RPS,
                REPLAY_INTERVALS,
                |b: &TraceBackend| b.divergence().len() as u64,
                None,
                member,
            ),
            Some(t) => leg(
                ControlLoop::new(
                    TimedBackend::new(backend, &TRACE_BACKEND, LOOP_STEP, member, t),
                    TimedPolicy::new(policy, decide, LOOP_STEP, member, t),
                    cfg,
                ),
                RPS,
                REPLAY_INTERVALS,
                |b: &TimedBackend<TraceBackend>| b.inner.divergence().len() as u64,
                Some(Arc::clone(t)),
                member,
            ),
        }
    }
}

impl Workload for TraceReplay {
    fn warmup_reps(&self) -> usize {
        1
    }

    fn min_reps(&self) -> usize {
        3
    }

    fn rep(&mut self, tracer: Option<&Arc<Tracer>>) -> Rep {
        let mut rep = Rep::default();
        let app = &self.app;
        let t0 = Instant::now();
        let legs: Vec<(Leg, PolicyKind)> = PolicyKind::CYCLE
            .iter()
            .enumerate()
            .map(|(member, kind)| {
                let leg = match kind {
                    PolicyKind::Pema => {
                        let mut params = PemaParams::defaults(app.slo_ms);
                        params.seed = derive_seed(self.seed, 100);
                        let policy = PemaController::new(params, app.generous_alloc.clone());
                        self.wire(policy, DECIDE_PEMA, member, tracer)
                    }
                    PolicyKind::Rule => {
                        self.wire(RulePolicy::new(app), DECIDE_RULE, member, tracer)
                    }
                    PolicyKind::Hold => self.wire(
                        HoldPolicy::new(app.generous_alloc.clone(), app.slo_ms),
                        DECIDE_HOLD,
                        member,
                        tracer,
                    ),
                };
                (leg, *kind)
            })
            .collect();
        rep.build_s.push(t0.elapsed().as_secs_f64());

        let cpu0 = host::cpu_seconds();
        let t0 = Instant::now();
        let text = self.tape.to_jsonl();
        let encode_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let parsed = Trace::parse_jsonl(&text, ReadMode::Strict);
        let decode_s = t1.elapsed().as_secs_f64();
        let t2 = Instant::now();
        let done: Vec<_> = legs.into_iter().map(|(leg, kind)| (leg(), kind)).collect();
        let replay_s = t2.elapsed().as_secs_f64();
        rep.wall_s = t0.elapsed().as_secs_f64();
        rep.cpu_s = host::cpu_seconds() - cpu0;

        match parsed {
            Ok(parsed) if parsed == self.tape => {}
            Ok(_) => rep.fail(1, "parse_jsonl(to_jsonl(tape)) is not the tape".into()),
            Err(e) => rep.fail(1, format!("the encoded tape does not parse: {e}")),
        }
        let mut digest = Digest::default();
        for (out, kind) in &done {
            rep.absorb(&mut digest, *kind, 0, &out.run);
            if out.count != REPLAY_INTERVALS as u64 {
                rep.fail(1, format!("a replay measured {} windows", out.count));
            }
        }
        rep.digest = digest.value();
        let mb = text.len() as f64 / 1e6;
        rep.scalars.insert("tape_bytes", text.len() as f64);
        rep.scalars.insert("encode_s", encode_s);
        rep.scalars.insert("decode_s", decode_s);
        rep.scalars.insert("encode_mb_per_s", mb / encode_s);
        rep.scalars.insert("decode_mb_per_s", mb / decode_s);
        rep.scalars
            .insert("replay_intervals_per_s", rep.intervals as f64 / replay_s);
        rep
    }

    fn final_checks(&mut self) -> Vec<String> {
        let summary = replay(&self.tape, Self::recording_policy(&self.app, self.seed)).summary;
        if summary.is_zero() {
            Vec::new()
        } else {
            vec![format!(
                "replaying the tape under its own policy diverged in {} of {} intervals",
                summary.diverged_intervals, summary.intervals
            )]
        }
    }

    fn layers(&mut self, inputs: &LayerInputs) -> LayerMetrics {
        let t = inputs.tracer;
        let records = self.tape.records.len() as f64;
        let med = |name: &str| -> f64 {
            median(
                &inputs
                    .untraced
                    .iter()
                    .map(|r| r.scalar(name))
                    .collect::<Vec<_>>(),
            )
        };
        let windows = t.agg(TRACE_BACKEND.poll).count as f64;
        let window_ns =
            (t.agg(TRACE_BACKEND.begin).sum_ns + t.agg(TRACE_BACKEND.poll).sum_ns) as f64;

        // The recorder is set-up work, so its cost is probed directly:
        // a short recording through the timing adapter.
        let tracer = Arc::clone(t);
        Self::record(&self.app, self.seed, 500, move |recorder| {
            TimedObserver::new(recorder, OBSERVE_RECORDER, "", 0, &tracer)
        });

        let one_record = Trace {
            meta: self.tape.meta.clone(),
            records: self.tape.records[..1].to_vec(),
        }
        .to_jsonl();
        let line = one_record.lines().nth(1).expect("a record line");
        const PARSES: usize = 2000;
        let t0 = Instant::now();
        for _ in 0..PARSES {
            std::hint::black_box(json::parse(std::hint::black_box(line)).expect("probe JSON"));
        }
        let parse_mb_per_s = (PARSES * line.len()) as f64 / 1e6 / t0.elapsed().as_secs_f64();

        vec![
            ("trace.format.encode_mb_per_s", med("encode_mb_per_s")),
            ("trace.format.decode_mb_per_s", med("decode_mb_per_s")),
            (
                "trace.format.encode_ns_per_record",
                med("encode_s") * 1e9 / records,
            ),
            (
                "trace.format.decode_ns_per_record",
                med("decode_s") * 1e9 / records,
            ),
            ("trace.format.bytes_per_record", med("tape_bytes") / records),
            ("trace.backend.window_ns", window_ns / windows),
            (
                "trace.backend.replay_intervals_per_s",
                med("replay_intervals_per_s"),
            ),
            (
                "trace.recorder.observe_ns",
                t.agg(OBSERVE_RECORDER).mean_ns(),
            ),
            ("telemetry.json.parse_mb_per_s", parse_mb_per_s),
        ]
    }
}
