//! `drift-recover`: ODIN's detect → specialize → install loop under live
//! traffic. Two cameras submit in an open loop at 40 FPS each, timed
//! from each frame's due time. Each stream alternates two regimes twice
//! (stream 0 night/day, stream 1 rain/snow) under a one-cluster cap: the
//! first visit to each regime is a cold train on one background worker,
//! each return evicts, archives and reinstalls from the attic. The store
//! runs with `CheckpointPolicy::OnDrift`, WAL, event log and the int8
//! install gate, while an ops reader tails `GET /events` with cursors.
//!
//! Checks: the served drift events equal a `ClusterManager::observe`
//! replay on the same latents; the tail receives every log record
//! exactly once in per-stream order with nothing dropped; the generator
//! never falls more than one frame period behind its schedule; each
//! regime's first visit recovers within the visit; the served
//! detections pass the quality floor.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crossbeam::channel::Receiver;
use odin_core::pipeline::{FrameResult, OdinConfig};
use odin_core::server::{OdinServer, ServerConfig};
use odin_core::training::TrainingMode;
use odin_core::{AtticConfig, CheckpointPolicy, EventLogConfig, LatentEncoder};
use odin_data::{Frame, Image, RecurringSchedule, SceneGen, Subset};
use odin_detect::Detection;
use odin_drift::{ClusterManager, ManagerConfig};

use crate::checks::{recoveries, tail_exactly_once, Digest, RecoveryKind, ReplyView, Served};
use crate::deploy::{
    base_config, build_server, peak_rss_mib, teacher_detections, Weights, FRAME_SIZE,
};
use crate::json::{number, Json};
use crate::layers::{replay, Replay};
use crate::ops::{counter_metrics, deployment_metrics, parse_events, quiesce, timed_get, Records};
use crate::report::{counters, map_metrics, metric, reply_metrics, rng, Ctx, Outcome, Setups};
use crate::stats::{median, tail_percentile};
use crate::trace::{frame_key, Span, SpanLog};

/// Per-camera frame rate.
const FPS: f64 = 40.0;
/// Each stream's two regimes, visited A, B, A, B.
const REGIMES: [[Subset; 2]; 2] = [[Subset::Night, Subset::Day], [Subset::Rain, Subset::Snow]];
/// Regime visits per stream.
const VISITS: usize = 4;
/// Records per sealed event-log segment (the tail reads sealed ones).
const SEGMENT_RECORDS: usize = 64;

/// Quality floor (see `checks::quality`). Models trained cold on a few
/// dozen frames of a new regime score about half the teacher's mAP over
/// a run (0.26 to 1.2 times, depending on the seed and on when training
/// finishes); a broken serving path scores near 0.
const MAP_FLOOR: f64 = 0.1;

fn config() -> OdinConfig {
    let base = base_config();
    OdinConfig {
        manager: ManagerConfig { max_clusters: Some(1), ..base.manager },
        training: TrainingMode::Background { workers: 1 },
        attic: AtticConfig::enabled(),
        event_log: EventLogConfig { segment_records: SEGMENT_RECORDS, ..base.event_log },
        ..base
    }
}

/// Serving workers: one core is left to background training.
fn workers(ctx: &Ctx) -> usize {
    ctx.workers.saturating_sub(1).max(1)
}

fn server_config(ctx: &Ctx) -> ServerConfig {
    let workers = workers(ctx);
    ServerConfig { streams: REGIMES.len(), workers, queue_cap: 64, batch_max: 16, odin: config() }
}

/// Frames per regime visit, so the four visits fill `seconds`.
fn window(seconds: f64) -> usize {
    ((seconds * FPS) / VISITS as f64).round().max(1.0) as usize
}

fn streams(seed: u64, seconds: f64) -> Vec<Vec<Frame>> {
    let gen = SceneGen::new(FRAME_SIZE);
    let w = window(seconds);
    REGIMES
        .iter()
        .enumerate()
        .map(|(s, pair)| {
            RecurringSchedule::alternating(VISITS * w, w, pair)
                .generate(&gen, &mut rng(seed, s, 0xD21F))
        })
        .collect()
}

struct Deployment {
    server: OdinServer,
    addr: SocketAddr,
    store_dir: PathBuf,
}

/// Loads the weights, builds the server, enables the store and starts
/// HTTP for the ops reader. The fleet starts cold: no warm-up frames.
fn setup(ctx: &Ctx, rep: usize) -> Result<Deployment, String> {
    let weights = Weights::load()?;
    let mut server = build_server(&weights, server_config(ctx), ctx.seed);
    let store_dir = ctx.work_dir.join(format!("recover-store-{rep}"));
    server
        .enable_store(&store_dir, CheckpointPolicy::OnDrift)
        .map_err(|e| format!("store: {e}"))?;
    let addr = server.serve("127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
    Ok(Deployment { server, addr, store_dir })
}

/// One reply, stamped by its stream's collector.
struct Reply {
    pos: usize,
    due_s: f64,
    reply_s: f64,
    result: Option<FrameResult>,
}

/// What the ops reader saw.
#[derive(Default)]
struct Tail {
    pages_ms: Vec<f64>,
    records: Records,
    error: Option<String>,
    spans: Vec<Span>,
}

/// Pause between `GET /events` polls while the log is quiet: an
/// operator's tail, not a second serving load.
const POLL_PAUSE: Duration = Duration::from_millis(100);

/// Tails `GET /events` with cursors until told to stop and caught up.
/// Polls without long-polling, so a page's round trip is the read path.
fn ops_reader(addr: SocketAddr, stop: &AtomicBool, mut log: SpanLog) -> Tail {
    let mut tail = Tail::default();
    let mut path = "/events?limit=256".to_string();
    loop {
        let stopping = stop.load(Ordering::SeqCst);
        let t = Instant::now();
        let page = timed_get(addr, &path).and_then(|(ms, body)| Ok((ms, parse_events(&body)?)));
        log.record("events.get", 0, u64::MAX, t, Instant::now());
        match page {
            Ok((ms, (cursor, recs))) => {
                tail.pages_ms.push(ms);
                path = format!("/events?cursor={cursor}&limit=256");
                let empty = recs.is_empty();
                tail.records.extend(recs);
                if stopping && empty {
                    tail.spans = log.into_spans();
                    return tail;
                }
                if empty {
                    std::thread::sleep(POLL_PAUSE);
                }
            }
            Err(e) => {
                tail.error = Some(e);
                tail.spans = log.into_spans();
                return tail;
            }
        }
    }
}

struct Timed {
    replies: Vec<Vec<Reply>>,
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    depths: Vec<f64>,
    spans: Vec<Span>,
    elapsed_s: f64,
}

/// The open loop: the generator submits frame `k` of every stream at
/// `k / FPS`; one collector per stream stamps replies as they arrive.
fn timed_phase(ctx: &Ctx, server: &OdinServer, frames: &[Vec<Frame>], trace: bool) -> Timed {
    let n = frames[0].len();
    let period = Duration::from_secs_f64(1.0 / FPS);
    let mut log = SpanLog::new(ctx.epoch, 1, trace);
    let (mut late_ms, mut submit_us, mut depths) = (Vec::new(), Vec::new(), Vec::new());
    let mut replies = Vec::new();
    let mut spans = Vec::new();
    let start = Instant::now();
    std::thread::scope(|sc| {
        let mut txs = Vec::new();
        let mut collectors = Vec::new();
        for s in 0..frames.len() {
            let (tx, rx) = mpsc::channel::<(usize, Instant, u64, Option<Receiver<FrameResult>>)>();
            txs.push(tx);
            collectors.push(sc.spawn(move || {
                let mut log = SpanLog::new(ctx.epoch, 2 + s as u64, trace);
                let mut out = Vec::new();
                for (pos, due, root, rx) in rx {
                    let result = rx.and_then(|rx| rx.recv().ok());
                    let done = Instant::now();
                    let key = frame_key(s, pos);
                    log.record("recv", root, key, due, done);
                    log.record_reserved(root, "frame", key, due, done);
                    let reply_s =
                        if result.is_some() { (done - start).as_secs_f64() } else { f64::INFINITY };
                    out.push(Reply { pos, due_s: (due - start).as_secs_f64(), reply_s, result });
                }
                (out, log.into_spans())
            }));
        }
        for k in 0..n {
            let due = start + period * k as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            for (s, tx) in txs.iter().enumerate() {
                let root = log.reserve();
                let t = Instant::now();
                let rx = server.submit(s, frames[s][k].clone()).ok();
                let t1 = Instant::now();
                submit_us.push((t1 - t).as_secs_f64() * 1e6);
                log.record("submit", root, frame_key(s, k), t, t1);
                tx.send((k, due, root, rx)).expect("collector alive");
            }
            depths.push((0..frames.len()).map(|s| server.queue_depth(s)).sum::<usize>() as f64);
        }
        drop(txs);
        for c in collectors {
            let (r, s) = c.join().expect("collector thread");
            replies.push(r);
            spans.extend(s);
        }
    });
    spans.extend(log.into_spans());
    // Measured, not nominal: the first frame's due time to the last reply.
    let elapsed_s = replies
        .iter()
        .flatten()
        .map(|r: &Reply| r.reply_s)
        .filter(|t| t.is_finite())
        .fold(0.0, f64::max);
    Timed { replies, late_ms, submit_us, depths, spans, elapsed_s }
}

/// `(stream, frame)` drift events of a `ClusterManager::observe` replay
/// on the frames' latents.
fn replayed_drifts(weights: &Weights, frames: &[Vec<Frame>]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (s, fr) in frames.iter().enumerate() {
        let mut enc = weights.encoder();
        let mut manager = ClusterManager::new(config().manager);
        for chunk in fr.chunks(64) {
            let images: Vec<&Image> = chunk.iter().map(|f| &f.image).collect();
            for z in enc.project_batch(&images) {
                if let Some(ev) = manager.observe(&z).promoted {
                    out.push((s, ev.at));
                }
            }
        }
    }
    out
}

/// Runs the workload once: set-ups, the timed open loop with the ops
/// reader, the checks and, when tracing, the layers.
pub fn run(ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    let frames = streams(ctx.seed, ctx.seconds);
    let w = window(ctx.seconds);
    let (mut dep, setups) = Setups::first(trace, |rep| setup(ctx, rep))?;
    let before = counters(&dep.server);
    let stop = AtomicBool::new(false);
    let (timed, mut tail) = std::thread::scope(|sc| {
        let reader_log = SpanLog::new(ctx.epoch, 9, trace);
        let reader = sc.spawn(|| ops_reader(dep.addr, &stop, reader_log));
        let timed = timed_phase(ctx, &dep.server, &frames, trace);
        // Seal the log's partial segments so the tail can catch up.
        dep.server.finish_training();
        quiesce(&dep.server);
        stop.store(true, Ordering::SeqCst);
        (timed, reader.join().expect("ops reader"))
    });
    let after = counters(&dep.server);
    let rss = peak_rss_mib().unwrap_or(0.0);

    let mut out = Outcome { spans: timed.spans, workers: workers(ctx), ..Outcome::default() };
    out.spans.extend(std::mem::take(&mut tail.spans));
    let all: Vec<&Reply> = timed.replies.iter().flatten().collect();
    out.attempted = all.len();
    out.failed = all.iter().filter(|r| r.result.is_none()).count();
    let ok = all.len() - out.failed;
    out.e2e.push(metric("throughput_fps", ok as f64 / timed.elapsed_s, ok));
    let lat: Vec<f64> = all.iter().map(|r| (r.reply_s - r.due_s) * 1e3).collect();
    out.add_latencies(&lat);
    out.e2e.push(metric("peak_rss_mib", rss, 1));

    // Open-loop validity: the generator may not fall a frame period
    // behind its schedule, judged on its lateness tail (the highest
    // percentile with enough samples beyond it), so one late wake-up of
    // the host does not void a run while a generator that cannot keep up
    // does. The worst single lateness is recorded with the checks.
    let worst = timed.late_ms.iter().copied().fold(0.0, f64::max);
    let late = tail_percentile(&timed.late_ms).map_or(worst, |t| t.value);
    let period_ms = 1e3 / FPS;
    if late > period_ms {
        out.problems.push(format!(
            "generator fell {late:.1} ms behind its schedule at its tail (period {period_ms:.1} ms)"
        ));
    }
    out.layers.push(metric("bench.late_ms.p99", late, timed.late_ms.len()));

    // Drift events: served vs a ClusterManager replay on the same latents.
    let weights = Weights::load()?;
    let served_drifts: Vec<(usize, usize)> = timed
        .replies
        .iter()
        .enumerate()
        .flat_map(|(s, rs)| {
            rs.iter().filter_map(move |r| r.result.as_ref()?.drift.map(|d| (s, d.at)))
        })
        .collect();
    let replayed = replayed_drifts(&weights, &frames);
    if served_drifts != replayed {
        out.problems.push(format!(
            "drift events {served_drifts:?} differ from the ClusterManager replay {replayed:?}"
        ));
    }

    // Quality: the served detections and the teacher's, run outside the
    // pipeline, on the same frames.
    let teacher: Vec<Vec<Vec<Detection>>> = frames
        .iter()
        .map(|f| teacher_detections(&weights, &f.iter().collect::<Vec<_>>()))
        .collect();
    let (mut dets, mut teacher_dets, mut gt) = (Vec::new(), Vec::new(), Vec::new());
    for (s, rs) in timed.replies.iter().enumerate() {
        for r in rs {
            if let Some(res) = &r.result {
                dets.push(res.detections.clone());
                teacher_dets.push(teacher[s][r.pos].clone());
                gt.push(&frames[s][r.pos]);
            }
        }
    }
    let (maps, low) = map_metrics(&dets, &teacher_dets, &gt, MAP_FLOOR);
    out.layers.extend(maps);
    out.problems.extend(low);

    // The tail: every record exactly once, per-stream order, none dropped.
    if let Some(e) = &tail.error {
        out.problems.push(format!("ops reader: {e}"));
    }
    let appended: Vec<u64> = (0..dep.server.streams())
        .map(|s| {
            dep.server
                .with_shard(s, |o| o.telemetry().snapshot())
                .counters
                .iter()
                .find(|(n, _)| n == "odin_event_log_appended_total")
                .map_or(0, |(_, v)| *v)
        })
        .collect();
    out.problems.extend(
        tail_exactly_once(&tail.records, &appended).into_iter().map(|p| format!("tail: {p}")),
    );
    let dropped = after.get("odin_event_log_dropped_total").copied().unwrap_or(0);
    if dropped > 0 {
        out.problems.push(format!("event log dropped {dropped} records"));
    }
    out.layers.push(metric(
        "log.page_ms.p50",
        median(&tail.pages_ms).unwrap_or(0.0),
        tail.pages_ms.len(),
    ));
    out.layers.push(metric("log.tail_records", tail.records.len() as f64, tail.pages_ms.len()));

    // Recoveries per regime visit.
    let starts: Vec<usize> = (0..VISITS).map(|v| v * w).collect();
    let (mut cold, mut attic, mut delays) = (Vec::new(), Vec::new(), Vec::new());
    let (mut kinds, mut missed) = (Vec::new(), 0);
    for (s, rs) in timed.replies.iter().enumerate() {
        let views: Vec<ReplyView> = rs
            .iter()
            .map(|r| ReplyView {
                due_s: r.due_s,
                reply_s: r.reply_s,
                promoted: r.result.as_ref().and_then(|x| x.drift.map(|d| d.cluster_id)),
                selected: r
                    .result
                    .as_ref()
                    .map(|x| x.selection.models.iter().map(|m| m.0).collect())
                    .unwrap_or_default(),
            })
            .collect();
        for rec in recoveries(&views, &starts) {
            delays.extend(rec.delay_frames.map(|d| d as f64));
            kinds.push(format!("\"{:?}\"", rec.kind));
            match rec.kind {
                RecoveryKind::Cold => cold.push(rec.seconds),
                RecoveryKind::Attic => attic.push(rec.seconds),
                // A visit that never recovers is censored at its full
                // length, against the kind it should have been: first
                // visits train, returns reinstall. A first visit must
                // recover: its regime is new, so a cluster is promoted
                // and trained within the visit unless the recovery loop
                // is broken or several times slower. A return may miss
                // when a mid-visit promotion evicts the regime's cluster
                // before its model is back.
                RecoveryKind::Missing => {
                    missed += 1;
                    let censored = w as f64 / FPS;
                    if rec.window < REGIMES[0].len() {
                        out.problems.push(format!(
                            "stream {s}: first visit {} not recovered within its {censored} s",
                            rec.window
                        ));
                        cold.push(censored)
                    } else {
                        attic.push(censored)
                    }
                }
            }
        }
    }
    // A kind no visit produced reports 0 from 0 samples, like an
    // unexercised layer.
    out.layers.push(metric("drift.recovery_s", median(&cold).unwrap_or(0.0), cold.len()));
    out.layers.push(metric("attic.recovery_s", median(&attic).unwrap_or(0.0), attic.len()));
    out.layers.push(metric("drift.delay_frames", median(&delays).unwrap_or(0.0), delays.len()));

    let served: Vec<Digest> = all
        .iter()
        .filter_map(|r| r.result.as_ref())
        .map(|x| Digest { dets: x.detections.len() as u32, served: Served::of(x.served_by) })
        .collect();
    out.layers.extend(reply_metrics(&served, out.attempted, out.failed, &timed.depths));
    out.layers.push(metric(
        "server.submit_us.p50",
        median(&timed.submit_us).unwrap_or(0.0),
        timed.submit_us.len(),
    ));
    out.layers.extend(counter_metrics(&before, &after));
    out.notes = Json::obj()
        .arr("recoveries", &kinds)
        .arr("cold_s", &cold.iter().map(|v| number(*v)).collect::<Vec<_>>())
        .arr("attic_s", &attic.iter().map(|v| number(*v)).collect::<Vec<_>>())
        .num("drift_events", served_drifts.len() as f64)
        .num("unrecovered_visits", missed as f64)
        .num("late_ms_max", worst)
        .num("window_frames", w as f64);

    if trace {
        let ck = ctx.work_dir.join("recover-ck");
        let sample: Vec<Frame> = frames[0].iter().take(128).cloned().collect();
        out.layers.extend(deployment_metrics(
            &dep.server,
            dep.addr,
            &dep.store_dir,
            &ck,
            &sample[..64.min(sample.len())],
            false,
        )?);
        let r = Replay { cfg: config(), seed: ctx.seed, boot: &[], models: &[], frames: &sample };
        let layers = replay(&weights, &r, &ctx.work_dir.join("recover-replay"))?;
        if let Some(b16) = layers.iter().find(|m| m.name == "pipeline.frame_us.b16") {
            let eff = (ok as f64 / timed.elapsed_s) * b16.value * 1e-6 / workers(ctx) as f64;
            out.layers.push(metric("server.efficiency", eff, ok));
        }
        out.layers.extend(layers);
    }
    dep.server.shutdown();
    drop(dep);
    out.e2e.push(setups.finish()?);
    Ok(out)
}
