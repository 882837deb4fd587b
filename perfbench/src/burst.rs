//! `burst-teacher`: a 16-stream fleet in process with training disabled
//! (`min_train_frames = usize::MAX`), so the teacher serves every frame:
//! no specialized model ever exists. Each shard's clusters are settled
//! on its frames before timing, so drift promotions (and their WAL
//! syncs) stay rare while timed. One generator thread keeps a fixed window of frames
//! outstanding per stream through `OdinServer::submit` — a closed loop
//! of 16 × window virtual cameras — so queues stay full and workers
//! batch up to `batch_max`. Each reply's (detection count, `served_by`)
//! must match a standalone `Odin` replay of its stream, and the served
//! detections must pass the quality floor.

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crossbeam::channel::Receiver;
use odin_core::pipeline::FrameResult;
use odin_core::server::{OdinServer, ServerConfig};
use odin_core::CheckpointPolicy;
use odin_data::{Frame, SceneGen, Subset};
use odin_detect::Detection;

use crate::checks::{compare, Digest, Served};
use crate::deploy::{
    build_server, peak_rss_mib, serving_config, settle_clusters, standalone_shard,
    teacher_detections, Weights, FRAME_SIZE,
};
use crate::json::Json;
use crate::layers::{replay, Replay};
use crate::ops::{counter_metrics, deployment_metrics};
use crate::report::{
    counters, map_metrics, metric, per_stream, reply_metrics, rng, windowed_fps, Ctx, Outcome,
    Setups,
};
use crate::stats::median;
use crate::trace::{frame_key, Span, SpanLog};

const STREAMS: usize = 16;
const SUBSETS: [Subset; 4] = [Subset::Night, Subset::Day, Subset::Rain, Subset::Snow];
/// Distinct frames per stream the load cycles through.
const POOL: usize = 64;
/// Frames each stream keeps outstanding.
const WINDOW: usize = 2;
/// Untimed frames per stream answered before timing (warm-up).
const WARM: usize = 2;

/// Quality floor (see `checks::quality`): every frame is served by the
/// teacher, so the served mAP is the teacher's.
const MAP_FLOOR: f64 = 0.95;

fn server_config(workers: usize) -> ServerConfig {
    ServerConfig { streams: STREAMS, workers, queue_cap: 64, batch_max: 16, odin: serving_config() }
}

fn pools(seed: u64) -> Vec<Vec<Frame>> {
    let gen = SceneGen::new(FRAME_SIZE);
    (0..STREAMS)
        .map(|s| gen.subset_frames(&mut rng(seed, s, 0xB025), SUBSETS[s % SUBSETS.len()], POOL))
        .collect()
}

/// A fleet ready for timed traffic.
struct Deployment {
    server: OdinServer,
    /// Bootstrap passes each shard ran.
    passes: Vec<usize>,
    store_dir: PathBuf,
}

/// Loads the weights, builds the fleet, settles every shard's clusters
/// (two threads), enables the store and answers the warm-up frames.
fn setup(ctx: &Ctx, pools: &[Vec<Frame>], rep: usize) -> Result<Deployment, String> {
    let weights = Weights::load()?;
    let server = build_server(&weights, server_config(ctx.workers), ctx.seed);
    let passes = per_stream(STREAMS, ctx.workers, |s| {
        server.with_shard(s, |o| settle_clusters(o, &pools[s]))
    });
    let store_dir = ctx.work_dir.join(format!("burst-store-{rep}"));
    server.enable_store(&store_dir, CheckpointPolicy::Manual).map_err(|e| format!("store: {e}"))?;
    for pos in 0..WARM {
        let pending: Vec<_> = pools
            .iter()
            .enumerate()
            .map(|(s, pool)| server.submit(s, pool[pos % POOL].clone()))
            .collect();
        for rx in pending {
            let rx = rx.map_err(|e| format!("warm-up: {e}"))?;
            rx.recv().map_err(|_| "warm-up frame not answered".to_string())?;
        }
    }
    Ok(Deployment { server, passes, store_dir })
}

struct Reply {
    stream: usize,
    pos: usize,
    latency_ms: f64,
    done: Instant,
    result: Option<(Digest, Vec<Detection>)>,
}

struct Timed {
    replies: Vec<Reply>,
    submit_us: Vec<f64>,
    depths: Vec<f64>,
    spans: Vec<Span>,
    start: Instant,
    deadline: Instant,
}

/// A submitted frame handed to its stream's collector.
struct Pending {
    pos: usize,
    sent: Instant,
    root: u64,
    rx: Receiver<FrameResult>,
}

/// Waits for one stream's replies in submission order (each shard
/// answers FIFO), stamps each as it arrives and passes it on to the
/// generator.
fn collect(
    s: usize,
    pending: mpsc::Receiver<Pending>,
    done: mpsc::Sender<Reply>,
    mut log: SpanLog,
) -> Vec<Span> {
    for p in pending {
        let got = p.rx.recv().ok();
        let at = Instant::now();
        let key = frame_key(s, p.pos);
        log.record("recv", p.root, key, p.sent, at);
        log.record_reserved(p.root, "frame", key, p.sent, at);
        let result = got.map(|r| {
            (
                Digest { dets: r.detections.len() as u32, served: Served::of(r.served_by) },
                r.detections,
            )
        });
        let latency_ms =
            if result.is_some() { (at - p.sent).as_secs_f64() * 1e3 } else { f64::INFINITY };
        if done.send(Reply { stream: s, pos: p.pos, latency_ms, done: at, result }).is_err() {
            break;
        }
    }
    log.into_spans()
}

/// The generator fills every stream's window, then blocks for the next
/// reply from any stream and refills that stream, until the deadline;
/// frames still outstanding then are answered and counted, but fall
/// outside the throughput windows. One collector thread per stream
/// stamps replies as they arrive, so the generator never polls.
fn timed_phase(ctx: &Ctx, server: &OdinServer, pools: &[Vec<Frame>], trace: bool) -> Timed {
    let mut log = SpanLog::new(ctx.epoch, 1, trace);
    let mut pos = [WARM; STREAMS];
    let mut outstanding = [0usize; STREAMS];
    let (mut replies, mut submit_us, mut depths) = (Vec::new(), Vec::new(), Vec::new());
    let mut spans = Vec::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    std::thread::scope(|sc| {
        let (done_tx, done_rx) = mpsc::channel::<Reply>();
        let (mut to_collector, mut collectors) = (Vec::new(), Vec::new());
        for s in 0..STREAMS {
            let (tx, rx) = mpsc::channel::<Pending>();
            to_collector.push(tx);
            let (done, clog) = (done_tx.clone(), SpanLog::new(ctx.epoch, 2 + s as u64, trace));
            collectors.push(sc.spawn(move || collect(s, rx, done, clog)));
        }
        drop(done_tx);
        // Submits stream `s`'s next frame; a refused frame is a failed reply.
        let mut refill =
            |s: usize, outstanding: &mut [usize; STREAMS], replies: &mut Vec<Reply>| {
                let root = log.reserve();
                let sent = Instant::now();
                let submitted = server.submit(s, pools[s][pos[s] % POOL].clone());
                let t = Instant::now();
                submit_us.push((t - sent).as_secs_f64() * 1e6);
                log.record("submit", root, frame_key(s, pos[s]), sent, t);
                match submitted {
                    Ok(rx) => {
                        let p = Pending { pos: pos[s], sent, root, rx };
                        to_collector[s].send(p).expect("collector alive");
                        outstanding[s] += 1;
                    }
                    Err(_) => replies.push(Reply {
                        stream: s,
                        pos: pos[s],
                        latency_ms: f64::INFINITY,
                        done: t,
                        result: None,
                    }),
                }
                pos[s] += 1;
            };
        for s in 0..STREAMS {
            for _ in 0..WINDOW {
                refill(s, &mut outstanding, &mut replies);
            }
        }
        while outstanding.iter().any(|&n| n > 0) {
            let Ok(reply) = done_rx.recv() else { break };
            let s = reply.stream;
            outstanding[s] -= 1;
            replies.push(reply);
            depths.push((0..STREAMS).map(|s| server.queue_depth(s)).sum::<usize>() as f64);
            if Instant::now() < deadline {
                refill(s, &mut outstanding, &mut replies);
            }
        }
        drop(to_collector);
        for c in collectors {
            spans.extend(c.join().expect("collector thread"));
        }
    });
    spans.extend(log.into_spans());
    Timed { replies, submit_us, depths, spans, start, deadline }
}

/// Standalone replay of stream `s`: the same bootstrap passes, then
/// positions `0..n`.
fn reference(
    weights: &Weights,
    ctx: &Ctx,
    pools: &[Vec<Frame>],
    s: usize,
    passes: usize,
    n: usize,
) -> Vec<Digest> {
    let mut odin = standalone_shard(weights, serving_config(), ctx.seed, s);
    for _ in 0..passes {
        odin.bootstrap_clusters(&pools[s]);
    }
    let frames: Vec<Frame> = (0..n).map(|p| pools[s][p % POOL].clone()).collect();
    let mut out = Vec::with_capacity(n);
    for chunk in frames.chunks(16) {
        out.extend(
            odin.process_batch(chunk).into_iter().map(|r| Digest {
                dets: r.detections.len() as u32,
                served: Served::of(r.served_by),
            }),
        );
    }
    out
}

/// Runs the workload once: set-ups, the timed closed loop, the output
/// checks and, when tracing, the layers.
pub fn run(ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    let pools = pools(ctx.seed);
    let (dep, setups) = Setups::first(trace, |rep| setup(ctx, &pools, rep))?;
    let Deployment { mut server, passes, store_dir } = dep;
    let before = counters(&server);
    let timed = timed_phase(ctx, &server, &pools, trace);
    let after = counters(&server);
    let rss = peak_rss_mib().unwrap_or(0.0);
    let replies = &timed.replies;

    let mut out = Outcome { spans: timed.spans, workers: ctx.workers, ..Outcome::default() };
    out.attempted = replies.len();
    out.failed = replies.iter().filter(|r| r.result.is_none()).count();
    let done_s: Vec<f64> = replies
        .iter()
        .filter(|r| r.result.is_some())
        .map(|r| r.done.saturating_duration_since(timed.start).as_secs_f64())
        .collect();
    let fps = windowed_fps(&done_s, (timed.deadline - timed.start).as_secs_f64());
    let (throughput, ok_in_window) = (fps.value, fps.samples);
    out.e2e.push(fps);
    let lat: Vec<f64> = replies.iter().map(|r| r.latency_ms).collect();
    out.add_latencies(&lat);
    out.e2e.push(metric("peak_rss_mib", rss, 1));

    let ok: Vec<Digest> = replies.iter().filter_map(|r| r.result.as_ref().map(|x| x.0)).collect();
    out.layers.extend(reply_metrics(&ok, out.attempted, out.failed, &timed.depths));
    out.layers.push(metric(
        "server.submit_us.p50",
        median(&timed.submit_us).unwrap_or(0.0),
        timed.submit_us.len(),
    ));
    out.layers.extend(counter_metrics(&before, &after));

    if trace {
        let addr = server.serve("127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
        let ck = ctx.work_dir.join("burst-ck");
        out.layers.extend(deployment_metrics(&server, addr, &store_dir, &ck, &pools[0], true)?);
    }
    server.shutdown();
    drop(server);
    out.e2e.push(setups.finish()?);

    // Output check: every reply against the standalone replay.
    let weights = Weights::load()?;
    let served_n: Vec<usize> = (0..STREAMS)
        .map(|s| replies.iter().filter(|r| r.stream == s).map(|r| r.pos + 1).max().unwrap_or(WARM))
        .collect();
    let refs = per_stream(STREAMS, ctx.workers, |s| {
        reference(&weights, ctx, &pools, s, passes[s], served_n[s])
    });
    for (s, reference) in refs.iter().enumerate() {
        let served: Vec<(usize, Digest)> = replies
            .iter()
            .filter(|r| r.stream == s)
            .filter_map(|r| r.result.as_ref().map(|x| (r.pos, x.0)))
            .collect();
        let (n, lines) = compare(s, &served, reference, 4);
        if n > 0 {
            out.problems.push(format!("stream {s}: {n} replies differ from the standalone replay"));
            out.problems.extend(lines);
        }
    }

    // Quality: the served detections and the teacher's, run outside the
    // pipeline, on the same frames.
    let teacher = per_stream(STREAMS, ctx.workers, |s| {
        teacher_detections(&weights, &pools[s].iter().collect::<Vec<_>>())
    });
    let (mut dets, mut teacher_dets, mut frames) = (Vec::new(), Vec::new(), Vec::new());
    for r in replies {
        if let Some((_, d)) = &r.result {
            dets.push(d.clone());
            teacher_dets.push(teacher[r.stream][r.pos % POOL].clone());
            frames.push(&pools[r.stream][r.pos % POOL]);
        }
    }
    let (maps, low) = map_metrics(&dets, &teacher_dets, &frames, MAP_FLOOR);
    out.layers.extend(maps);
    out.problems.extend(low);
    out.notes = Json::obj()
        .arr("frames_per_stream", &served_n.iter().map(|n| n.to_string()).collect::<Vec<_>>())
        .arr("boot_passes", &passes.iter().map(|p| p.to_string()).collect::<Vec<_>>());

    if trace {
        let sample: Vec<Frame> = pools[0].iter().take(128).cloned().collect();
        let boot: Vec<Frame> = (0..passes[0]).flat_map(|_| pools[0].iter().cloned()).collect();
        let r = Replay {
            cfg: serving_config(),
            seed: ctx.seed,
            boot: &boot,
            models: &[],
            frames: &sample,
        };
        let layers = replay(&weights, &r, &ctx.work_dir.join("burst-replay"))?;
        if let Some(b16) = layers.iter().find(|m| m.name == "pipeline.frame_us.b16") {
            let eff = throughput * b16.value * 1e-6 / ctx.workers as f64;
            out.layers.push(metric("server.efficiency", eff, ok_in_window));
        }
        out.layers.extend(layers);
    }
    Ok(out)
}
