//! `steady-http`: warm steady state over the real HTTP front end.
//!
//! Four streams, one regime each (night, day, rain, snow). Before timing,
//! every shard settles its clusters on the frames its stream cycles
//! through and installs an int8 specialized model per cluster (trained
//! on the cluster's frames, then `register_model`). Serving never trains
//! (`min_train_frames = usize::MAX`), so a cluster promoted while timed
//! would be served by the teacher; settled clusters make that rare. The
//! load is a closed loop of two client threads, each
//! owning two streams and posting `encode_ingest_frame` bodies one at a
//! time, so per-stream order is fixed. Each reply's (detection count,
//! `served_by`) must match a standalone `Odin` replay of its stream, and
//! the replay's detections must pass the quality floor.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use odin_core::pipeline::Odin;
use odin_core::registry::ModelKind;
use odin_core::server::{encode_ingest_frame, OdinServer, ServerConfig};
use odin_core::specializer::Specializer;
use odin_core::CheckpointPolicy;
use odin_data::{Frame, SceneGen, Subset};
use odin_detect::{Detection, Detector};
use odin_telemetry::http;

use crate::checks::{compare, Digest, Served};
use crate::deploy::{
    build_server, peak_rss_mib, serving_config, settle_clusters, standalone_shard,
    teacher_detections, Weights, FRAME_SIZE,
};
use crate::json::{field, field_u64, Json};
use crate::layers::{replay, Replay};
use crate::ops::{counter_metrics, deployment_metrics};
use crate::report::{
    counters, map_metrics, metric, per_stream, reply_metrics, rng, windowed_fps, Ctx, Outcome,
    Setups,
};
use crate::trace::{frame_key, Span, SpanLog};

const SUBSETS: [Subset; 4] = [Subset::Night, Subset::Day, Subset::Rain, Subset::Snow];
/// Distinct frames per stream the load cycles through.
const POOL: usize = 256;
/// Untimed frames per stream posted before timing (warm-up).
const WARM: usize = 32;
/// A cluster with fewer bootstrap frames than this trains on the
/// stream's whole bootstrap set.
const MIN_CLUSTER_FRAMES: usize = 16;
/// Frames per pipeline call in the reference replay.
const REPLAY_BATCH: usize = 16;

/// Quality floor (see `checks::quality`). The warm models, trained on
/// their own cluster's frames, score 0.4 to 2 times the teacher's mAP on
/// the served frames, depending on the seed; a broken serving path
/// scores near 0.
const MAP_FLOOR: f64 = 0.2;

fn server_config(workers: usize) -> ServerConfig {
    ServerConfig {
        streams: SUBSETS.len(),
        workers,
        queue_cap: 64,
        batch_max: 16,
        odin: serving_config(),
    }
}

/// The generated inputs, per stream: the frames the load cycles through
/// (which the deployment also bootstrapped from) and their encoded
/// request bodies.
struct Inputs {
    pool: Vec<Vec<Frame>>,
    bodies: Vec<Vec<Vec<u8>>>,
}

impl Inputs {
    fn generate(seed: u64) -> Self {
        let gen = SceneGen::new(FRAME_SIZE);
        let pool: Vec<Vec<Frame>> = SUBSETS
            .iter()
            .enumerate()
            .map(|(s, &sub)| gen.subset_frames(&mut rng(seed, s, 0x9001), sub, POOL))
            .collect();
        let bodies = pool.iter().map(|p| p.iter().map(encode_ingest_frame).collect()).collect();
        Inputs { pool, bodies }
    }

    /// The frame at `pos` of stream `s`'s served sequence.
    fn frame(&self, s: usize, pos: usize) -> &Frame {
        &self.pool[s][pos % POOL]
    }
}

/// Trains one specialized model per bootstrapped cluster on the
/// cluster's bootstrap frames and installs it through
/// `Odin::register_model` (int8-quantized under `ServePrecision::Int8`).
/// Returns `(cluster, params)` so a standalone replay installs the same.
fn install_warm_models(odin: &mut Odin, boot: &[Frame], seed: u64) -> Vec<(usize, Vec<f32>)> {
    let latents: Vec<Vec<f32>> = boot.iter().map(|f| odin.project(f)).collect();
    let ids: Vec<usize> = odin.manager().clusters().iter().map(|c| c.id()).collect();
    let specializer = Specializer::new(serving_config().specializer);
    let mut out = Vec::new();
    for id in ids {
        let mine: Vec<Frame> = boot
            .iter()
            .zip(&latents)
            .filter(|(_, z)| odin.manager().matching_cluster(z) == Some(id))
            .map(|(f, _)| f.clone())
            .collect();
        let frames = if mine.len() >= MIN_CLUSTER_FRAMES { mine } else { boot.to_vec() };
        let detector = specializer.build_specialized(seed.wrapping_add(id as u64 * 7919), &frames);
        out.push((id, detector.export_params()));
        odin.register_model(id, detector, ModelKind::Specialized);
    }
    out
}

/// A deployment ready to take timed traffic.
struct Deployment {
    server: OdinServer,
    addr: SocketAddr,
    models: Vec<Vec<(usize, Vec<f32>)>>,
    /// Bootstrap passes each shard ran.
    passes: Vec<usize>,
    store_dir: PathBuf,
}

/// Posts one frame. Returns the reply's digest when it is a 2xx with a
/// well-formed body, and whether the status was not 2xx.
fn post(addr: SocketAddr, path: &str, body: &[u8]) -> (Option<Digest>, bool) {
    let Ok((status, reply)) = http::post(addr, path, body) else { return (None, false) };
    if !status.split_whitespace().nth(1).is_some_and(|c| c.starts_with('2')) {
        return (None, true);
    }
    let dets = field_u64(&reply, "detections");
    let served = field(&reply, "served_by").and_then(Served::parse);
    (dets.zip(served).map(|(d, s)| Digest { dets: d as u32, served: s }), false)
}

/// Loads the weights, builds the server, bootstraps every shard and
/// installs its warm models (two shards per thread), enables the store,
/// starts HTTP and posts the warm-up frames.
fn setup(ctx: &Ctx, inputs: &Inputs, rep: usize) -> Result<Deployment, String> {
    let weights = Weights::load()?;
    let server = build_server(&weights, server_config(ctx.workers), ctx.seed);
    let (passes, models): (Vec<usize>, Vec<_>) = per_stream(SUBSETS.len(), 2, |s| {
        let seed = ctx.seed.wrapping_add(s as u64);
        server.with_shard(s, |o| {
            let passes = settle_clusters(o, &inputs.pool[s]);
            (passes, install_warm_models(o, &inputs.pool[s], seed))
        })
    })
    .into_iter()
    .unzip();
    let store_dir = ctx.work_dir.join(format!("steady-store-{rep}"));
    server.enable_store(&store_dir, CheckpointPolicy::Manual).map_err(|e| format!("store: {e}"))?;
    let mut server = server;
    let addr = server.serve("127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
    for pos in 0..WARM {
        for s in 0..SUBSETS.len() {
            let (digest, _) = post(addr, &format!("/ingest/{s}"), &inputs.bodies[s][pos % POOL]);
            digest.ok_or_else(|| format!("warm-up frame {pos} of stream {s} failed"))?;
        }
    }
    Ok(Deployment { server, addr, models, passes, store_dir })
}

/// One reply of the timed phase.
struct Reply {
    stream: usize,
    pos: usize,
    latency_ms: f64,
    digest: Option<Digest>,
    non2xx: bool,
    done: Instant,
}

/// The closed loop: thread `t` alternates between streams `t` and
/// `t + 2`, one request in flight at a time.
fn timed_phase(
    ctx: &Ctx,
    dep: &Deployment,
    inputs: &Inputs,
    trace: bool,
) -> (Vec<Reply>, Vec<f64>, Vec<Span>, Instant, Instant) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let mut replies = Vec::new();
    let mut depths = Vec::new();
    let mut spans = Vec::new();
    std::thread::scope(|sc| {
        let handles: Vec<_> = (0..2usize)
            .map(|t| {
                sc.spawn(move || {
                    let mut log = SpanLog::new(ctx.epoch, t as u64 + 1, trace);
                    let owned: Vec<usize> = (t..SUBSETS.len()).step_by(2).collect();
                    let paths: Vec<String> = owned.iter().map(|s| format!("/ingest/{s}")).collect();
                    let mut pos = vec![WARM; owned.len()];
                    let (mut out, mut depths) = (Vec::new(), Vec::new());
                    'run: loop {
                        for (k, &s) in owned.iter().enumerate() {
                            let sent = Instant::now();
                            if sent >= deadline {
                                break 'run;
                            }
                            depths.push(dep.server.queue_depth(s) as f64);
                            let root = log.reserve();
                            let (digest, non2xx) =
                                post(dep.addr, &paths[k], &inputs.bodies[s][pos[k] % POOL]);
                            let done = Instant::now();
                            let key = frame_key(s, pos[k]);
                            log.record("http.post", root, key, sent, done);
                            log.record_reserved(root, "frame", key, sent, done);
                            let latency_ms = if digest.is_some() {
                                (done - sent).as_secs_f64() * 1e3
                            } else {
                                f64::INFINITY
                            };
                            out.push(Reply {
                                stream: s,
                                pos: pos[k],
                                latency_ms,
                                digest,
                                non2xx,
                                done,
                            });
                            pos[k] += 1;
                        }
                    }
                    (out, depths, log.into_spans())
                })
            })
            .collect();
        for h in handles {
            let (r, d, s) = h.join().expect("client thread");
            replies.extend(r);
            depths.extend(d);
            spans.extend(s);
        }
    });
    (replies, depths, spans, start, deadline)
}

/// The standalone replay of stream `s`: same weights, seed, bootstrap
/// and warm models, fed the stream's served sequence `0..n`.
fn reference(
    weights: &Weights,
    ctx: &Ctx,
    inputs: &Inputs,
    s: usize,
    passes: usize,
    models: &[(usize, Vec<f32>)],
    n: usize,
) -> (Vec<Digest>, Vec<Vec<Detection>>) {
    let mut odin = standalone_shard(weights, serving_config(), ctx.seed, s);
    for _ in 0..passes {
        odin.bootstrap_clusters(&inputs.pool[s]);
    }
    for (id, params) in models {
        let mut d = Detector::small(FRAME_SIZE, &mut rng(0, 0, 0x5A11));
        d.import_params(params);
        odin.register_model(*id, d, ModelKind::Specialized);
    }
    let (mut digests, mut dets) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let mut pos = 0;
    while pos < n {
        let chunk: Vec<Frame> =
            (pos..(pos + REPLAY_BATCH).min(n)).map(|p| inputs.frame(s, p).clone()).collect();
        for r in odin.process_batch(&chunk) {
            digests
                .push(Digest { dets: r.detections.len() as u32, served: Served::of(r.served_by) });
            dets.push(r.detections);
        }
        pos += chunk.len();
    }
    (digests, dets)
}

/// Runs the workload once: the set-ups (the last one serves), the
/// timed closed loop, the output checks and, when tracing, the layers.
pub fn run(ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    let inputs = Inputs::generate(ctx.seed);
    let workers = ctx.workers;
    let (mut dep, setups) = Setups::first(trace, |rep| setup(ctx, &inputs, rep))?;
    let before = counters(&dep.server);
    let (replies, depths, spans, start, deadline) = timed_phase(ctx, &dep, &inputs, trace);
    let after = counters(&dep.server);
    let rss = peak_rss_mib().unwrap_or(0.0);

    let mut out = Outcome { spans, workers: ctx.workers, ..Outcome::default() };
    out.attempted = replies.len();
    out.failed = replies.iter().filter(|r| r.digest.is_none()).count();
    let done_s: Vec<f64> = replies
        .iter()
        .filter(|r| r.digest.is_some())
        .map(|r| r.done.saturating_duration_since(start).as_secs_f64())
        .collect();
    let fps = windowed_fps(&done_s, (deadline - start).as_secs_f64());
    let (throughput, ok_in_window) = (fps.value, fps.samples);
    out.e2e.push(fps);
    let lat: Vec<f64> = replies.iter().map(|r| r.latency_ms).collect();
    out.add_latencies(&lat);

    // Output check: every reply against the standalone replay.
    let weights = Weights::load()?;
    let mut by_stream: BTreeMap<usize, Vec<(usize, Digest)>> = BTreeMap::new();
    for r in &replies {
        if let Some(d) = r.digest {
            by_stream.entry(r.stream).or_default().push((r.pos, d));
        }
    }
    let served_n: Vec<usize> = (0..SUBSETS.len())
        .map(|s| replies.iter().filter(|r| r.stream == s).map(|r| r.pos + 1).max().unwrap_or(WARM))
        .collect();
    let refs = per_stream(SUBSETS.len(), 2, |s| {
        reference(&weights, ctx, &inputs, s, dep.passes[s], &dep.models[s], served_n[s])
    });
    for (s, (digests, _)) in refs.iter().enumerate() {
        let served = by_stream.get(&s).map(Vec::as_slice).unwrap_or(&[]);
        let (n, lines) = compare(s, served, digests, 4);
        if n > 0 {
            out.problems.push(format!("stream {s}: {n} replies differ from the standalone replay"));
            out.problems.extend(lines);
        }
    }

    // Quality: the timed frames' detections from the replay the replies
    // were just checked against, and the teacher's on the same frames,
    // scored against ground truth.
    let teacher = per_stream(SUBSETS.len(), 2, |s| {
        teacher_detections(&weights, &inputs.pool[s].iter().collect::<Vec<_>>())
    });
    let (mut dets, mut teacher_dets, mut frames) = (Vec::new(), Vec::new(), Vec::new());
    for r in replies.iter().filter(|r| r.digest.is_some()) {
        dets.push(refs[r.stream].1[r.pos].clone());
        teacher_dets.push(teacher[r.stream][r.pos % POOL].clone());
        frames.push(inputs.frame(r.stream, r.pos));
    }
    let (maps, low) = map_metrics(&dets, &teacher_dets, &frames, MAP_FLOOR);
    out.layers.extend(maps);
    out.problems.extend(low);
    out.e2e.push(metric("peak_rss_mib", rss, 1));

    let ok: Vec<Digest> = replies.iter().filter_map(|r| r.digest).collect();
    out.layers.extend(reply_metrics(&ok, out.attempted, out.failed, &depths));
    let non2xx = replies.iter().filter(|r| r.non2xx).count();
    out.layers.push(metric("http.non2xx", non2xx as f64, replies.len()));
    out.layers.extend(counter_metrics(&before, &after));
    out.notes = Json::obj()
        .arr("frames_per_stream", &served_n.iter().map(|n| n.to_string()).collect::<Vec<_>>())
        .num("clusters", dep.models.iter().map(Vec::len).sum::<usize>() as f64)
        .arr("boot_passes", &dep.passes.iter().map(|p| p.to_string()).collect::<Vec<_>>());

    if trace {
        let ck = ctx.work_dir.join("steady-ck");
        out.layers.extend(deployment_metrics(
            &dep.server,
            dep.addr,
            &dep.store_dir,
            &ck,
            &inputs.pool[0][..64],
            true,
        )?);
        let sample: Vec<Frame> = (WARM..WARM + 128).map(|p| inputs.frame(0, p).clone()).collect();
        let boot: Vec<Frame> =
            (0..dep.passes[0]).flat_map(|_| inputs.pool[0].iter().cloned()).collect();
        let r = Replay {
            cfg: serving_config(),
            seed: ctx.seed,
            boot: &boot,
            models: &dep.models[0],
            frames: &sample,
        };
        let layers = replay(&weights, &r, &ctx.work_dir.join("steady-replay"))?;
        if let Some(b16) = layers.iter().find(|m| m.name == "pipeline.frame_us.b16") {
            let eff = throughput * b16.value * 1e-6 / workers as f64;
            out.layers.push(metric("server.efficiency", eff, ok_in_window));
        }
        out.layers.extend(layers);
    }
    dep.server.shutdown();
    drop(dep);
    out.e2e.push(setups.finish()?);
    Ok(out)
}
