//! The traced run's layer-by-layer replay: the workload's own frames go
//! through each layer's public function in pipeline order (encode →
//! Δ-band observe → select → detect → NMS), at batch 1 and at the
//! server's batch size, next to `Odin::process_batch` on a standalone
//! shard with the same configuration — so the parts can be seen to sum
//! to the pipeline, with the remainder reported as
//! `pipeline.unattributed_us`.

use std::path::Path;
use std::time::Instant;

use odin_core::pipeline::{FrameResult, Odin, OdinConfig, QUANT_GATE_FRAMES};
use odin_core::registry::{ClusterModel, ModelKind, ServePrecision};
use odin_core::selector::select;
use odin_core::specializer::Specializer;
use odin_core::{CheckpointPolicy, LatentEncoder};
use odin_data::{Frame, Image};
use odin_detect::{
    decode, nms, Detection, Detector, QDetector, DEFAULT_CONF, DEFAULT_NMS_IOU, HEAD_CHANNELS,
};
use odin_drift::{ClusterManager, LshIndex};
use odin_log::{EventLogConfig, LogMetrics, LogRecord, LogWriter};

use crate::deploy::{base_config, standalone_shard, Weights, FRAME_SIZE};
use crate::report::{metric, rng, Metric};
use crate::stats::median;

/// One convolution: `(in_c, out_c, kernel, stride, pad)`.
type Conv = (usize, usize, usize, usize, usize);

/// The DA-GAN encoder's convolutions (`DaGanConfig::bdd`: width 12).
const ENCODER_CONVS: &[Conv] = &[(3, 12, 3, 2, 1), (12, 24, 3, 2, 1), (24, 24, 3, 2, 1)];
/// The encoder's final dense projection, `(inputs, latent)`.
const ENCODER_DENSE: (usize, usize) = (24 * 6 * 6, 64);
/// The heavyweight teacher's convolutions (batch norm after the first five).
const TEACHER_CONVS: &[Conv] = &[
    (3, 24, 3, 2, 1),
    (24, 48, 3, 2, 1),
    (48, 64, 3, 1, 1),
    (64, 64, 3, 2, 1),
    (64, 64, 3, 1, 1),
    (64, HEAD_CHANNELS, 1, 1, 0),
];
/// The Small (specialized) detector's convolutions.
const SMALL_CONVS: &[Conv] =
    &[(3, 16, 3, 2, 1), (16, 32, 3, 2, 1), (32, 40, 3, 2, 1), (40, HEAD_CHANNELS, 1, 1, 0)];

/// `(multiply-add operations × 2, trainable parameters)` of a conv stack
/// on a `size`×`size` input, from the layer shapes alone.
fn conv_cost(convs: &[Conv], size: usize) -> (f64, usize) {
    let (mut ops, mut params, mut side) = (0.0, 0, size);
    for &(i, o, k, s, p) in convs {
        side = (side + 2 * p - k) / s + 1;
        ops += 2.0 * (o * i * k * k * side * side) as f64;
        params += o * i * k * k + o;
    }
    (ops, params)
}

/// Operations per frame of the DA-GAN encoder (computed from shapes).
pub fn encoder_ops() -> f64 {
    let (i, o) = ENCODER_DENSE;
    conv_cost(ENCODER_CONVS, FRAME_SIZE).0 + 2.0 * (i * o) as f64
}

/// Operations per frame of the teacher (computed from shapes).
pub fn teacher_ops() -> f64 {
    conv_cost(TEACHER_CONVS, FRAME_SIZE).0
}

/// Operations per frame of the Small detector (computed from shapes).
pub fn small_ops() -> f64 {
    conv_cost(SMALL_CONVS, FRAME_SIZE).0
}

/// What the replay needs from a workload.
pub struct Replay<'a> {
    /// The workload's pipeline configuration.
    pub cfg: OdinConfig,
    /// The workload seed (pipeline seed of stream 0).
    pub seed: u64,
    /// Frames the workload bootstraps clusters from (may be empty).
    pub boot: &'a [Frame],
    /// Warm models installed after bootstrap, `(cluster, params)`.
    pub models: &'a [(usize, Vec<f32>)],
    /// A sample of the workload's served frames, in stream order.
    pub frames: &'a [Frame],
}

/// The server's `batch_max`: the batch a full queue forms.
const FULL_BATCH: usize = 16;

fn small_detector(params: &[f32]) -> Detector {
    let mut d = Detector::small(FRAME_SIZE, &mut rng(0, 0, 0x5A11));
    d.import_params(params);
    d
}

/// A standalone shard prepared like the workload's deployment, with a
/// store (WAL + event log) attached so its frames pay the same
/// persistence costs. Training is disabled: the replay times serving.
fn prepared(weights: &Weights, r: &Replay, dir: &Path) -> Result<Odin, String> {
    let cfg = OdinConfig { min_train_frames: usize::MAX, ..r.cfg };
    let mut odin = standalone_shard(weights, cfg, r.seed, 0);
    if !r.boot.is_empty() {
        odin.bootstrap_clusters(r.boot);
    }
    for (id, params) in r.models {
        odin.register_model(*id, small_detector(params), ModelKind::Specialized);
    }
    odin.enable_store(dir, CheckpointPolicy::Manual).map_err(|e| format!("replay store: {e}"))?;
    Ok(odin)
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Mean per-frame microseconds of `f` over `frames` in chunks of `b`.
fn per_frame_us<T>(frames: &[T], b: usize, mut f: impl FnMut(&[T])) -> f64 {
    let t = Instant::now();
    for chunk in frames.chunks(b.max(1)) {
        f(chunk);
    }
    us_since(t) / frames.len().max(1) as f64
}

/// Times one frame's detection along the path the pipeline served it
/// by: the teacher, or each selected model plus the ensemble NMS.
fn detect_path(
    p: &mut Parts,
    f: &Frame,
    res: &FrameResult,
    teacher: &Detector,
    models: &[(usize, ClusterModel)],
) {
    if res.selection.is_empty() || models.is_empty() {
        let t = Instant::now();
        std::hint::black_box(teacher.detect(&f.image));
        p.detect += us_since(t);
        let head = teacher.forward(&Image::batch(std::slice::from_ref(&f.image)));
        let raw = decode(&head, FRAME_SIZE, DEFAULT_CONF).pop().unwrap_or_default();
        let t = Instant::now();
        std::hint::black_box(nms(raw, DEFAULT_NMS_IOU));
        p.nms += us_since(t);
        return;
    }
    let k = res.selection.models.len() as f32;
    let mut pool: Vec<Detection> = Vec::new();
    let t = Instant::now();
    for &(id, w) in &res.selection.models {
        let m = models.iter().find(|(mid, _)| *mid == id).unwrap_or(&models[0]);
        for mut d in m.1.detect(&f.image) {
            // The pipeline's ensemble weighting.
            d.score = (d.score * w * k).min(1.0);
            pool.push(d);
        }
    }
    p.detect += us_since(t);
    let t = Instant::now();
    std::hint::black_box(nms(pool, DEFAULT_NMS_IOU));
    let dt = us_since(t);
    p.pool_nms += dt;
    p.nms += dt;
}

/// Time spent per layer over the replay, in microseconds (summed).
#[derive(Default)]
struct Parts {
    frame_b1: f64,
    frame_bn: f64,
    enc_b1: f64,
    enc_bn: f64,
    observe: f64,
    select: f64,
    /// Model `detect` calls along each frame's serving path.
    detect: f64,
    /// The ensemble-level NMS over pooled member detections.
    pool_nms: f64,
    /// NMS over each frame's pre-NMS candidates on its serving path.
    nms: f64,
}

/// Runs the replay and returns the pipeline, encode, drift, select,
/// detect, tensor, train, attic and log-append metrics. Batched rows
/// use the server's full batch ([`FULL_BATCH`]). The whole pipeline and
/// its parts are timed chunk by chunk, interleaved, so a slow stretch
/// of the host lands on both alike.
pub fn replay(weights: &Weights, r: &Replay, dir: &Path) -> Result<Vec<Metric>, String> {
    let n = r.frames.len();
    let b = FULL_BATCH;
    let images: Vec<&Image> = r.frames.iter().map(|f| &f.image).collect();
    let mut out = Vec::new();

    // The whole pipeline runs on two identically prepared shards, one fed
    // frame by frame and one in full batches. The parts run on a fresh
    // encoder and a shadow manager that has seen the same bootstrap.
    let mut a = prepared(weights, r, &dir.join("b1"))?;
    let mut bb = prepared(weights, r, &dir.join("bn"))?;
    let mut enc = weights.encoder();
    let mut manager = ClusterManager::new(r.cfg.manager);
    let boot_refs: Vec<&Image> = r.boot.iter().map(|f| &f.image).collect();
    for z in enc.project_batch(&boot_refs) {
        manager.observe(&z);
    }
    let teacher = weights.teacher();
    let models: Vec<(usize, ClusterModel)> = r
        .models
        .iter()
        .map(|(id, p)| {
            let mut cm = ClusterModel::new(small_detector(p), ModelKind::Specialized);
            if r.cfg.precision == ServePrecision::Int8 {
                cm.quantize();
            }
            (*id, cm)
        })
        .collect();
    let mut archived: Vec<Vec<f32>> = Vec::new();
    let mut p = Parts::default();
    for (chunk, imgs) in r.frames.chunks(b).zip(images.chunks(b)) {
        let t = Instant::now();
        bb.process_batch(chunk);
        p.frame_bn += us_since(t);
        let t = Instant::now();
        let served: Vec<_> =
            chunk.iter().flat_map(|f| a.process_batch(std::slice::from_ref(f))).collect();
        p.frame_b1 += us_since(t);

        let t = Instant::now();
        for im in imgs {
            enc.project_batch(std::slice::from_ref(im));
        }
        p.enc_b1 += us_since(t);
        let t = Instant::now();
        let latents = enc.project_batch(imgs);
        p.enc_bn += us_since(t);

        for ((f, z), res) in chunk.iter().zip(&latents).zip(&served) {
            let t = Instant::now();
            let obs = manager.observe(z);
            p.observe += us_since(t);
            if obs.evicted.is_some() {
                archived.extend(manager.take_evicted().map(|c| c.centroid().to_vec()));
            }
            let t = Instant::now();
            std::hint::black_box(select(r.cfg.policy, &manager, z));
            p.select += us_since(t);
            detect_path(&mut p, f, res, &teacher, &models);
        }
    }
    a.flush_store();
    bb.flush_store();
    let per = |v: f64| v / n.max(1) as f64;
    let (frame_b1, frame_bn, enc_b1, enc_bn) =
        (per(p.frame_b1), per(p.frame_bn), per(p.enc_b1), per(p.enc_bn));
    let (observe_us, select_us, nms_us) = (per(p.observe), per(p.select), per(p.nms));
    let serve_us = per(p.detect) + per(p.pool_nms);
    let parts_b1 = enc_b1 + observe_us + select_us + serve_us;
    let parts_bn = enc_bn + observe_us + select_us + serve_us;
    out.push(metric("pipeline.frame_us.b1", frame_b1, n));
    out.push(metric("pipeline.frame_us.b16", frame_bn, n));
    out.push(metric("pipeline.unattributed_us.b1", frame_b1 - parts_b1, n));
    out.push(metric("pipeline.unattributed_us.b16", frame_bn - parts_bn, n));
    out.push(metric("encode.frame_us.b1", enc_b1, n));
    out.push(metric("encode.frame_us.b16", enc_bn, n));
    out.push(metric("drift.observe_us", observe_us, n));
    out.push(metric("select.us", select_us, n));
    out.push(metric("detect.nms_us", nms_us, n));

    // Each detector alone at both batch sizes.
    let sample = &images[..images.len().min(64)];
    let teacher_b1 = per_frame_us(sample, 1, |c| {
        teacher.detect_batch(c);
    });
    let teacher_bn = per_frame_us(sample, b, |c| {
        teacher.detect_batch(c);
    });
    // Workloads without warm models time a freshly quantized Small
    // detector: int8 cost does not depend on the weights' values.
    let fresh;
    let q = match models.first().and_then(|(_, m)| m.quant.as_ref()) {
        Some(q) => q,
        None => {
            fresh = QDetector::quantize(&Detector::small(FRAME_SIZE, &mut rng(0, 0, 0x5A11)))
                .ok_or("Small detector is not quantizable")?;
            &fresh
        }
    };
    let int8_b1 = per_frame_us(sample, 1, |c| {
        q.detect_batch(c);
    });
    let int8_bn = per_frame_us(sample, b, |c| {
        q.detect_batch(c);
    });
    let s = sample.len();
    out.push(metric("detect.teacher_us.b1", teacher_b1, s));
    out.push(metric("detect.teacher_us.b16", teacher_bn, s));
    out.push(metric("detect.int8_us.b1", int8_b1, s));
    out.push(metric("detect.int8_us.b16", int8_bn, s));
    // Operation counts from layer shapes over measured time.
    out.push(metric("tensor.encode_gflops", encoder_ops() / (enc_bn * 1e3), n));
    out.push(metric("tensor.teacher_gflops", teacher_ops() / (teacher_bn * 1e3), s));
    out.push(metric("tensor.int8_gops", small_ops() / (int8_bn * 1e3), s));

    // One recovery-sized training job and the int8 install gate.
    let train_n = base_config().min_train_frames.min(n);
    let specializer = Specializer::new(r.cfg.specializer);
    let t = Instant::now();
    let trained = specializer.build_specialized(r.seed, &r.frames[..train_n]);
    out.push(metric("train.job_s", t.elapsed().as_secs_f64(), 1));
    let gate = &r.frames[..train_n.min(QUANT_GATE_FRAMES)];
    let t = Instant::now();
    let q = QDetector::quantize(&trained).ok_or("trained model is not quantizable")?;
    std::hint::black_box((q.evaluate_map(gate), trained.evaluate_map(gate)));
    out.push(metric("train.quant_gate_ms", t.elapsed().as_secs_f64() * 1e3, gate.len()));

    // Attic lookup over the shadow replay's cluster signatures, indexed
    // the way the attic indexes them.
    archived.extend(manager.clusters().iter().map(|c| c.centroid().to_vec()));
    if let Some(dim) = archived.first().map(Vec::len) {
        let mut index = LshIndex::new(dim, 4, 8, 0xA77C);
        for c in &archived {
            index.insert(c.clone());
        }
        const REPS: usize = 200;
        let t = Instant::now();
        for _ in 0..REPS {
            for c in &archived {
                std::hint::black_box(index.nearest(c));
            }
        }
        let lookups = REPS * archived.len();
        out.push(metric("attic.lookup_us", us_since(t) / lookups as f64, lookups));
    }

    out.push(log_append(dir)?);
    Ok(out)
}

/// `LogWriter::append` cost: frame records through a fresh writer.
fn log_append(dir: &Path) -> Result<Metric, String> {
    const RECORDS: usize = 4096;
    let cfg = EventLogConfig { enabled: true, queue_cap: RECORDS * 2, ..Default::default() };
    let writer = LogWriter::open(&dir.join("append.odlg"), cfg, LogMetrics::detached())
        .map_err(|e| format!("append log: {e}"))?;
    let mut times = Vec::with_capacity(RECORDS);
    for i in 0..RECORDS {
        let rec = LogRecord { seq: i as u64 + 1, frame: i as u64, dets: 3, ..LogRecord::empty() };
        let t = Instant::now();
        writer.append(rec);
        times.push(us_since(t));
    }
    writer.flush().map_err(|e| format!("append log flush: {e}"))?;
    Ok(metric("log.append_us", median(&times).unwrap_or(0.0), RECORDS))
}

#[cfg(test)]
mod tests {
    use super::*;
    use odin_gan::{DaGan, DaGanConfig};

    /// The shape tables behind the computed operation counts must
    /// describe the real models: their parameter counts agree.
    #[test]
    fn shape_tables_match_the_models() {
        let mut r = rng(1, 0, 0);
        let (i, o) = ENCODER_DENSE;
        let enc = conv_cost(ENCODER_CONVS, FRAME_SIZE).1 + i * o + o;
        assert_eq!(enc, DaGan::new(DaGanConfig::bdd(), &mut r).encoder_params());
        let bn: usize = TEACHER_CONVS[..5].iter().map(|c| 2 * c.1).sum();
        let teacher = conv_cost(TEACHER_CONVS, FRAME_SIZE).1 + bn;
        assert_eq!(teacher, Detector::heavy(FRAME_SIZE, &mut r).num_params());
        assert_eq!(
            conv_cost(SMALL_CONVS, FRAME_SIZE).1,
            Detector::small(FRAME_SIZE, &mut r).num_params()
        );
        assert!(teacher_ops() > 5.0 * small_ops());
        assert!(encoder_ops() > 1e6);
    }
}
