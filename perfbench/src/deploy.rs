//! The deployment every workload shares: fixed seed-42 weights loaded
//! from the committed `results/cache/` files, the serving configuration
//! (DA-GAN encoder, int8 serving, store and per-shard event log on), and
//! the provenance block written with every result.

use std::path::{Path, PathBuf};

use odin_core::encoder::DaGanEncoder;
use odin_core::pipeline::{Odin, OdinConfig};
use odin_core::server::{OdinServer, ServerConfig};
use odin_core::specializer::SpecializerConfig;
use odin_core::training::TrainingMode;
use odin_core::{AtticConfig, EventLogConfig, ServePrecision};
use odin_data::Frame;
use odin_detect::{Detection, Detector, DetectorArch};
use odin_drift::ManagerConfig;
use odin_gan::{DaGan, DaGanConfig};
use odin_store::{Checkpoint, Decoder};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::json::Json;

/// The committed DA-GAN weights (seed 42, 1200 training iterations).
pub const DAGAN_FILE: &str = "results/cache/dagan_bdd_42_1200.odst";
/// The committed NIGHT-trained heavyweight teacher (seed 42, 900 iterations).
pub const TEACHER_FILE: &str = "results/cache/teacher_42_900_NIGHT-DATA.odst";
/// Frame side length of every model and generated frame.
pub const FRAME_SIZE: usize = 48;

/// The repository root: the parent of this package's manifest directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("package sits inside the repo").into()
}

/// Reads the flat parameter buffer of a cache file, failing with a
/// message that names the file. The benchmark never retrains: a missing
/// or damaged file would otherwise put minutes of training into
/// `setup_s` and make runs incomparable.
fn load_params(rel: &str, expected_len: usize) -> Result<Vec<f32>, String> {
    let path = repo_root().join(rel);
    if !path.exists() {
        return Err(format!(
            "missing weights file {}: the benchmark loads the committed seed-42 models and \
             never retrains them",
            path.display()
        ));
    }
    let cp =
        Checkpoint::read(&path).map_err(|e| format!("corrupt weights {}: {e}", path.display()))?;
    let section = cp.require("params").map_err(|e| format!("{}: {e}", path.display()))?;
    let mut dec = Decoder::new(section);
    let params = dec
        .take_f32s("cache params")
        .and_then(|p| dec.finish("cache params").map(|_| p))
        .map_err(|e| format!("malformed weights {}: {e}", path.display()))?;
    if params.len() != expected_len {
        return Err(format!(
            "weights {} hold {} parameters, the model expects {expected_len}",
            path.display(),
            params.len()
        ));
    }
    Ok(params)
}

/// Both model sets, as flat parameter buffers; each deployment builds
/// its own model instances from them.
pub struct Weights {
    dagan: Vec<f32>,
    teacher: Vec<f32>,
}

impl Weights {
    /// Loads the committed DA-GAN and teacher weights.
    pub fn load() -> Result<Self, String> {
        let dagan = load_params(DAGAN_FILE, Self::blank_dagan().export_len())?;
        let teacher = load_params(TEACHER_FILE, Self::blank_teacher().export_len())?;
        Ok(Weights { dagan, teacher })
    }

    fn blank_dagan() -> DaGan {
        DaGan::new(DaGanConfig::bdd(), &mut StdRng::seed_from_u64(42 ^ 0xDA6A))
    }

    fn blank_teacher() -> Detector {
        Detector::heavy(FRAME_SIZE, &mut StdRng::seed_from_u64(42 ^ 0x7EAC))
    }

    /// A DA-GAN with the committed weights.
    pub fn dagan(&self) -> DaGan {
        let mut m = Self::blank_dagan();
        m.import_params(&self.dagan);
        m
    }

    /// A DA-GAN encoder with the committed weights.
    pub fn encoder(&self) -> Box<DaGanEncoder> {
        Box::new(DaGanEncoder::new(self.dagan()))
    }

    /// The NIGHT-trained teacher with the committed weights.
    pub fn teacher(&self) -> Detector {
        let mut m = Self::blank_teacher();
        m.import_params(&self.teacher);
        m
    }
}

/// The pipeline configuration every workload starts from: DA-GAN
/// clustering, Small int8-served specialized models, event log on.
pub fn base_config() -> OdinConfig {
    OdinConfig {
        manager: ManagerConfig {
            min_points: 24,
            stable_window: 6,
            kl_eps: 2e-3,
            ..ManagerConfig::default()
        },
        specializer: SpecializerConfig {
            arch: DetectorArch::Small,
            frame_size: FRAME_SIZE,
            train_iters: 60,
            distill_iters: 40,
            batch_size: 8,
        },
        // A promotion hands over at least `min_points` frames, so a new
        // cluster's job can start as soon as it is promoted.
        min_train_frames: 24,
        // Frames buffered per cluster awaiting training: enough for a
        // job, without holding hundreds of frames per idle cluster.
        buffer_cap: 128,
        training: TrainingMode::Inline,
        precision: ServePrecision::Int8,
        event_log: EventLogConfig { enabled: true, queue_cap: 1 << 16, ..Default::default() },
        attic: AtticConfig::default(),
        ..OdinConfig::default()
    }
}

/// Assignment margin of the serving-only workloads' drift detector,
/// wider than `ManagerConfig`'s default of 0.6. With the default, a
/// stream cycling a fixed frame pool never settles: clusters keep being
/// promoted while timed, each teacher-served and buffering frames for a
/// job that never runs, so throughput and memory follow how many a seed
/// happens to promote rather than the serving path.
const STABLE_ASSIGN_MARGIN: f32 = 2.0;

/// Configuration of the workloads that only serve (`steady-http`,
/// `burst-teacher`): training disabled (`min_train_frames =
/// usize::MAX`) and [`STABLE_ASSIGN_MARGIN`].
pub fn serving_config() -> OdinConfig {
    let base = base_config();
    OdinConfig {
        manager: ManagerConfig { assign_margin: STABLE_ASSIGN_MARGIN, ..base.manager },
        min_train_frames: usize::MAX,
        ..base
    }
}

/// The committed teacher's detections on `frames`, in batches of 16,
/// run outside the pipeline: the reference of the quality check.
pub fn teacher_detections(weights: &Weights, frames: &[&Frame]) -> Vec<Vec<Detection>> {
    let teacher = weights.teacher();
    frames
        .chunks(16)
        .flat_map(|c| teacher.detect_batch(&c.iter().map(|f| &f.image).collect::<Vec<_>>()))
        .collect()
}

/// Builds a server whose shards all use the committed encoder/teacher.
pub fn build_server(weights: &Weights, cfg: ServerConfig, seed: u64) -> OdinServer {
    let server = OdinServer::build(cfg, |_| weights.encoder(), weights.teacher(), seed);
    for i in 0..server.streams() {
        server.with_shard(i, |o| o.telemetry().clear_sinks());
    }
    server
}

/// A standalone pipeline configured exactly like server shard `stream`
/// (same weights, same per-shard seed, inline training): the reference
/// the output checks compare served replies against.
pub fn standalone_shard(weights: &Weights, cfg: OdinConfig, seed: u64, stream: usize) -> Odin {
    let cfg = OdinConfig { training: TrainingMode::Inline, ..cfg };
    let odin =
        Odin::new(weights.encoder(), weights.teacher(), cfg, seed.wrapping_add(stream as u64));
    odin.telemetry().clear_sinks();
    odin
}

/// Most bootstrap passes [`settle_clusters`] runs.
const SETTLE_PASSES: usize = 12;

/// Bootstraps a pipeline's clusters over the frames a stream will cycle
/// through, pass after pass, until a pass leaves them alone — no
/// promotion and no new outlier in the temporary cluster — or
/// [`SETTLE_PASSES`] have run. Later passes promote clusters from earlier
/// passes' recurring outliers, so fewer clusters are promoted (and,
/// without a model, teacher-served) while timed. Returns the passes run;
/// a standalone replay repeats exactly that many.
pub fn settle_clusters(odin: &mut Odin, pool: &[Frame]) -> usize {
    for pass in 1..=SETTLE_PASSES {
        let outliers = odin.manager().temp_len();
        if odin.bootstrap_clusters(pool).is_empty() && odin.manager().temp_len() == outliers {
            return pass;
        }
    }
    SETTLE_PASSES
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The git revision when run inside a repository, else `None` (the
/// benchmark also runs from plain source checkouts, which record
/// `"unknown"`).
fn git_rev() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(repo_root())
        .env("GIT_CEILING_DIRECTORIES", repo_root().parent().unwrap_or(Path::new("/")))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !rev.is_empty()).then_some(rev)
}

/// The provenance block: what ran, where, and how.
pub fn provenance(workload: &str, seed: u64, workers: usize, trace: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj()
        .str("workload", workload)
        .num("seed", seed as f64)
        .bool("trace", trace)
        .str("git_rev", git_rev().as_deref().unwrap_or("unknown"))
        .num("nproc", nproc as f64)
        .bool("simd", odin_tensor::simd::simd_enabled())
        .num("tensor_threads", odin_tensor::par::num_threads() as f64)
        .num("serving_workers", workers as f64)
        .str("dagan_weights", DAGAN_FILE)
        .str("teacher_weights", TEACHER_FILE)
}
