//! What a workload run produces, the metric catalogue, and helpers the
//! workloads share for turning samples and server counters into metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use odin_core::server::OdinServer;
use odin_data::Frame;
use odin_detect::{mean_average_precision, Detection, MAP_IOU};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checks::{quality, Digest};
use crate::json::Json;
use crate::stats::{mean, median, tail_percentile};
use crate::trace::Span;

/// The end-to-end metrics every workload prints, `(name, unit)`. Must
/// match `end_to_end` in `BENCHMARK.json` (a unit test checks it).
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("throughput_fps", "frames/s"), ("peak_rss_mib", "MiB")];

/// The per-layer metrics every traced run prints, `(name, unit)`. Must
/// match `per_layer` in `BENCHMARK.json`. A layer a workload does not
/// exercise reports 0 from 0 samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Frame latency is printed with every run's full record, but gated
    // per layer: on a 2-vCPU host whose speed drifts in phases of
    // minutes, its seed-to-seed spread reaches the 25% cap.
    ("frame_p50_ms", "ms"),
    ("frame_p99_ms", "ms"),
    ("http.empty_ms.p50", "ms"),
    ("http.empty_ms.p99", "ms"),
    ("http.codec_us", "us"),
    ("http.non2xx", "count"),
    ("server.submit_us.p50", "us"),
    ("server.queue_depth.mean", "frames"),
    ("server.queue_depth.max", "frames"),
    ("server.rejected", "count"),
    ("server.efficiency", "ratio"),
    ("pipeline.frame_us.b1", "us"),
    ("pipeline.frame_us.b16", "us"),
    ("pipeline.unattributed_us.b1", "us"),
    ("pipeline.unattributed_us.b16", "us"),
    ("encode.frame_us.b1", "us"),
    ("encode.frame_us.b16", "us"),
    ("drift.observe_us", "us"),
    ("drift.promotions", "count"),
    ("drift.evictions", "count"),
    ("drift.delay_frames", "frames"),
    ("drift.recovery_s", "s"),
    ("select.us", "us"),
    ("select.teacher_share", "ratio"),
    ("select.specialized_share", "ratio"),
    ("detect.teacher_us.b1", "us"),
    ("detect.teacher_us.b16", "us"),
    ("detect.int8_us.b1", "us"),
    ("detect.int8_us.b16", "us"),
    ("detect.nms_us", "us"),
    ("detect.dets_per_frame", "count"),
    ("detect.map", "mAP"),
    ("detect.teacher_map", "mAP"),
    ("tensor.encode_gflops", "GFLOP/s"),
    ("tensor.teacher_gflops", "GFLOP/s"),
    ("tensor.int8_gops", "GOP/s"),
    ("train.job_s", "s"),
    ("train.quant_gate_ms", "ms"),
    ("train.jobs", "count"),
    ("train.orphaned", "count"),
    ("train.cancelled", "count"),
    ("attic.hits", "count"),
    ("attic.misses", "count"),
    ("attic.lookup_us", "us"),
    ("attic.recovery_s", "s"),
    ("store.checkpoint_ms", "ms"),
    ("store.snapshot_kib", "KiB"),
    ("store.wal_records", "count"),
    ("log.append_us", "us"),
    ("log.dropped", "count"),
    ("log.bytes_per_record", "B"),
    ("log.page_ms.p50", "ms"),
    ("log.tail_records", "count"),
    ("bench.late_ms.p99", "ms"),
    ("bench.sent", "count"),
    ("bench.failed_frac", "ratio"),
    ("bench.tail_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
];

/// One measured figure and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Catalogue name.
    pub name: String,
    /// Catalogue unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
}

/// Looks a name up in a catalogue and builds the metric.
pub fn metric(name: &str, value: f64, samples: usize) -> Metric {
    let unit = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
        .1;
    Metric { name: name.to_string(), unit, value, samples }
}

/// Everything one workload run reports.
#[derive(Default)]
pub struct Outcome {
    /// Failed output checks (empty when the run is correct).
    pub problems: Vec<String>,
    /// Frames the load generator attempted.
    pub attempted: usize,
    /// Attempted frames not answered OK.
    pub failed: usize,
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Metric>,
    /// Check details and other facts for the result file.
    pub notes: Json,
    /// Recorded spans (traced runs).
    pub spans: Vec<Span>,
    /// Serving workers the workload ran with.
    pub workers: usize,
}

impl Outcome {
    /// Records per-frame latencies (ms; failures infinite) as
    /// `frame_p50_ms` and `frame_p99_ms` — the highest percentile up to
    /// p99 with enough samples beyond it — and the percentile used.
    pub fn add_latencies(&mut self, latencies_ms: &[f64]) {
        let n = latencies_ms.len();
        self.layers.push(metric("frame_p50_ms", median(latencies_ms).unwrap_or(f64::NAN), n));
        let tail = tail_percentile(latencies_ms);
        self.layers.push(metric("frame_p99_ms", tail.map_or(f64::NAN, |t| t.value), n));
        self.layers.push(metric("bench.tail_pct", tail.map_or(f64::NAN, |t| t.pct), n));
    }

    /// The value of a metric already recorded, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.e2e.iter().chain(&self.layers).find(|m| m.name == name).map(|m| m.value)
    }
}

/// How a workload is run.
pub struct Ctx {
    /// Workload seed: drives frame generation and the pipeline seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Serving workers.
    pub workers: usize,
    /// Scratch directory for stores and logs (inside the checkout).
    pub work_dir: PathBuf,
    /// Process start.
    pub epoch: Instant,
}

/// Runs `f(stream)` for every stream on `threads` threads (stream `s`
/// on thread `s % threads`) and returns the results in stream order.
pub fn per_stream<T: Send>(
    streams: usize,
    threads: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let threads = threads.clamp(1, streams.max(1));
    let f = &f;
    let mut all: Vec<(usize, T)> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                sc.spawn(move || {
                    (t..streams).step_by(threads).map(|s| (s, f(s))).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("per-stream thread")).collect()
    });
    all.sort_by_key(|(s, _)| *s);
    all.into_iter().map(|(_, r)| r).collect()
}

/// The per-layer figures every workload takes from its replies: how
/// frames were served, detections per frame, frames sent and failed,
/// and the sampled admission-queue depth.
pub fn reply_metrics(
    ok: &[Digest],
    attempted: usize,
    failed: usize,
    depths: &[f64],
) -> Vec<Metric> {
    let spec = ok.iter().filter(|d| d.served.specialized()).count() as f64 / ok.len().max(1) as f64;
    let dets = ok.iter().map(|d| f64::from(d.dets)).sum::<f64>() / ok.len().max(1) as f64;
    vec![
        metric("select.specialized_share", spec, ok.len()),
        metric("select.teacher_share", 1.0 - spec, ok.len()),
        metric("detect.dets_per_frame", dets, ok.len()),
        metric("bench.sent", attempted as f64, attempted),
        metric("bench.failed_frac", failed as f64 / attempted.max(1) as f64, attempted),
        metric("server.queue_depth.mean", mean(depths).unwrap_or(0.0), depths.len()),
        metric("server.queue_depth.max", depths.iter().copied().fold(0.0, f64::max), depths.len()),
    ]
}

/// Set-ups timed before the timed phase; the last one serves it.
const SETUPS_BEFORE: usize = 2;
/// Set-ups timed after the timed phase, so that `setup_s` samples the
/// whole run rather than one moment of the host.
const SETUPS_AFTER: usize = 3;

/// A deployment's set-up, called with a repetition number (distinct
/// scratch directories per repetition), and the times taken so far.
pub struct Setups<F> {
    setup: F,
    times: Vec<f64>,
    trace: bool,
}

impl<D, F: FnMut(usize) -> Result<D, String>> Setups<F> {
    /// Sets a deployment up [`SETUPS_BEFORE`] times (once in traced
    /// mode, which reports no `setup_s`), timing each, and returns the
    /// last one; each earlier one is dropped, which shuts it down,
    /// before the next starts.
    pub fn first(trace: bool, setup: F) -> Result<(D, Self), String> {
        let mut this = Setups { setup, times: Vec::new(), trace };
        let mut last = None;
        for _ in 0..if trace { 1 } else { SETUPS_BEFORE } {
            drop(last.take());
            last = Some(this.once()?);
        }
        Ok((last.expect("at least one setup"), this))
    }

    fn once(&mut self) -> Result<D, String> {
        let t = Instant::now();
        let d = (self.setup)(self.times.len())?;
        self.times.push(t.elapsed().as_secs_f64());
        Ok(d)
    }

    /// Call once the served deployment is shut down: sets up (and
    /// drops) [`SETUPS_AFTER`] more deployments, none in traced mode,
    /// and returns `setup_s`, the median of every timing.
    pub fn finish(mut self) -> Result<Metric, String> {
        for _ in 0..if self.trace { 0 } else { SETUPS_AFTER } {
            drop(self.once()?);
        }
        Ok(metric("setup_s", median(&self.times).unwrap_or(0.0), self.times.len()))
    }
}

/// A seeded RNG for one purpose (`salt`) of one stream.
pub fn rng(seed: u64, stream: usize, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((stream as u64) << 24) ^ salt)
}

/// Throughput as the median over one-second windows of the timed phase
/// of the frames answered OK in each window (`done_s`: answer times in
/// seconds since the phase started). The median keeps a transient stall
/// of the host from moving the figure; a partial last window is dropped.
pub fn windowed_fps(done_s: &[f64], elapsed_s: f64) -> Metric {
    let windows = (elapsed_s.floor() as usize).max(1);
    let mut counts = vec![0.0; windows];
    for &t in done_s {
        if t >= 0.0 && ((t as usize) < windows) {
            counts[t as usize] += 1.0;
        }
    }
    metric("throughput_fps", median(&counts).unwrap_or(0.0), done_s.len())
}

/// mAP@`MAP_IOU` against the frames' ground truth of the served
/// detections (`detect.map`) and of the teacher's (`detect.teacher_map`,
/// `teacher[i]` for `frames[i]`), with the problems the quality check
/// at `floor` finds.
pub fn map_metrics(
    served: &[Vec<Detection>],
    teacher: &[Vec<Detection>],
    frames: &[&Frame],
    floor: f64,
) -> (Vec<Metric>, Vec<String>) {
    let gts: Vec<&[odin_data::GtBox]> = frames.iter().map(|f| f.boxes.as_slice()).collect();
    let score = |d| f64::from(mean_average_precision(d, &gts, MAP_IOU));
    let (s, t) = (score(served), score(teacher));
    let n = frames.len();
    (vec![metric("detect.map", s, n), metric("detect.teacher_map", t, n)], quality(s, t, floor))
}

/// Every shard's telemetry counters, summed across shards.
pub fn counters(server: &OdinServer) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for s in 0..server.streams() {
        for (name, v) in server.with_shard(s, |o| o.telemetry().snapshot()).counters {
            *out.entry(name).or_insert(0) += v;
        }
    }
    out
}

/// `after - before` for one counter.
pub fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, name: &str) -> f64 {
    let b = before.get(name).copied().unwrap_or(0);
    after.get(name).copied().unwrap_or(0).saturating_sub(b) as f64
}

/// Total size in bytes of the files under `dir` whose name is `file`.
pub fn bytes_named(dir: &std::path::Path, file: &str) -> u64 {
    let mut total = 0;
    let Ok(rd) = std::fs::read_dir(dir) else { return 0 };
    for e in rd.flatten() {
        let p = e.path();
        if p.is_dir() {
            total += bytes_named(&p, file);
        } else if p.file_name().is_some_and(|n| n == file) {
            total += e.metadata().map(|m| m.len()).unwrap_or(0);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one `BENCHMARK.json` metric list, in order.
    fn section(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key}"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list end")];
        let quoted = |s: &str, k: &str| {
            let rest = &s[s.find(&format!("\"{k}\": \"")).expect(k) + k.len() + 5..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        };
        body.split('{').skip(1).map(|e| (quoted(e, "name"), quoted(e, "unit"))).collect()
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = crate::deploy::repo_root().join("BENCHMARK.json");
        let json = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(section(&json, "end_to_end"), owned(END_TO_END));
        assert_eq!(section(&json, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn throughput_is_the_median_window() {
        // 3 s: 100, 10 (a stall) and 90 answers; a fourth, partial
        // second is dropped.
        let mut done: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        done.extend((0..10).map(|i| 1.0 + i as f64 / 10.0));
        done.extend((0..90).map(|i| 2.0 + i as f64 / 90.0));
        done.push(3.2);
        let m = windowed_fps(&done, 3.5);
        assert_eq!((m.name.as_str(), m.value, m.samples), ("throughput_fps", 90.0, 201));
    }

    #[test]
    fn latencies_report_the_tail_used() {
        let lat: Vec<f64> = (1..=500).map(f64::from).collect();
        let mut out = Outcome::default();
        out.add_latencies(&lat);
        assert_eq!(out.get("frame_p50_ms"), Some(250.5));
        assert_eq!(out.get("frame_p99_ms"), Some(490.0));
        assert_eq!(out.get("bench.tail_pct"), Some(98.0));
        assert_eq!(out.layers.len(), 3);
    }
}
