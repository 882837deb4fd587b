//! Measurements taken on a live deployment after its timed phase: the
//! counters of the telemetry snapshot, checkpoint and log sizes, the
//! HTTP front end's floor, the ingest codec and paged `GET /events`.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

use odin_core::server::{decode_ingest_frame, encode_ingest_frame, OdinServer};
use odin_core::EVENT_LOG_FILE;
use odin_data::Frame;
use odin_telemetry::http;

use crate::json::{field, field_u64};
use crate::report::{bytes_named, delta, metric, Metric};
use crate::stats::{median, tail_percentile};

/// Counter deltas over the timed phase, and run totals for the log and
/// WAL (which must hold for the whole run).
pub fn counter_metrics(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> Vec<Metric> {
    let total = |name: &str| after.get(name).copied().unwrap_or(0) as f64;
    vec![
        metric("drift.promotions", delta(before, after, "odin_drift_events_total"), 1),
        metric("drift.evictions", delta(before, after, "odin_evictions_total"), 1),
        metric("train.jobs", delta(before, after, "odin_train_jobs_total"), 1),
        metric("train.orphaned", delta(before, after, "odin_train_orphaned_total"), 1),
        metric("train.cancelled", delta(before, after, "odin_train_cancelled_total"), 1),
        metric("attic.hits", delta(before, after, "odin_attic_hits_total"), 1),
        metric("attic.misses", delta(before, after, "odin_attic_misses_total"), 1),
        metric("server.rejected", delta(before, after, "odin_server_rejected_total"), 1),
        metric("log.dropped", total("odin_event_log_dropped_total"), 1),
        metric("store.wal_records", total("odin_wal_appends_total"), 1),
    ]
}

/// Seals every shard's partial log segment and makes the WAL durable,
/// once all admitted frames are answered.
pub fn quiesce(server: &OdinServer) {
    server.drain();
    for s in 0..server.streams() {
        server.with_shard(s, |o| o.flush_store());
    }
}

/// One `GET` round trip in milliseconds, with the body.
pub fn timed_get(addr: SocketAddr, path: &str) -> Result<(f64, String), String> {
    let t = Instant::now();
    let (status, body) = http::get(addr, path).map_err(|e| format!("GET {path}: {e}"))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if !status.contains(" 200") {
        return Err(format!("GET {path}: {status}"));
    }
    Ok((ms, body))
}

/// Tailed log records as `(stream, seq)`, in arrival order.
pub type Records = Vec<(usize, u64)>;

/// Splits a `GET /events` body into `(cursor, [(stream, seq)])`.
pub fn parse_events(body: &str) -> Result<(String, Records), String> {
    let cursor = field(body, "cursor").ok_or("events reply without cursor")?.to_string();
    let records = body.split_once("\"records\":[").map(|(_, r)| r).unwrap_or("");
    let mut out = Vec::new();
    for rec in records.split("{\"seq\":").skip(1) {
        let rec = format!("{{\"seq\":{rec}");
        let seq = field_u64(&rec, "seq").ok_or("record without seq")?;
        let stream = field_u64(&rec, "stream").ok_or("record without stream")?;
        out.push((stream as usize, seq));
    }
    Ok((cursor, out))
}

/// Pages the whole event log through `GET /events` from the start.
/// Returns the page round trips (ms) and the records in arrival order.
pub fn page_log(addr: SocketAddr) -> Result<(Vec<f64>, Records), String> {
    let mut path = "/events?limit=512".to_string();
    let (mut pages, mut records) = (Vec::new(), Vec::new());
    loop {
        let (ms, body) = timed_get(addr, &path)?;
        pages.push(ms);
        let (next, recs) = parse_events(&body)?;
        path = format!("/events?cursor={next}&limit=512");
        if recs.is_empty() {
            return Ok((pages, records));
        }
        records.extend(recs);
    }
}

/// The store, log, HTTP and codec metrics of a quiesced deployment.
/// `page` pages the event log through `GET /events` (workloads with a
/// live tailer report that path themselves).
pub fn deployment_metrics(
    server: &OdinServer,
    addr: SocketAddr,
    store_dir: &Path,
    ck_dir: &Path,
    frames: &[Frame],
    page: bool,
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    quiesce(server);
    let counters = crate::report::counters(server);
    let appended = counters.get("odin_event_log_appended_total").copied().unwrap_or(0);
    let log_bytes = bytes_named(store_dir, EVENT_LOG_FILE);
    out.push(metric(
        "log.bytes_per_record",
        log_bytes as f64 / appended.max(1) as f64,
        appended as usize,
    ));

    let mut ck_ms = Vec::new();
    for k in 0..3 {
        let dir = ck_dir.join(k.to_string());
        let t = Instant::now();
        server.checkpoint_all(&dir).map_err(|e| format!("checkpoint_all: {e}"))?;
        ck_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.push(metric("store.checkpoint_ms", median(&ck_ms).unwrap_or(0.0), ck_ms.len()));
    let ck_bytes = bytes_named(&ck_dir.join("0"), odin_core::SHARED_SNAPSHOT_FILE)
        + bytes_named(&ck_dir.join("0"), odin_core::SNAPSHOT_FILE);
    out.push(metric("store.snapshot_kib", ck_bytes as f64 / 1024.0, 1));

    let mut empty = Vec::new();
    for _ in 0..200 {
        empty.push(timed_get(addr, "/healthz")?.0);
    }
    out.push(metric("http.empty_ms.p50", median(&empty).unwrap_or(0.0), empty.len()));
    let tail = tail_percentile(&empty).map(|t| t.value).unwrap_or(0.0);
    out.push(metric("http.empty_ms.p99", tail, empty.len()));

    let t = Instant::now();
    for f in frames {
        let back =
            decode_ingest_frame(&encode_ingest_frame(f)).map_err(|e| format!("codec: {e}"))?;
        std::hint::black_box(back);
    }
    let codec = t.elapsed().as_secs_f64() * 1e6 / frames.len().max(1) as f64;
    out.push(metric("http.codec_us", codec, frames.len()));

    if page {
        let (pages, records) = page_log(addr)?;
        out.push(metric("log.page_ms.p50", median(&pages).unwrap_or(0.0), pages.len()));
        out.push(metric("log.tail_records", records.len() as f64, pages.len()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_bodies_parse_into_stream_seq_pairs() {
        let body = concat!(
            r#"{"cursor":"3:120,1:40","count":2,"records":["#,
            r#"{"seq":3,"kind":"frame","ts_us":5,"frame":2,"stream":0,"cluster":-1,"served":"teacher","dets":1,"conf_mean":0.5000,"conf_max":0.5000,"latency_us":9,"trace":1},"#,
            r#"{"seq":1,"kind":"drift_detected","ts_us":6,"frame":30,"stream":1,"cluster":0,"served":"teacher","dets":0,"conf_mean":0.0000,"conf_max":0.0000,"latency_us":0,"trace":2}"#,
            "]}"
        );
        let (cursor, recs) = parse_events(body).unwrap();
        assert_eq!(cursor, "3:120,1:40");
        assert_eq!(recs, vec![(0, 3), (1, 1)]);
        let (_, none) = parse_events(r#"{"cursor":"0:0","count":0,"records":[]}"#).unwrap();
        assert!(none.is_empty());
    }
}
