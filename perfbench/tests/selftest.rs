//! Self-tests of the benchmark harness: deterministic schedules, response
//! framing split at every byte boundary, body digests, the generator's
//! deadline, the percentile and ESS summaries on fixed vectors, the
//! host-speed calibration, and the metric lists agreeing with
//! `BENCHMARK.json`.

use perfbench::framing::{Response, ResponseReader};
use perfbench::report::{Report, END_TO_END, PER_LAYER};
use perfbench::rng::Rng;
use perfbench::schedule::{Digest, Plan, Zipf};
use perfbench::serving::{self, ANALYTICS, FEDERATED, LOOKUP};
use perfbench::stats::{beyond, ess_per_s, median, min_ess, percentile, trace_ess};

fn plan_fingerprint(p: &Plan) -> (Vec<u64>, Vec<u32>, Vec<Vec<u8>>) {
    (
        p.due_ns.clone(),
        p.key_of.clone(),
        (0..p.keys.len() as u32).map(|k| p.request(k)).collect(),
    )
}

#[test]
fn schedule_is_deterministic_per_seed() {
    for w in [LOOKUP, ANALYTICS, FEDERATED] {
        let a = serving::plan(&w, 7, 2.0);
        let b = serving::plan(&w, 7, 2.0);
        let c = serving::plan(&w, 8, 2.0);
        assert!(!a.is_empty(), "{}: empty plan", w.name);
        assert_eq!(
            plan_fingerprint(&a),
            plan_fingerprint(&b),
            "{}: same seed, different plan",
            w.name
        );
        assert_ne!(
            plan_fingerprint(&a),
            plan_fingerprint(&c),
            "{}: seed ignored",
            w.name
        );
        assert!(
            a.due_ns.windows(2).all(|d| d[0] <= d[1]),
            "{}: arrivals out of order",
            w.name
        );
        // Poisson arrivals at the workload's rate: within 10% over 2 s.
        let expected = w.rate * 2.0;
        assert!(
            (a.len() as f64 - expected).abs() < 0.1 * expected,
            "{}: {} arrivals",
            w.name,
            a.len()
        );
    }
    assert_eq!(serving::specs(50), serving::specs(50));
}

#[test]
fn lookup_mix_matches_its_definition() {
    let p = serving::plan(&LOOKUP, 3, 4.0);
    let text = |k: u32| String::from_utf8_lossy(&p.request(k)).into_owned();
    let n = p.len() as f64;
    let share = |prefix: &str| {
        p.key_of
            .iter()
            .filter(|&&k| text(k).starts_with(prefix))
            .count() as f64
            / n
    };
    assert!((share("GET /pipe?id=") - 0.85).abs() < 0.02);
    assert!((share("GET /top?k=") - 0.10).abs() < 0.02);
    assert!((share("POST /batch") - 0.05).abs() < 0.02);
}

fn response(status: u16, extra: &str, body: &str) -> (Vec<u8>, Response) {
    let bytes = format!(
        "HTTP/1.1 {status} X\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{extra}\r\n{body}",
        body.len()
    )
    .into_bytes();
    let expected = Response {
        status,
        close: extra.contains("Connection: close"),
        epoch: extra
            .split("X-Pipefail-Epoch: ")
            .nth(1)
            .and_then(|v| v.split("\r\n").next())
            .and_then(|v| v.parse().ok()),
        body: body.as_bytes().to_vec(),
    };
    (bytes, expected)
}

fn drain(reader: &mut ResponseReader, into: &mut Vec<Response>) {
    while let Some(r) = reader.next_response().expect("well-formed stream") {
        into.push(r);
    }
}

#[test]
fn pipelined_framing_survives_every_split() {
    let parts = [
        response(
            200,
            "Connection: keep-alive\r\nX-Pipefail-Epoch: 3\r\n",
            "{\"pipe\":1,\"score\":0.5,\"rank\":0}",
        ),
        response(404, "Connection: keep-alive\r\n", "{\"error\":\"no\"}"),
        response(200, "", ""),
        response(
            200,
            "Connection: close\r\nETag: \"e1\"\r\n",
            "{\"results\":[\r\n\r\n]}",
        ),
    ];
    let stream: Vec<u8> = parts.iter().flat_map(|(b, _)| b.clone()).collect();
    let expected: Vec<Response> = parts.iter().map(|(_, r)| r.clone()).collect();
    // Every single split point.
    for cut in 0..=stream.len() {
        let mut reader = ResponseReader::new();
        let mut got = Vec::new();
        reader.push(&stream[..cut]);
        drain(&mut reader, &mut got);
        reader.push(&stream[cut..]);
        drain(&mut reader, &mut got);
        assert_eq!(got, expected, "split at byte {cut}");
        assert_eq!(reader.pending(), 0);
    }
    // One byte at a time.
    let mut reader = ResponseReader::new();
    let mut got = Vec::new();
    for b in &stream {
        reader.push(std::slice::from_ref(b));
        drain(&mut reader, &mut got);
    }
    assert_eq!(got, expected);
}

#[test]
fn framing_rejects_garbage() {
    let mut r = ResponseReader::new();
    r.push(b"SMTP 220 hello\r\n\r\n");
    assert!(r.next_response().is_err());
    let mut r = ResponseReader::new();
    r.push(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n");
    assert!(
        r.next_response().is_err(),
        "a response without Content-Length cannot be framed"
    );
}

#[test]
fn digests_tell_every_single_byte_change() {
    let body: Vec<u8> = (0..203u32).map(|i| (i * 7 + 3) as u8).collect();
    let want = Digest::of(&body);
    assert_eq!(Digest::of(&body.clone()), want);
    for i in 0..body.len() {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut changed = body.clone();
            changed[i] ^= flip;
            assert_ne!(Digest::of(&changed), want, "byte {i} ^ {flip:#x}");
        }
    }
    // Lengths count, including a trailing zero the tail padding hides.
    assert_ne!(Digest::of(&body[..body.len() - 1]), want);
    assert_ne!(Digest::of(b"ab"), Digest::of(b"ab\0"));
    assert_ne!(Digest::of(b""), Digest::of(b"\0"));
}

#[test]
fn deadline_is_the_servers_request_timeout() {
    let timeout_s = pipefail_serve::ServerConfig::default().request_timeout_secs;
    assert_eq!(perfbench::client::DEADLINE_NS as f64, timeout_s * 1e9);
}

#[test]
fn host_speed_is_a_positive_ratio() {
    let speed = perfbench::speed::host_speed();
    assert!(speed.is_finite() && speed > 0.0, "host speed {speed}");
}

#[test]
fn percentiles_on_fixed_vectors() {
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 500.0);
    assert_eq!(percentile(&v, 99.0), 990.0);
    assert_eq!(percentile(&v, 99.9), 999.0);
    assert_eq!(percentile(&v, 100.0), 1000.0);
    assert_eq!(percentile(&v, 0.0), 1.0);
    assert_eq!(beyond(&v, 99.0), 10);
    assert_eq!(beyond(&v, 99.9), 1);
    assert_eq!(percentile(&[], 50.0), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    // Ties: everything at the cut is not "beyond" it.
    assert_eq!(beyond(&[1.0, 2.0, 2.0, 2.0], 50.0), 0);
}

#[test]
fn ess_summaries_on_fixed_vectors() {
    // Alternating values: lag-1 and lag-2 autocorrelations cancel, so the
    // sum stops at once and ESS is the sample count.
    let alternating: Vec<f64> = (0..200)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    // A slow ramp is almost perfectly autocorrelated.
    let ramp: Vec<f64> = (0..200).map(f64::from).collect();
    let ess = trace_ess(&[&alternating, &ramp]);
    assert_eq!(ess[0], 200.0);
    assert!(ess[1] < 10.0, "ramp ESS {}", ess[1]);
    assert_eq!(min_ess(&[&alternating, &ramp]), ess[1]);
    assert_eq!(ess_per_s(&[10.0, 20.0, 30.0], 12.0), 5.0);
}

#[test]
fn zipf_and_rng_behave() {
    let mut rng = Rng::new(1);
    let z = Zipf::new(50, 1.0);
    let mut counts = [0usize; 50];
    for _ in 0..20_000 {
        counts[z.sample(&mut rng)] += 1;
    }
    assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[49]);
    assert_eq!(Rng::stream(5, 1).next_u64(), Rng::stream(5, 1).next_u64());
    assert_ne!(Rng::stream(5, 1).next_u64(), Rng::stream(5, 2).next_u64());
    for _ in 0..1000 {
        let r = rng.range(10, 100);
        assert!((10..=100).contains(&r));
    }
}

#[test]
fn result_line_has_exactly_the_four_keys() {
    let mut r = Report {
        correct: true,
        attempted: 10,
        failed: 0,
        ..Report::default()
    };
    r.set("setup_s", 0.5);
    let line = r.json(END_TO_END);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {")
    );
    for (name, unit) in END_TO_END {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing"
        );
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
    }
    r.set("peak_rss_mb", f64::NAN);
    assert!(r.json(END_TO_END).starts_with("{\"correct\": false"));
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = |name: &str| {
        let start = text.find(&format!("\"{name}\"")).expect("section present");
        let end = text[start..].find(']').expect("section closes") + start;
        text[start..end].to_string()
    };
    for (list, key) in [(END_TO_END, "end_to_end"), (PER_LAYER, "per_layer")] {
        let sec = section(key);
        assert_eq!(
            sec.matches("\"name\"").count(),
            list.len(),
            "{key}: metric count"
        );
        for (name, unit) in list {
            assert!(
                sec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{key}: {name} [{unit}] missing"
            );
        }
    }
    let workloads = section("workloads");
    for name in ["lookup", "analytics", "federated", "fit"] {
        assert!(
            workloads.contains(&format!("\"name\": \"{name}\"")),
            "workload {name}"
        );
    }
}
