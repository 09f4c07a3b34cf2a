//! `prom::parse_matrix` against the tree-built parser it replaced.
//!
//! The matrix parser used to build a `json::Value` tree of the whole
//! body and drain it through `ObjReader`; it now reads the body in one
//! pass through `json::Reader`. The old route — the tokenizer and
//! `ObjReader` in `pema-trace`'s test support file, the matrix walk
//! below, all verbatim from the commit that last shipped them — is the
//! oracle: over byte-mutated copies of what `FakeCluster` itself
//! answers, the new parser never panics and returns either `Malformed`
//! where the old one failed, or the very series the old one returned.

#[path = "../../pema-trace/tests/support/parent_reader.rs"]
mod parent_reader;

use parent_reader::{parse, read_string, ObjReader};
use pema_live::http::Response;
use pema_live::prom::{parse_matrix, PromClient, PromError, Series};
use pema_live::{FakeCluster, HttpClient};
use pema_telemetry::json::Value;
use pema_trace::prom as queries;
use proptest::prelude::*;
use std::sync::OnceLock;

// ---- the reference: `parse_matrix_body` and `parse_sample` as they were ----

fn parse_matrix_body(body: &str) -> Result<Vec<Series>, String> {
    let root = parse(body)?;
    let mut top = ObjReader::new(root)?;
    let status = read_string(&top.take("status")?)?;
    if status != "success" {
        return Err(format!("status \"{status}\""));
    }
    let mut data = ObjReader::new(top.take("data")?)?;
    let rt = read_string(&data.take("resultType")?)?;
    if rt != "matrix" {
        return Err(format!("resultType \"{rt}\" (want matrix)"));
    }
    let result = data.take("result")?;
    let result = result
        .as_array()
        .ok_or_else(|| "result is not an array".to_string())?;
    let mut out = Vec::with_capacity(result.len());
    for series in result {
        let mut s = ObjReader::new(series.clone())?;
        let container = match s.take_opt("metric") {
            Some(metric) => {
                let mut m = ObjReader::new(metric)?;
                m.take_opt("container")
                    .map(|v| read_string(&v))
                    .transpose()?
                    .unwrap_or_default()
            }
            None => String::new(),
        };
        let values = s.take("values")?;
        let values = values
            .as_array()
            .ok_or_else(|| "values is not an array".to_string())?;
        let mut sum = 0.0;
        let mut n = 0usize;
        for pair in values {
            let pair = pair
                .as_array()
                .ok_or_else(|| "sample is not a [ts, value] pair".to_string())?;
            if pair.len() != 2 {
                return Err("sample is not a [ts, value] pair".to_string());
            }
            sum += parse_sample(&pair[1])?;
            n += 1;
        }
        if n == 0 {
            continue; // series present but empty: treat as absent
        }
        out.push(Series {
            container,
            value: sum / n as f64,
        });
    }
    Ok(out)
}

fn parse_sample(v: &Value) -> Result<f64, String> {
    let s = v
        .as_str()
        .ok_or_else(|| format!("sample value is {}, want string", v.kind()))?;
    s.parse::<f64>()
        .map_err(|_| format!("bad sample value \"{s}\""))
}

// ---- the bodies ----

/// What `FakeCluster` answers to the six queries the live backend
/// makes, from a cluster with headroom and from a saturated one (whose
/// latency series read `+Inf`).
fn fake_cluster_bodies() -> &'static [String] {
    static BODIES: OnceLock<Vec<String>> = OnceLock::new();
    BODIES.get_or_init(|| {
        let app = pema_apps::sockshop();
        let http = HttpClient::default();
        let mut bodies = Vec::new();
        for rps in [700.0, 1e6] {
            let cluster = FakeCluster::start(&app, rps);
            for query in [
                queries::cpu_limit_query("default"),
                queries::cpu_usage_query("default", 8.0),
                queries::cpu_throttled_query("default", 8.0),
                queries::p95_query("default", 8.0),
                queries::mean_latency_query("default", 8.0),
                queries::request_rate_query("default", 8.0),
            ] {
                let path = PromClient::range_path(&query, 0.0, 8.0, 2.0);
                let resp = http
                    .request(&cluster.endpoint(), "GET", &path, &[], None)
                    .expect("the fake cluster answers");
                assert!(resp.is_success(), "{query}: HTTP {}", resp.status);
                bodies.push(resp.body);
            }
        }
        assert!(bodies.iter().any(|b| b.contains("+Inf")));
        bodies
    })
}

/// splitmix64, seeded per case.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// `body` with up to `hits` bytes overwritten, dropped or inserted,
/// drawn from the bytes JSON and a sample value give a meaning to.
fn mutated(body: &str, hits: usize, rng: &mut Rng) -> String {
    const BYTES: &[u8] = b"{}[]\",:\\/unrtfalse0123456789+-.eEINa \t\n\x01";
    let mut bytes = body.as_bytes().to_vec();
    for _ in 0..hits {
        let at = rng.below(bytes.len() + 1);
        let byte = BYTES[rng.below(BYTES.len())];
        match rng.below(3) {
            0 if at < bytes.len() => bytes[at] = byte,
            1 if at < bytes.len() => drop(bytes.remove(at)),
            _ => bytes.insert(at, byte),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn same_series(new: &[Series], old: &[Series]) -> bool {
    new.len() == old.len()
        && new
            .iter()
            .zip(old)
            .all(|(a, b)| a.container == b.container && a.value.to_bits() == b.value.to_bits())
}

#[test]
fn the_unmutated_bodies_parse_to_the_reference_series() {
    for body in fake_cluster_bodies() {
        let new = parse_matrix(&Response {
            status: 200,
            body: body.clone(),
        })
        .unwrap();
        assert!(!new.is_empty(), "{body}");
        assert!(
            same_series(&new, &parse_matrix_body(body).unwrap()),
            "{body}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn mutated_bodies_are_malformed_or_the_reference_series(
        which in 0usize..12,
        hits in 1usize..4,
        seed in 0u64..=u64::MAX,
    ) {
        let body = mutated(&fake_cluster_bodies()[which], hits, &mut Rng(seed));
        let new = parse_matrix(&Response { status: 200, body: body.clone() });
        match (&new, parse_matrix_body(&body)) {
            (Ok(new), Ok(old)) => prop_assert!(same_series(new, &old), "{body}: {new:?} vs {old:?}"),
            (Err(PromError::Malformed(_)), Err(_)) => {}
            (new, old) => prop_assert!(false, "{body}: parser {new:?}, reference {old:?}"),
        }
    }
}
