//! A Prometheus `query_range` client over the minimal HTTP layer.
//!
//! One call = one `GET /api/v1/query_range` = one matrix result. The
//! live backend reduces each matrix to either a scalar (application
//! latency/throughput queries) or a per-`container` map (the three CPU
//! series of [`pema_trace::prom`]), averaging sample values over the
//! requested window.

use crate::http::{urlencode, Endpoint, HttpClient, HttpError, Response};
use pema_telemetry::json::Reader;

/// One series of a matrix response: the `container` label (empty when
/// absent) and the window-averaged sample value.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Value of the `container` label, or `""` for aggregate queries.
    pub container: String,
    /// Mean of the returned sample values over the window.
    pub value: f64,
}

/// Why a query produced no usable data. Separated from transport
/// errors so the retry policy can treat them differently (a malformed
/// body is retryable — a flaky proxy — but a `success` response with an
/// empty matrix is what it is).
#[derive(Debug, Clone, PartialEq)]
pub enum PromError {
    /// Transport-level failure.
    Http(HttpError),
    /// Well-formed HTTP, non-2xx status.
    Status(u16),
    /// 2xx body that does not parse as a Prometheus matrix response.
    Malformed(String),
}

impl std::fmt::Display for PromError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PromError::Http(e) => write!(f, "{e}"),
            PromError::Status(code) => write!(f, "prometheus returned HTTP {code}"),
            PromError::Malformed(e) => write!(f, "unparseable prometheus response: {e}"),
        }
    }
}

/// Client for one Prometheus server.
#[derive(Debug, Clone)]
pub struct PromClient {
    /// The Prometheus HTTP endpoint.
    pub endpoint: Endpoint,
    /// Transport with connect/read timeouts.
    pub http: HttpClient,
}

impl PromClient {
    /// Builds the `query_range` path for `query` over
    /// `[start_s, end_s]` with one sample per `step_s`.
    pub fn range_path(query: &str, start_s: f64, end_s: f64, step_s: f64) -> String {
        format!(
            "/api/v1/query_range?query={}&start={start_s}&end={end_s}&step={step_s}",
            urlencode(query)
        )
    }

    /// Runs one range query and reduces the matrix to per-series
    /// window means.
    pub fn query_range(
        &self,
        query: &str,
        start_s: f64,
        end_s: f64,
        step_s: f64,
    ) -> Result<Vec<Series>, PromError> {
        let path = Self::range_path(query, start_s, end_s, step_s);
        let resp = self
            .http
            .request(&self.endpoint, "GET", &path, &[], None)
            .map_err(PromError::Http)?;
        parse_matrix(&resp)
    }
}

/// Parses a Prometheus matrix response body into window-mean series.
pub fn parse_matrix(resp: &Response) -> Result<Vec<Series>, PromError> {
    if !resp.is_success() {
        return Err(PromError::Status(resp.status));
    }
    parse_matrix_body(&resp.body).map_err(PromError::Malformed)
}

// The body is read in one pass with no tree built. Keys may come in
// any order, and a key met a second time is skipped like any other key
// nobody asked for (the first wins); whatever is skipped is still
// syntax-checked, so a body is `Malformed` exactly when it is not JSON,
// nests deeper than `Reader::MAX_DEPTH`, or is not a successful matrix
// response.
fn parse_matrix_body(body: &str) -> Result<Vec<Series>, String> {
    let mut r = Reader::new(body);
    let (mut succeeded, mut series) = (false, None);
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "status" if !succeeded => {
                let status = r.string()?;
                if status != "success" {
                    return Err(format!("status \"{status}\""));
                }
                succeeded = true;
            }
            "data" if series.is_none() => series = Some(parse_data(&mut r)?),
            _ => r.skip_value()?,
        }
    }
    r.end()?;
    if !succeeded {
        return Err(missing("status"));
    }
    series.ok_or_else(|| missing("data"))
}

fn missing(key: &str) -> String {
    format!("missing required key \"{key}\"")
}

fn parse_data(r: &mut Reader<'_>) -> Result<Vec<Series>, String> {
    let (mut is_matrix, mut series) = (false, None);
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "resultType" if !is_matrix => {
                let rt = r.string()?;
                if rt != "matrix" {
                    return Err(format!("resultType \"{rt}\" (want matrix)"));
                }
                is_matrix = true;
            }
            "result" if series.is_none() => {
                let mut out = Vec::new();
                r.begin_array()?;
                while r.next_element()? {
                    out.extend(parse_series(r)?);
                }
                series = Some(out);
            }
            _ => r.skip_value()?,
        }
    }
    if !is_matrix {
        return Err(missing("resultType"));
    }
    series.ok_or_else(|| missing("result"))
}

/// One element of `result`; `None` for a series that is present but
/// has no samples, which is treated as absent.
fn parse_series(r: &mut Reader<'_>) -> Result<Option<Series>, String> {
    let (mut container, mut samples) = (None, None);
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "metric" if container.is_none() => container = Some(parse_container(r)?),
            "values" if samples.is_none() => samples = Some(sum_samples(r)?),
            _ => r.skip_value()?,
        }
    }
    let (sum, n) = samples.ok_or_else(|| missing("values"))?;
    Ok((n > 0).then(|| Series {
        container: container.unwrap_or_default(),
        value: sum / n as f64,
    }))
}

/// The `container` label of a `metric` object, `""` when it has none.
fn parse_container(r: &mut Reader<'_>) -> Result<String, String> {
    let mut container = None;
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "container" if container.is_none() => container = Some(r.string()?.into_owned()),
            _ => r.skip_value()?,
        }
    }
    Ok(container.unwrap_or_default())
}

/// Sum and count of a `values` array of `[timestamp, "value"]` pairs.
/// The timestamps are skipped unparsed.
fn sum_samples(r: &mut Reader<'_>) -> Result<(f64, usize), String> {
    const NOT_A_PAIR: &str = "sample is not a [ts, value] pair";
    let (mut sum, mut n) = (0.0, 0);
    r.begin_array()?;
    while r.next_element()? {
        r.begin_array().map_err(|_| NOT_A_PAIR)?;
        if !r.next_element()? {
            return Err(NOT_A_PAIR.to_string());
        }
        r.skip_value()?;
        if !r.next_element()? {
            return Err(NOT_A_PAIR.to_string());
        }
        // A decimal string, `"+Inf"`, `"-Inf"` or `"NaN"`, all of which
        // Rust's `f64::from_str` accepts.
        let s = r.string().map_err(|e| format!("sample value: {e}"))?;
        sum += s
            .parse::<f64>()
            .map_err(|_| format!("bad sample value \"{s}\""))?;
        n += 1;
        if r.next_element()? {
            return Err(NOT_A_PAIR.to_string());
        }
    }
    Ok((sum, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(body: &str) -> Response {
        Response {
            status: 200,
            body: body.to_string(),
        }
    }

    #[test]
    fn parses_matrix_with_container_labels_and_means() {
        let body = r#"{"status":"success","data":{"resultType":"matrix","result":[
            {"metric":{"container":"fe"},"values":[[0,"1.0"],[1,"3.0"]]},
            {"metric":{"container":"db"},"values":[[0,"+Inf"]]}
        ]}}"#;
        let series = parse_matrix(&ok(body)).unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(
            series[0],
            Series {
                container: "fe".into(),
                value: 2.0
            }
        );
        assert_eq!(series[1].container, "db");
        assert!(series[1].value.is_infinite());
    }

    #[test]
    fn aggregate_series_have_empty_container() {
        let body = r#"{"status":"success","data":{"resultType":"matrix","result":[
            {"metric":{},"values":[[0,"0.125"]]}
        ]}}"#;
        let series = parse_matrix(&ok(body)).unwrap();
        assert_eq!(series[0].container, "");
        assert_eq!(series[0].value, 0.125);
    }

    #[test]
    fn rejects_errors_statuses_and_garbage() {
        assert_eq!(
            parse_matrix(&Response {
                status: 500,
                body: String::new()
            }),
            Err(PromError::Status(500))
        );
        assert!(matches!(
            parse_matrix(&ok("it's not even json")),
            Err(PromError::Malformed(_))
        ));
        assert!(matches!(
            parse_matrix(&ok(
                r#"{"status":"error","data":{"resultType":"matrix","result":[]}}"#
            )),
            Err(PromError::Malformed(_))
        ));
        assert!(matches!(
            parse_matrix(&ok(
                r#"{"status":"success","data":{"resultType":"vector","result":[]}}"#
            )),
            Err(PromError::Malformed(_))
        ));
    }

    #[test]
    fn keys_come_in_any_order_and_the_first_of_a_repeat_wins() {
        let body = r#"{"warnings":["x",{"y":[1,2]}],
            "data":{"result":[
                {"values":[[0,"1.5"],[1.5e0,"2.5"]],"extra":null,"metric":{"pod":"p","container":"fe","container":"ignored"},
                 "values":[[0,"100"]],"metric":{"container":"ignored too"}},
                {"values":[],"metric":{"container":"empty series are dropped"}}
            ],"result":"ignored","resultType":"matrix","resultType":"vector"},
            "status":"success","status":"error","data":7}"#;
        assert_eq!(
            parse_matrix(&ok(body)).unwrap(),
            [Series {
                container: "fe".into(),
                value: 2.0
            }]
        );
    }

    #[test]
    fn what_is_not_a_successful_matrix_is_malformed() {
        for bad in [
            // not a response
            r#"[]"#,
            r#"{"status":"success"}"#,
            r#"{"data":{"resultType":"matrix","result":[]}}"#,
            r#"{"status":"success","data":{"resultType":"matrix"}}"#,
            r#"{"status":"success","data":{"result":[]}}"#,
            r#"{"status":"success","data":{"resultType":"matrix","result":{}}}"#,
            r#"{"status":7,"data":{"resultType":"matrix","result":[]}}"#,
            // not a series
            r#"{"status":"success","data":{"resultType":"matrix","result":[7]}}"#,
            r#"{"status":"success","data":{"resultType":"matrix","result":[{"metric":{}}]}}"#,
            r#"{"status":"success","data":{"resultType":"matrix","result":[{"metric":7,"values":[]}]}}"#,
            r#"{"status":"success","data":{"resultType":"matrix","result":[{"metric":{"container":7},"values":[]}]}}"#,
            // not a sample
            r#"{"status":"success","data":{"resultType":"matrix","result":[{"values":[7]}]}}"#,
            r#"{"status":"success","data":{"resultType":"matrix","result":[{"values":[[0]]}]}}"#,
            r#"{"status":"success","data":{"resultType":"matrix","result":[{"values":[[0,"1",2]]}]}}"#,
            r#"{"status":"success","data":{"resultType":"matrix","result":[{"values":[[0,1]]}]}}"#,
            r#"{"status":"success","data":{"resultType":"matrix","result":[{"values":[[0,"one"]]}]}}"#,
            // not JSON, in a part nobody reads
            r#"{"status":"success","data":{"resultType":"matrix","result":[]},"warnings":[1,]}"#,
            r#"{"status":"success","data":{"resultType":"matrix","result":[{"values":[[0x,"1"]]}]}}"#,
            r#"{"status":"success","data":{"resultType":"matrix","result":[]}} trailing"#,
        ] {
            let got = parse_matrix(&ok(bad));
            assert!(
                matches!(got, Err(PromError::Malformed(_))),
                "{bad}: {got:?}"
            );
        }
    }

    /// A body is whatever the far end sent. One that nests deeper than
    /// the reader follows is `Malformed` (and so retried) like any
    /// other garbage; it used to overflow the stack of the thread that
    /// parsed it.
    #[test]
    fn hostile_nesting_is_malformed_not_a_stack_overflow() {
        let limit = pema_telemetry::json::Reader::MAX_DEPTH;
        let response = |warnings: &str| {
            format!(
                r#"{{"status":"success","warnings":{warnings},"data":{{"resultType":"matrix","result":[]}}}}"#
            )
        };
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        // The response object itself is one level.
        assert_eq!(parse_matrix(&ok(&response(&nested(limit - 1)))), Ok(vec![]));
        for hostile in [
            response(&nested(limit)),
            response(&"[".repeat(1 << 20)),
            "[".repeat(1 << 20),
            "{\"a\":".repeat(1 << 20),
        ] {
            match parse_matrix(&ok(&hostile)) {
                Err(PromError::Malformed(e)) if hostile.starts_with('{') => {
                    assert!(e.contains("nesting deeper than 128 levels"), "{e}")
                }
                Err(PromError::Malformed(_)) => {}
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn range_path_encodes_the_query() {
        let p = PromClient::range_path("sum(rate(x[8s]))", 0.0, 8.0, 1.0);
        assert!(p.starts_with("/api/v1/query_range?query=sum%28rate%28x%5B8s%5D%29%29"));
        assert!(p.ends_with("&start=0&end=8&step=1"));
    }
}
